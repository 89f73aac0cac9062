package pipeline

import (
	"fmt"

	"github.com/noreba-sim/noreba/internal/emulator"
	"github.com/noreba-sim/noreba/internal/isa"
)

// instRecord is the window's per-dynamic-instruction state: the instruction
// itself, its branch-dependence decode, and the retirement/fetch bookkeeping
// the core used to keep in five parallel trace-length slices. Consolidating
// the flags here bounds their footprint by the window size and keeps every
// per-instruction fact in one cache line.
type instRecord struct {
	d   emulator.DynInst
	dep DepInfo

	// The instruction's decode, computed once at load: fetch and dispatch
	// read it instead of re-running the isa switches on every (re)fetch.
	decoded

	committed bool
	fetched   bool
	// Branch-prediction bookkeeping: each dynamic branch is predicted and
	// trained exactly once (its first fetch); a re-fetch after its own
	// recovery is correctly predicted (the predictor was fixed at resolve),
	// while re-fetches of squashed window branches reuse the original
	// prediction.
	predicted bool
	predMisp  bool
	recovered bool
}

// opDecode is the part of a record's decode that depends on the opcode
// alone, tabulated once per opcode so loading a record costs one table
// lookup instead of a run of isa switches.
type opDecode struct {
	decoded            // decHasDest here means "writes rd when rd is not X0"
	readsRs1, readsRs2 bool
}

var opDecodes = func() (t [256]opDecode) {
	for i := range t {
		op := isa.Op(i)
		probe := isa.Inst{Op: op, Rd: 1, Rs1: 1, Rs2: 2}
		var f decFlags
		for _, b := range []struct {
			on bool
			f  decFlags
		}{
			{op.IsCondBranch(), decCondBranch}, {op == isa.OpJalr, decJalr}, {op.IsMem(), decMem},
			{op.IsFence(), decFence}, {probe.HasDest(), decHasDest}, {op.IsSetup(), decSetup},
		} {
			if b.on {
				f |= b.f
			}
		}
		r1, r2 := probe.SourceRegs()
		t[i] = opDecode{decoded: decoded{class: classOf(op), flags: f}, readsRs1: r1 == probe.Rs1, readsRs2: r2 == probe.Rs2}
	}
	return t
}()

// decode caches the record's instruction decode.
func (r *instRecord) decode() {
	in := &r.d.Inst
	r.decoded = opDecodes[in.Op].decoded
	if in.Rd == isa.X0 {
		r.flags &^= decHasDest
	} else if in.Rd == isa.RA && in.Op == isa.OpJal {
		r.flags |= decCall
	}
}

// sources returns the record's source registers, X0 standing in for "no
// operand".
func (r *instRecord) sources() (isa.Reg, isa.Reg) {
	t := &opDecodes[r.d.Inst.Op]
	s1, s2 := isa.X0, isa.X0
	if t.readsRs1 {
		s1 = r.d.Inst.Rs1
	}
	if t.readsRs2 {
		s2 = r.d.Inst.Rs2
	}
	return s1, s2
}

// Window records are stored in fixed-size chunks so a record's address never
// changes for as long as it is resident: the chunk directory slides and
// recycles whole chunks, but a chunk's storage never moves. Entries and the
// pipeline stages therefore hold *instRecord pointers across cycles instead
// of copying ~100-byte records through every stage hop.
const (
	chunkShift = 8
	chunkSize  = 1 << chunkShift // records per chunk
	chunkMask  = chunkSize - 1
)

type recChunk [chunkSize]instRecord

// window is a bounded sliding view over a TraceSource. Live records are the
// trace indices [base, end); the core addresses records by trace index and
// the window pulls from the source on demand. release() drops records below
// the commit frontier, so peak memory tracks the in-flight span (ROB +
// misprediction windows), not the trace length.
//
// Storage is a sliding directory of stable chunks: chunks[chead+i] holds
// trace indices [(chunkBase+i)<<chunkShift, ...). Chunks fully below the
// release bound return to a free list and are reused at the loading edge, so
// the steady state streams the whole trace through a high-water-sized set of
// chunks with no per-record motion — a resident record's address is stable
// from load to release.
type window struct {
	src     emulator.TraceSource
	refSrc  emulator.RefSource  // src when it supports zero-copy delivery, else nil
	intoSrc emulator.IntoSource // src when it can produce straight into the arena, else nil
	deps    *depTracker

	chunks    []*recChunk // directory; live span is chunks[chead : chead+cn]
	chead, cn int
	chunkBase int // chunk index of chunks[chead]
	free      []*recChunk

	base int // lowest resident trace index
	end  int // one past the highest loaded trace index
	eof  bool

	// The retirement frontiers, kept at their fixpoint at every event that
	// can move them (see commit and fill) instead of re-walked when read.
	// frontier is the smallest uncommitted trace index, memFrontier the
	// smallest uncommitted memory-or-fence trace index; both stop at the
	// loaded end, which is uncommitted by definition, and no in-flight
	// entry lies beyond it, so stopping there never changes an eligibility
	// comparison.
	frontier    int
	memFrontier int

	peak int // high-water mark of live records
}

// reset returns an empty window over src, reusing w's chunks and BIT
// storage; a nil w allocates. Every chunk returns to the free
// list: fill initialises each record it loads in full, so a recycled chunk
// is indistinguishable from a new one.
func (w *window) reset(src emulator.TraceSource, bitSize int) *window {
	if w == nil {
		w = &window{}
	}
	for i := 0; i < w.cn; i++ {
		w.free = append(w.free, w.chunks[w.chead+i])
		w.chunks[w.chead+i] = nil
	}
	*w = window{src: src, deps: w.deps.reset(bitSize), chunks: w.chunks, free: w.free}
	w.refSrc, _ = src.(emulator.RefSource)
	w.intoSrc, _ = src.(emulator.IntoSource)
	return w
}

// detach drops the window's source so a parked window pins no stream.
func (w *window) detach() { w.src, w.refSrc, w.intoSrc = nil, nil, nil }

// ensure pulls from the source until trace index idx is loaded, returning
// false if the stream ends first. idx below the window base is a modelling
// bug: the core released a record it still needed.
func (w *window) ensure(idx int) bool {
	if idx < w.end {
		if idx < w.base {
			panic(fmt.Sprintf("pipeline: window access at %d below base %d", idx, w.base))
		}
		return true
	}
	if w.eof {
		return false
	}
	return w.fill(idx)
}

// fill loads records through idx, batching the per-record work by chunk:
// the chunk pointer and slot range are resolved once per chunk crossing
// instead of once per record, and each slot is initialised in place — the
// record's only copy — with its flags cleared field-by-field so the freshly
// written instruction is not re-zeroed.
func (w *window) fill(idx int) bool {
	for idx >= w.end {
		ci := w.end >> chunkShift
		if ci-w.chunkBase >= w.cn {
			w.pushChunk()
		}
		ch := w.chunks[w.chead+ci-w.chunkBase]
		lo := w.end & chunkMask
		hi := lo + (idx + 1 - w.end) // records still needed
		if hi > chunkSize {
			hi = chunkSize
		}
		for s := lo; s < hi; s++ {
			r := &ch[s]
			if w.intoSrc != nil {
				// The source writes the record straight into its arena
				// slot: the live emulator path has zero DynInst copies.
				if !w.intoSrc.NextInto(&r.d) {
					w.eof = true
					return false
				}
			} else if w.refSrc != nil {
				d, ok := w.refSrc.NextRef()
				if !ok {
					w.eof = true
					return false
				}
				r.d = *d
			} else {
				d, ok := w.src.Next()
				if !ok {
					w.eof = true
					return false
				}
				r.d = d
			}
			r.dep = w.deps.next(&r.d)
			r.decode()
			r.committed = false
			r.fetched = false
			r.predicted = false
			r.predMisp = false
			r.recovered = false
			// A memory frontier parked at the loaded end moves past each
			// newly loaded non-memory record; the commit frontier stays put
			// (the new record is uncommitted).
			if w.memFrontier == w.end && !r.isMem() && !r.isFence() {
				w.memFrontier++
			}
			w.end++
		}
	}
	if n := w.end - w.base; n > w.peak {
		w.peak = n
	}
	return true
}

// pushChunk extends the directory by one chunk at the loading edge, reusing
// a released chunk when one is free. The directory's backing array is
// compacted in place (a handful of pointer moves) once the dead prefix
// dominates, so the steady state allocates nothing.
func (w *window) pushChunk() {
	var ch *recChunk
	if n := len(w.free); n > 0 {
		ch = w.free[n-1]
		w.free[n-1] = nil
		w.free = w.free[:n-1]
	} else {
		ch = new(recChunk)
	}
	if w.chead+w.cn == len(w.chunks) {
		if w.chead > w.cn {
			copy(w.chunks, w.chunks[w.chead:w.chead+w.cn])
			for i := w.cn; i < w.chead+w.cn; i++ {
				w.chunks[i] = nil
			}
			w.chead = 0
		} else {
			w.chunks = append(w.chunks, nil)
			w.chunks = w.chunks[:cap(w.chunks)]
		}
	}
	w.chunks[w.chead+w.cn] = ch
	w.cn++
}

// loadedEnd is one past the highest loaded trace index.
func (w *window) loadedEnd() int { return w.end }

// baseIdx is the lowest still-resident trace index; everything below it has
// been released. The sanitizer checks it against the release-safety bound.
func (w *window) baseIdx() int { return w.base }

// rec returns the record for trace index idx, which must be loaded and not
// yet released. The pointer is stable for as long as the record is resident:
// it is invalidated only by a release call whose bound passes idx.
func (w *window) rec(idx int) *instRecord {
	if idx < w.base || idx >= w.end {
		panic(fmt.Sprintf("pipeline: window access at %d outside [%d,%d)", idx, w.base, w.end))
	}
	return &w.chunks[w.chead+(idx>>chunkShift)-w.chunkBase][idx&chunkMask]
}

// commit marks the loaded record r at trace index idx committed and moves
// each frontier that sat on it to the next record that still blocks it.
func (w *window) commit(r *instRecord, idx int) {
	r.committed = true
	if idx == w.frontier {
		w.frontier = w.advanceCommitted(idx + 1)
	}
	if idx == w.memFrontier {
		w.memFrontier = w.advanceMemFrontier(idx + 1)
	}
}

// advanceCommitted returns the first loaded index at or after idx whose
// record is not yet committed (or the loaded end). The walk resolves the
// chunk directory once per chunk crossing instead of once per record.
func (w *window) advanceCommitted(idx int) int {
	for idx < w.end {
		ch := w.chunks[w.chead+(idx>>chunkShift)-w.chunkBase]
		hi := (idx | chunkMask) + 1
		if hi > w.end {
			hi = w.end
		}
		for ; idx < hi; idx++ {
			if !ch[idx&chunkMask].committed {
				return idx
			}
		}
	}
	return idx
}

// advanceMemFrontier returns the first loaded index at or after idx holding
// an uncommitted memory or fence operation (or the loaded end), with the
// same chunk-wise walk as advanceCommitted.
func (w *window) advanceMemFrontier(idx int) int {
	for idx < w.end {
		ch := w.chunks[w.chead+(idx>>chunkShift)-w.chunkBase]
		hi := (idx | chunkMask) + 1
		if hi > w.end {
			hi = w.end
		}
		for ; idx < hi; idx++ {
			r := &ch[idx&chunkMask]
			if (r.isMem() || r.isFence()) && !r.committed {
				return idx
			}
		}
	}
	return idx
}

// isCommitted reports the committed flag for any trace index: released
// records are committed by construction, unloaded ones are not.
func (w *window) isCommitted(idx int) bool {
	if idx < w.base {
		return true
	}
	if idx >= w.end {
		return false
	}
	return w.chunks[w.chead+(idx>>chunkShift)-w.chunkBase][idx&chunkMask].committed
}

// isFetched reports the fetched flag for any trace index, with the same
// convention: released records were fetched (or setup-skipped), unloaded
// ones were not.
func (w *window) isFetched(idx int) bool {
	if idx < w.base {
		return true
	}
	if idx >= w.end {
		return false
	}
	return w.chunks[w.chead+(idx>>chunkShift)-w.chunkBase][idx&chunkMask].fetched
}

// release drops records below trace index bound; the core may never address
// them again, and pointers obtained via rec for indices below the bound are
// dead (their chunks are recycled at the loading edge).
func (w *window) release(bound int) {
	if bound <= w.base {
		return
	}
	if bound > w.end {
		bound = w.end
	}
	w.base = bound
	for nb := bound >> chunkShift; w.chunkBase < nb; w.chunkBase++ {
		w.free = append(w.free, w.chunks[w.chead])
		w.chunks[w.chead] = nil
		w.chead++
		w.cn--
	}
}

func (w *window) srcErr() error           { return w.src.Err() }
func (w *window) counts() emulator.Counts { return w.src.Counts() }
