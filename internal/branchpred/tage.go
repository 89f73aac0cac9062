// Package branchpred implements the branch direction predictors used by the
// NOREBA evaluation: a TAGE-SC-L-style predictor (TAGE with geometric
// history lengths, a lightweight statistical corrector and a loop
// predictor), a simple bimodal predictor for comparison, and a
// return-address stack for indirect jump (jalr) targets.
package branchpred

// Predictor predicts conditional branch directions. Update must be called
// for every dynamic conditional branch in program order with the actual
// outcome; it also advances internal history.
type Predictor interface {
	Predict(pc int) bool
	Update(pc int, taken bool)
}

const (
	numTagged  = 6
	taggedBits = 9 // 512 entries per tagged table
	tagBits    = 9
	baseBits   = 12  // 4096-entry bimodal base
	maxHist    = 128 // packed global-history capacity; >= max(histLens)
)

var histLens = [numTagged]int{4, 8, 16, 32, 64, 128}

type taggedEntry struct {
	tag    uint32
	ctr    int8  // 3-bit signed counter: -4..3, taken when >= 0
	useful uint8 // 2-bit usefulness
}

// TAGE is a tagged-geometric-history-length predictor in the style of
// TAGE-SC-L (the paper's Table 2 predictor), with a loop predictor and a
// per-branch statistical-corrector bias table layered on top.
type TAGE struct {
	base   []int8 // bimodal 2-bit counters: -2..1, taken when >= 0
	tables [numTagged][]taggedEntry

	// Global branch history, packed: bit a of the 128-bit value hist[1]:hist[0]
	// is the outcome of the conditional branch retired a shifts ago (bit 0 of
	// hist[0] is the newest). The folded per-table indices and tags are kept
	// in final form — each equals foldHistory of its (length, width) pair —
	// and are updated in O(1) per history shift by shiftFolds, so index and
	// tag lookups read them directly. Clone's struct copy keeps them
	// consistent with hist.
	hist     [2]uint64
	foldIdx  [numTagged]uint32 // foldHistory(histLens[i], taggedBits)
	foldTagA [numTagged]uint32 // foldHistory(histLens[i], tagBits)
	foldTagB [numTagged]uint32 // foldHistory(histLens[i], tagBits-1)

	useAlt int8 // 4-bit counter choosing alt prediction on weak providers

	loop *loopPredictor
	sc   []int8 // statistical-corrector bias counters: -16..15

	tick uint32 // periodic usefulness reset

	// prediction bookkeeping between Predict and Update
	lastPC       int
	provider     int // table index+1; 0 = base
	providerIdx  uint32
	altPred      bool
	providerPred bool
	providerWeak bool
	finalPred    bool
	tagePred     bool
	loopValid    bool
	loopPred     bool
	scUsed       bool
}

// NewTAGE returns a TAGE-SC-L-style predictor sized for an ~8KB budget.
func NewTAGE() *TAGE {
	t := &TAGE{
		base: make([]int8, 1<<baseBits),
		loop: newLoopPredictor(),
		sc:   make([]int8, 1<<10),
	}
	for i := range t.tables {
		t.tables[i] = make([]taggedEntry, 1<<taggedBits)
	}
	return t
}

// foldSpec holds one fold's constants for the O(1) shift update, derived
// from its history length n and width w with rem = n mod w:
//
//   - rotate the fold right by one within w (a full chunk's bit at age a sits
//     at position w-1-(a mod w), so aging every bit by one moves it right);
//   - XOR out the outgoing bit, age n-1, which the rotation wrapped to w-1;
//   - n >= w: XOR the incoming bit in at w-1, and when rem > 0 move the bit
//     at (pre-shift) age n-rem-1 — the one crossing from the last full
//     chunk into the partial chunk, which sits newest-at-MSB in its own rem
//     bits — from position w-1 to rem-1;
//   - n < w: the whole history is one partial chunk; XOR the incoming bit in
//     at n-1.
type foldSpec struct {
	top       uint32 // w-1: rotation wrap and outgoing position
	mask      uint32 // 1<<w - 1
	inShift   uint32 // position the incoming bit lands at
	outAge    uint32 // n-1
	crossAge  uint32 // n-rem-1 (any valid age when crossMask is 0)
	crossMask uint32 // 1<<(w-1) | 1<<(rem-1) for a crossing, else 0
}

func newFoldSpec(n, w int) foldSpec {
	s := foldSpec{top: uint32(w - 1), mask: 1<<w - 1, inShift: uint32(w - 1), outAge: uint32(n - 1)}
	rem := n % w
	switch {
	case n < w:
		s.inShift = uint32(n - 1)
	case rem > 0:
		s.crossAge = uint32(n - rem - 1)
		s.crossMask = 1<<(w-1) | 1<<(rem-1)
	}
	return s
}

// foldSpecs holds each table's index, tag-A and tag-B fold constants.
var foldSpecs = func() (s [numTagged][3]foldSpec) {
	for i, n := range histLens {
		s[i] = [3]foldSpec{newFoldSpec(n, taggedBits), newFoldSpec(n, tagBits), newFoldSpec(n, tagBits-1)}
	}
	return s
}()

// histBit returns the history bit at age a (pre-shift), 0 <= a < maxHist.
func (t *TAGE) histBit(a uint32) uint32 {
	return uint32(t.hist[a>>6&1]>>(a&63)) & 1
}

// shift returns fold f after one history shift: in is the incoming
// outcome, out and cross the pre-shift bits at outAge and crossAge.
func (s *foldSpec) shift(f, in, out, cross uint32) uint32 {
	f = (f>>1 | f<<s.top) & s.mask
	return f ^ out<<s.top ^ in<<s.inShift ^ cross*s.crossMask
}

// shiftFolds advances every fold by one history position. Must be called
// immediately before the history shift that records taken: the outgoing and
// crossing bits are read from the pre-shift history.
func (t *TAGE) shiftFolds(taken bool) {
	var in uint32
	if taken {
		in = 1
	}
	for i := range foldSpecs {
		sp := &foldSpecs[i]
		out := t.histBit(sp[0].outAge) // n-1 is shared by the table's three folds
		t.foldIdx[i] = sp[0].shift(t.foldIdx[i], in, out, t.histBit(sp[0].crossAge))
		if tagBits == taggedBits {
			t.foldTagA[i] = t.foldIdx[i] // same (length, width) pair, same fold
		} else {
			t.foldTagA[i] = sp[1].shift(t.foldTagA[i], in, out, t.histBit(sp[1].crossAge))
		}
		t.foldTagB[i] = sp[2].shift(t.foldTagB[i], in, out, t.histBit(sp[2].crossAge))
	}
}

func (t *TAGE) index(pc, table int) uint32 {
	return (uint32(pc) ^ uint32(pc)>>taggedBits ^ t.foldIdx[table] ^ uint32(table)*0x9e37) & (1<<taggedBits - 1)
}

func (t *TAGE) tag(pc, table int) uint32 {
	return (uint32(pc) ^ t.foldTagA[table] ^ t.foldTagB[table]<<1) & (1<<tagBits - 1)
}

func (t *TAGE) baseIdx(pc int) uint32 { return uint32(pc) & (1<<baseBits - 1) }

// Predict returns the predicted direction for the branch at pc.
func (t *TAGE) Predict(pc int) bool {
	t.lastPC = pc
	t.provider = 0
	t.altPred = t.base[t.baseIdx(pc)] >= 0
	t.providerPred = t.altPred
	t.providerWeak = t.base[t.baseIdx(pc)] == 0 || t.base[t.baseIdx(pc)] == -1

	alt := t.altPred
	for i := numTagged - 1; i >= 0; i-- {
		idx := t.index(pc, i)
		e := &t.tables[i][idx]
		if e.tag == t.tag(pc, i) {
			if t.provider == 0 {
				t.provider = i + 1
				t.providerIdx = idx
				t.providerPred = e.ctr >= 0
				t.providerWeak = e.ctr == 0 || e.ctr == -1
			} else {
				alt = e.ctr >= 0
				break
			}
		}
	}
	if t.provider != 0 {
		t.altPred = alt
	}

	pred := t.providerPred
	if t.provider != 0 && t.providerWeak && t.useAlt >= 0 {
		pred = t.altPred
	}
	t.tagePred = pred

	// Statistical corrector: override a weak TAGE prediction when the
	// per-branch bias is strong and disagrees.
	t.scUsed = false
	scIdx := uint32(pc) & (1<<10 - 1)
	if t.providerWeak {
		bias := t.sc[scIdx]
		if bias >= 8 && !pred {
			pred, t.scUsed = true, true
		} else if bias <= -9 && pred {
			pred, t.scUsed = false, true
		}
	}

	// Loop predictor: override when confident.
	t.loopValid, t.loopPred = t.loop.predict(pc)
	if t.loopValid {
		pred = t.loopPred
	}

	t.finalPred = pred
	return pred
}

// Update trains the predictor with the actual outcome of the most recently
// predicted branch at pc and shifts the global history.
func (t *TAGE) Update(pc int, taken bool) {
	if pc != t.lastPC {
		// Out-of-band update (e.g. warm-up): establish prediction state.
		t.Predict(pc)
	}

	t.loop.update(pc, taken)

	scIdx := uint32(pc) & (1<<10 - 1)
	t.sc[scIdx] = clamp8(t.sc[scIdx]+pm(taken), -16, 15)

	correct := t.tagePred == taken
	if t.provider != 0 && t.providerWeak {
		// Train the alt-choice counter.
		if t.altPred != t.providerPred {
			if t.altPred == taken {
				t.useAlt = clamp8(t.useAlt+1, -8, 7)
			} else {
				t.useAlt = clamp8(t.useAlt-1, -8, 7)
			}
		}
	}

	// Update provider counter.
	if t.provider == 0 {
		i := t.baseIdx(pc)
		t.base[i] = clamp8(t.base[i]+pm(taken), -2, 1)
	} else {
		e := &t.tables[t.provider-1][t.providerIdx]
		e.ctr = clamp8(e.ctr+pm(taken), -4, 3)
		if t.providerPred == taken && t.providerPred != t.altPred {
			if e.useful < 3 {
				e.useful++
			}
		} else if t.providerPred != taken && t.providerPred != t.altPred {
			if e.useful > 0 {
				e.useful--
			}
		}
	}

	// Allocate a new entry in a longer-history table on a misprediction.
	if !correct && t.provider <= numTagged {
		allocated := false
		for i := t.provider; i < numTagged && !allocated; i++ {
			idx := t.index(pc, i)
			e := &t.tables[i][idx]
			if e.useful == 0 {
				e.tag = t.tag(pc, i)
				e.ctr = pm(taken)
				allocated = true
			}
		}
		if !allocated {
			for i := t.provider; i < numTagged; i++ {
				idx := t.index(pc, i)
				if t.tables[i][idx].useful > 0 {
					t.tables[i][idx].useful--
				}
			}
		}
		t.tick++
		if t.tick&0x3ff == 0 {
			for i := range t.tables {
				for j := range t.tables[i] {
					t.tables[i][j].useful >>= 1
				}
			}
		}
	}

	// Shift global history; the folds shift first (they read outgoing and
	// crossing bits from the pre-shift history).
	t.shiftFolds(taken)
	t.hist[1] = t.hist[1]<<1 | t.hist[0]>>63
	t.hist[0] <<= 1
	if taken {
		t.hist[0] |= 1
	}
}

func pm(taken bool) int8 {
	if taken {
		return 1
	}
	return -1
}

func clamp8(v, lo, hi int8) int8 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// loopPredictor tracks loops with stable trip counts and predicts their
// exits.
type loopPredictor struct {
	entries [64]struct {
		pc        int
		tripCount int
		current   int
		conf      int
		valid     bool
	}
}

func newLoopPredictor() *loopPredictor { return &loopPredictor{} }

func (l *loopPredictor) slot(pc int) int { return pc & 63 }

// predict returns (valid, prediction). It predicts not-taken (loop exit)
// when the current iteration count reaches a confidently stable trip count.
func (l *loopPredictor) predict(pc int) (bool, bool) {
	e := &l.entries[l.slot(pc)]
	if !e.valid || e.pc != pc || e.conf < 3 || e.tripCount == 0 {
		return false, false
	}
	return true, e.current+1 < e.tripCount
}

func (l *loopPredictor) update(pc int, taken bool) {
	e := &l.entries[l.slot(pc)]
	if !e.valid || e.pc != pc {
		*e = struct {
			pc        int
			tripCount int
			current   int
			conf      int
			valid     bool
		}{pc: pc, valid: true}
	}
	if taken {
		e.current++
		if e.tripCount > 0 && e.current > e.tripCount {
			// Longer than remembered: not a stable loop (yet).
			e.conf = 0
			e.tripCount = 0
		}
		return
	}
	// Loop exit: current+1 iterations of "taken" ended.
	total := e.current + 1
	if total == e.tripCount {
		if e.conf < 7 {
			e.conf++
		}
	} else {
		e.conf = 0
		e.tripCount = total
	}
	e.current = 0
}

// Bimodal is a classic 2-bit-counter direction predictor, used in tests and
// as a low-end baseline.
type Bimodal struct {
	table []int8
}

// NewBimodal returns a bimodal predictor with 2^bits counters.
func NewBimodal(bits int) *Bimodal { return &Bimodal{table: make([]int8, 1<<bits)} }

func (b *Bimodal) idx(pc int) int { return pc & (len(b.table) - 1) }

// Predict returns the predicted direction for pc.
func (b *Bimodal) Predict(pc int) bool { return b.table[b.idx(pc)] >= 0 }

// Update trains the counter for pc.
func (b *Bimodal) Update(pc int, taken bool) {
	i := b.idx(pc)
	b.table[i] = clamp8(b.table[i]+pm(taken), -2, 1)
}

// Static always predicts a fixed direction; useful for experiments and
// tests.
type Static struct{ Taken bool }

// Predict returns the fixed direction.
func (s Static) Predict(int) bool { return s.Taken }

// Update is a no-op.
func (s Static) Update(int, bool) {}

// Oracle predicts perfectly; used for ideal-frontend experiments.
type Oracle struct{ Outcome func(pc int) bool }

// Predict consults the oracle function.
func (o Oracle) Predict(pc int) bool { return o.Outcome(pc) }

// Update is a no-op.
func (o Oracle) Update(int, bool) {}

// RAS is a return-address stack for predicting jalr targets.
type RAS struct {
	stack []int
	cap   int
	// Hits and Misses count target predictions.
	Hits, Misses int64
}

// NewRAS returns a return-address stack with the given capacity.
func NewRAS(capacity int) *RAS { return &RAS{cap: capacity} }

// Push records a call's return address.
func (r *RAS) Push(retPC int) {
	if len(r.stack) == r.cap {
		copy(r.stack, r.stack[1:])
		r.stack = r.stack[:len(r.stack)-1]
	}
	r.stack = append(r.stack, retPC)
}

// Pop predicts the target of a return, recording whether it matched actual.
func (r *RAS) Pop(actual int) (predicted int, hit bool) {
	if len(r.stack) == 0 {
		r.Misses++
		return -1, false
	}
	predicted = r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	if predicted == actual {
		r.Hits++
		return predicted, true
	}
	r.Misses++
	return predicted, false
}
