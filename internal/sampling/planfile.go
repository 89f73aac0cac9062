package sampling

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"sync"

	"github.com/noreba-sim/noreba/internal/emulator"
	"github.com/noreba-sim/noreba/internal/program"
)

// The NRPF plan file is the on-disk form of a compiled sampling Plan: the
// interval profile, the pilot timing columns that drive the warming clock,
// and every representative with its detailed-window checkpoint. Persisting a
// plan amortises the expensive build passes — profiling, the detailed pilot
// run, clustering, checkpoint capture — across process restarts and across
// cluster replicas, exactly as results are amortised through the
// content-addressed store.
//
// Layout (all integers varint/uvarint unless noted):
//
//	magic "NRPF", version u8 (3)
//	name, params (IntervalLen MaxK WarmupIntervals CooldownInsts
//	              KMeansIters Seed), maxInsts
//	image hash (32 raw bytes, program.Image.ContentHash)
//	full flag u8
//	profile: TotalInsts TotalSetup, interval count,
//	         per interval Start Insts Setup Traps + sorted BBV pairs
//	rep count; if non-zero, warmRate[n] warmCum[n+1] as fixed float64 bits
//	per rep: Interval, Weight (float64 bits), ClusterCommitted, WarmStart,
//	         WarmCommits, MeasureCommits, SrcBound, PilotRep, PilotCluster,
//	         WarmSnap
//	end marker u8 0xE7, then EOF
//
// A checkpoint (WarmSnap) is its registers, PC, Seq and halted flag, then
// its memory as a delta against the program image's initial data: the
// entries that are new or changed, as (addr, value) pairs sorted by address,
// for Mem (vs Data) and FMem (vs FData) in turn. The emulator never deletes
// memory, so a checkpoint is always a superset of the image and the delta
// needs no deletions. Checkpoints share almost all of their memory with the
// image, so the delta cuts both the file size and the dominant decode cost
// of the warm sampled loop (rebuilding per-rep memory maps).
//
// Maps (BBVs, checkpoint memory) are written sorted by key, so encoding is
// deterministic: one plan, one byte string, one content hash.
const (
	// PlanFileVersion is the NRPF format version. Bytes of any other
	// version are rejected outright — a stale plan is rebuilt, never
	// reinterpreted.
	PlanFileVersion = 3

	// planKeyTag is the version string folded into PlanKey: a plan stored
	// under an older format is never looked up, let alone decoded.
	planKeyTag = "noreba-plan-v3"

	planMagic = "NRPF"
	planEnd   = 0xE7
	// planVersionOffset is the version byte's offset, where a file of
	// another format version is rejected.
	planVersionOffset = int64(len(planMagic))

	maxPlanNameLen   = 1 << 12
	maxPlanIntervals = 1 << 22
	maxPlanReps      = 1 << 12
	maxPilotDims     = 1 << 8
	maxMapEntries    = 1 << 22
	// sizeHintCap bounds pre-allocation from untrusted counts: a hostile
	// count still has to deliver the bytes before memory grows past this.
	sizeHintCap = 1 << 12
)

// FormatError describes a malformed, truncated or stale plan file, naming
// the byte offset at which decoding failed.
type FormatError struct {
	Offset int64
	Msg    string
	Err    error
}

func (e *FormatError) Error() string {
	s := fmt.Sprintf("sampling: plan file: offset %d: %s", e.Offset, e.Msg)
	if e.Err != nil {
		s += ": " + e.Err.Error()
	}
	return s
}

func (e *FormatError) Unwrap() error { return e.Err }

// AsFormatError unwraps err to a *FormatError, if one is in the chain.
func AsFormatError(err error) (*FormatError, bool) {
	var fe *FormatError
	if errors.As(err, &fe) {
		return fe, true
	}
	return nil, false
}

// PlanKey returns the content-store key for a plan: sha256 over the format
// version, the image's content hash (program.Image.ContentHash, carried by
// compiler.Result.ImageHash), the stream bound and the normalized
// parameters. Any change to the format, the program or the sampling
// configuration yields a different key, so a stored plan can never be served
// to a request it was not built for.
func PlanKey(imgHash [sha256.Size]byte, maxInsts int64, p Params) string {
	p = p.Normalize()
	h := sha256.New()
	fmt.Fprintf(h, "%s\n", planKeyTag)
	h.Write(imgHash[:])
	fmt.Fprintf(h, "%d\n%+v\n", maxInsts, p)
	return hex.EncodeToString(h.Sum(nil))
}

// planWriter serialises into a byte buffer with varint scalars and fixed
// 8-byte float bit patterns.
type planWriter struct {
	buf     bytes.Buffer
	scratch [binary.MaxVarintLen64]byte
}

func (w *planWriter) u8(b byte)      { w.buf.WriteByte(b) }
func (w *planWriter) varint(v int64) { w.buf.Write(w.scratch[:binary.PutVarint(w.scratch[:], v)]) }
func (w *planWriter) uvarint(v uint64) {
	w.buf.Write(w.scratch[:binary.PutUvarint(w.scratch[:], v)])
}

func (w *planWriter) float(f float64) {
	binary.LittleEndian.PutUint64(w.scratch[:8], math.Float64bits(f))
	w.buf.Write(w.scratch[:8])
}

func (w *planWriter) str(s string) {
	w.uvarint(uint64(len(s)))
	w.buf.WriteString(s)
}

func (w *planWriter) floats(fs []float64) {
	w.uvarint(uint64(len(fs)))
	for _, f := range fs {
		w.float(f)
	}
}

// snapshot writes a checkpoint section: registers and control state, then
// memory as a delta against the image's initial data (base, fbase). A nil
// base writes every entry. A snapshot already in delta form (a loaded
// plan's, whose maps hold only entries differing from the image) diffs to
// itself, so a loaded plan re-encodes to the bytes it was decoded from.
func (w *planWriter) snapshot(s *emulator.Snapshot, base map[int64]int64, fbase map[int64]float64) {
	for _, r := range s.IntRegs {
		w.varint(r)
	}
	for _, r := range s.FPRegs {
		w.float(r)
	}
	w.varint(int64(s.PC))
	w.varint(s.Seq)
	w.bool(s.Halted)
	writeDelta(w, s.Mem, base, w.varint)
	writeDelta(w, s.FMem, fbase, w.float)
}

// writeDelta writes the entries of m absent from base or differing from it,
// as a count then (addr, value) pairs sorted by address.
func writeDelta[V comparable](w *planWriter, m, base map[int64]V, put func(V)) {
	changed := make([]int64, 0, len(m))
	for a, v := range m {
		if bv, ok := base[a]; !ok || bv != v {
			changed = append(changed, a)
		}
	}
	slices.Sort(changed)
	w.uvarint(uint64(len(changed)))
	for _, a := range changed {
		w.varint(a)
		put(m[a])
	}
}

func (w *planWriter) bool(b bool) {
	if b {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

// EncodePlan serialises the plan into the NRPF byte format. The encoding is
// deterministic: equal plans produce equal bytes.
func EncodePlan(pl *Plan) []byte {
	w := &planWriter{}
	w.buf.WriteString(planMagic)
	w.u8(PlanFileVersion)
	w.str(pl.Name)
	p := pl.Params
	w.varint(p.IntervalLen)
	w.varint(int64(p.MaxK))
	w.varint(int64(p.WarmupIntervals))
	w.varint(p.CooldownInsts)
	w.varint(int64(p.KMeansIters))
	w.uvarint(p.Seed)
	w.varint(pl.maxInsts)
	w.buf.Write(pl.imgHash[:])
	w.bool(pl.Full)

	prof := pl.Profile
	w.varint(prof.TotalInsts)
	w.varint(prof.TotalSetup)
	w.uvarint(uint64(len(prof.Intervals)))
	for i := range prof.Intervals {
		iv := &prof.Intervals[i]
		w.varint(iv.Start)
		w.varint(iv.Insts)
		w.varint(iv.Setup)
		w.varint(iv.Traps)
		w.uvarint(uint64(len(iv.BBV)))
		pcs := make([]int, 0, len(iv.BBV))
		for pc := range iv.BBV {
			pcs = append(pcs, pc)
		}
		sort.Ints(pcs)
		for _, pc := range pcs {
			w.varint(int64(pc))
			w.varint(iv.BBV[pc])
		}
	}

	w.uvarint(uint64(len(pl.Reps)))
	if len(pl.Reps) > 0 {
		for _, f := range pl.warmRate {
			w.float(f)
		}
		for _, f := range pl.warmCum {
			w.float(f)
		}
	}
	var base map[int64]int64
	var fbase map[int64]float64
	if pl.img != nil {
		base, fbase = pl.img.Data, pl.img.FData
	}
	for i := range pl.Reps {
		r := &pl.Reps[i]
		w.varint(int64(r.Interval))
		w.float(r.Weight)
		w.varint(r.ClusterCommitted)
		w.varint(r.WarmStart)
		w.varint(r.WarmCommits)
		w.varint(r.MeasureCommits)
		w.varint(r.SrcBound)
		w.floats(r.PilotRep)
		w.floats(r.PilotCluster)
		w.snapshot(&r.WarmSnap, base, fbase)
	}
	w.u8(planEnd)
	return w.buf.Bytes()
}

// countingReader tracks the byte offset consumed so decode errors can name
// where the file went wrong.
type countingReader struct {
	r   *bufio.Reader
	pos int64
}

func (c *countingReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		c.pos++
	}
	return b, err
}

func (c *countingReader) readFull(p []byte) error {
	n, err := io.ReadFull(c.r, p)
	c.pos += int64(n)
	return err
}

// planReader decodes the NRPF byte format, wrapping every failure in a
// *FormatError carrying the offending offset.
type planReader struct {
	cr countingReader
}

func (r *planReader) fail(msg string, err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		err = errors.New("truncated file")
	}
	return &FormatError{Offset: r.cr.pos, Msg: msg, Err: err}
}

func (r *planReader) failf(format string, args ...any) error {
	return &FormatError{Offset: r.cr.pos, Msg: fmt.Sprintf(format, args...)}
}

func (r *planReader) u8(what string) (byte, error) {
	b, err := r.cr.ReadByte()
	if err != nil {
		return 0, r.fail("reading "+what, err)
	}
	return b, nil
}

func (r *planReader) bool(what string) (bool, error) {
	b, err := r.u8(what)
	if err != nil {
		return false, err
	}
	if b > 1 {
		return false, r.failf("%s: bad boolean byte %#x", what, b)
	}
	return b == 1, nil
}

func (r *planReader) varint(what string) (int64, error) {
	v, err := binary.ReadVarint(&r.cr)
	if err != nil {
		return 0, r.fail("reading "+what, err)
	}
	return v, nil
}

func (r *planReader) uvarint(what string) (uint64, error) {
	v, err := binary.ReadUvarint(&r.cr)
	if err != nil {
		return 0, r.fail("reading "+what, err)
	}
	return v, nil
}

func (r *planReader) count(what string, max uint64) (int, error) {
	v, err := r.uvarint(what)
	if err != nil {
		return 0, err
	}
	if v > max {
		return 0, r.failf("%s %d exceeds limit %d", what, v, max)
	}
	return int(v), nil
}

func (r *planReader) float(what string) (float64, error) {
	var raw [8]byte
	if err := r.cr.readFull(raw[:]); err != nil {
		return 0, r.fail("reading "+what, err)
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(raw[:])), nil
}

func (r *planReader) str(what string, max uint64) (string, error) {
	n, err := r.count(what+" length", max)
	if err != nil {
		return "", err
	}
	b := make([]byte, n)
	if err := r.cr.readFull(b); err != nil {
		return "", r.fail("reading "+what, err)
	}
	return string(b), nil
}

func (r *planReader) floats(what string) ([]float64, error) {
	n, err := r.count(what+" count", maxPilotDims)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i := range out {
		if out[i], err = r.float(what); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// snapshot reads a checkpoint section. The returned snapshot's Mem/FMem
// hold only the entries that differ from the image, until windowSnap
// materializes it against a bound image.
func (r *planReader) snapshot(what string) (emulator.Snapshot, error) {
	var s emulator.Snapshot
	var err error
	for i := range s.IntRegs {
		if s.IntRegs[i], err = r.varint(what + " int register"); err != nil {
			return s, err
		}
	}
	for i := range s.FPRegs {
		if s.FPRegs[i], err = r.float(what + " fp register"); err != nil {
			return s, err
		}
	}
	pc, err := r.varint(what + " pc")
	if err != nil {
		return s, err
	}
	s.PC = int(pc)
	if s.Seq, err = r.varint(what + " seq"); err != nil {
		return s, err
	}
	if s.Halted, err = r.bool(what + " halted"); err != nil {
		return s, err
	}
	if s.Mem, err = readDelta(r, what+" memory", r.varint); err != nil {
		return s, err
	}
	s.FMem, err = readDelta(r, what+" fp memory", r.float)
	return s, err
}

// readDelta reads a writeDelta section, each value read by get.
func readDelta[V any](r *planReader, what string, get func(string) (V, error)) (map[int64]V, error) {
	n, err := r.count(what+" entries", maxMapEntries)
	if err != nil {
		return nil, err
	}
	m := make(map[int64]V, hint(n))
	for i := 0; i < n; i++ {
		a, err := r.varint(what + " address")
		if err != nil {
			return nil, err
		}
		if m[a], err = get(what + " value"); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// hint caps a pre-allocation size derived from untrusted input: the data
// still has to arrive byte by byte before memory grows past the cap.
func hint(n int) int {
	if n > sizeHintCap {
		return sizeHintCap
	}
	return n
}

// DecodePlan parses NRPF bytes into a Plan without validating them against
// any particular image — the fuzz surface. The returned plan is not usable
// for estimation until bound to an image; use LoadPlan for that.
func DecodePlan(data []byte) (*Plan, [sha256.Size]byte, error) {
	r := &planReader{cr: countingReader{r: bufio.NewReader(bytes.NewReader(data))}}
	var imgHash [sha256.Size]byte

	magic := make([]byte, len(planMagic))
	if err := r.cr.readFull(magic); err != nil {
		return nil, imgHash, r.fail("reading magic", err)
	}
	if string(magic) != planMagic {
		return nil, imgHash, r.failf("bad magic %q (want %q)", magic, planMagic)
	}
	version, err := r.u8("version")
	if err != nil {
		return nil, imgHash, err
	}
	if version != PlanFileVersion {
		return nil, imgHash, &FormatError{Offset: planVersionOffset,
			Msg: fmt.Sprintf("unsupported plan version %d (want %d)", version, PlanFileVersion)}
	}

	pl := &Plan{}
	if pl.Name, err = r.str("plan name", maxPlanNameLen); err != nil {
		return nil, imgHash, err
	}
	pl.offsets.params = r.cr.pos
	p := Params{Enabled: true}
	if p.IntervalLen, err = r.varint("interval length"); err != nil {
		return nil, imgHash, err
	}
	var v int64
	if v, err = r.varint("max k"); err != nil {
		return nil, imgHash, err
	}
	p.MaxK = int(v)
	if v, err = r.varint("warmup intervals"); err != nil {
		return nil, imgHash, err
	}
	p.WarmupIntervals = int(v)
	if p.CooldownInsts, err = r.varint("cooldown insts"); err != nil {
		return nil, imgHash, err
	}
	if v, err = r.varint("kmeans iters"); err != nil {
		return nil, imgHash, err
	}
	p.KMeansIters = int(v)
	if p.Seed, err = r.uvarint("seed"); err != nil {
		return nil, imgHash, err
	}
	pl.Params = p
	pl.offsets.maxInsts = r.cr.pos
	if pl.maxInsts, err = r.varint("max insts"); err != nil {
		return nil, imgHash, err
	}
	pl.offsets.imgHash = r.cr.pos
	if err = r.cr.readFull(imgHash[:]); err != nil {
		return nil, imgHash, r.fail("reading image hash", err)
	}
	if pl.Full, err = r.bool("full flag"); err != nil {
		return nil, imgHash, err
	}

	prof := &Profile{Name: pl.Name, IntervalLen: p.IntervalLen}
	if prof.TotalInsts, err = r.varint("profile total insts"); err != nil {
		return nil, imgHash, err
	}
	if prof.TotalSetup, err = r.varint("profile total setup"); err != nil {
		return nil, imgHash, err
	}
	nIvs, err := r.count("interval count", maxPlanIntervals)
	if err != nil {
		return nil, imgHash, err
	}
	prof.Intervals = make([]Interval, 0, hint(nIvs))
	for i := 0; i < nIvs; i++ {
		iv := Interval{Index: i}
		if iv.Start, err = r.varint("interval start"); err != nil {
			return nil, imgHash, err
		}
		if iv.Insts, err = r.varint("interval insts"); err != nil {
			return nil, imgHash, err
		}
		if iv.Setup, err = r.varint("interval setup"); err != nil {
			return nil, imgHash, err
		}
		if iv.Traps, err = r.varint("interval traps"); err != nil {
			return nil, imgHash, err
		}
		nb, err := r.count("bbv entries", maxMapEntries)
		if err != nil {
			return nil, imgHash, err
		}
		iv.BBV = make(map[int]int64, hint(nb))
		for j := 0; j < nb; j++ {
			pc, err := r.varint("bbv leader pc")
			if err != nil {
				return nil, imgHash, err
			}
			n, err := r.varint("bbv count")
			if err != nil {
				return nil, imgHash, err
			}
			iv.BBV[int(pc)] = n
		}
		prof.Intervals = append(prof.Intervals, iv)
	}
	pl.Profile = prof

	nReps, err := r.count("rep count", maxPlanReps)
	if err != nil {
		return nil, imgHash, err
	}
	if nReps > 0 {
		pl.warmRate = make([]float64, nIvs)
		for i := range pl.warmRate {
			if pl.warmRate[i], err = r.float("warm rate"); err != nil {
				return nil, imgHash, err
			}
		}
		pl.warmCum = make([]float64, nIvs+1)
		for i := range pl.warmCum {
			if pl.warmCum[i], err = r.float("warm cum"); err != nil {
				return nil, imgHash, err
			}
		}
	}
	pl.Reps = make([]Rep, 0, hint(nReps))
	for i := 0; i < nReps; i++ {
		var rep Rep
		if v, err = r.varint("rep interval"); err != nil {
			return nil, imgHash, err
		}
		rep.Interval = int(v)
		if rep.Weight, err = r.float("rep weight"); err != nil {
			return nil, imgHash, err
		}
		if rep.ClusterCommitted, err = r.varint("rep cluster committed"); err != nil {
			return nil, imgHash, err
		}
		if rep.WarmStart, err = r.varint("rep warm start"); err != nil {
			return nil, imgHash, err
		}
		if rep.WarmCommits, err = r.varint("rep warm commits"); err != nil {
			return nil, imgHash, err
		}
		if rep.MeasureCommits, err = r.varint("rep measure commits"); err != nil {
			return nil, imgHash, err
		}
		if rep.SrcBound, err = r.varint("rep src bound"); err != nil {
			return nil, imgHash, err
		}
		if rep.PilotRep, err = r.floats("rep pilot column"); err != nil {
			return nil, imgHash, err
		}
		if rep.PilotCluster, err = r.floats("rep cluster pilot column"); err != nil {
			return nil, imgHash, err
		}
		if rep.WarmSnap, err = r.snapshot("rep warm checkpoint"); err != nil {
			return nil, imgHash, err
		}
		pl.Reps = append(pl.Reps, rep)
	}

	end, err := r.u8("end marker")
	if err != nil {
		return nil, imgHash, err
	}
	if end != planEnd {
		return nil, imgHash, r.failf("bad end marker %#x (want %#x)", end, planEnd)
	}
	if _, err := r.cr.ReadByte(); err != io.EOF {
		return nil, imgHash, r.failf("trailing garbage after end marker")
	}
	pl.imgHash = imgHash
	return pl, imgHash, nil
}

// LoadPlan decodes NRPF bytes and binds the plan to the image it will
// estimate, verifying that the file was built for exactly this program,
// stream bound and sampling configuration. Version, hash or parameter
// mismatches are *FormatErrors: the caller treats them as a cache miss and
// rebuilds — a stale plan is never trusted.
func LoadPlan(data []byte, img *program.Image, maxInsts int64, p Params) (*Plan, error) {
	return LoadPlanHashed(data, img, img.ContentHash(), maxInsts, p)
}

// LoadPlanHashed is LoadPlan for a caller that already holds the image's
// content hash (compiler.Result.ImageHash), sparing a pass over the image.
// imgHash must be img.ContentHash().
func LoadPlanHashed(data []byte, img *program.Image, imgHash [sha256.Size]byte, maxInsts int64, p Params) (*Plan, error) {
	pl, gotHash, err := DecodePlan(data)
	if err != nil {
		return nil, err
	}
	if gotHash != imgHash {
		return nil, &FormatError{Offset: pl.offsets.imgHash,
			Msg: fmt.Sprintf("image hash mismatch: plan built for %x, image is %x", gotHash[:8], imgHash[:8])}
	}
	if pl.maxInsts != maxInsts {
		return nil, &FormatError{Offset: pl.offsets.maxInsts,
			Msg: fmt.Sprintf("stream bound mismatch: plan built for %d, want %d", pl.maxInsts, maxInsts)}
	}
	if norm := p.Normalize(); pl.Params != norm {
		return nil, &FormatError{Offset: pl.offsets.params,
			Msg: fmt.Sprintf("params mismatch: plan built for %+v, want %+v", pl.Params, norm)}
	}
	// Checkpoints stay in delta form until a window reads them (see
	// windowSnap), so binding costs nothing per representative.
	pl.img = img
	pl.windowSnaps = make([]lazySnap, len(pl.Reps))
	return pl, nil
}

// lazySnap is a checkpoint materialized from its delta form on first use.
type lazySnap struct {
	once sync.Once
	snap emulator.Snapshot
}

// windowSnap returns representative i's window-entry checkpoint (WarmSnap)
// with full memory maps. A loaded plan materializes it on first use — a
// clone of the bound image's data overlaid with the delta entries, the
// exact inverse of planWriter.snapshot — and keeps it: every estimate
// restores it. The first estimate does this inside its window workers,
// alongside the warm replay, rather than serially at load time.
func (pl *Plan) windowSnap(i int) emulator.Snapshot {
	if pl.windowSnaps == nil {
		return pl.Reps[i].WarmSnap
	}
	ls := &pl.windowSnaps[i]
	ls.once.Do(func() {
		s := pl.Reps[i].WarmSnap
		s.Mem = overlay(pl.img.Data, s.Mem)
		s.FMem = overlay(pl.img.FData, s.FMem)
		ls.snap = s
	})
	return ls.snap
}

// overlay reconstructs a full checkpoint memory map from its delta form: a
// clone of the image's base data plus the delta.
func overlay[V any](base, delta map[int64]V) map[int64]V {
	full := make(map[int64]V, len(base)+len(delta))
	for a, v := range base {
		full[a] = v
	}
	for a, v := range delta {
		full[a] = v
	}
	return full
}
