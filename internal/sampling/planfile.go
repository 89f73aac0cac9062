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
	"sort"
	"sync"

	"github.com/noreba-sim/noreba/internal/emulator"
	"github.com/noreba-sim/noreba/internal/program"
)

// The NRPF plan file is the on-disk form of a compiled sampling Plan: the
// interval profile, the pilot timing columns that drive the warming clock,
// and every representative with both of its checkpoints (architectural state
// at the warm-span start and at the detailed-window start). Persisting a
// plan amortises the expensive build passes — profiling, the detailed pilot
// run, clustering, checkpoint capture — across process restarts and across
// cluster replicas, exactly as results are amortised through the
// content-addressed store.
//
// Layout (all integers varint/uvarint unless noted):
//
//	magic "NRPF", version u8
//	name, params (IntervalLen MaxK WarmupIntervals CooldownInsts
//	              FunctionalWarmInsts KMeansIters Seed), maxInsts
//	image hash (32 raw bytes, program.Image.ContentHash)
//	full flag u8
//	profile: TotalInsts TotalSetup, interval count,
//	         per interval Start Insts Setup Traps + sorted BBV pairs
//	warm-columns flag u8; warmRate[n] warmCum[n+1] as fixed float64 bits
//	rep count; per rep the scalar fields, pilot columns, Snap, WarmSnap
//	end marker u8 0xE7, then EOF
//
// Version 2 changes only the snapshot sections: instead of the machine's
// full memory maps, each checkpoint stores the delta against the program
// image's initial data — changed/new entries as sorted (addr, value) pairs,
// then tombstones (image addresses absent from the checkpoint) as a sorted
// address list, for Mem (vs Data) and FMem (vs FData) in turn. Checkpoints
// share almost all of their memory with the image they were captured from,
// so the delta cuts both the file size and the dominant decode cost of the
// warm sampled loop (rebuilding per-rep memory maps). The reader still
// accepts version 1 in full-map form: a stored plan is rebuilt only when
// its content is stale, never because the container format moved on.
//
// Maps (BBVs, snapshot memory) are written sorted by key, so encoding is
// deterministic: one plan, one byte string, one content hash.
const (
	// PlanFileVersion is the NRPF format version new plans are written at.
	// Readers accept planMinVersion..PlanFileVersion; anything else is
	// rejected outright — a stale plan is rebuilt, never reinterpreted.
	PlanFileVersion = 2
	planMinVersion  = 1

	// planKeyTag is the version string folded into PlanKey. Deliberately
	// frozen at v1: the v2 encoding changed the byte container (delta
	// snapshots), not what a plan means, and the reader accepts both
	// versions — so plans already in a content-addressed store stay warm
	// across the format bump.
	planKeyTag = "noreba-plan-v1"

	planMagic = "NRPF"
	planEnd   = 0xE7

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

func sortedKeys(m map[int64]int64) []int64 {
	ks := make([]int64, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

func sortedFKeys(m map[int64]float64) []int64 {
	ks := make([]int64, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
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

// snapshotHead writes the fixed part of a checkpoint section, common to the
// v1 (full-map) and v2 (delta) forms.
func (w *planWriter) snapshotHead(s *emulator.Snapshot) {
	for _, r := range s.IntRegs {
		w.varint(r)
	}
	for _, r := range s.FPRegs {
		w.float(r)
	}
	w.varint(int64(s.PC))
	w.varint(s.Seq)
	w.bool(s.Halted)
}

// snapshot writes the v1 checkpoint section: the full memory maps.
func (w *planWriter) snapshot(s *emulator.Snapshot) {
	w.snapshotHead(s)
	w.uvarint(uint64(len(s.Mem)))
	for _, a := range sortedKeys(s.Mem) {
		w.varint(a)
		w.varint(s.Mem[a])
	}
	w.uvarint(uint64(len(s.FMem)))
	for _, a := range sortedFKeys(s.FMem) {
		w.varint(a)
		w.float(s.FMem[a])
	}
}

// snapshotDelta writes the v2 checkpoint section: memory as a delta against
// the image's initial data. Changed or new entries are written as sorted
// (addr, value) pairs; tombstones — base addresses absent from the snapshot
// — as a sorted address list. A snapshot still in decoded delta form (d
// non-nil: its Mem maps hold just the delta) is written back verbatim with
// d's tombstones; otherwise the tombstones are derived from the base. A nil
// base degenerates to "every entry changed, no tombstones", which binds
// correctly for any plan whose checkpoints cover the image's data addresses
// — true of every plan BuildPlan produces, since a machine's memory starts
// as the image data and never deletes.
func (w *planWriter) snapshotDelta(s *emulator.Snapshot, d *memDelta, base map[int64]int64, fbase map[int64]float64) {
	w.snapshotHead(s)
	var tombs, ftombs []int64
	if d != nil {
		base, fbase = nil, nil
		tombs, ftombs = d.tombs, d.ftombs
	}

	changed := make([]int64, 0, len(s.Mem))
	for a, v := range s.Mem {
		if bv, ok := base[a]; !ok || bv != v {
			changed = append(changed, a)
		}
	}
	sort.Slice(changed, func(i, j int) bool { return changed[i] < changed[j] })
	w.uvarint(uint64(len(changed)))
	for _, a := range changed {
		w.varint(a)
		w.varint(s.Mem[a])
	}
	if tombs == nil && base != nil {
		for a := range base {
			if _, ok := s.Mem[a]; !ok {
				tombs = append(tombs, a)
			}
		}
		sort.Slice(tombs, func(i, j int) bool { return tombs[i] < tombs[j] })
	}
	w.uvarint(uint64(len(tombs)))
	for _, a := range tombs {
		w.varint(a)
	}

	fchanged := make([]int64, 0, len(s.FMem))
	for a, v := range s.FMem {
		if bv, ok := fbase[a]; !ok || bv != v {
			fchanged = append(fchanged, a)
		}
	}
	sort.Slice(fchanged, func(i, j int) bool { return fchanged[i] < fchanged[j] })
	w.uvarint(uint64(len(fchanged)))
	for _, a := range fchanged {
		w.varint(a)
		w.float(s.FMem[a])
	}
	if ftombs == nil && fbase != nil {
		for a := range fbase {
			if _, ok := s.FMem[a]; !ok {
				ftombs = append(ftombs, a)
			}
		}
		sort.Slice(ftombs, func(i, j int) bool { return ftombs[i] < ftombs[j] })
	}
	w.uvarint(uint64(len(ftombs)))
	for _, a := range ftombs {
		w.varint(a)
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
func EncodePlan(pl *Plan) []byte { return encodePlanAt(pl, PlanFileVersion) }

// encodePlanAt serialises at a specific format version. Production encoding
// is always PlanFileVersion; the backward-compatibility tests use it to
// produce genuine v1 bytes (valid only for built or bound plans, not
// v2-decoded-unbound ones, whose checkpoints cannot be materialized).
func encodePlanAt(pl *Plan, version byte) []byte {
	w := &planWriter{}
	w.buf.WriteString(planMagic)
	w.u8(version)
	w.str(pl.Name)
	p := pl.Params
	w.varint(p.IntervalLen)
	w.varint(int64(p.MaxK))
	w.varint(int64(p.WarmupIntervals))
	w.varint(p.CooldownInsts)
	w.varint(p.FunctionalWarmInsts)
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

	if len(pl.warmRate) > 0 {
		w.u8(1)
		for _, f := range pl.warmRate {
			w.float(f)
		}
		for _, f := range pl.warmCum {
			w.float(f)
		}
	} else {
		w.u8(0)
	}

	w.uvarint(uint64(len(pl.Reps)))
	for i := range pl.Reps {
		r := &pl.Reps[i]
		w.varint(int64(r.Interval))
		w.float(r.Weight)
		w.varint(r.ClusterCommitted)
		w.varint(r.WarmStart)
		w.varint(r.FuncWarmInsts)
		w.varint(r.WarmCommits)
		w.varint(r.MeasureCommits)
		w.varint(r.SrcBound)
		w.floats(r.PilotRep)
		w.floats(r.PilotCluster)
		if version >= 2 {
			var base map[int64]int64
			var fbase map[int64]float64
			if pl.img != nil {
				base, fbase = pl.img.Data, pl.img.FData
			}
			w.snapshotDelta(&r.Snap, r.snapDelta, base, fbase)
			w.snapshotDelta(&r.WarmSnap, r.warmDelta, base, fbase)
		} else {
			snap, warm := pl.repSnap(i), pl.windowSnap(i)
			w.snapshot(&snap)
			w.snapshot(&warm)
		}
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

func (r *planReader) snapshot(what string) (emulator.Snapshot, error) {
	var s emulator.Snapshot
	var err error
	for i := range s.IntRegs {
		if v, err := r.varint(what + " int register"); err != nil {
			return s, err
		} else {
			s.IntRegs[i] = v
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
	nm, err := r.count(what+" memory entries", maxMapEntries)
	if err != nil {
		return s, err
	}
	s.Mem = make(map[int64]int64, hint(nm))
	for i := 0; i < nm; i++ {
		a, err := r.varint(what + " memory address")
		if err != nil {
			return s, err
		}
		v, err := r.varint(what + " memory value")
		if err != nil {
			return s, err
		}
		s.Mem[a] = v
	}
	nf, err := r.count(what+" fp memory entries", maxMapEntries)
	if err != nil {
		return s, err
	}
	s.FMem = make(map[int64]float64, hint(nf))
	for i := 0; i < nf; i++ {
		a, err := r.varint(what + " fp memory address")
		if err != nil {
			return s, err
		}
		v, err := r.float(what + " fp memory value")
		if err != nil {
			return s, err
		}
		s.FMem[a] = v
	}
	return s, nil
}

// snapshotDelta reads the v2 checkpoint section. The returned snapshot's
// Mem/FMem hold only the delta entries; the returned memDelta's tombstone
// lists name base addresses the checkpoint deleted. Both stay unresolved
// until the snapshot is materialized against a bound image.
func (r *planReader) snapshotDelta(what string) (emulator.Snapshot, *memDelta, error) {
	var s emulator.Snapshot
	var err error
	for i := range s.IntRegs {
		if s.IntRegs[i], err = r.varint(what + " int register"); err != nil {
			return s, nil, err
		}
	}
	for i := range s.FPRegs {
		if s.FPRegs[i], err = r.float(what + " fp register"); err != nil {
			return s, nil, err
		}
	}
	pc, err := r.varint(what + " pc")
	if err != nil {
		return s, nil, err
	}
	s.PC = int(pc)
	if s.Seq, err = r.varint(what + " seq"); err != nil {
		return s, nil, err
	}
	if s.Halted, err = r.bool(what + " halted"); err != nil {
		return s, nil, err
	}
	nm, err := r.count(what+" changed memory entries", maxMapEntries)
	if err != nil {
		return s, nil, err
	}
	s.Mem = make(map[int64]int64, hint(nm))
	for i := 0; i < nm; i++ {
		a, err := r.varint(what + " memory address")
		if err != nil {
			return s, nil, err
		}
		v, err := r.varint(what + " memory value")
		if err != nil {
			return s, nil, err
		}
		s.Mem[a] = v
	}
	nt, err := r.count(what+" memory tombstones", maxMapEntries)
	if err != nil {
		return s, nil, err
	}
	tombs := make([]int64, 0, hint(nt))
	for i := 0; i < nt; i++ {
		a, err := r.varint(what + " memory tombstone")
		if err != nil {
			return s, nil, err
		}
		tombs = append(tombs, a)
	}
	nf, err := r.count(what+" changed fp memory entries", maxMapEntries)
	if err != nil {
		return s, nil, err
	}
	s.FMem = make(map[int64]float64, hint(nf))
	for i := 0; i < nf; i++ {
		a, err := r.varint(what + " fp memory address")
		if err != nil {
			return s, nil, err
		}
		v, err := r.float(what + " fp memory value")
		if err != nil {
			return s, nil, err
		}
		s.FMem[a] = v
	}
	nft, err := r.count(what+" fp memory tombstones", maxMapEntries)
	if err != nil {
		return s, nil, err
	}
	ftombs := make([]int64, 0, hint(nft))
	for i := 0; i < nft; i++ {
		a, err := r.varint(what + " fp memory tombstone")
		if err != nil {
			return s, nil, err
		}
		ftombs = append(ftombs, a)
	}
	return s, &memDelta{tombs: tombs, ftombs: ftombs}, nil
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
	if version < planMinVersion || version > PlanFileVersion {
		return nil, imgHash, r.failf("unsupported plan version %d (want %d..%d)",
			version, planMinVersion, PlanFileVersion)
	}

	pl := &Plan{}
	if pl.Name, err = r.str("plan name", maxPlanNameLen); err != nil {
		return nil, imgHash, err
	}
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
	if p.FunctionalWarmInsts, err = r.varint("functional warm insts"); err != nil {
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
	if pl.maxInsts, err = r.varint("max insts"); err != nil {
		return nil, imgHash, err
	}
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

	warmPresent, err := r.bool("warm-columns flag")
	if err != nil {
		return nil, imgHash, err
	}
	if warmPresent {
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

	nReps, err := r.count("rep count", maxPlanReps)
	if err != nil {
		return nil, imgHash, err
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
		if rep.FuncWarmInsts, err = r.varint("rep functional warm insts"); err != nil {
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
		if version >= 2 {
			if rep.Snap, rep.snapDelta, err = r.snapshotDelta("rep checkpoint"); err != nil {
				return nil, imgHash, err
			}
			if rep.WarmSnap, rep.warmDelta, err = r.snapshotDelta("rep warm checkpoint"); err != nil {
				return nil, imgHash, err
			}
		} else {
			if rep.Snap, err = r.snapshot("rep checkpoint"); err != nil {
				return nil, imgHash, err
			}
			if rep.WarmSnap, err = r.snapshot("rep warm checkpoint"); err != nil {
				return nil, imgHash, err
			}
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
		return nil, &FormatError{Offset: int64(len(planMagic)) + 1,
			Msg: fmt.Sprintf("image hash mismatch: plan built for %x, image is %x", gotHash[:8], imgHash[:8])}
	}
	if pl.maxInsts != maxInsts {
		return nil, &FormatError{Msg: fmt.Sprintf("stream bound mismatch: plan built for %d, want %d", pl.maxInsts, maxInsts)}
	}
	if norm := p.Normalize(); pl.Params != norm {
		return nil, &FormatError{Msg: fmt.Sprintf("params mismatch: plan built for %+v, want %+v", pl.Params, norm)}
	}
	// v2 checkpoints stay in delta form until something reads them (see
	// windowSnap and repSnap), so binding costs nothing per representative.
	pl.img = img
	pl.windowSnaps = make([]lazySnap, len(pl.Reps))
	return pl, nil
}

// lazySnap is a checkpoint materialized from its v2 delta form on first use.
type lazySnap struct {
	once sync.Once
	snap emulator.Snapshot
}

// windowSnap returns representative i's window-entry checkpoint (WarmSnap)
// with full memory maps. A loaded plan materializes it against the bound
// image on first use — base data, minus tombstones, overlaid with the delta
// entries, the exact inverse of snapshotDelta — and keeps it: every
// estimate restores it. The first estimate does this inside its window
// workers, alongside the warm replay, rather than serially at load time.
func (pl *Plan) windowSnap(i int) emulator.Snapshot {
	rep := &pl.Reps[i]
	if rep.warmDelta == nil {
		return rep.WarmSnap
	}
	ls := &pl.windowSnaps[i]
	ls.once.Do(func() { ls.snap = rep.warmDelta.materialize(rep.WarmSnap, pl.img) })
	return ls.snap
}

// repSnap returns representative i's warm-span checkpoint (Snap) with full
// memory maps, materializing it from delta form without keeping it: only
// the general warming path reads it, once per geometry.
func (pl *Plan) repSnap(i int) emulator.Snapshot {
	rep := &pl.Reps[i]
	if rep.snapDelta == nil {
		return rep.Snap
	}
	return rep.snapDelta.materialize(rep.Snap, pl.img)
}

// materialize returns s — a snapshot whose maps hold only delta entries —
// with full memory maps rebuilt against img.
func (d *memDelta) materialize(s emulator.Snapshot, img *program.Image) emulator.Snapshot {
	s.Mem = overlay(img.Data, s.Mem, d.tombs)
	s.FMem = overlay(img.FData, s.FMem, d.ftombs)
	return s
}

// overlay reconstructs a full checkpoint memory map from its delta form:
// a clone of the image's base data, minus tombstones, plus the delta.
func overlay[V any](base, delta map[int64]V, tombs []int64) map[int64]V {
	full := make(map[int64]V, len(base)+len(delta))
	for a, v := range base {
		full[a] = v
	}
	for _, a := range tombs {
		delete(full, a)
	}
	for a, v := range delta {
		full[a] = v
	}
	return full
}
