// Package tracefile is the versioned on-disk format for correct-path
// dynamic instruction traces: the stable interchange boundary between the
// functional emulator and any consumer of emulator.TraceSource — this
// repository's pipeline cores, external tools, or future simulator versions
// (the gem5 checkpoint/trace-replay workflow is the model, PAPERS.md).
//
// Layout (all multi-byte integers are varints; see DESIGN.md §12):
//
//	magic "NRTF" | u8 version
//	uvarint nameLen | name bytes
//	u8 hasMeta | [uvarint branchCount | per-branch records]
//	records: tag u8
//	  0x01 instruction: uvarint seqDelta (≥1) | uvarint pc |
//	       u8 op | u8 rd | u8 rs1 | u8 rs2 |
//	       varint imm | varint aux | varint target |
//	       u8 flags (1=Taken 2=Trap) |
//	       varint nextPCDelta (NextPC−(pc+1)) | varint addr
//	  0x02 clean end of stream
//	  0x03 end on memory exception: varint pc | varint seq | varint addr
//
// Instructions serialize field-by-field rather than through the flat 64-bit
// image word: the in-memory IR admits full 64-bit immediates (Li-expanded
// constants in several kernels) that the image encoding's 32-bit immediate
// cannot hold, and a trace of a valid run must never be unwritable.
//
// Resolved Target PCs survive; assembler label strings (cosmetic) do not.
//
// A trace without its end marker is truncated; the reader reports that (and
// every other corruption) as a *FormatError naming the byte offset, never a
// panic and never a silently short stream. Compiler branch metadata rides in
// the header so an annotated trace replays with full NOREBA commit-policy
// fidelity; plain traces (hasMeta 0) degrade to the unannotated behaviour,
// exactly as a nil Meta does everywhere else.
//
// Version-bump policy: any change to record layout, field meaning or varint
// framing increments Version; readers reject other versions outright rather
// than guessing (a replayed trace feeds golden-stats comparisons, so a
// misparse that "mostly works" is worse than a refusal).
package tracefile

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

	"github.com/noreba-sim/noreba/internal/compiler"
	"github.com/noreba-sim/noreba/internal/emulator"
	"github.com/noreba-sim/noreba/internal/isa"
)

// Version is the current format version. See the package comment for the
// bump policy.
const Version = 1

const magic = "NRTF"

// Record tags.
const (
	tagInst    = 0x01
	tagEnd     = 0x02
	tagEndTrap = 0x03
)

// Flag bits of an instruction record.
const (
	flagTaken = 1 << 0
	flagTrap  = 1 << 1
)

// Caps on hostile header fields: no well-formed trace comes near them, and
// they bound what a corrupt length prefix can make the reader allocate.
const (
	maxNameLen     = 1 << 12
	maxMetaEntries = 1 << 20
)

// FormatError is the typed diagnostic for a malformed trace file: the byte
// offset the corruption was detected at plus what was wrong. Every error
// path of Open and Reader reports one (possibly wrapping an underlying
// cause), so callers can distinguish "bad file" from I/O failure by type.
type FormatError struct {
	Offset int64
	Msg    string
	Err    error // underlying cause, if any
}

func (e *FormatError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("tracefile: offset %d: %s: %v", e.Offset, e.Msg, e.Err)
	}
	return fmt.Sprintf("tracefile: offset %d: %s", e.Offset, e.Msg)
}

func (e *FormatError) Unwrap() error { return e.Err }

// AsFormatError extracts a *FormatError from err, if it is one.
func AsFormatError(err error) (*FormatError, bool) {
	var fe *FormatError
	if errors.As(err, &fe) {
		return fe, true
	}
	return nil, false
}

// ---- writer ----

// Writer serialises a dynamic instruction stream. Create with NewWriter
// (which writes the header immediately), feed every delivered instruction to
// WriteInst in order, then Close with the stream's terminal error. Writers
// buffer internally; Close flushes.
type Writer struct {
	w       *bufio.Writer
	prevSeq int64
	ended   bool
	scratch [binary.MaxVarintLen64]byte
}

// NewWriter writes the header (name plus optional branch metadata) and
// returns a writer for the records. meta may be nil for unannotated traces.
func NewWriter(w io.Writer, name string, meta *compiler.Meta) (*Writer, error) {
	if len(name) > maxNameLen {
		return nil, fmt.Errorf("tracefile: name %d bytes exceeds %d", len(name), maxNameLen)
	}
	tw := &Writer{w: bufio.NewWriter(w), prevSeq: -1}
	tw.w.WriteString(magic)
	tw.w.WriteByte(Version)
	tw.uvarint(uint64(len(name)))
	tw.w.WriteString(name)
	if meta == nil {
		tw.w.WriteByte(0)
	} else {
		tw.w.WriteByte(1)
		pcs := make([]int, 0, len(meta.Branches))
		for pc := range meta.Branches {
			pcs = append(pcs, pc)
		}
		sort.Ints(pcs)
		tw.uvarint(uint64(len(pcs)))
		for _, pc := range pcs {
			bm := meta.Branches[pc]
			var marked byte
			if bm.Marked {
				marked = 1
			}
			tw.uvarint(uint64(pc))
			tw.w.WriteByte(marked)
			tw.varint(bm.ID)
			tw.varint(int64(bm.ReconvPC)) // -1 when no reconvergence point
			tw.uvarint(uint64(bm.TakenLen))
			tw.uvarint(uint64(bm.FallLen))
			tw.uvarint(uint64(bm.StaticDeps))
		}
	}
	if err := tw.w.Flush(); err != nil {
		return nil, fmt.Errorf("tracefile: header: %w", err)
	}
	return tw, nil
}

func (tw *Writer) uvarint(v uint64) {
	n := binary.PutUvarint(tw.scratch[:], v)
	tw.w.Write(tw.scratch[:n])
}

func (tw *Writer) varint(v int64) {
	n := binary.PutVarint(tw.scratch[:], v)
	tw.w.Write(tw.scratch[:n])
}

// WriteInst appends one instruction record. Sequence numbers must be
// strictly increasing and the instruction's op and registers must be valid
// (every emulator-delivered instruction is).
func (tw *Writer) WriteInst(d *emulator.DynInst) error {
	if tw.ended {
		return fmt.Errorf("tracefile: WriteInst after Close")
	}
	if d.Seq <= tw.prevSeq {
		return fmt.Errorf("tracefile: seq %d not above previous %d", d.Seq, tw.prevSeq)
	}
	in := &d.Inst
	if !in.Op.Valid() {
		return fmt.Errorf("tracefile: seq %d: invalid op %d", d.Seq, in.Op)
	}
	if !in.Rd.Valid() || !in.Rs1.Valid() || !in.Rs2.Valid() {
		return fmt.Errorf("tracefile: seq %d: %v has an out-of-range register", d.Seq, in.Op)
	}
	tw.w.WriteByte(tagInst)
	tw.uvarint(uint64(d.Seq - tw.prevSeq))
	tw.uvarint(uint64(d.PC))
	tw.w.WriteByte(byte(in.Op))
	tw.w.WriteByte(byte(in.Rd))
	tw.w.WriteByte(byte(in.Rs1))
	tw.w.WriteByte(byte(in.Rs2))
	tw.varint(in.Imm)
	tw.varint(in.Aux)
	tw.varint(int64(in.Target))
	var flags byte
	if d.Taken {
		flags |= flagTaken
	}
	if d.Trap {
		flags |= flagTrap
	}
	tw.w.WriteByte(flags)
	tw.varint(int64(d.NextPC - (d.PC + 1)))
	tw.varint(d.Addr)
	tw.prevSeq = d.Seq
	return tw.flushErr()
}

// flushErr surfaces any buffered write error without forcing a flush.
func (tw *Writer) flushErr() error {
	if _, err := tw.w.Write(nil); err != nil {
		return fmt.Errorf("tracefile: write: %w", err)
	}
	return nil
}

// Close writes the end-of-stream marker and flushes. terminal is the
// source's Err() result: nil for a clean halt, or the *emulator.MemError of
// a faulting run (any other error kind is not representable in the format
// and is rejected). Close is idempotent in effect: a second call fails.
func (tw *Writer) Close(terminal error) error {
	if tw.ended {
		return fmt.Errorf("tracefile: already closed")
	}
	if terminal == nil {
		tw.ended = true
		tw.w.WriteByte(tagEnd)
	} else {
		var me *emulator.MemError
		if !errors.As(terminal, &me) {
			return fmt.Errorf("tracefile: terminal error %T is not a memory exception", terminal)
		}
		tw.ended = true
		tw.w.WriteByte(tagEndTrap)
		tw.varint(int64(me.PC))
		tw.varint(me.Seq)
		tw.varint(me.Addr)
	}
	if err := tw.w.Flush(); err != nil {
		return fmt.Errorf("tracefile: close: %w", err)
	}
	return nil
}

// Write drains src to w in one call: the materializing path for callers that
// do not need to consume the stream while dumping it (the CLI's -trace-out
// wraps a Recorder instead). The source's terminal memory exception, if any,
// is recorded and also returned.
func Write(w io.Writer, src emulator.TraceSource, meta *compiler.Meta) error {
	tw, err := NewWriter(w, src.Name(), meta)
	if err != nil {
		return err
	}
	var d emulator.DynInst
	for src.NextInto(&d) {
		if err := tw.WriteInst(&d); err != nil {
			return err
		}
	}
	if err := tw.Close(src.Err()); err != nil {
		return err
	}
	return src.Err()
}

// ---- recorder ----

// Recorder tees a TraceSource to a Writer: consumers pull instructions as
// usual and every delivered record is serialised on the way through, so a
// live simulation can dump its trace at no extra emulation cost. When the
// source ends, the end marker is written automatically; call Close to
// confirm no write error was swallowed mid-run (a dump error never corrupts
// the simulation — the stream keeps flowing and the error is held for
// Close).
type Recorder struct {
	src      emulator.TraceSource
	tw       *Writer
	writeErr error
	ended    bool
}

// NewRecorder wraps src, writing the header immediately.
func NewRecorder(src emulator.TraceSource, w io.Writer, meta *compiler.Meta) (*Recorder, error) {
	tw, err := NewWriter(w, src.Name(), meta)
	if err != nil {
		return nil, err
	}
	return &Recorder{src: src, tw: tw}, nil
}

// Name implements emulator.TraceSource.
func (rec *Recorder) Name() string { return rec.src.Name() }

// NextInto delivers the underlying source's next instruction into *d,
// recording it.
func (rec *Recorder) NextInto(d *emulator.DynInst) bool {
	if !rec.src.NextInto(d) {
		if !rec.ended {
			rec.ended = true
			if err := rec.tw.Close(rec.src.Err()); err != nil && rec.writeErr == nil {
				rec.writeErr = err
			}
		}
		return false
	}
	if rec.writeErr == nil {
		if err := rec.tw.WriteInst(d); err != nil {
			rec.writeErr = err
		}
	}
	return true
}

// Err implements emulator.TraceSource, reporting the source's terminal
// error; dump failures are reported by Close, not here, so recording never
// changes what a consumer observes.
func (rec *Recorder) Err() error { return rec.src.Err() }

// Counts implements emulator.TraceSource.
func (rec *Recorder) Counts() emulator.Counts { return rec.src.Counts() }

// Close finalises the dump and returns the first write error, if any. If
// the consumer stopped early (the source is not exhausted), the records
// written so far are closed off as a valid — shorter — trace.
func (rec *Recorder) Close() error {
	if !rec.ended {
		rec.ended = true
		if err := rec.tw.Close(rec.src.Err()); err != nil && rec.writeErr == nil {
			rec.writeErr = err
		}
	}
	return rec.writeErr
}

// ---- reader ----

// countingReader tracks the byte offset for FormatError diagnostics.
type countingReader struct {
	r   *bufio.Reader
	pos int64
}

func (cr *countingReader) ReadByte() (byte, error) {
	b, err := cr.r.ReadByte()
	if err == nil {
		cr.pos++
	}
	return b, err
}

func (cr *countingReader) readFull(p []byte) error {
	n, err := io.ReadFull(cr.r, p)
	cr.pos += int64(n)
	return err
}

// Reader replays a serialised trace as an emulator.TraceSource. Obtain one
// with Open; pass Meta() alongside it wherever the original compile
// result's metadata would go.
type Reader struct {
	cr     countingReader
	name   string
	meta   *compiler.Meta
	counts emulator.Counts

	prevSeq int64
	done    bool
	err     error // terminal: *emulator.MemError or *FormatError
}

// Open parses the header and returns a reader positioned at the first
// record. Header corruption (bad magic, unknown version, truncation,
// oversized fields) fails here with a *FormatError; record corruption fails
// at the read that encounters it.
func Open(r io.Reader) (*Reader, error) {
	rd := &Reader{cr: countingReader{r: bufio.NewReader(r)}, prevSeq: -1}

	var hdr [5]byte
	if err := rd.cr.readFull(hdr[:]); err != nil {
		return nil, rd.corrupt("truncated header", err)
	}
	if string(hdr[:4]) != magic {
		return nil, rd.corrupt(fmt.Sprintf("bad magic %q", hdr[:4]), nil)
	}
	if hdr[4] != Version {
		return nil, rd.corrupt(fmt.Sprintf("unsupported version %d (reader speaks %d)", hdr[4], Version), nil)
	}

	nameLen, err := rd.uvarint("name length")
	if err != nil {
		return nil, err
	}
	if nameLen > maxNameLen {
		return nil, rd.corrupt(fmt.Sprintf("name length %d exceeds cap %d", nameLen, maxNameLen), nil)
	}
	name := make([]byte, nameLen)
	if err := rd.cr.readFull(name); err != nil {
		return nil, rd.corrupt("truncated name", err)
	}
	rd.name = string(name)

	hasMeta, err := rd.cr.ReadByte()
	if err != nil {
		return nil, rd.corrupt("truncated meta flag", err)
	}
	switch hasMeta {
	case 0:
	case 1:
		if err := rd.readMeta(); err != nil {
			return nil, err
		}
	default:
		return nil, rd.corrupt(fmt.Sprintf("bad meta flag %d", hasMeta), nil)
	}
	return rd, nil
}

func (rd *Reader) readMeta() error {
	n, err := rd.uvarint("branch count")
	if err != nil {
		return err
	}
	if n > maxMetaEntries {
		return rd.corrupt(fmt.Sprintf("branch count %d exceeds cap %d", n, maxMetaEntries), nil)
	}
	// Size hint capped independently of n: a hostile count must not buy a
	// huge allocation before the (truncated) records refute it.
	hint := n
	if hint > 1<<12 {
		hint = 1 << 12
	}
	meta := &compiler.Meta{Branches: make(map[int]*compiler.BranchMeta, hint)}
	prevPC := -1
	for i := uint64(0); i < n; i++ {
		pc, err := rd.uvarint("branch pc")
		if err != nil {
			return err
		}
		if int64(pc) <= int64(prevPC) {
			return rd.corrupt(fmt.Sprintf("branch pc %d not above previous %d", pc, prevPC), nil)
		}
		prevPC = int(pc)
		marked, err := rd.cr.ReadByte()
		if err != nil {
			return rd.corrupt("truncated branch record", err)
		}
		if marked > 1 {
			return rd.corrupt(fmt.Sprintf("bad marked flag %d", marked), nil)
		}
		id, err := rd.varint("branch id")
		if err != nil {
			return err
		}
		reconv, err := rd.varint("reconvergence pc")
		if err != nil {
			return err
		}
		takenLen, err := rd.uvarint("taken length")
		if err != nil {
			return err
		}
		fallLen, err := rd.uvarint("fall length")
		if err != nil {
			return err
		}
		deps, err := rd.uvarint("static deps")
		if err != nil {
			return err
		}
		meta.Branches[int(pc)] = &compiler.BranchMeta{
			PC: int(pc), Marked: marked == 1, ID: id, ReconvPC: int(reconv),
			TakenLen: int(takenLen), FallLen: int(fallLen), StaticDeps: int(deps),
		}
	}
	rd.meta = meta
	return nil
}

// Meta returns the embedded branch metadata, or nil for plain traces.
func (rd *Reader) Meta() *compiler.Meta { return rd.meta }

// Name implements emulator.TraceSource.
func (rd *Reader) Name() string { return rd.name }

// Counts implements emulator.TraceSource.
func (rd *Reader) Counts() emulator.Counts { return rd.counts }

// Err implements emulator.TraceSource: once NextInto has returned false, it
// reports the stream's terminal state — nil after a clean end marker, the
// replayed *emulator.MemError after a trap end marker, or a *FormatError if
// the file was corrupt or truncated.
func (rd *Reader) Err() error { return rd.err }

// NextInto implements emulator.TraceSource, decoding the next record
// straight into *d.
func (rd *Reader) NextInto(d *emulator.DynInst) bool {
	if rd.done {
		return false
	}
	if err := rd.next(d); err != nil {
		rd.done = true
		rd.err = err
		return false
	}
	if rd.done { // end marker consumed
		return false
	}
	rd.counts.Add(d)
	return true
}

// next decodes one record into *d, or consumes the end marker and sets
// rd.done. On error, or at the end marker, *d holds garbage.
func (rd *Reader) next(d *emulator.DynInst) error {
	tag, err := rd.cr.ReadByte()
	if err != nil {
		return rd.corrupt("missing end-of-stream marker", err)
	}
	switch tag {
	case tagEnd:
		rd.done = true
		return nil
	case tagEndTrap:
		pc, err := rd.varint("trap pc")
		if err != nil {
			return err
		}
		seq, err := rd.varint("trap seq")
		if err != nil {
			return err
		}
		addr, err := rd.varint("trap addr")
		if err != nil {
			return err
		}
		rd.done = true
		rd.err = &emulator.MemError{PC: int(pc), Seq: seq, Addr: addr}
		return nil
	case tagInst:
	default:
		return rd.corrupt(fmt.Sprintf("unknown record tag %#x", tag), nil)
	}

	seqDelta, err := rd.uvarint("seq delta")
	if err != nil {
		return err
	}
	if seqDelta == 0 || seqDelta > 1<<40 {
		return rd.corrupt(fmt.Sprintf("bad seq delta %d", seqDelta), nil)
	}
	pc, err := rd.uvarint("pc")
	if err != nil {
		return err
	}
	if pc > 1<<31 {
		return rd.corrupt(fmt.Sprintf("pc %d out of range", pc), nil)
	}
	var fields [4]byte
	if err := rd.cr.readFull(fields[:]); err != nil {
		return rd.corrupt("truncated record", err)
	}
	// The literal clears the fields the format does not carry (Inst.Label),
	// so together with the assignments below *d is fully overwritten.
	in := &d.Inst
	*in = isa.Inst{Op: isa.Op(fields[0]), Rd: isa.Reg(fields[1]), Rs1: isa.Reg(fields[2]), Rs2: isa.Reg(fields[3])}
	if !in.Op.Valid() {
		return rd.corrupt(fmt.Sprintf("invalid op %d", fields[0]), nil)
	}
	if !in.Rd.Valid() || !in.Rs1.Valid() || !in.Rs2.Valid() {
		return rd.corrupt("out-of-range register", nil)
	}
	if in.Imm, err = rd.varint("immediate"); err != nil {
		return err
	}
	if in.Aux, err = rd.varint("aux immediate"); err != nil {
		return err
	}
	target, err := rd.varint("branch target")
	if err != nil {
		return err
	}
	if target < 0 || target > 1<<31 {
		return rd.corrupt(fmt.Sprintf("branch target %d out of range", target), nil)
	}
	in.Target = int(target)
	flags, err := rd.cr.ReadByte()
	if err != nil {
		return rd.corrupt("truncated record", err)
	}
	if flags&^(flagTaken|flagTrap) != 0 {
		return rd.corrupt(fmt.Sprintf("unknown flag bits %#x", flags), nil)
	}
	nextDelta, err := rd.varint("next-pc delta")
	if err != nil {
		return err
	}
	addr, err := rd.varint("address")
	if err != nil {
		return err
	}

	d.Seq = rd.prevSeq + int64(seqDelta)
	d.PC = int(pc)
	d.Taken = flags&flagTaken != 0
	d.NextPC = int(pc) + 1 + int(nextDelta)
	d.Addr = addr
	d.Trap = flags&flagTrap != 0
	rd.prevSeq = d.Seq
	return nil
}

func (rd *Reader) uvarint(what string) (uint64, error) {
	start := rd.cr.pos
	v, err := binary.ReadUvarint(&rd.cr)
	if err != nil {
		return 0, &FormatError{Offset: start, Msg: "bad " + what, Err: err}
	}
	return v, nil
}

func (rd *Reader) varint(what string) (int64, error) {
	start := rd.cr.pos
	v, err := binary.ReadVarint(&rd.cr)
	if err != nil {
		return 0, &FormatError{Offset: start, Msg: "bad " + what, Err: err}
	}
	return v, nil
}

func (rd *Reader) corrupt(msg string, cause error) error {
	if cause == io.EOF || cause == io.ErrUnexpectedEOF {
		cause = nil
		msg += " (truncated file)"
	}
	return &FormatError{Offset: rd.cr.pos, Msg: msg, Err: cause}
}
