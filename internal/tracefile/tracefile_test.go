package tracefile

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"github.com/noreba-sim/noreba/internal/compiler"
	"github.com/noreba-sim/noreba/internal/emulator"
	"github.com/noreba-sim/noreba/internal/workgen"
)

func genSource(t *testing.T, seed uint64) (emulator.TraceSource, *compiler.Meta) {
	t.Helper()
	p := workgen.FromSeed(seed)
	p.Iterations = 30
	prog, _, err := workgen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := compiler.Compile(prog, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return emulator.NewSource(emulator.New(res.Image), 1<<20), res.Meta
}

func dump(t *testing.T, src emulator.TraceSource, meta *compiler.Meta) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, src, meta); err != nil {
		t.Fatalf("dump: %v", err)
	}
	return buf.Bytes()
}

// TestRoundTripStream: every record of a written trace replays identically,
// including Name, Counts and the clean terminal state.
func TestRoundTripStream(t *testing.T) {
	src, meta := genSource(t, 11)
	ref, refErr := emulator.Materialize(src)
	if refErr != nil {
		t.Fatal(refErr)
	}

	src2, _ := genSource(t, 11)
	blob := dump(t, src2, meta)

	rd, err := Open(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if rd.Name() != ref.Name {
		t.Errorf("name %q, want %q", rd.Name(), ref.Name)
	}
	got, gotErr := emulator.Materialize(rd)
	if gotErr != nil {
		t.Fatalf("replay terminal error: %v", gotErr)
	}
	if len(got.Insts) != len(ref.Insts) {
		t.Fatalf("replayed %d insts, want %d", len(got.Insts), len(ref.Insts))
	}
	for i := range ref.Insts {
		// Assembler labels are not part of the binary encoding (Target
		// PCs are); a replayed instruction carries an empty Label.
		want := ref.Insts[i]
		want.Inst.Label = ""
		if !reflect.DeepEqual(got.Insts[i], want) {
			t.Fatalf("inst %d differs:\n got %+v\nwant %+v", i, got.Insts[i], want)
		}
	}
	src3, _ := genSource(t, 11)
	want := emulator.Counts{}
	for {
		var d emulator.DynInst
		if !src3.NextInto(&d) {
			break
		}
		want.Add(&d)
	}
	if rd.Counts() != want {
		t.Errorf("counts %+v, want %+v", rd.Counts(), want)
	}
}

// TestRoundTripMeta: embedded branch metadata survives the trip.
func TestRoundTripMeta(t *testing.T) {
	src, meta := genSource(t, 4)
	if meta == nil || len(meta.Branches) == 0 {
		t.Fatal("sample compiled with no branch metadata")
	}
	blob := dump(t, src, meta)
	rd, err := Open(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rd.Meta(), meta) {
		t.Errorf("meta differs:\n got %+v\nwant %+v", rd.Meta(), meta)
	}

	// nil meta stays nil.
	src2, _ := genSource(t, 4)
	rd2, err := Open(bytes.NewReader(dump(t, src2, nil)))
	if err != nil {
		t.Fatal(err)
	}
	if rd2.Meta() != nil {
		t.Error("plain trace replayed with non-nil meta")
	}
}

// TestRoundTripMemError: a stream ending on a memory exception replays the
// same *emulator.MemError.
func TestRoundTripMemError(t *testing.T) {
	src, _ := genSource(t, 2)
	var buf bytes.Buffer
	tw, err := NewWriter(&buf, src.Name(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var last emulator.DynInst
	for i := 0; i < 10; i++ {
		var d emulator.DynInst
		if !src.NextInto(&d) {
			t.Fatal("source too short")
		}
		last = d
		if err := tw.WriteInst(&d); err != nil {
			t.Fatal(err)
		}
	}
	want := &emulator.MemError{PC: last.PC, Seq: last.Seq + 1, Addr: 0x7fff_ffff}
	if err := tw.Close(want); err != nil {
		t.Fatal(err)
	}

	rd, err := Open(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		if !rd.NextInto(&emulator.DynInst{}) {
			break
		}
		n++
	}
	if n != 10 {
		t.Fatalf("replayed %d insts, want 10", n)
	}
	var me *emulator.MemError
	if !errors.As(rd.Err(), &me) {
		t.Fatalf("terminal error %v is not a MemError", rd.Err())
	}
	if !reflect.DeepEqual(me, want) {
		t.Errorf("got %+v, want %+v", me, want)
	}
}

// TestRecorderTee: recording while consuming yields the same file as Write,
// and does not perturb what the consumer sees.
func TestRecorderTee(t *testing.T) {
	srcA, meta := genSource(t, 6)
	direct := dump(t, srcA, meta)

	srcB, _ := genSource(t, 6)
	var buf bytes.Buffer
	rec, err := NewRecorder(srcB, &buf, meta)
	if err != nil {
		t.Fatal(err)
	}
	tr, terr := emulator.Materialize(rec)
	if terr != nil {
		t.Fatal(terr)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), direct) {
		t.Error("recorder output differs from direct Write")
	}
	if tr.Len() == 0 || rec.Name() != srcB.Name() {
		t.Error("recorder perturbed the consumer view")
	}
}

// TestRecorderEarlyStop: a consumer that stops early still leaves a valid,
// shorter trace on Close.
func TestRecorderEarlyStop(t *testing.T) {
	src, _ := genSource(t, 8)
	var buf bytes.Buffer
	rec, err := NewRecorder(src, &buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if !rec.NextInto(&emulator.DynInst{}) {
			t.Fatal("source too short")
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	rd, err := Open(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, gerr := emulator.Materialize(rd)
	if gerr != nil {
		t.Fatal(gerr)
	}
	if got.Len() != 25 {
		t.Errorf("replayed %d insts, want 25", got.Len())
	}
}

// TestWriterRejects: misuse fails loudly rather than producing a bad file.
func TestWriterRejects(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, strings.Repeat("x", maxNameLen+1), nil); err == nil {
		t.Error("oversized name accepted")
	}
	tw, err := NewWriter(&buf, "t", nil)
	if err != nil {
		t.Fatal(err)
	}
	src, _ := genSource(t, 1)
	var d emulator.DynInst
	src.NextInto(&d)
	if err := tw.WriteInst(&d); err != nil {
		t.Fatal(err)
	}
	if err := tw.WriteInst(&d); err == nil {
		t.Error("non-increasing seq accepted")
	}
	if err := tw.Close(errors.New("not a mem error")); err == nil {
		t.Error("arbitrary terminal error accepted")
	}
	if err := tw.Close(nil); err != nil {
		t.Fatal(err)
	}
	if err := tw.WriteInst(&d); err == nil {
		t.Error("WriteInst after Close accepted")
	}
	if err := tw.Close(nil); err == nil {
		t.Error("double Close accepted")
	}
}

// TestCorruptInputs: every malformed input fails with a *FormatError naming
// an offset — at Open for header damage, at the first affected read for
// record damage — and never panics or silently truncates.
func TestCorruptInputs(t *testing.T) {
	src, meta := genSource(t, 3)
	valid := dump(t, src, meta)

	openErr := func(t *testing.T, blob []byte) *FormatError {
		t.Helper()
		rd, err := Open(bytes.NewReader(blob))
		if err == nil {
			for {
				if !rd.NextInto(&emulator.DynInst{}) {
					break
				}
			}
			err = rd.Err()
		}
		fe, ok := AsFormatError(err)
		if !ok {
			t.Fatalf("error %v (%T) is not a *FormatError", err, err)
		}
		return fe
	}

	t.Run("empty", func(t *testing.T) {
		fe := openErr(t, nil)
		if fe.Offset != 0 {
			t.Errorf("offset %d, want 0", fe.Offset)
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		blob := append([]byte(nil), valid...)
		blob[0] = 'X'
		openErr(t, blob)
	})
	t.Run("future version", func(t *testing.T) {
		blob := append([]byte(nil), valid...)
		blob[4] = Version + 1
		fe := openErr(t, blob)
		if !strings.Contains(fe.Msg, "version") {
			t.Errorf("message %q does not name the version", fe.Msg)
		}
	})
	t.Run("truncated every prefix", func(t *testing.T) {
		for n := 0; n < len(valid)-1; n++ {
			fe := openErr(t, valid[:n])
			if fe.Offset < 0 || fe.Offset > int64(n) {
				t.Fatalf("prefix %d: offset %d out of file", n, fe.Offset)
			}
		}
	})
	t.Run("hostile name length", func(t *testing.T) {
		blob := []byte(magic)
		blob = append(blob, Version, 0xff, 0xff, 0xff, 0xff, 0x7f)
		fe := openErr(t, blob)
		if !strings.Contains(fe.Msg, "name") {
			t.Errorf("message %q does not name the field", fe.Msg)
		}
	})
	t.Run("hostile branch count", func(t *testing.T) {
		blob := []byte(magic)
		blob = append(blob, Version, 1, 'a', 1, 0xff, 0xff, 0xff, 0xff, 0x7f)
		openErr(t, blob)
	})
	t.Run("unknown tag", func(t *testing.T) {
		var hdr bytes.Buffer
		tw, err := NewWriter(&hdr, "t", nil)
		if err != nil {
			t.Fatal(err)
		}
		_ = tw
		blob := append(hdr.Bytes(), 0x7e)
		fe := openErr(t, blob)
		if !strings.Contains(fe.Msg, "tag") {
			t.Errorf("message %q does not name the tag", fe.Msg)
		}
	})
	t.Run("missing end marker", func(t *testing.T) {
		// Chop the 1-byte clean end marker off a valid file.
		fe := openErr(t, valid[:len(valid)-1])
		if !strings.Contains(fe.Msg, "end-of-stream") {
			t.Errorf("message %q does not say the end marker is missing", fe.Msg)
		}
	})
}

// TestFormatErrorShape: Error() names the offset; Unwrap surfaces the cause.
func TestFormatErrorShape(t *testing.T) {
	cause := errors.New("boom")
	fe := &FormatError{Offset: 42, Msg: "bad thing", Err: cause}
	if !strings.Contains(fe.Error(), "42") || !strings.Contains(fe.Error(), "bad thing") {
		t.Errorf("unhelpful message %q", fe.Error())
	}
	if !errors.Is(fe, cause) {
		t.Error("Unwrap lost the cause")
	}
	if _, ok := AsFormatError(io.EOF); ok {
		t.Error("AsFormatError matched a non-FormatError")
	}
}
