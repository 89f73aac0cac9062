package multicore

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"github.com/noreba-sim/noreba/internal/compiler"
	"github.com/noreba-sim/noreba/internal/emulator"
	"github.com/noreba-sim/noreba/internal/isa"
	"github.com/noreba-sim/noreba/internal/program"
	"github.com/noreba-sim/noreba/internal/tracefile"
	"github.com/noreba-sim/noreba/internal/workloads"
)

// poisonRecord has every field non-zero, Inst.Label included: a source that
// leaves any field of its destination unwritten delivers a poisoned value.
var poisonRecord = emulator.DynInst{
	Seq: -1, PC: -1, Taken: true, NextPC: -1, Addr: -1, Trap: true,
	Inst: isa.Inst{Op: isa.OpHalt, Rd: isa.A0, Rs1: isa.A0, Rs2: isa.A0,
		Imm: -1, Aux: -1, Target: -1, Label: "poison"},
}

// TestTraceSourceConformance holds every emulator.TraceSource to the one
// pull contract: NextInto fully overwrites its destination, the stream,
// Counts and Err equal the live machine source's, and once NextInto has
// returned false it keeps returning false. It lives here because
// offsetSource is unexported and this package's tests reach every other
// implementation too.
func TestTraceSourceConformance(t *testing.T) {
	if err := nonZero(reflect.ValueOf(poisonRecord)); err != "" {
		t.Fatalf("poison record has a zero field %s", err)
	}
	w, err := workloads.ByName("dijkstra")
	if err != nil {
		t.Fatal(err)
	}
	res, err := compiler.Compile(w.Build(4), compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b := program.NewBuilder("trap")
	b.Label("entry").Li(isa.A0, 20).Li(isa.S0, 0x1000)
	b.Label("loop").Lw(isa.A1, isa.S0, 0).Addi(isa.A0, isa.A0, -1).Bnez(isa.A0, "loop")
	b.Label("fault").Li(isa.S1, 0x9999999).Lw(isa.A1, isa.S1, 0).Halt()
	b.Data(0x1000, 1)
	b.ValidRange(0x1000, 0x1100)
	trapImg, err := b.MustBuild().Layout()
	if err != nil {
		t.Fatal(err)
	}

	streams := []struct {
		name     string
		img      *program.Image
		meta     *compiler.Meta
		maxInsts int64
	}{
		{"halt", res.Image, res.Meta, 1 << 20},
		{"budget", res.Image, res.Meta, 777},
		{"trap", trapImg, nil, 1 << 20},
	}
	for _, st := range streams {
		machine := func() emulator.TraceSource { return emulator.NewSource(emulator.New(st.img), st.maxInsts) }
		ref := machine()
		want, wantErr := emulator.Materialize(ref)
		labelled := false
		for i := range want.Insts {
			labelled = labelled || want.Insts[i].Inst.Label != ""
		}
		if !labelled || (st.name == "trap") != (wantErr != nil) {
			t.Fatalf("%s: stream does not exercise the contract (labels %v, err %v)", st.name, labelled, wantErr)
		}

		var file bytes.Buffer
		if err := tracefile.Write(&file, machine(), st.meta); !reflect.DeepEqual(err, wantErr) {
			t.Fatalf("%s: dump: %v", st.name, err)
		}
		reader, err := tracefile.Open(&file)
		if err != nil {
			t.Fatal(err)
		}
		recorder, err := tracefile.NewRecorder(machine(), io.Discard, st.meta)
		if err != nil {
			t.Fatal(err)
		}
		impls := []struct {
			name    string
			src     emulator.TraceSource
			noLabel bool  // the trace file format does not carry labels
			err     error // expected terminal error
		}{
			{"machine", machine(), false, wantErr},
			// A materialized trace is a complete stream by definition: its
			// producing run's terminal error is not replayed.
			{"trace", want.Source(), false, nil},
			{"busview", emulator.NewBroadcast(machine(), 0).View(), false, wantErr},
			{"reader", reader, true, wantErr},
			{"recorder", recorder, false, wantErr},
			{"offset", &offsetSource{src: machine()}, false, wantErr},
		}
		for _, im := range impls {
			where := st.name + "/" + im.name
			if im.src.Name() != want.Name {
				t.Errorf("%s: name %q, want %q", where, im.src.Name(), want.Name)
			}
			d := new(emulator.DynInst)
			n := 0 // records delivered, capped one past the expected count
			for n <= len(want.Insts) {
				*d = poisonRecord
				if !im.src.NextInto(d) {
					break
				}
				if n < len(want.Insts) {
					exp := want.Insts[n]
					if im.noLabel {
						exp.Inst.Label = ""
					}
					if *d != exp {
						t.Fatalf("%s: record %d is\n%+v\nwant\n%+v", where, n, *d, exp)
					}
				}
				n++
			}
			if n != len(want.Insts) {
				t.Errorf("%s: delivered %d records, want %d", where, n, len(want.Insts))
			}
			for i := 0; i < 3; i++ {
				if im.src.NextInto(d) {
					t.Fatalf("%s: NextInto delivered again after returning false", where)
				}
			}
			if im.src.Counts() != ref.Counts() {
				t.Errorf("%s: counts %+v, want %+v", where, im.src.Counts(), ref.Counts())
			}
			if err := im.src.Err(); !reflect.DeepEqual(err, im.err) {
				t.Errorf("%s: err %v, want %v", where, err, im.err)
			}
		}
		if err := recorder.Close(); err != nil {
			t.Errorf("%s: recorder close: %v", st.name, err)
		}
	}
}

// nonZero returns the path of the first zero field in v, or "".
func nonZero(v reflect.Value) string {
	if v.Kind() != reflect.Struct {
		if v.IsZero() {
			return "."
		}
		return ""
	}
	for i := 0; i < v.NumField(); i++ {
		if p := nonZero(v.Field(i)); p != "" {
			return "." + v.Type().Field(i).Name + p
		}
	}
	return ""
}
