package emulator

import (
	"reflect"
	"testing"

	"github.com/noreba-sim/noreba/internal/program"
	"github.com/noreba-sim/noreba/internal/progtest"
)

// TestSnapshotRestoreMidRun: pausing a machine mid-run, perturbing it, and
// restoring must reproduce the exact final state of an uninterrupted run —
// the §4.4 context-switch round trip.
func TestSnapshotRestoreMidRun(t *testing.T) {
	img, err := progtest.Generate(5).Layout()
	if err != nil {
		t.Fatal(err)
	}

	// Reference: run to completion.
	ref := New(img)
	if _, err := ref.Run(1 << 18); err != nil {
		t.Fatal(err)
	}

	// Interrupted: run half, snapshot, trash the machine, restore, finish.
	m := New(img)
	half := ref.Seq() / 2
	for m.Seq() < half && !m.Halted() {
		if err := m.StepInto(&DynInst{}); err != nil {
			t.Fatal(err)
		}
	}
	snap := m.Snapshot()

	// "Context switch": run a different program's worth of damage.
	for i := range m.IntRegs {
		m.IntRegs[i] = -1
	}
	m.Mem[0xdead] = 42
	m.PC = 0

	m.Restore(snap)
	for !m.Halted() {
		if err := m.StepInto(&DynInst{}); err != nil {
			t.Fatal(err)
		}
	}

	if m.IntRegs != ref.IntRegs || m.FPRegs != ref.FPRegs {
		t.Error("registers diverged after snapshot/restore round trip")
	}
	if len(m.Mem) != len(ref.Mem) {
		t.Fatalf("memory footprint diverged: %d vs %d words", len(m.Mem), len(ref.Mem))
	}
	for a, v := range ref.Mem {
		if m.Mem[a] != v {
			t.Errorf("mem[%#x] = %d, want %d", a, m.Mem[a], v)
		}
	}
}

// TestSnapshotIsDeep: mutating the machine after a snapshot must not leak
// into the snapshot.
func TestSnapshotIsDeep(t *testing.T) {
	p := program.MustAssemble("snap", `
main:
	li s0, 0x100
	li a0, 7
	sw a0, 0(s0)
	halt
`)
	img, _ := p.Layout()
	m := New(img)
	if _, err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	m.Mem[0x100] = 999
	m.IntRegs[10] = 999
	if snap.Mem[0x100] != 7 {
		t.Error("snapshot memory aliased the machine")
	}
	if snap.IntRegs[10] != 7 {
		t.Error("snapshot registers aliased the machine")
	}
}

// TestRestoredSnapshotIsFullAndIndependent: a machine from NewRestored reads
// through to its checkpoint instead of copying it, but its Snapshot must
// still be the whole architectural state, owned outright — equal to the
// snapshot of a machine that ran the same instructions with its own memory,
// unaffected by later writes, and leaving the checkpoint it read untouched.
func TestRestoredSnapshotIsFullAndIndependent(t *testing.T) {
	img, err := progtest.Generate(3).Layout()
	if err != nil {
		t.Fatal(err)
	}
	probe := New(img)
	if _, err := probe.Run(1 << 16); err != nil {
		t.Fatal(err)
	}
	half := probe.Seq() / 2

	ref := New(img)
	for ref.Seq() < half {
		if err := ref.StepInto(&DynInst{}); err != nil {
			t.Fatal(err)
		}
	}
	ckpt := ref.Snapshot()
	frozen := ref.Snapshot() // a second copy to detect writes into ckpt

	m := NewRestored(img, ckpt)
	for i := 0; i < 200 && !ref.Halted(); i++ {
		if err := ref.StepInto(&DynInst{}); err != nil {
			t.Fatal(err)
		}
		if err := m.StepInto(&DynInst{}); err != nil {
			t.Fatal(err)
		}
	}
	if len(m.Mem)+len(m.FMem) == 0 {
		t.Fatal("no stores in the stepped span: the read-through overlay is not exercised")
	}
	got, want := m.Snapshot(), ref.Snapshot()
	if !reflect.DeepEqual(got, want) {
		t.Fatal("restored machine's snapshot differs from the continuous machine's")
	}
	if !reflect.DeepEqual(ckpt, frozen) {
		t.Fatal("restored machine wrote into the checkpoint it reads through")
	}
	for a := range got.Mem {
		m.Mem[a]++
		if got.Mem[a] != want.Mem[a] {
			t.Fatalf("snapshot memory aliased the machine at %#x", a)
		}
		break
	}
	if len(got.Mem) < len(ckpt.Mem) {
		t.Fatalf("snapshot holds %d words, checkpoint %d: not a full snapshot", len(got.Mem), len(ckpt.Mem))
	}
}
