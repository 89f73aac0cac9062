package emulator

import (
	"strings"
	"testing"

	"github.com/noreba-sim/noreba/internal/isa"
)

// TestRemainingOps drives the opcode cases the main tests leave out:
// unsigned compares, shift-register forms, FP min/max/compare edges, store
// faults, and the CIT/fence no-ops.
func TestRemainingOps(t *testing.T) {
	m, _, err := run(t, `
main:
	li   a0, -1
	li   a1, 1
	sltu a2, a0, a1     # unsigned: ffff... > 1 -> 0
	sltu a3, a1, a0     # -> 1
	bltu a1, a0, l1
l1:
	bgeu a0, a1, l2
l2:
	li   a4, 3
	sll  a5, a1, a4
	srl  s2, a5, a4
	sra  s3, a0, a4     # arithmetic shift of -1 stays -1
	lui  s4, 2
	srai s5, s4, 1
	fcvt.d.l f0, a1
	fcvt.d.l f1, a4
	fmin f2, f0, f1
	fmax f3, f0, f1
	fle  s6, f0, f1
	feq  s7, f0, f0
	fsub f4, f1, f0
	fence
	getCITEntry s8, 0
	setCITEntry s8, 0
	halt
`, 100)
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		r    isa.Reg
		want int64
	}{
		{isa.A2, 0}, {isa.A3, 1}, {isa.A5, 8}, {isa.S2, 1}, {isa.S3, -1},
		{isa.S4, 2 << 12}, {isa.S5, 1 << 12}, {isa.S6, 1}, {isa.S7, 1},
	}
	for _, c := range checks {
		if got := m.IntRegs[c.r]; got != c.want {
			t.Errorf("%v = %d, want %d", c.r, got, c.want)
		}
	}
	if m.FPRegs[2] != 1 || m.FPRegs[3] != 3 {
		t.Errorf("fmin/fmax = %v/%v, want 1/3", m.FPRegs[2], m.FPRegs[3])
	}
}

func TestStoreFault(t *testing.T) {
	m, _, err := run(t, `
.range 0x100 0x200
main:
	li s0, 0x100
	sw s0, 0x1000(s0)
	halt
`, 10)
	if err == nil {
		t.Fatal("store outside valid range did not fault")
	}
	if !strings.Contains(err.Error(), "memory exception") {
		t.Errorf("unexpected error %v", err)
	}
	if m.Halted() {
		t.Error("machine halted through a fault")
	}
}

func TestFPStoreFault(t *testing.T) {
	_, _, err := run(t, `
.range 0x100 0x200
main:
	li s0, 0x100
	fsw f0, 0x1000(s0)
	halt
`, 10)
	if err == nil {
		t.Fatal("FP store outside valid range did not fault")
	}
}

func TestFPLoadFault(t *testing.T) {
	_, _, err := run(t, `
.range 0x100 0x200
main:
	li s0, 0x100
	flw f0, 0x1000(s0)
	halt
`, 10)
	if err == nil {
		t.Fatal("FP load outside valid range did not fault")
	}
}

func TestStepAfterHaltFails(t *testing.T) {
	m, _, err := run(t, "main:\n\thalt\n", 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.StepInto(&DynInst{}); err == nil {
		t.Error("StepInto after halt succeeded")
	}
}

func TestMemErrorMessage(t *testing.T) {
	e := &MemError{PC: 3, Seq: 17, Addr: 0xbad}
	if !strings.Contains(e.Error(), "0xbad") || !strings.Contains(e.Error(), "pc 3") {
		t.Errorf("uninformative error: %s", e.Error())
	}
}

func TestImageAccessor(t *testing.T) {
	m, _, err := run(t, "main:\n\thalt\n", 10)
	if err != nil {
		t.Fatal(err)
	}
	if m.Image() == nil || len(m.Image().Insts) != 1 {
		t.Error("Image accessor broken")
	}
}

func TestRunOffTextEndHalts(t *testing.T) {
	// A program without halt simply runs off the end.
	m, tr, err := run(t, "main:\n\taddi a0, a0, 1\n", 10)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Halted() {
		t.Error("machine not halted after running off the end")
	}
	if tr.Len() != 1 {
		t.Errorf("trace length %d, want 1", tr.Len())
	}
}
