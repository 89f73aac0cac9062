package noreba

import (
	"strings"
	"testing"
)

// TestQuickstartRoundTrip exercises the documented public-API flow:
// assemble → compile → trace → simulate, comparing two commit policies.
func TestQuickstartRoundTrip(t *testing.T) {
	prog, err := Assemble("quickstart", `
entry:
	li   s0, 0x100000
	li   s1, 0x200000
	li   a0, 200
	li   a1, 0
loop:
	add  t0, s0, a1
	lw   t1, 0(t0)
	andi t2, t1, 1
	beqz t2, skip
then:
	addi a2, a2, 1
skip:
	addi a3, a3, 1
	addi a4, a4, 2
	xor  a5, a3, a4
	addi a1, a1, 8192
	addi a0, a0, -1
	bnez a0, loop
done:
	halt
`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		prog.Data[0x100000+int64(i)*8192] = int64(i * 2654435761)
	}

	res, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MarkedBranches == 0 {
		t.Fatal("nothing marked")
	}
	if !strings.Contains(res.Image.Disassemble(), "setBranchId") {
		t.Fatal("annotation missing from disassembly")
	}

	tr, err := Trace(res, 1<<20)
	if err != nil {
		t.Fatal(err)
	}

	ino, err := Simulate(Skylake(PolicyInOrder), tr, res.Meta)
	if err != nil {
		t.Fatal(err)
	}
	nor, err := Simulate(Skylake(PolicyNoreba), tr, res.Meta)
	if err != nil {
		t.Fatal(err)
	}
	if nor.Cycles >= ino.Cycles {
		t.Errorf("NOREBA (%d cycles) should beat in-order commit (%d cycles) on a missing-load kernel",
			nor.Cycles, ino.Cycles)
	}

	breakdown := EstimatePower(Skylake(PolicyNoreba), nor)
	if breakdown.TotalPower() <= 0 {
		t.Error("power model returned nothing")
	}
}

func TestPublicConfigs(t *testing.T) {
	if Skylake(PolicyNoreba).ROBSize != 224 {
		t.Error("Skylake ROB should be 224 (Table 3)")
	}
	if Haswell(PolicyInOrder).ROBSize != 192 {
		t.Error("Haswell ROB should be 192")
	}
	if Nehalem(PolicyInOrder).ROBSize != 128 {
		t.Error("Nehalem ROB should be 128")
	}
	if len(Workloads()) < 20 {
		t.Errorf("workload suite too small: %d", len(Workloads()))
	}
	if !strings.Contains(ConfigTables(), "Table 2") {
		t.Error("config tables missing")
	}
}

// TestEngineSuiteWorkCounts pins the work BenchmarkEngineSuite's quick
// figure suite does: one functional emulation per workload, 136 distinct
// detailed simulations, and 720 Simulate calls served from them. The
// committed BENCH_engine.json records simulateCalls 824 from an older
// suite; this test, not that file, holds the current count. The peak
// counters depend on goroutine scheduling and are not pinned.
func TestEngineSuiteWorkCounts(t *testing.T) {
	r := QuickRunner()
	if err := runEngineSuite(r); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"EmulationsRun", r.EmulationsRun(), 8},
		{"SimulationsRun", r.SimulationsRun(), 136},
		{"SimulateCalls", r.SimulateCalls(), 720},
		{"UniqueSimulations", int64(r.UniqueSimulations()), 136},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
}
