package pipeline

import (
	"strings"
	"testing"

	"github.com/noreba-sim/noreba/internal/compiler"
	"github.com/noreba-sim/noreba/internal/emulator"
	"github.com/noreba-sim/noreba/internal/isa"
	"github.com/noreba-sim/noreba/internal/program"
)

// buildTrace compiles (optionally) and runs a program, returning the trace
// and branch metadata.
func buildTrace(t *testing.T, p *program.Program, compile bool) (*emulator.Trace, *compiler.Meta) {
	t.Helper()
	var img *program.Image
	var meta *compiler.Meta
	if compile {
		res, err := compiler.Compile(p, compiler.DefaultOptions())
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		img, meta = res.Image, res.Meta
	} else {
		var err error
		img, err = p.Layout()
		if err != nil {
			t.Fatal(err)
		}
	}
	tr, err := emulator.New(img).Run(4 << 20)
	if err != nil {
		t.Fatalf("emulate: %v", err)
	}
	return tr, meta
}

func runPolicy(t *testing.T, cfg Config, tr *emulator.Trace, meta *compiler.Meta) *Stats {
	t.Helper()
	st, err := NewCore(cfg, tr, meta).Run()
	if err != nil {
		t.Fatalf("%s: %v", cfg.Policy, err)
	}
	// Conservation: every non-setup dynamic instruction commits exactly
	// once.
	want := int64(tr.Len()) - tr.Setup
	if st.Committed != want {
		t.Fatalf("%s: committed %d, want %d", cfg.Policy, st.Committed, want)
	}
	return st
}

// mlpKernel builds the paper's performance mechanism in miniature: strided
// loads that miss the cache, a hard-to-predict branch on each loaded value,
// a small dependent region, and an independent tail. In-order commit stalls
// at the unresolved branch; NOREBA commits the tail and later iterations'
// work out of order, freeing the window for more memory-level parallelism.
func mlpKernel(iters int) *program.Program {
	b := program.NewBuilder("mlp")
	b.Label("entry").
		Li(isa.S0, 1<<20). // array base
		Li(isa.S2, 0).     // offset
		Li(isa.A0, int64(iters))
	b.Label("loop").
		Add(isa.T0, isa.S0, isa.S2).
		Lw(isa.T1, isa.T0, 0).
		Andi(isa.T2, isa.T1, 1).
		Bnez(isa.T2, "skip")
	b.Label("then").
		Addi(isa.A2, isa.A2, 1)
	b.Label("skip")
	// A fat independent tail (the mcf shape of Figure 7: branches with few
	// dependents but much independent work behind them in the ROB).
	tail := []isa.Reg{isa.A3, isa.A4, isa.A5, isa.S3, isa.S4, isa.S5, isa.S6, isa.S7, isa.S8, isa.S9, isa.S10, isa.S11}
	for round := 0; round < 3; round++ {
		for _, r := range tail {
			b.Addi(r, r, int64(round+1))
		}
	}
	b.Addi(isa.S2, isa.S2, 8192). // 8KB stride: misses every level
					Addi(isa.A0, isa.A0, -1).
					Bnez(isa.A0, "loop")
	b.Label("done").Halt()
	p := b.MustBuild()
	// Make the loaded parity look random so the inner branch mispredicts.
	for i := 0; i < iters; i++ {
		addr := int64(1<<20) + int64(i)*8192
		p.Data[addr] = int64((i*2654435761 + 12345) >> 7)
	}
	return p
}

func testConfig(policy PolicyKind) Config {
	cfg := SkylakeConfig()
	cfg.Policy = policy
	cfg.PrefetchEnabled = false // keep the load misses visible
	return cfg
}

func TestPolicyOrderingOnMLPKernel(t *testing.T) {
	tr, meta := buildTrace(t, mlpKernel(800), true)

	cycles := map[PolicyKind]int64{}
	for _, pk := range []PolicyKind{InOrder, NonSpecOoO, Noreba, IdealReconv, SpecBR, Spec} {
		st := runPolicy(t, testConfig(pk), tr, meta)
		cycles[pk] = st.Cycles
		if st.Cycles <= 0 {
			t.Fatalf("%v: nonpositive cycles", pk)
		}
	}

	if cycles[Noreba] >= cycles[InOrder] {
		t.Errorf("NOREBA (%d cycles) must beat in-order commit (%d cycles)", cycles[Noreba], cycles[InOrder])
	}
	if float64(cycles[InOrder]) < 1.2*float64(cycles[Noreba]) {
		t.Errorf("expected >=1.2x speedup on MLP kernel: InO %d vs NOREBA %d", cycles[InOrder], cycles[Noreba])
	}
	if cycles[SpecBR] > cycles[Noreba] {
		t.Errorf("SpeculativeBR oracle (%d) must be at least as fast as NOREBA (%d)", cycles[SpecBR], cycles[Noreba])
	}
	if cycles[IdealReconv] > cycles[Noreba] {
		t.Errorf("ideal reconvergence (%d) must be at least as fast as NOREBA (%d)", cycles[IdealReconv], cycles[Noreba])
	}
	if cycles[Spec] > cycles[SpecBR] {
		t.Errorf("full speculative oracle (%d) must be at least as fast as SpecBR (%d)", cycles[Spec], cycles[SpecBR])
	}
}

func TestNorebaCommitsOutOfOrder(t *testing.T) {
	tr, meta := buildTrace(t, mlpKernel(400), true)
	st := runPolicy(t, testConfig(Noreba), tr, meta)
	if st.OoOCommitted == 0 {
		t.Error("NOREBA committed nothing out of order on the MLP kernel")
	}
	if st.Steered < st.Committed {
		t.Errorf("steered %d < committed %d: every commit must pass through a queue", st.Steered, st.Committed)
	}
	inO := runPolicy(t, testConfig(InOrder), tr, meta)
	if inO.OoOCommitted != 0 {
		t.Errorf("in-order commit reported %d OoO commits", inO.OoOCommitted)
	}
}

func TestStraightLineSameEverywhere(t *testing.T) {
	b := program.NewBuilder("straight")
	b.Label("entry")
	for i := 0; i < 200; i++ {
		b.Addi(isa.A0, isa.A0, 1)
	}
	b.Halt()
	tr, meta := buildTrace(t, b.MustBuild(), true)

	var first int64 = -1
	for _, pk := range []PolicyKind{InOrder, NonSpecOoO, Noreba, IdealReconv, SpecBR, Spec} {
		st := runPolicy(t, testConfig(pk), tr, meta)
		if first < 0 {
			first = st.Cycles
		}
		// Relaxed-Condition-1 policies may retire the tail a few cycles
		// before it completes; beyond that, straight-line code must be
		// policy independent.
		diff := st.Cycles - first
		if diff < 0 {
			diff = -diff
		}
		if diff > 10 {
			t.Errorf("%v: %d cycles, first policy %d — straight-line code must be (nearly) policy-independent", pk, st.Cycles, first)
		}
	}
}

func TestUnannotatedProgramRunsInOrderUnderNoreba(t *testing.T) {
	// A program without compiler annotations: NOREBA degenerates safely
	// (unmarked branches serialise) and still completes.
	tr, _ := buildTrace(t, mlpKernel(200), false)
	st := runPolicy(t, testConfig(Noreba), tr, nil)
	if st.OoOCommitted != 0 {
		t.Errorf("unannotated program committed %d instructions OoO", st.OoOCommitted)
	}
}

func TestMispredictRecoveryAndCIT(t *testing.T) {
	tr, meta := buildTrace(t, mlpKernel(600), true)
	st := runPolicy(t, testConfig(Noreba), tr, meta)
	if st.Mispredicts == 0 {
		t.Fatal("kernel designed to mispredict produced no mispredictions")
	}
	if st.CITAllocs == 0 {
		t.Error("no CIT allocations despite OoO commits")
	}
	if st.CITDrops == 0 {
		t.Error("no CIT drops despite mispredictions with OoO-committed window instructions")
	}
	if st.CITPeak > int64(DefaultSelectiveROB().CITSize) {
		t.Errorf("CIT peak %d exceeds capacity %d", st.CITPeak, DefaultSelectiveROB().CITSize)
	}
}

func TestECLHelpsLoads(t *testing.T) {
	tr, meta := buildTrace(t, mlpKernel(600), true)
	base := runPolicy(t, testConfig(Noreba), tr, meta)
	ecl := testConfig(Noreba)
	ecl.ECL = true
	withECL := runPolicy(t, ecl, tr, meta)
	if float64(withECL.Cycles) > 1.02*float64(base.Cycles) {
		t.Errorf("ECL slowed NOREBA down: %d vs %d cycles", withECL.Cycles, base.Cycles)
	}
}

func TestFreeSetupAtLeastAsFast(t *testing.T) {
	tr, meta := buildTrace(t, mlpKernel(400), true)
	base := runPolicy(t, testConfig(Noreba), tr, meta)
	free := testConfig(Noreba)
	free.FreeSetup = true
	st := runPolicy(t, free, tr, meta)
	if st.FetchedSetup != 0 {
		t.Errorf("FreeSetup still fetched %d setup instructions", st.FetchedSetup)
	}
	if float64(st.Cycles) > 1.02*float64(base.Cycles) {
		t.Errorf("free setup slower than fetched setup: %d vs %d", st.Cycles, base.Cycles)
	}
	if base.FetchedSetup == 0 {
		t.Error("baseline fetched no setup instructions")
	}
}

func TestBiggerCommitQueuesDontHurt(t *testing.T) {
	tr, meta := buildTrace(t, mlpKernel(400), true)
	small := testConfig(Noreba)
	small.Selective.BRCQSize = 2
	big := testConfig(Noreba)
	big.Selective.BRCQSize = 32
	stSmall := runPolicy(t, small, tr, meta)
	stBig := runPolicy(t, big, tr, meta)
	if float64(stBig.Cycles) > 1.02*float64(stSmall.Cycles) {
		t.Errorf("32-entry BR-CQs (%d cycles) slower than 2-entry (%d cycles)", stBig.Cycles, stSmall.Cycles)
	}
}

func TestLargerCoreIsFaster(t *testing.T) {
	tr, meta := buildTrace(t, mlpKernel(600), true)
	for _, pk := range []PolicyKind{InOrder, Noreba} {
		nhm := NehalemConfig()
		nhm.Policy = pk
		nhm.PrefetchEnabled = false
		skl := testConfig(pk)
		stNHM := runPolicy(t, nhm, tr, meta)
		stSKL := runPolicy(t, skl, tr, meta)
		if stSKL.Cycles > stNHM.Cycles {
			t.Errorf("%v: SKL (%d cycles) slower than NHM (%d cycles)", pk, stSKL.Cycles, stNHM.Cycles)
		}
	}
}

func TestBranchStallAttribution(t *testing.T) {
	tr, meta := buildTrace(t, mlpKernel(300), true)
	st := runPolicy(t, testConfig(InOrder), tr, meta)
	if len(st.BranchStalls) == 0 {
		t.Fatal("no branch stall records")
	}
	var total int64
	for _, bs := range st.BranchStalls {
		total += bs.StallCycles
	}
	if total == 0 {
		t.Error("in-order commit on a missing-load kernel must accumulate branch stalls")
	}
}

func TestComputeDeps(t *testing.T) {
	p := program.MustAssemble("deps", `
entry:
	li a0, 2
loop:
	setDependency 3 1
	addi a1, a1, 1
	addi a0, a0, -1
	setBranchId 1
	bnez a0, loop
done:
	halt
`)
	img, err := p.Layout()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := emulator.New(img).Run(1000)
	if err != nil {
		t.Fatal(err)
	}
	deps := ComputeDeps(tr, 8)

	// Find the branch instances and body instructions.
	var branchSeqs []int64
	for i, d := range tr.Insts {
		if d.Inst.Op.IsCondBranch() {
			if deps[i].BranchID != 1 {
				t.Errorf("branch at trace %d has ID %d, want 1", i, deps[i].BranchID)
			}
			branchSeqs = append(branchSeqs, d.Seq)
		}
	}
	if len(branchSeqs) != 2 {
		t.Fatalf("expected 2 loop branch instances, got %d", len(branchSeqs))
	}
	// First iteration body: BIT invalid → DepOrdered.
	firstBody := -1
	for i, d := range tr.Insts {
		if d.Inst.Op == isa.OpAddi && d.Inst.Rd == isa.A1 {
			firstBody = i
			break
		}
	}
	if deps[firstBody].DepSeq != DepOrdered {
		t.Errorf("first-iteration body DepSeq = %d, want DepOrdered", deps[firstBody].DepSeq)
	}
	// Second iteration body must reference the first branch instance.
	secondBody := -1
	for i := firstBody + 1; i < len(tr.Insts); i++ {
		d := tr.Insts[i]
		if d.Inst.Op == isa.OpAddi && d.Inst.Rd == isa.A1 {
			secondBody = i
			break
		}
	}
	if deps[secondBody].DepSeq != branchSeqs[0] {
		t.Errorf("second-iteration body DepSeq = %d, want %d (previous branch instance)",
			deps[secondBody].DepSeq, branchSeqs[0])
	}
	// The branch itself is inside the region: it also depends on the
	// previous instance.
	var branchIdx []int
	for i, d := range tr.Insts {
		if d.Inst.Op.IsCondBranch() {
			branchIdx = append(branchIdx, i)
		}
	}
	if deps[branchIdx[1]].DepSeq != branchSeqs[0] {
		t.Errorf("second branch instance DepSeq = %d, want %d", deps[branchIdx[1]].DepSeq, branchSeqs[0])
	}
	// Setup instructions carry no dependence.
	for i, d := range tr.Insts {
		if d.Inst.Op.IsSetup() && deps[i].DepSeq != DepNone {
			t.Errorf("setup instruction at %d has DepSeq %d", i, deps[i].DepSeq)
		}
	}
}

func TestOracleFrontendNoMispredicts(t *testing.T) {
	tr, meta := buildTrace(t, mlpKernel(300), true)
	cfg := testConfig(Noreba)
	cfg.Predictor = PredOracle
	st := runPolicy(t, cfg, tr, meta)
	if st.Mispredicts != 0 {
		t.Errorf("oracle predictor produced %d mispredictions", st.Mispredicts)
	}
}

func TestPrefetchingHelpsStridedKernel(t *testing.T) {
	// The MLP kernel strides by 8KB; DCPT should learn the constant delta
	// and hide much of the miss latency.
	tr, meta := buildTrace(t, mlpKernel(600), true)
	noPf := testConfig(InOrder)
	pf := testConfig(InOrder)
	pf.PrefetchEnabled = true
	stNo := runPolicy(t, noPf, tr, meta)
	stPf := runPolicy(t, pf, tr, meta)
	if stPf.Cycles >= stNo.Cycles {
		t.Errorf("prefetching did not help: %d vs %d cycles", stPf.Cycles, stNo.Cycles)
	}
	if stPf.PrefetchIssued == 0 {
		t.Error("no prefetches issued")
	}
}

// TestPolicyAndCoreNames pins the one name table the command-line tools and
// the service share: every PolicyKind round-trips through its short name in
// any letter case, and each Table 3 core resolves by its short name.
func TestPolicyAndCoreNames(t *testing.T) {
	for p := InOrder; p <= Spec; p++ {
		for _, name := range []string{p.ShortName(), strings.ToUpper(p.ShortName())} {
			got, err := ParsePolicy(name)
			if err != nil || got != p {
				t.Errorf("ParsePolicy(%q) = %v, %v; want %v", name, got, err, p)
			}
		}
	}
	if _, err := ParsePolicy("warp"); err == nil {
		t.Error("ParsePolicy accepted an unknown name")
	}
	for name, want := range map[string]string{"nhm": "NHM", "HSW": "HSW", "skl": "SKL"} {
		cfg, err := CoreConfig(name, Spec)
		if err != nil || cfg.Name != want || cfg.Policy != Spec {
			t.Errorf("CoreConfig(%q) = %s/%v, %v; want %s/%v", name, cfg.Name, cfg.Policy, err, want, Spec)
		}
	}
	if _, err := CoreConfig("m1", Noreba); err == nil {
		t.Error("CoreConfig accepted an unknown core")
	}
}
