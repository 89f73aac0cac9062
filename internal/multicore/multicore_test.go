package multicore

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"github.com/noreba-sim/noreba/internal/compiler"
	"github.com/noreba-sim/noreba/internal/emulator"
	"github.com/noreba-sim/noreba/internal/isa"
	"github.com/noreba-sim/noreba/internal/pipeline"
	"github.com/noreba-sim/noreba/internal/program"
	"github.com/noreba-sim/noreba/internal/workloads"
)

func inputFor(t *testing.T, name string, scale int) (CoreInput, *emulator.Trace) {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := compiler.Compile(w.Build(scale), compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := emulator.New(res.Image).Run(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	return CoreInput{Source: tr.Source(), Meta: res.Meta}, tr
}

func coreCfg(policy pipeline.PolicyKind) pipeline.Config {
	cfg := pipeline.SkylakeConfig()
	cfg.Policy = policy
	return cfg
}

func TestSharedLLCContention(t *testing.T) {
	// Two memory-hungry kernels sharing a 1MB L3 must miss it more than
	// each running with a private L3.
	in0, _ := inputFor(t, "mcf", 200)
	in1, _ := inputFor(t, "omnetpp", 200)
	inputs := []CoreInput{in0, in1}

	private, err := New(Config{Core: coreCfg(pipeline.Noreba), AddressSpaceStride: 1 << 32}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	statsPriv, err := private.Run()
	if err != nil {
		t.Fatal(err)
	}

	in20, tr0 := inputFor(t, "mcf", 200)
	in21, tr1 := inputFor(t, "omnetpp", 200)
	inputs2 := []CoreInput{in20, in21}
	traces2 := []*emulator.Trace{tr0, tr1}
	shared, err := New(Config{Core: coreCfg(pipeline.Noreba), ShareLLC: true, AddressSpaceStride: 1 << 32}, inputs2)
	if err != nil {
		t.Fatal(err)
	}
	statsShared, err := shared.Run()
	if err != nil {
		t.Fatal(err)
	}

	var privMiss, sharedMiss int64
	for i := range statsPriv {
		privMiss += statsPriv[i].MemAccesses
		sharedMiss += statsShared[i].MemAccesses
	}
	if sharedMiss < privMiss {
		t.Errorf("shared LLC produced fewer memory accesses (%d) than private (%d)", sharedMiss, privMiss)
	}
	// Conservation still holds per core.
	for i, st := range statsShared {
		want := int64(traces2[i].Len()) - traces2[i].Setup
		if st.Committed != want {
			t.Errorf("core %d committed %d, want %d", i, st.Committed, want)
		}
	}
}

// barrierProgram builds a program with `phases` fenced phases whose
// per-phase work differs by core (the `work` parameter), so an unsynced run
// would drift apart.
func barrierProgram(t *testing.T, name string, phases, work int) CoreInput {
	t.Helper()
	b := program.NewBuilder(name)
	b.Label("entry").Li(isa.A0, int64(phases))
	b.Label("phase")
	for i := 0; i < work; i++ {
		b.Addi(isa.A2, isa.A2, 1)
	}
	b.Fence()
	b.Addi(isa.A0, isa.A0, -1).Bnez(isa.A0, "phase")
	b.Label("done").Halt()
	res, err := compiler.Compile(b.MustBuild(), compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := emulator.New(res.Image).Run(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	return CoreInput{Source: tr.Source(), Meta: res.Meta}
}

func TestBarriersKeepCoresInStep(t *testing.T) {
	// Core 0 does 5x the per-phase work of core 1; with barriers enabled,
	// neither core may get a whole barrier ahead.
	inputs := []CoreInput{
		barrierProgram(t, "heavy", 20, 50),
		barrierProgram(t, "light", 20, 10),
	}
	sys, err := New(Config{Core: coreCfg(pipeline.Noreba), Barriers: true}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if sys.MaxBarrierSkew() > 1 {
		t.Errorf("barrier skew %d; cores drifted apart", sys.MaxBarrierSkew())
	}
	// The light core must have been held back to roughly the heavy core's
	// pace: its cycle count approaches the heavy one's.
	heavy, light := stats[0].Cycles, stats[1].Cycles
	if light*10 < heavy*9 {
		t.Errorf("light core (%d cycles) not held back to heavy core's pace (%d)", light, heavy)
	}
	for i, st := range stats {
		if st.FencesCommitted != 20 {
			t.Errorf("core %d committed %d fences, want 20", i, st.FencesCommitted)
		}
	}
}

func TestBarrierCountMismatchRejected(t *testing.T) {
	inputs := []CoreInput{
		barrierProgram(t, "a", 3, 5),
		barrierProgram(t, "b", 4, 5),
	}
	if _, err := New(Config{Core: coreCfg(pipeline.Noreba), Barriers: true}, inputs); err == nil {
		t.Error("mismatched fence counts accepted")
	}
}

func TestUnsyncedFencesRunFree(t *testing.T) {
	// Without Barriers, each core's fences retire independently and the
	// light core finishes much earlier.
	inputs := []CoreInput{
		barrierProgram(t, "heavy", 20, 50),
		barrierProgram(t, "light", 20, 10),
	}
	sys, err := New(Config{Core: coreCfg(pipeline.Noreba)}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats[1].Cycles >= stats[0].Cycles {
		t.Errorf("light core (%d cycles) should finish before heavy (%d) without barriers",
			stats[1].Cycles, stats[0].Cycles)
	}
}

func TestSingleCoreMatchesPipelineRun(t *testing.T) {
	// A one-core system must agree with Core.Run exactly, per-branch stall
	// records included. With Barriers on, the lone core's gate is always
	// open and its idle fast-forward is off, and the result must not move.
	for _, tc := range []struct {
		name     string
		barriers bool
		input    func() CoreInput
	}{
		{"dijkstra", false, func() CoreInput { in, _ := inputFor(t, "dijkstra", 20); return in }},
		{"barriers", true, func() CoreInput { return barrierProgram(t, "phases", 12, 20) }},
	} {
		sys, err := New(Config{Core: coreCfg(pipeline.Noreba), Barriers: tc.barriers}, []CoreInput{tc.input()})
		if err != nil {
			t.Fatal(err)
		}
		sysStats, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		in := tc.input()
		direct, err := pipeline.NewCoreFromSource(coreCfg(pipeline.Noreba), in.Source, in.Meta).Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(direct.BranchStalls) == 0 {
			t.Fatalf("%s: no branch stalls recorded; the comparison would not cover them", tc.name)
		}
		if !reflect.DeepEqual(sysStats[0], direct) {
			t.Errorf("%s: system run differs from Core.Run:\nsystem %+v\ndirect %+v", tc.name, *sysStats[0], *direct)
		}
	}
}

// failingSource delivers the first n records of its source, then ends on err.
type failingSource struct {
	emulator.TraceSource
	n   int
	err error
}

func (f *failingSource) NextInto(d *emulator.DynInst) bool {
	if f.n == 0 {
		return false
	}
	f.n--
	return f.TraceSource.NextInto(d)
}

func (f *failingSource) Err() error {
	if f.n == 0 {
		return f.err
	}
	return f.TraceSource.Err()
}

func TestRunReportsSourceError(t *testing.T) {
	// Core 1's stream fails after 1000 instructions: the system still runs
	// both cores to completion, and Run returns the source's error rather
	// than truncated statistics under a nil error.
	errBroken := errors.New("stream broken")
	in0, _ := inputFor(t, "dijkstra", 20)
	in1, _ := inputFor(t, "dijkstra", 20)
	in1.Source = &failingSource{TraceSource: in1.Source, n: 1000, err: errBroken}
	sys, err := New(Config{Core: coreCfg(pipeline.Noreba), ShareLLC: true}, []CoreInput{in0, in1})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := sys.Run()
	if !errors.Is(err, errBroken) {
		t.Fatalf("Run error = %v, want one wrapping %v", err, errBroken)
	}
	if got := stats[1].TraceInsts; got != 1000 {
		t.Errorf("core 1 pulled %d instructions, want 1000", got)
	}
}

func TestRunContextDeadline(t *testing.T) {
	in0, _ := inputFor(t, "mcf", 20)
	in1, _ := inputFor(t, "omnetpp", 20)
	sys, err := New(Config{Core: coreCfg(pipeline.Noreba)}, []CoreInput{in0, in1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := sys.RunContext(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunContext error = %v, want context.DeadlineExceeded", err)
	}
}

func TestEmptySystemRejected(t *testing.T) {
	if _, err := New(Config{Core: coreCfg(pipeline.InOrder)}, nil); err == nil {
		t.Error("empty system accepted")
	}
}

// TestSanitizedSystemClean: the whole barrier-synchronised system runs
// violation-free with the pipeline sanitizer on, and Run surfaces a core's
// sanity error instead of finishing.
func TestSanitizedSystemClean(t *testing.T) {
	inputs := []CoreInput{
		barrierProgram(t, "a", 8, 30),
		barrierProgram(t, "b", 8, 12),
	}
	cfg := coreCfg(pipeline.Noreba)
	cfg.Sanitize = true
	sys, err := New(Config{Core: cfg, Barriers: true, ShareLLC: true}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatalf("sanitized multicore run failed: %v", err)
	}
}
