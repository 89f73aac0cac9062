package pipeline

import (
	"testing"

	"github.com/noreba-sim/noreba/internal/isa"
	"github.com/noreba-sim/noreba/internal/program"
	"github.com/noreba-sim/noreba/internal/trace"
)

// TestCQTPressure: shrinking the Commit Queue Table forces steer stalls
// when many marked branches are live simultaneously.
func TestCQTPressure(t *testing.T) {
	tr, meta := buildTrace(t, mlpKernel(400), true)
	small := testConfig(Noreba)
	small.Selective.CQTSize = 1
	big := testConfig(Noreba)
	big.Selective.CQTSize = 16
	stSmall := runPolicy(t, small, tr, meta)
	stBig := runPolicy(t, big, tr, meta)
	if stSmall.Cycles < stBig.Cycles {
		t.Errorf("1-entry CQT (%d cycles) outperformed 16-entry (%d)", stSmall.Cycles, stBig.Cycles)
	}
	if stSmall.CQTFullStalls == 0 {
		t.Error("1-entry CQT produced no full stalls on a branch-heavy kernel")
	}
}

// TestBITAliasing: with a tiny BIT, distinct compiler IDs alias onto the
// same entry; the dependence decode must still be self-consistent (runs
// complete, commits conserve) even though performance may degrade.
func TestBITAliasing(t *testing.T) {
	tr, meta := buildTrace(t, mlpKernel(300), true)
	cfg := testConfig(Noreba)
	cfg.Selective.BITSize = 1
	st := runPolicy(t, cfg, tr, meta) // runPolicy asserts conservation
	if st.Cycles <= 0 {
		t.Fatal("bad cycle count")
	}
}

// lqBoundKernel issues many independent missing loads per iteration so the
// 72-entry load queue, not the ROB, is the binding resource — the shape
// where §6.1.5's ECL pays.
func lqBoundKernel(iters int) *program.Program {
	b := program.NewBuilder("lqbound")
	b.Label("entry").
		Li(isa.S0, 1<<22).
		Li(isa.S2, 0).
		Li(isa.A0, int64(iters))
	b.Label("loop")
	// 8 independent missing loads per iteration, few other instructions.
	for i := 0; i < 8; i++ {
		b.Add(isa.T0, isa.S0, isa.S2)
		b.Lw([]isa.Reg{isa.T1, isa.T2, isa.T3, isa.T5, isa.T6, isa.A2, isa.A3, isa.A4}[i], isa.T0, int64(i)*8192)
		b.Addi(isa.S2, isa.S2, 65536)
	}
	b.Addi(isa.A0, isa.A0, -1).
		Bnez(isa.A0, "loop")
	b.Label("done").Halt()
	return b.MustBuild()
}

func TestECLHelpsWhenLQBinds(t *testing.T) {
	tr, meta := buildTrace(t, lqBoundKernel(400), true)
	base := testConfig(Noreba)
	ecl := testConfig(Noreba)
	ecl.ECL = true
	stBase := runPolicy(t, base, tr, meta)
	stECL := runPolicy(t, ecl, tr, meta)
	if stBase.StallLQ == 0 {
		t.Skip("kernel did not bind on the LQ on this configuration")
	}
	if stECL.Cycles > stBase.Cycles {
		t.Errorf("ECL (%d cycles) slower than base NOREBA (%d) on an LQ-bound kernel",
			stECL.Cycles, stBase.Cycles)
	}
}

// TestTraceStageOrder: the trace-sink event stream stamps each committed
// instruction's stages in order — issue and commit at or after the fetch
// that brought the instruction in (a squashed instruction is refetched under
// the same Seq, so the latest fetch counts).
func TestTraceStageOrder(t *testing.T) {
	tr, meta := buildTrace(t, mlpKernel(50), true)
	cfg := testConfig(Noreba)
	col := &trace.Collector{Limit: 100}
	cfg.TraceSink = col
	runPolicy(t, cfg, tr, meta)
	fetched := map[int64]int64{}
	commits := 0
	for _, e := range col.Events() {
		switch e.Kind {
		case trace.KindFetch:
			fetched[e.Seq] = e.Cycle
		case trace.KindIssue, trace.KindCommit:
			f, ok := fetched[e.Seq]
			if !ok {
				t.Fatalf("idx %d: %v event before any fetch", e.Idx, e.Kind)
			}
			if e.Cycle < f {
				t.Errorf("idx %d: %v at %d before fetch at %d", e.Idx, e.Kind, e.Cycle, f)
			}
			if e.Kind == trace.KindCommit {
				commits++
			}
		}
	}
	if commits != 100 {
		t.Fatalf("captured %d commits, want 100", commits)
	}
}

// TestBimodalWorseThanTAGE: the weaker predictor must cost cycles on a
// pattern-heavy kernel, whichever commit policy runs.
func TestBimodalWorseThanTAGE(t *testing.T) {
	tr, meta := buildTrace(t, mlpKernel(600), true)
	for _, pk := range []PolicyKind{InOrder, Noreba} {
		tage := testConfig(pk)
		bim := testConfig(pk)
		bim.Predictor = PredBimodal
		stT := runPolicy(t, tage, tr, meta)
		stB := runPolicy(t, bim, tr, meta)
		if stB.Mispredicts < stT.Mispredicts {
			t.Errorf("%v: bimodal mispredicted less (%d) than TAGE (%d)", pk, stB.Mispredicts, stT.Mispredicts)
		}
	}
}

// TestCITDisabledSerialisation: a 0... minimal CIT (size 1) still runs to
// completion; OoO commits throttle to the reclamation rate.
func TestCITMinimal(t *testing.T) {
	tr, meta := buildTrace(t, mlpKernel(300), true)
	cfg := testConfig(Noreba)
	cfg.Selective.CITSize = 1
	st := runPolicy(t, cfg, tr, meta)
	if st.CITPeak > 1 {
		t.Errorf("CIT peak %d exceeds capacity 1", st.CITPeak)
	}
	full := testConfig(Noreba)
	stFull := runPolicy(t, full, tr, meta)
	if st.Cycles < stFull.Cycles {
		t.Errorf("1-entry CIT (%d cycles) outperformed 128-entry (%d)", st.Cycles, stFull.Cycles)
	}
}

// TestStoreToLoadForwarding: a load from a just-stored address must not pay
// memory latency.
func TestStoreToLoadForwarding(t *testing.T) {
	b := program.NewBuilder("fwd")
	b.Label("entry").
		Li(isa.S0, 1<<22).
		Li(isa.A0, 200)
	b.Label("loop").
		Addi(isa.T0, isa.T0, 3).
		Sw(isa.T0, isa.S0, 0).
		Lw(isa.T1, isa.S0, 0). // forwarded
		Add(isa.A2, isa.A2, isa.T1).
		Addi(isa.A0, isa.A0, -1).
		Bnez(isa.A0, "loop")
	b.Label("done").Halt()
	tr, meta := buildTrace(t, b.MustBuild(), true)
	st := runPolicy(t, testConfig(InOrder), tr, meta)
	// With forwarding, the whole run must be far faster than paying even
	// L2 latency per load.
	perIter := float64(st.Cycles) / 200
	if perIter > 30 {
		t.Errorf("%.1f cycles/iteration; store-to-load forwarding not effective", perIter)
	}
}

// TestJalrReturnPrediction: call/return pairs predicted by the RAS must not
// inflate jalr mispredictions.
func TestJalrReturnPrediction(t *testing.T) {
	p := program.MustAssemble("calls", `
entry:
	li a0, 300
loop:
	jal ra, fn
after:
	addi a0, a0, -1
	bnez a0, loop
done:
	halt
fn:
	addi a2, a2, 1
	ret
`)
	tr, meta := buildTrace(t, p, true)
	st := runPolicy(t, testConfig(InOrder), tr, meta)
	if st.JalrMispredicts > 2 {
		t.Errorf("RAS missed %d returns out of 300", st.JalrMispredicts)
	}
}
