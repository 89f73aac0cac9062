package pipeline

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/noreba-sim/noreba/internal/compiler"
	"github.com/noreba-sim/noreba/internal/emulator"
	"github.com/noreba-sim/noreba/internal/program"
	"github.com/noreba-sim/noreba/internal/workloads"
)

// The microbenchmarks share one long MLP-kernel trace: enough iterations
// that a core warmed for thousands of cycles is still mid-run, so the
// numbers reflect the steady state rather than fill/drain transients.
var (
	benchOnce sync.Once
	benchTr   *emulator.Trace
	benchMeta *compiler.Meta
	benchErr  error
)

func benchTrace(tb testing.TB) (*emulator.Trace, *compiler.Meta) {
	tb.Helper()
	benchOnce.Do(func() {
		res, err := compiler.Compile(mlpKernel(4000), compiler.DefaultOptions())
		if err != nil {
			benchErr = err
			return
		}
		benchTr, benchErr = emulator.New(res.Image).Run(4 << 20)
		benchMeta = res.Meta
	})
	if benchErr != nil {
		tb.Fatalf("bench trace: %v", benchErr)
	}
	return benchTr, benchMeta
}

func benchSteps(b *testing.B, pk PolicyKind) {
	tr, meta := benchTrace(b)
	cfg := testConfig(pk)
	c := NewCore(cfg, tr, meta)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.done() {
			b.StopTimer()
			c = NewCore(cfg, tr, meta)
			b.StartTimer()
		}
		c.step()
	}
}

// BenchmarkStepIssue exercises the dependency-driven wakeup path: the Spec
// policy retires everything as soon as it completes, so the run is bounded
// by issue/writeback traffic and the ready-queue churn dominates each step.
func BenchmarkStepIssue(b *testing.B) { benchSteps(b, Spec) }

// BenchmarkCommitPolicy times a steady-state step under each commit policy,
// isolating the per-policy cost of the candidate-queue walks and their
// incremental boundary state.
func BenchmarkCommitPolicy(b *testing.B) {
	for _, pk := range allPolicies {
		b.Run(pk.String(), func(b *testing.B) { benchSteps(b, pk) })
	}
}

// BenchmarkRunWorkload times whole runs of two memory-bound workloads at
// the quick figure scale (mcf and astar, half their default scale), from a
// fresh core to the last commit, under each commit policy. It reports host
// time per simulated cycle and per committed instruction. Unlike the MLP
// kernel's steady-state step above, a run includes the long memory stalls
// whose idle cycles the core fast-forwards and the candidate walks of a
// real instruction mix, so ns/inst is what a figure pays per instruction.
func BenchmarkRunWorkload(b *testing.B) {
	for _, name := range []string{"mcf", "astar"} {
		w, err := workloads.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		res, err := compiler.Compile(w.Build(w.DefaultScale/2), compiler.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		tr, err := emulator.New(res.Image).Run(1 << 20)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for _, pk := range allPolicies {
				b.Run(pk.String(), func(b *testing.B) {
					cfg := SkylakeConfig()
					cfg.Policy = pk
					var cycles, insts int64
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						st, err := NewCore(cfg, tr, res.Meta).Run()
						if err != nil {
							b.Fatal(err)
						}
						cycles += st.Cycles
						insts += st.Committed
					}
					ns := float64(b.Elapsed().Nanoseconds())
					b.ReportMetric(ns/float64(cycles), "ns/cycle")
					b.ReportMetric(ns/float64(insts), "ns/inst")
				})
			}
		})
	}
}

// BenchmarkNewCore reports what building a core costs before its first
// step: the caches, predictor and prefetcher tables, the window and queues.
func BenchmarkNewCore(b *testing.B) {
	tr, meta := benchTrace(b)
	cfg := SkylakeConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		newCoreSink = NewCore(cfg, tr, meta)
	}
}

var newCoreSink *Core

// TestStepSteadyStateZeroAlloc is the tentpole's allocation contract: with
// tracing and sanitizing disabled, a warmed core's step performs zero heap
// allocations under every policy — entries come from the pool, completions
// from the wheel, and every queue reuses its backing storage.
func TestStepSteadyStateZeroAlloc(t *testing.T) {
	tr, meta := benchTrace(t)
	for _, pk := range allPolicies {
		c := NewCore(testConfig(pk), tr, meta)
		for i := 0; i < 10000 && !c.done(); i++ {
			c.step()
		}
		if c.done() {
			t.Fatalf("%v: trace too short to reach a steady state", pk)
		}
		if n := testing.AllocsPerRun(200, func() { c.step() }); n != 0 {
			t.Errorf("%v: steady-state step allocates %.3f objects per call, want 0", pk, n)
		}
	}
}

// TestResetMatchesFreshCore is Reset's contract: a core recycled across
// policies, programs and cache geometries — its entry pool, window chunks,
// wheel, queues, cache overlays and predictor tables all reused — starts
// each run in exactly the state of a zero Core reset over the same warm
// state, runs to the same statistics, and once warmed up steps without
// allocating.
func TestResetMatchesFreshCore(t *testing.T) {
	tr, meta := benchTrace(t)
	calls, callsMeta := buildTrace(t, program.MustAssemble("calls", `
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
	mv s1, ra
	jal ra, leaf
back:
	mv ra, s1
	ret
leaf:
	addi a3, a3, 1
	ret
`), true)
	warmN := int64(len(tr.Insts) / 2)
	capture := func(cfg Config) *WarmState {
		ws := NewWarmState(cfg)
		clock := func(i int64) int64 { return 2 * (i + 1 - warmN) } // 2 cycles per instruction, ending at 0
		if err := ws.Replay(context.Background(), prefix(tr, warmN).Source(), clock, nil); err != nil {
			t.Fatal(err)
		}
		return ws.Capture()
	}
	// Two geometries: the test core, and a larger L2 with the prefetcher on
	// (so the DCPT table comes and goes across resets).
	geometry := func(pk PolicyKind, big bool) Config {
		cfg := testConfig(pk)
		if big {
			cfg.L2Size *= 2
			cfg.PrefetchEnabled = true
		}
		return cfg
	}
	states := map[bool]*WarmState{
		false: capture(geometry(InOrder, false)),
		true:  capture(geometry(InOrder, true)),
	}
	// Windows alternate between the annotated MLP kernel and a call-heavy
	// program cut off mid-call, so the recycled core's BIT, RAS and queues
	// end each run in a state a reset must not carry over.
	windows := []struct {
		tr   *emulator.Trace
		meta *compiler.Meta
	}{{prefix(tr, 20000), meta}, {prefix(calls, int64(len(calls.Insts)/2+1)), callsMeta}}

	recycled := new(Core)
	run := 0
	for _, big := range []bool{false, true, false} {
		for _, pk := range allPolicies {
			w := windows[run%len(windows)]
			run++
			cfg := geometry(pk, big)
			fresh := new(Core)
			fresh.Reset(cfg, w.tr.Source(), w.meta, states[big])
			recycled.Reset(cfg, w.tr.Source(), w.meta, states[big])
			if diff := resetStateDiff(fresh, recycled); diff != "" {
				t.Errorf("big geometry %v, %v: recycled core starts with different %s", big, pk, diff)
			}
			want, err := fresh.Run()
			if err != nil {
				t.Fatal(err)
			}
			got, err := recycled.Run()
			if err != nil {
				t.Fatal(err)
			}
			wj, _ := json.Marshal(want)
			gj, _ := json.Marshal(got)
			if !bytes.Equal(wj, gj) {
				t.Errorf("big geometry %v, %v: recycled core differs from fresh:\nfresh:    %s\nrecycled: %s", big, pk, wj, gj)
			}
			recycled.Release()
		}
	}

	// Steady state on a recycled core: Reset itself and every step reuse
	// storage.
	recycled.Reset(geometry(Noreba, false), tr.Source(), meta, states[false])
	for i := 0; i < 10000 && !recycled.done(); i++ {
		recycled.step()
	}
	if n := testing.AllocsPerRun(200, func() { recycled.step() }); n != 0 {
		t.Errorf("recycled core's steady-state step allocates %.3f objects per call, want 0", n)
	}
}

// resetStateDiff names the first piece of long-lived state in which two
// freshly reset cores differ, or returns "". Storage capacity may differ;
// contents may not. Cache clones are canonical (their form depends only on
// what is cached), so comparing them compares contents, not the order in
// which the two cores touched their sets.
func resetStateDiff(a, b *Core) string {
	switch {
	case !reflect.DeepEqual(a.dcache.Clone(), b.dcache.Clone()):
		return "data caches"
	case !reflect.DeepEqual(a.icache.Clone(), b.icache.Clone()):
		return "instruction caches"
	case !reflect.DeepEqual(a.pred, b.pred):
		return "branch predictor"
	case fmt.Sprint(*a.ras) != fmt.Sprint(*b.ras): // nil and empty stacks alike
		return "return-address stack"
	case !reflect.DeepEqual(a.dcpt, b.dcpt):
		return "prefetcher table"
	case !reflect.DeepEqual(a.win.deps, b.win.deps):
		return "branch dependence tracker"
	case a.win.base != b.win.base || a.win.end != b.win.end || a.win.cn != b.win.cn:
		return "window span"
	case len(a.pool.free) != len(a.pool.all) || len(b.pool.free) != len(b.pool.all):
		return "entry pool (entries not reclaimed)"
	}
	if pa, ok := a.policy.(*norebaPolicy); ok {
		pb := b.policy.(*norebaPolicy)
		if pa.robPrime.len() != pb.robPrime.len() || pa.cqtLive != pb.cqtLive || len(pa.cqt) != len(pb.cqt) ||
			len(pa.cit) != len(pb.cit) || pa.citMin != pb.citMin || pa.rr != pb.rr ||
			!reflect.DeepEqual(pa.brcqLive, pb.brcqLive) {
			return "Selective ROB state"
		}
		for q := range pa.queues {
			if pa.queues[q].len() != pb.queues[q].len() {
				return "commit queues"
			}
		}
	}
	return ""
}

// prefix returns the first n instructions of tr as a trace of their own.
func prefix(tr *emulator.Trace, n int64) *emulator.Trace {
	return &emulator.Trace{Name: tr.Name, Insts: tr.Insts[:n]}
}
