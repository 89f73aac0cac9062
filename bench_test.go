// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each benchmark builds a fresh reduced-scale runner per iteration so the
// reported time is the cost of regenerating that figure from scratch
// (compile + trace + simulate across the benchmark suite).
//
// Run all of them with:
//
//	go test -bench=. -benchmem
//
// The full-suite, full-scale versions are produced by cmd/noreba-bench.
package noreba

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/noreba-sim/noreba/internal/experiments"
	"github.com/noreba-sim/noreba/internal/pipeline"
)

func benchFigure(b *testing.B, run func(*experiments.Runner) error) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := QuickRunner()
		if err := run(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure1 regenerates the motivation figure: NonSpec / SpecBR /
// Spec OoO-commit speedups over in-order commit.
func BenchmarkFigure1(b *testing.B) {
	benchFigure(b, func(r *experiments.Runner) error { _, err := r.Figure1(); return err })
}

// BenchmarkFigure6 regenerates the main result (Figure 6).
func BenchmarkFigure6(b *testing.B) {
	benchFigure(b, func(r *experiments.Runner) error { _, err := r.Figure6(); return err })
}

// BenchmarkFigure7 regenerates the bzip2/mcf branch-criticality scatter.
func BenchmarkFigure7(b *testing.B) {
	benchFigure(b, func(r *experiments.Runner) error { _, err := r.Figure7(); return err })
}

// BenchmarkFigure8 regenerates the OoO-commit-fraction chart.
func BenchmarkFigure8(b *testing.B) {
	benchFigure(b, func(r *experiments.Runner) error { _, err := r.Figure8(); return err })
}

// BenchmarkFigure9 regenerates the Selective ROB sizing sweep.
func BenchmarkFigure9(b *testing.B) {
	benchFigure(b, func(r *experiments.Runner) error { _, err := r.Figure9(); return err })
}

// BenchmarkFigure10 regenerates the Selective ROB power sweep.
func BenchmarkFigure10(b *testing.B) {
	benchFigure(b, func(r *experiments.Runner) error { _, err := r.Figure10(); return err })
}

// BenchmarkFigure11 regenerates the setup-instruction overhead chart.
func BenchmarkFigure11(b *testing.B) {
	benchFigure(b, func(r *experiments.Runner) error { _, err := r.Figure11(); return err })
}

// BenchmarkFigure12 regenerates the NHM/HSW/SKL core comparison.
func BenchmarkFigure12(b *testing.B) {
	benchFigure(b, func(r *experiments.Runner) error { _, err := r.Figure12(); return err })
}

// BenchmarkFigure13 regenerates the prefetching-effectiveness chart.
func BenchmarkFigure13(b *testing.B) {
	benchFigure(b, func(r *experiments.Runner) error { _, err := r.Figure13(); return err })
}

// BenchmarkFigure14 regenerates the Early Commit of Loads chart.
func BenchmarkFigure14(b *testing.B) {
	benchFigure(b, func(r *experiments.Runner) error { _, err := r.Figure14(); return err })
}

// BenchmarkFigure15 regenerates the commit-bandwidth chart.
func BenchmarkFigure15(b *testing.B) {
	benchFigure(b, func(r *experiments.Runner) error { _, err := r.Figure15(); return err })
}

// BenchmarkFigure16 regenerates the power/area breakdown.
func BenchmarkFigure16(b *testing.B) {
	benchFigure(b, func(r *experiments.Runner) error { _, _, err := r.Figure16(); return err })
}

// BenchmarkEngineSuite runs the whole reduced-scale figure suite on one
// shared Runner — the realistic engine workload, where the scheduler's
// cross-figure batching and broadcast trace bus pay off: the union of every
// figure's requests is warmed through one RunRequests pass, so each
// workload's ~17 configurations share a single functional emulation, then
// the figures assemble from guaranteed cache hits. Writes BENCH_engine.json
// with wall-clock and engine counters. The recorded wall clock is the
// minimum over the b.N iterations, as in BenchmarkSampledSuite: the suite is
// deterministic, so the fastest iteration is the cleanest estimate of its
// cost on a shared, drifting host.
func BenchmarkEngineSuite(b *testing.B) {
	// The engine suite is a deliberately serial measurement: pin GOMAXPROCS
	// to 1 so the committed baseline is comparable across machines and CI
	// shapes, and the recorded gomaxprocs states what the numbers mean.
	// (BenchmarkSampledSuite pins 2 — its concurrency is the thing measured.)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	suite := []string{"figure1", "figure6", "figure8", "figure11", "figure13", "figure14", "figure15"}
	var last *experiments.Runner
	var elapsed time.Duration
	for i := 0; i < b.N; i++ {
		r := QuickRunner()
		start := time.Now()
		reqs, err := r.FigureRequests(suite...)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.RunRequests(context.Background(), reqs); err != nil {
			b.Fatal(err)
		}
		for _, name := range suite {
			if _, err := r.RunExperiment(name); err != nil {
				b.Fatal(err)
			}
		}
		if d := time.Since(start); elapsed == 0 || d < elapsed {
			elapsed = d
		}
		last = r
	}
	b.ReportMetric(float64(last.SimulationsRun()), "sims/op")
	b.ReportMetric(float64(last.EmulationsRun()), "emulations/op")
	b.ReportMetric(float64(last.PeakWindow()), "peak-window-recs")

	out := map[string]any{
		"suiteWallClockSec": elapsed.Seconds(),
		"simulateCalls":     last.SimulateCalls(),
		"simulationsRun":    last.SimulationsRun(),
		"uniqueSimulations": last.UniqueSimulations(),
		"emulationsRun":     last.EmulationsRun(),
		"peakBusRecords":    last.PeakBusRecords(),
		"peakWindowRecords": last.PeakWindow(),
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"maxInsts":          last.MaxInsts,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_engine.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTables2And3 renders the configuration tables.
func BenchmarkTables2And3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if s := ConfigTables(); len(s) == 0 {
			b.Fatal("empty tables")
		}
	}
}

// BenchmarkCompilerPass measures the branch-dependent code detection pass
// itself over the whole workload suite.
func BenchmarkCompilerPass(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, w := range Workloads() {
			p := w.Build(2)
			if _, err := Compile(p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSimulatorMcf measures raw simulation throughput: cycles of the
// NOREBA core simulated per wall-clock second on the mcf kernel.
func BenchmarkSimulatorMcf(b *testing.B) {
	w, err := WorkloadByName("mcf")
	if err != nil {
		b.Fatal(err)
	}
	res, err := Compile(w.Build(300))
	if err != nil {
		b.Fatal(err)
	}
	tr, err := Trace(res, 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(Skylake(PolicyNoreba), tr, res.Meta); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCIT sweeps the Committed Instructions Table size.
func BenchmarkAblationCIT(b *testing.B) {
	benchFigure(b, func(r *experiments.Runner) error { _, err := r.AblationCIT(); return err })
}

// BenchmarkAblationLoopMarking compares selective versus exhaustive branch
// marking in the compiler pass.
func BenchmarkAblationLoopMarking(b *testing.B) {
	benchFigure(b, func(r *experiments.Runner) error { _, err := r.AblationLoopMarking(); return err })
}

// BenchmarkAblationBITSize sweeps the Branch ID Table / compiler ID space.
func BenchmarkAblationBITSize(b *testing.B) {
	benchFigure(b, func(r *experiments.Runner) error { _, err := r.AblationBITSize(); return err })
}

// BenchmarkAblationPredictors sweeps branch predictor quality.
func BenchmarkAblationPredictors(b *testing.B) {
	benchFigure(b, func(r *experiments.Runner) error { _, err := r.AblationPredictors(); return err })
}

// planOnlyStore shares sampling-plan blobs between the cold and warm halves
// of BenchmarkSampledSuite without ever sharing results: the warm runner must
// re-estimate every point, so its wall clock measures plan reuse, not result
// caching.
type planOnlyStore struct {
	mu    sync.Mutex
	blobs map[string][]byte
}

func (s *planOnlyStore) Get(string) (*pipeline.Stats, bool) { return nil, false }
func (s *planOnlyStore) Put(string, *pipeline.Stats) error  { return nil }

func (s *planOnlyStore) GetBlob(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.blobs[key]
	return b, ok
}

func (s *planOnlyStore) PutBlob(key string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.blobs[key] = append([]byte(nil), data...)
	return nil
}

// BenchmarkSampledSuite runs the quick-scale workload suite under the three
// measured commit policies three times — full detailed simulation, the
// sampled path cold (plan building included, plans persisted to a shared
// store), and the sampled path warm (a fresh runner that loads every plan
// from the store and rebuilds none) — and writes BENCH_sampling.json. The
// headline wallClockSpeedup is full over warm: the steady state of a service
// or repeated sweep, where plans were built once and every later estimate
// amortises them. This is the speedup half of the sampling story; the
// accuracy half is TestSampledAccuracySuite in internal/experiments.
//
// Workloads whose plans are degenerate (Plan.Full — programs too short to
// sample, where an "estimate" is by definition a plain full simulation) are
// excluded from the timed loops and reported under fullPlanWorkloads: they
// measure the simulator, not the sampler, and including them would dilute
// the speedup being benchmarked with identical work on both sides.
func BenchmarkSampledSuite(b *testing.B) {
	// The sampled path fans representative windows across a worker group:
	// pin GOMAXPROCS to exactly 2 — enough that the concurrency half of the
	// win is measured, deterministic regardless of the host's core count,
	// and recorded as-run in BENCH_sampling.json (BenchmarkEngineSuite pins
	// 1; the two baselines deliberately state different parallelism).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	policies := []Policy{PolicyInOrder, PolicyNonSpecOoO, PolicyNoreba}
	ctx := context.Background()

	var sampled, fullOnly []string
	probe := QuickRunner()
	for _, name := range probe.Workloads {
		pl, err := probe.Plan(ctx, name, DefaultSampling())
		if err != nil {
			b.Fatal(err)
		}
		if pl.Full {
			fullOnly = append(fullOnly, name)
		} else {
			sampled = append(sampled, name)
		}
	}
	if len(sampled) == 0 {
		b.Fatal("no sampleable workloads in the quick suite")
	}

	sampledLoop := func(r *experiments.Runner) (int64, time.Duration) {
		var insts int64
		start := time.Now()
		for _, name := range sampled {
			for _, pk := range policies {
				st, err := r.SimulateSampledContext(ctx, name, Skylake(pk), DefaultSampling())
				if err != nil {
					b.Fatal(err)
				}
				insts += st.SampledDetailInsts
			}
		}
		return insts, time.Since(start)
	}

	// Each loop's wall clock is the minimum over b.N iterations: the loops are
	// deterministic, so the minimum is the cleanest estimate of their true
	// cost and filters scheduler and GC noise on a shared runner. A GC flush
	// before each timed section keeps one loop's garbage off another's clock.
	minDur := func(cur, next time.Duration) time.Duration {
		if cur == 0 || next < cur {
			return next
		}
		return cur
	}
	var fullElapsed, coldElapsed, warmElapsed time.Duration
	var fullInsts, sampInsts int64
	var coldRunner, warmRunner *experiments.Runner
	for i := 0; i < b.N; i++ {
		fullInsts = 0

		rFull := QuickRunner()
		runtime.GC()
		start := time.Now()
		for _, name := range sampled {
			for _, pk := range policies {
				st, err := rFull.Simulate(name, Skylake(pk))
				if err != nil {
					b.Fatal(err)
				}
				fullInsts += st.Committed
			}
		}
		fullElapsed = minDur(fullElapsed, time.Since(start))

		store := &planOnlyStore{blobs: map[string][]byte{}}
		coldRunner = QuickRunner()
		coldRunner.Store = store
		runtime.GC()
		var coldThis time.Duration
		sampInsts, coldThis = sampledLoop(coldRunner)
		coldElapsed = minDur(coldElapsed, coldThis)

		warmRunner = QuickRunner()
		warmRunner.Store = store
		runtime.GC()
		_, warmThis := sampledLoop(warmRunner)
		warmElapsed = minDur(warmElapsed, warmThis)
	}
	if n := int64(len(sampled)); coldRunner.PlansBuilt() != n {
		b.Fatalf("cold runner built %d plans, want %d", coldRunner.PlansBuilt(), n)
	}
	if warmRunner.PlansBuilt() != 0 {
		b.Fatalf("warm runner rebuilt %d plans, want 0", warmRunner.PlansBuilt())
	}

	b.ReportMetric(fullElapsed.Seconds()/warmElapsed.Seconds(), "wall-speedup")
	b.ReportMetric(fullElapsed.Seconds()/coldElapsed.Seconds(), "cold-speedup")
	b.ReportMetric(float64(fullInsts)/float64(sampInsts), "detail-speedup")

	out := map[string]any{
		"workloads":               sampled,
		"fullPlanWorkloads":       fullOnly,
		"fullWallClockSec":        fullElapsed.Seconds(),
		"coldSampledWallClockSec": coldElapsed.Seconds(),
		"warmSampledWallClockSec": warmElapsed.Seconds(),
		"wallClockSpeedup":        fullElapsed.Seconds() / warmElapsed.Seconds(),
		"coldWallClockSpeedup":    fullElapsed.Seconds() / coldElapsed.Seconds(),
		"fullDetailInsts":         fullInsts,
		"sampledDetailInsts":      sampInsts,
		"detailSpeedup":           float64(fullInsts) / float64(sampInsts),
		"sampledRuns":             warmRunner.SampledRuns(),
		"plansBuilt":              coldRunner.PlansBuilt(),
		"warmPlansBuilt":          warmRunner.PlansBuilt(),
		"planStoreHits":           warmRunner.PlanStoreHits(),
		"gomaxprocs":              runtime.GOMAXPROCS(0),
		"maxInsts":                warmRunner.MaxInsts,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_sampling.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}
