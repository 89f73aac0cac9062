package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"

	"github.com/noreba-sim/noreba/internal/branchpred"
	"github.com/noreba-sim/noreba/internal/cache"
	"github.com/noreba-sim/noreba/internal/compiler"
	"github.com/noreba-sim/noreba/internal/emulator"
	"github.com/noreba-sim/noreba/internal/experiments"
	"github.com/noreba-sim/noreba/internal/pipeline"
	"github.com/noreba-sim/noreba/internal/prefetch"
	"github.com/noreba-sim/noreba/internal/sampling"
	"github.com/noreba-sim/noreba/internal/service"
)

// perLayer lists every per-layer metric a traced run reports, with its
// unit. A metric of a layer the workload never reaches reads 0.
var perLayer = []struct{ name, unit string }{
	{"compiler.compile_ms", "ms"},
	{"emulator.minsts_per_s", "Minst/s"},
	{"emulator.bus_ns_per_view_inst", "ns"},
	{"pipeline.inorder.ns_per_inst", "ns"},
	{"pipeline.nonspec.ns_per_inst", "ns"},
	{"pipeline.noreba.ns_per_inst", "ns"},
	{"pipeline.ideal.ns_per_inst", "ns"},
	{"pipeline.specbr.ns_per_inst", "ns"},
	{"pipeline.spec.ns_per_inst", "ns"},
	{"pipeline.cycles", "count"},
	{"pipeline.committed", "count"},
	{"pipeline.window_peak", "count"},
	{"branchpred.tage_ns_per_branch", "ns"},
	{"branchpred.mispredict_rate", "frac"},
	{"cache.ns_per_access", "ns"},
	{"cache.l1d_miss_rate", "frac"},
	{"prefetch.ns_per_train", "ns"},
	{"prefetch.useful_frac", "frac"},
	{"sampling.profile_s", "s"},
	{"sampling.kmeans_ms", "ms"},
	{"sampling.plan_build_s", "s"},
	{"sampling.cold_pass_s", "s"},
	{"sampling.warm_pass_s", "s"},
	{"sampling.nrpf_encode_mb_per_s", "MB/s"},
	{"sampling.nrpf_decode_mb_per_s", "MB/s"},
	{"sampling.plan_kb", "KB"},
	{"sampling.estimate_ms_p50", "ms"},
	{"sampling.detail_frac", "frac"},
	{"sampling.full_detail_s", "s"},
	{"sampling.ipc_err_max_pct", "%"},
	{"experiments.simulations", "count"},
	{"experiments.emulations", "count"},
	{"experiments.simulate_calls", "count"},
	{"experiments.peak_bus_records", "count"},
	{"experiments.store_hit_frac", "frac"},
	{"service.submit_ms_p50", "ms"},
	{"service.queue_wait_ms_p50", "ms"},
	{"service.queue_wait_ms_p90", "ms"},
	{"service.run_ms_p50", "ms"},
	{"service.run_ms_p90", "ms"},
	{"service.rejected", "count"},
	{"service.store_get_us", "us"},
	{"service.store_put_us", "us"},
	{"cluster.forwarded", "count"},
	{"cluster.shard_hits", "count"},
	{"cluster.peer_hits", "count"},
	{"cluster.peer_misses", "count"},
	{"cluster.peer_errors", "count"},
	{"cluster.peer_get_ms_p50", "ms"},
	{"cluster.first_row_ms", "ms"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"host.cpu_s", "s"},
	{"trace.overhead_frac", "frac"},
}

// policyKeys name the six policies in metric keys, in allPolicies order.
var policyKeys = []string{"inorder", "nonspec", "noreba", "ideal", "specbr", "spec"}

// tracedRun runs an untraced pass, a traced pass and another untraced
// pass, then the layer probes, and reports every per-layer metric; the
// tracing overhead compares the traced pass with the mean of the untraced
// ones around it. The spans go to .bench_build/spans/<workload>-seed<seed>.jsonl.
func tracedRun(e *env, w *workload, m metrics) ([]passResult, error) {
	settle()
	before, err := w.pass(e, nil)
	if err != nil {
		return nil, fmt.Errorf("%s untraced pass: %w", w.name, err)
	}
	tr := newTracer()
	var ms0, ms1 runtime.MemStats
	settle()
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	pr, err := w.pass(e, tr)
	if err != nil {
		return nil, fmt.Errorf("%s traced pass: %w", w.name, err)
	}
	cpu1 := cpuSeconds()
	runtime.ReadMemStats(&ms1)
	settle()
	after, err := w.pass(e, nil)
	if err != nil {
		return nil, fmt.Errorf("%s untraced pass: %w", w.name, err)
	}
	untraced := (before.wall.Seconds() + after.wall.Seconds()) / 2
	m.set("trace.overhead_frac", pr.wall.Seconds()/untraced-1, "frac")
	m.set("go.alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20), "MB")
	m.set("go.gc_cycles", float64(ms1.NumGC-ms0.NumGC), "count")
	m.set("go.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6, "ms")
	m.set("host.cpu_s", cpu1-cpu0, "s")
	if err := w.layers(e, tr, pr, m); err != nil {
		return nil, err
	}
	if err := probe(e, tr, m); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	for _, l := range perLayer {
		if _, ok := m[l.name]; !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %s not exercised, reported as 0\n", w.name, l.name)
			m.set(l.name, 0, l.unit)
		}
	}
	path := filepath.Join(e.root, ".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, e.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	if rel, err := filepath.Rel(e.root, path); err == nil {
		path = rel
	}
	fmt.Printf("{\"spans\":%q,\"count\":%d}\n", path, len(tr.spans))
	return []passResult{before, pr, after}, nil
}

// runnerLayers sums the experiments-layer counters of a pass's runners.
func runnerLayers(m metrics, rs ...*experiments.Runner) {
	var sims, emus, calls, peak, hits, lookups int64
	for _, r := range rs {
		sims += r.SimulationsRun()
		emus += r.EmulationsRun()
		calls += r.SimulateCalls()
		peak = max(peak, r.PeakBusRecords())
		hits += r.StoreHits() + r.PlanStoreHits()
		lookups += r.StoreHits() + r.StoreMisses() + r.PlanStoreHits() + r.PlanStoreMisses()
	}
	m.set("experiments.simulations", float64(sims), "count")
	m.set("experiments.emulations", float64(emus), "count")
	m.set("experiments.simulate_calls", float64(calls), "count")
	m.set("experiments.peak_bus_records", float64(peak), "count")
	if lookups > 0 {
		m.set("experiments.store_hit_frac", float64(hits)/float64(lookups), "frac")
	}
}

func sampledLayers(_ *env, tr *tracer, pr passResult, m metrics) error {
	st := pr.state.(*sampledState)
	runnerLayers(m, st.cold, st.warm)
	cold, _ := tr.total("sampled.cold")
	warm, _ := tr.total("sampled.warm")
	m.set("sampling.cold_pass_s", cold.Seconds(), "s")
	m.set("sampling.warm_pass_s", warm.Seconds()/warmRounds, "s")
	return nil
}

// probe calls each lower layer's public API directly on the workload's own
// programs, one span per call, and derives the layer metrics from the
// spans. Each probe isolates one module: the pipeline runs on materialized
// traces (no emulator), the predictor, cache and prefetcher replay streams
// recorded from those traces.
func probe(e *env, tr *tracer, m metrics) error {
	p := e.progs
	op := tr.op()
	root := tr.begin("probe", op, nil)
	defer root.end(0)
	maxInsts := experiments.QuickRunner().MaxInsts
	names := p.all()

	// compiler: compile the whole program set, three times.
	const compileReps = 3
	for rep := 0; rep < compileReps; rep++ {
		if err := p.compile(tr, op, root); err != nil {
			return err
		}
	}
	compiled := p.compiled
	d, _ := tr.total("compiler.Compile")
	m.set("compiler.compile_ms", float64(d)/1e6/compileReps, "ms")

	// emulator: a solo drain, then a six-view broadcast of the same stream.
	const views = 6
	var stats []*pipeline.Stats
	var cycles, committed, peak, issued, useful int64
	var branches, mispred, accesses int64
	l1Acc, l1Miss := int64(0), int64(0)
	for _, name := range names {
		res := compiled[name]
		src := emulator.NewSource(emulator.New(res.Image), maxInsts)
		sp := tr.begin("emulator.drain", op, root)
		var n int64
		for {
			if _, ok := src.Next(); !ok {
				break
			}
			n++
		}
		sp.end(n)
		tr0, err := emulator.Materialize(emulator.NewSource(emulator.New(res.Image), maxInsts))
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}

		sp = tr.begin("emulator.Broadcast", op, root)
		bus := emulator.NewBroadcast(emulator.NewSource(emulator.New(res.Image), maxInsts), 0)
		// Every view must exist before any consumer starts reading.
		vs := make([]*emulator.BusView, views)
		for v := range vs {
			vs[v] = bus.View()
		}
		var wg sync.WaitGroup
		for _, view := range vs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer view.Close()
				for {
					if _, ok := view.NextRef(); !ok {
						return
					}
				}
			}()
		}
		wg.Wait()
		sp.end(int64(views * tr0.Len()))

		// pipeline: every policy on the materialized trace.
		for i, pk := range allPolicies {
			sp := tr.begin("pipeline.Simulate."+policyKeys[i], op, root)
			st, err := pipeline.NewCore(skylake(pk), tr0, res.Meta).Run()
			if err != nil {
				return fmt.Errorf("%s under %v: %w", name, pk, err)
			}
			sp.end(st.TraceInsts)
			stats = append(stats, st)
			cycles += st.Cycles
			committed += st.Committed
			peak = max(peak, st.WindowPeak)
			issued += st.PrefetchIssued
			useful += st.PrefetchUseful
		}

		// branchpred, cache, prefetch: replay the recorded streams.
		cfg := skylake(pipeline.Noreba)
		var brPC []int
		var brTaken []bool
		var memPC []int
		var memAddr []int64
		for i := range tr0.Insts {
			d := &tr0.Insts[i]
			switch {
			case d.Inst.Op.IsCondBranch():
				brPC = append(brPC, d.PC)
				brTaken = append(brTaken, d.Taken)
			case d.Inst.Op.IsLoad() || d.Inst.Op.IsStore():
				memPC = append(memPC, d.PC)
				memAddr = append(memAddr, d.Addr)
			}
		}
		tage := branchpred.NewTAGE()
		sp = tr.begin("branchpred.TAGE", op, root)
		for i, pc := range brPC {
			if tage.Predict(pc) != brTaken[i] {
				mispred++
			}
			tage.Update(pc, brTaken[i])
		}
		sp.end(int64(len(brPC)))
		branches += int64(len(brPC))

		h := cache.NewHierarchy(cfg.MemLat,
			cache.Config{Name: "L1d", Size: cfg.L1DSize, Ways: cfg.CacheWays, Latency: cfg.L1Lat},
			cache.Config{Name: "L2", Size: cfg.L2Size, Ways: cfg.CacheWays, Latency: cfg.L2Lat},
			cache.Config{Name: "L3", Size: cfg.L3Size, Ways: 16, Latency: cfg.L3Lat})
		sp = tr.begin("cache.Access", op, root)
		for i, a := range memAddr {
			h.Access(a, int64(4*i))
		}
		sp.end(int64(len(memAddr)))
		accesses += int64(len(memAddr))
		l1Acc += h.Levels[0].Accesses
		l1Miss += h.Levels[0].Misses

		dcpt := prefetch.New(cfg.PrefetchTable, cfg.PrefetchDegree)
		sp = tr.begin("prefetch.Train", op, root)
		for i, pc := range memPC {
			dcpt.Train(pc, memAddr[i])
		}
		sp.end(int64(len(memPC)))
	}
	soloD, soloN := tr.total("emulator.drain")
	busD, busN := tr.total("emulator.Broadcast")
	m.set("emulator.minsts_per_s", float64(soloN)/soloD.Seconds()/1e6, "Minst/s")
	// The bus's cost per delivered view instruction beyond a solo drain's.
	m.set("emulator.bus_ns_per_view_inst", (float64(busD)-float64(soloD))/float64(busN), "ns")
	for _, k := range policyKeys {
		d, n := tr.total("pipeline.Simulate." + k)
		m.set("pipeline."+k+".ns_per_inst", float64(d)/float64(n), "ns")
	}
	m.set("pipeline.cycles", float64(cycles), "count")
	m.set("pipeline.committed", float64(committed), "count")
	m.set("pipeline.window_peak", float64(peak), "count")
	d, n := tr.total("branchpred.TAGE")
	m.set("branchpred.tage_ns_per_branch", float64(d)/float64(max(1, n)), "ns")
	m.set("branchpred.mispredict_rate", float64(mispred)/float64(max(1, branches)), "frac")
	d, n = tr.total("cache.Access")
	m.set("cache.ns_per_access", float64(d)/float64(max(1, n)), "ns")
	m.set("cache.l1d_miss_rate", float64(l1Miss)/float64(max(1, l1Acc)), "frac")
	d, n = tr.total("prefetch.Train")
	m.set("prefetch.ns_per_train", float64(d)/float64(max(1, n)), "ns")
	m.set("prefetch.useful_frac", float64(useful)/float64(max(1, issued)), "frac")

	if err := probeStore(e, tr, op, root, stats, m); err != nil {
		return err
	}
	return probeSampling(tr, op, root, names, compiled, maxInsts, m)
}

// probeStore writes and reads back the probe's results through a
// DiskStore, the service layer's persistent store.
func probeStore(e *env, tr *tracer, op int64, root *active, stats []*pipeline.Stats, m metrics) error {
	dir, err := os.MkdirTemp(e.scratch, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := service.OpenDiskStore(dir, 1<<30)
	if err != nil {
		return err
	}
	keys := make([]string, len(stats))
	for i, s := range stats {
		keys[i] = fmt.Sprintf("%064x", i+1)
		sp := tr.begin("service.DiskStore.Put", op, root)
		err := st.Put(keys[i], s)
		sp.end(1)
		if err != nil {
			return err
		}
	}
	for _, k := range keys {
		sp := tr.begin("service.DiskStore.Get", op, root)
		_, ok := st.Get(k)
		sp.end(1)
		if !ok {
			return fmt.Errorf("store probe: %s missing after Put", k)
		}
	}
	d, n := tr.total("service.DiskStore.Get")
	m.set("service.store_get_us", float64(d)/1e3/float64(n), "us")
	d, n = tr.total("service.DiskStore.Put")
	m.set("service.store_put_us", float64(d)/1e3/float64(n), "us")
	return nil
}

// probeSampling builds each sampleable program's plan stage by stage
// (profile, clustering, full build), round-trips it through NRPF, and times
// estimates against full detail on the same programs and policies.
func probeSampling(tr *tracer, op int64, root *active, names []string, compiled map[string]*compiler.Result, maxInsts int64, m metrics) error {
	ctx := context.Background()
	params := sampling.Default().Normalize()
	var planBytes, detail, total int64
	var plans int
	errMax := 0.0
	for _, name := range names {
		res := compiled[name]
		sp := tr.begin("sampling.BuildProfile", op, root)
		prof := sampling.BuildProfile(emulator.NewSource(emulator.New(res.Image), maxInsts), params.IntervalLen)
		sp.end(prof.TotalInsts)
		if prof.Err != nil {
			return fmt.Errorf("%s: profile: %w", name, prof.Err)
		}
		vecs := bbvVectors(prof)
		sp = tr.begin("sampling.KMeans", op, root)
		sampling.KMeans(vecs, params.MaxK, params.KMeansIters, params.Seed)
		sp.end(int64(len(vecs)))

		sp = tr.begin("sampling.BuildPlan", op, root)
		pl, err := sampling.BuildPlanContext(ctx, res.Image, res.Meta, maxInsts, params)
		sp.end(prof.TotalInsts)
		if err != nil {
			return fmt.Errorf("%s: plan: %w", name, err)
		}
		if pl.Full {
			continue // too short to sample: no plan file, no estimate
		}
		sp = tr.begin("sampling.EncodePlan", op, root)
		data := sampling.EncodePlan(pl)
		sp.end(int64(len(data)))
		sp = tr.begin("sampling.LoadPlan", op, root)
		pl, err = sampling.LoadPlan(data, res.Image, maxInsts, params)
		sp.end(int64(len(data)))
		if err != nil {
			return fmt.Errorf("%s: reload plan: %w", name, err)
		}
		plans++
		planBytes += int64(len(data))
		detail += pl.DetailInsts()
		total += prof.TotalInsts

		for _, pk := range sampledPolicies {
			var est *pipeline.Stats
			for rep := 0; rep < 2; rep++ {
				sp := tr.begin("sampling.Estimate", op, root)
				est, err = pl.EstimateContext(ctx, skylake(pk), res.Meta)
				if err != nil {
					return fmt.Errorf("%s: estimate: %w", name, err)
				}
				sp.end(est.SampledDetailInsts)
			}
			sp := tr.begin("sampling.FullDetail", op, root)
			full, err := pipeline.NewCoreFromSource(skylake(pk), emulator.NewSource(emulator.New(res.Image), maxInsts), res.Meta).Run()
			if err != nil {
				return fmt.Errorf("%s: full detail: %w", name, err)
			}
			sp.end(full.TraceInsts)
			errMax = math.Max(errMax, 100*math.Abs(est.IPC()-full.IPC())/full.IPC())
		}
	}
	if plans == 0 {
		return nil // nothing sampleable: the sampling metrics read 0
	}
	secs := func(name string) float64 { d, _ := tr.total(name); return d.Seconds() }
	m.set("sampling.profile_s", secs("sampling.BuildProfile"), "s")
	m.set("sampling.kmeans_ms", secs("sampling.KMeans")*1e3, "ms")
	m.set("sampling.plan_build_s", secs("sampling.BuildPlan"), "s")
	d, n := tr.total("sampling.EncodePlan")
	m.set("sampling.nrpf_encode_mb_per_s", float64(n)/(1<<20)/d.Seconds(), "MB/s")
	d, n = tr.total("sampling.LoadPlan")
	m.set("sampling.nrpf_decode_mb_per_s", float64(n)/(1<<20)/d.Seconds(), "MB/s")
	m.set("sampling.plan_kb", float64(planBytes)/1024/float64(plans), "KB")
	p50, err := percentile(durationsMs(tr.named("sampling.Estimate")), 0.5)
	if err != nil {
		return fmt.Errorf("sampling.estimate_ms_p50: %w", err)
	}
	m.set("sampling.estimate_ms_p50", p50, "ms")
	m.set("sampling.detail_frac", float64(detail)/float64(total), "frac")
	m.set("sampling.full_detail_s", secs("sampling.FullDetail"), "s")
	m.set("sampling.ipc_err_max_pct", errMax, "%")
	return nil
}

// bbvVectors turns a profile's basic-block vectors into dense rows over the
// union of blocks, each normalized by its interval's length.
func bbvVectors(prof *sampling.Profile) [][]float64 {
	cols := map[int]int{}
	var blocks []int
	for _, iv := range prof.Intervals {
		for b := range iv.BBV {
			if _, ok := cols[b]; !ok {
				cols[b] = 0
				blocks = append(blocks, b)
			}
		}
	}
	sort.Ints(blocks)
	for i, b := range blocks {
		cols[b] = i
	}
	out := make([][]float64, len(prof.Intervals))
	for i, iv := range prof.Intervals {
		row := make([]float64, len(blocks))
		for b, c := range iv.BBV {
			row[cols[b]] = float64(c) / float64(max(1, iv.Insts))
		}
		out[i] = row
	}
	return out
}
