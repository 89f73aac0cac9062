package experiments

import (
	"context"
	"fmt"

	"github.com/noreba-sim/noreba/internal/compiler"
	"github.com/noreba-sim/noreba/internal/emulator"
	"github.com/noreba-sim/noreba/internal/metrics"
	"github.com/noreba-sim/noreba/internal/pipeline"
	"github.com/noreba-sim/noreba/internal/workloads"
)

// AblationCIT sweeps the Committed Instructions Table size: the CIT bounds
// how far beyond an unresolved branch NOREBA may commit, so undersizing it
// caps the reach (and the speedup) while the paper's 128 entries are
// comfortably past the knee for these kernels.
func (r *Runner) AblationCIT() (*metrics.Table, error) {
	sizes := []int{8, 16, 32, 64, 128, 256}
	var cols []string
	for _, s := range sizes {
		cols = append(cols, fmt.Sprintf("CIT %d", s))
	}
	tab := metrics.NewTable("Ablation: CIT sizing (geomean speedup over InO-C)", cols...)
	names, err := r.names()
	if err != nil {
		return nil, err
	}
	var reqs []Request
	for _, name := range names {
		reqs = append(reqs, Request{Workload: name, Config: skylake(pipeline.InOrder)})
		for _, size := range sizes {
			cfg := skylake(pipeline.Noreba)
			cfg.Selective.CITSize = size
			reqs = append(reqs, Request{Workload: name, Config: cfg})
		}
	}
	if err := r.RunRequests(context.Background(), reqs); err != nil {
		return nil, err
	}
	var vals []float64
	for _, size := range sizes {
		var speedups []float64
		for _, name := range names {
			base, err := r.Simulate(name, skylake(pipeline.InOrder))
			if err != nil {
				return nil, err
			}
			cfg := skylake(pipeline.Noreba)
			cfg.Selective.CITSize = size
			st, err := r.Simulate(name, cfg)
			if err != nil {
				return nil, err
			}
			speedups = append(speedups, metrics.Speedup(base.Cycles, st.Cycles))
		}
		vals = append(vals, metrics.Geomean(speedups))
	}
	tab.AddRow("NOREBA", vals...)
	return tab, nil
}

// AblationLoopMarking compares the default selective marking (loop-closing
// branches unmarked) against exhaustively marking every analysable branch:
// the exhaustive variant pays one setup instruction per block per loop
// iteration for regions that are dependent anyway.
func (r *Runner) AblationLoopMarking() (*metrics.Table, error) {
	names, err := r.names()
	if err != nil {
		return nil, err
	}
	var reqs []Request
	for _, name := range names {
		reqs = append(reqs, Request{Workload: name, Config: skylake(pipeline.Noreba)})
	}
	if err := r.RunRequests(context.Background(), reqs); err != nil {
		return nil, err
	}
	tab := metrics.NewTable("Ablation: loop-branch marking (cycles exhaustive / cycles selective)",
		append(append([]string{}, names...), "geomean")...)

	var ratios []float64
	for _, name := range names {
		selective, err := r.Simulate(name, skylake(pipeline.Noreba))
		if err != nil {
			return nil, err
		}
		exhaustive, err := r.simulateWithOptions(name, skylake(pipeline.Noreba), compiler.Options{
			NumIDs: 8, MaxRegionLen: 31, MarkLoopBranches: true,
		})
		if err != nil {
			return nil, err
		}
		ratios = append(ratios, float64(exhaustive.Cycles)/float64(selective.Cycles))
	}
	tab.AddRow("slowdown", append(ratios, metrics.Geomean(ratios))...)
	return tab, nil
}

// simulateWithOptions recompiles the workload with explicit pass options
// (bypassing the shared trace cache) and simulates it.
func (r *Runner) simulateWithOptions(name string, cfg pipeline.Config, opt compiler.Options) (*pipeline.Stats, error) {
	w, err := workloads.ByName(name)
	if err != nil {
		return nil, err
	}
	scale := w.DefaultScale / r.ScaleDiv
	if scale < 2 {
		scale = 2
	}
	res, err := compiler.Compile(w.Build(scale), opt)
	if err != nil {
		return nil, err
	}
	if err := r.acquire(context.Background()); err != nil {
		return nil, err
	}
	defer r.release()
	src := emulator.NewSource(emulator.New(res.Image), r.MaxInsts)
	return pipeline.NewCoreFromSource(cfg, src, res.Meta).Run()
}

// AblationBITSize sweeps the Branch ID Table size (number of usable
// compiler IDs): a smaller BIT forces the ID allocator to leave overlapping
// branches unmarked.
func (r *Runner) AblationBITSize() (*metrics.Table, error) {
	sizes := []int{2, 4, 8, 16}
	var cols []string
	for _, s := range sizes {
		cols = append(cols, fmt.Sprintf("BIT %d", s))
	}
	tab := metrics.NewTable("Ablation: BIT/ID-space sizing (geomean speedup over InO-C)", cols...)
	names, err := r.names()
	if err != nil {
		return nil, err
	}
	var reqs []Request
	for _, name := range names {
		reqs = append(reqs, Request{Workload: name, Config: skylake(pipeline.InOrder)})
	}
	if err := r.RunRequests(context.Background(), reqs); err != nil {
		return nil, err
	}
	var vals []float64
	for _, size := range sizes {
		var speedups []float64
		for _, name := range names {
			base, err := r.Simulate(name, skylake(pipeline.InOrder))
			if err != nil {
				return nil, err
			}
			cfg := skylake(pipeline.Noreba)
			cfg.Selective.BITSize = size
			st, err := r.simulateWithOptions(name, cfg, compiler.Options{
				NumIDs: size, MaxRegionLen: 31,
			})
			if err != nil {
				return nil, err
			}
			speedups = append(speedups, metrics.Speedup(base.Cycles, st.Cycles))
		}
		vals = append(vals, metrics.Geomean(speedups))
	}
	tab.AddRow("NOREBA", vals...)
	return tab, nil
}

// AblationPredictors measures how NOREBA's advantage depends on branch
// prediction quality: with an oracle front end there are no misprediction
// windows to hide, while a weak bimodal predictor shifts time from commit
// stalls to recovery.
func (r *Runner) AblationPredictors() (*metrics.Table, error) {
	preds := []struct {
		name string
		kind pipeline.PredictorKind
	}{
		{"bimodal", pipeline.PredBimodal},
		{"TAGE-SC-L", pipeline.PredTAGE},
		{"oracle", pipeline.PredOracle},
	}
	var cols []string
	for _, p := range preds {
		cols = append(cols, p.name)
	}
	tab := metrics.NewTable("Ablation: predictor sensitivity (geomean NOREBA speedup over InO-C, same predictor)", cols...)
	names, err := r.names()
	if err != nil {
		return nil, err
	}
	var reqs []Request
	for _, name := range names {
		for _, p := range preds {
			base := skylake(pipeline.InOrder)
			base.Predictor = p.kind
			cfg := skylake(pipeline.Noreba)
			cfg.Predictor = p.kind
			reqs = append(reqs, Request{Workload: name, Config: base}, Request{Workload: name, Config: cfg})
		}
	}
	if err := r.RunRequests(context.Background(), reqs); err != nil {
		return nil, err
	}
	var vals []float64
	for _, p := range preds {
		var speedups []float64
		for _, name := range names {
			base := skylake(pipeline.InOrder)
			base.Predictor = p.kind
			baseSt, err := r.Simulate(name, base)
			if err != nil {
				return nil, err
			}
			cfg := skylake(pipeline.Noreba)
			cfg.Predictor = p.kind
			st, err := r.Simulate(name, cfg)
			if err != nil {
				return nil, err
			}
			speedups = append(speedups, metrics.Speedup(baseSt.Cycles, st.Cycles))
		}
		vals = append(vals, metrics.Geomean(speedups))
	}
	tab.AddRow("NOREBA", vals...)
	return tab, nil
}
