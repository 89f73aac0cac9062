package experiments

import (
	"fmt"

	"github.com/noreba-sim/noreba/internal/compiler"
	"github.com/noreba-sim/noreba/internal/metrics"
	"github.com/noreba-sim/noreba/internal/pipeline"
)

// AblationCIT sweeps the Committed Instructions Table size: the CIT bounds
// how far beyond an unresolved branch NOREBA may commit, so undersizing it
// caps the reach (and the speedup) while the paper's 128 entries are
// comfortably past the knee for these kernels.
func (r *Runner) AblationCIT() (*metrics.Table, error) { return run(r, ablationCIT) }

// AblationLoopMarking compares the default selective marking (loop-closing
// branches unmarked) against exhaustively marking every analysable branch:
// the exhaustive variant pays one setup instruction per block per loop
// iteration for regions that are dependent anyway.
func (r *Runner) AblationLoopMarking() (*metrics.Table, error) { return run(r, ablationLoopMarking) }

// AblationBITSize sweeps the Branch ID Table size (number of usable
// compiler IDs): a smaller BIT forces the ID allocator to leave overlapping
// branches unmarked.
func (r *Runner) AblationBITSize() (*metrics.Table, error) { return run(r, ablationBITSize) }

// AblationPredictors measures how NOREBA's advantage depends on branch
// prediction quality: with an oracle front end there are no misprediction
// windows to hide, while a weak bimodal predictor shifts time from commit
// stalls to recovery.
func (r *Runner) AblationPredictors() (*metrics.Table, error) { return run(r, ablationPredictors) }

func ablationCIT(g *grid) *metrics.Table {
	sizes := []int{8, 16, 32, 64, 128, 256}
	var cols []string
	for _, s := range sizes {
		cols = append(cols, fmt.Sprintf("CIT %d", s))
	}
	tab := metrics.NewTable("Ablation: CIT sizing (geomean speedup over InO-C)", cols...)
	var vals []float64
	for _, size := range sizes {
		cfg := skylake(pipeline.Noreba)
		cfg.Selective.CITSize = size
		vals = append(vals, geomeanSpeedup(g, skylake(pipeline.InOrder), cfg))
	}
	tab.AddRow("NOREBA", vals...)
	return tab
}

func ablationLoopMarking(g *grid) *metrics.Table {
	tab := metrics.NewTable("Ablation: loop-branch marking (cycles exhaustive / cycles selective)",
		append(append([]string{}, g.names...), "geomean")...)
	exhaustive := compiler.DefaultOptions()
	exhaustive.MarkLoopBranches = true
	var ratios []float64
	for _, name := range g.names {
		selective := g.sim(name, skylake(pipeline.Noreba))
		marked := g.get(Request{Workload: name, Config: skylake(pipeline.Noreba), Compiler: exhaustive})
		ratios = append(ratios, float64(marked.Cycles)/float64(selective.Cycles))
	}
	tab.AddRow("slowdown", append(ratios, metrics.Geomean(ratios))...)
	return tab
}

func ablationBITSize(g *grid) *metrics.Table {
	sizes := []int{2, 4, 8, 16}
	var cols []string
	for _, s := range sizes {
		cols = append(cols, fmt.Sprintf("BIT %d", s))
	}
	tab := metrics.NewTable("Ablation: BIT/ID-space sizing (geomean speedup over InO-C)", cols...)
	var vals []float64
	for _, size := range sizes {
		cfg := skylake(pipeline.Noreba)
		cfg.Selective.BITSize = size
		opts := compiler.DefaultOptions()
		opts.NumIDs = size
		var speedups []float64
		for _, name := range g.names {
			base := g.sim(name, skylake(pipeline.InOrder))
			st := g.get(Request{Workload: name, Config: cfg, Compiler: opts})
			speedups = append(speedups, metrics.Speedup(base.Cycles, st.Cycles))
		}
		vals = append(vals, metrics.Geomean(speedups))
	}
	tab.AddRow("NOREBA", vals...)
	return tab
}

func ablationPredictors(g *grid) *metrics.Table {
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
	var vals []float64
	for _, p := range preds {
		base := skylake(pipeline.InOrder)
		base.Predictor = p.kind
		cfg := skylake(pipeline.Noreba)
		cfg.Predictor = p.kind
		vals = append(vals, geomeanSpeedup(g, base, cfg))
	}
	tab.AddRow("NOREBA", vals...)
	return tab
}
