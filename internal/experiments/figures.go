package experiments

import (
	"context"
	"fmt"
	"math"

	"github.com/noreba-sim/noreba/internal/metrics"
	"github.com/noreba-sim/noreba/internal/pipeline"
	"github.com/noreba-sim/noreba/internal/power"
)

// grid is what an experiment body reads: the runner's workload suite and
// one result per simulation request. Each body is written once and run
// twice — first against an accessor that only records the requests it reads
// (the results are zero Stats), then, once those requests have run, against
// their results — so a figure's configuration grid is declared in exactly
// one place. What a body reads must depend only on the suite, never on the
// results it gets, so its second pass reads the same requests in the same
// order as its first.
type grid struct {
	names []string
	get   func(Request) *pipeline.Stats
}

// sim reads the full-detail run of workload under cfg, built with the
// default compiler options.
func (g *grid) sim(workload string, cfg pipeline.Config) *pipeline.Stats {
	return g.get(Request{Workload: workload, Config: cfg})
}

// Experiment is one registry entry: a figure of the paper's evaluation or one
// of this repository's ablations, by name ("figure6", "ablation-cit").
type Experiment struct {
	Name string
	// Figure is the paper's figure number; 0 for an ablation.
	Figure int
	body   func(*grid) fmt.Stringer
}

func entry[T fmt.Stringer](name string, figure int, body func(*grid) T) Experiment {
	return Experiment{Name: name, Figure: figure, body: func(g *grid) fmt.Stringer { return body(g) }}
}

// registry lists every experiment once: the figures in paper order, then the
// ablations.
var registry = []Experiment{
	entry("figure1", 1, figure1),
	entry("figure6", 6, figure6),
	entry("figure7", 7, figure7),
	entry("figure8", 8, figure8),
	entry("figure9", 9, figure9),
	entry("figure10", 10, figure10),
	entry("figure11", 11, figure11),
	entry("figure12", 12, figure12),
	entry("figure13", 13, figure13),
	entry("figure14", 14, figure14),
	entry("figure15", 15, figure15),
	entry("figure16", 16, figure16),
	entry("ablation-cit", 0, ablationCIT),
	entry("ablation-loop-marking", 0, ablationLoopMarking),
	entry("ablation-bit-size", 0, ablationBITSize),
	entry("ablation-predictors", 0, ablationPredictors),
}

// Experiments returns the registry in order: figures 1 and 6–16, then the
// ablations.
func Experiments() []Experiment { return append([]Experiment(nil), registry...) }

func lookup(name string) (Experiment, error) {
	for _, e := range registry {
		if e.Name == name {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", name)
}

// FigureRequests returns the union of the named experiments' simulation
// requests (duplicates included — the scheduler coalesces them), for
// batching through RunRequests: every full-detail configuration of a build
// then shares a single functional emulation across experiments. Names are
// registry names (see Experiments); an unknown name is an error.
func (r *Runner) FigureRequests(names ...string) ([]Request, error) {
	suite, err := r.names()
	if err != nil {
		return nil, err
	}
	var out []Request
	for _, name := range names {
		e, err := lookup(name)
		if err != nil {
			return nil, err
		}
		out = append(out, record(suite, e.body)...)
	}
	return out, nil
}

// RunExperiment regenerates the named experiment (see Experiments).
func (r *Runner) RunExperiment(name string) (fmt.Stringer, error) {
	e, err := lookup(name)
	if err != nil {
		return nil, err
	}
	return run(r, e.body)
}

// record runs body against an accessor that only notes each request read.
func record[T any](names []string, body func(*grid) T) []Request {
	var reqs []Request
	body(&grid{names: names, get: func(q Request) *pipeline.Stats {
		reqs = append(reqs, q)
		return &pipeline.Stats{}
	}})
	return reqs
}

// run regenerates one experiment: its recorded requests run in one
// RunRequestsStream pass (cache hits after a FigureRequests warm-up), then
// body runs again, its i-th read answered by the i-th request's result.
func run[T any](r *Runner, body func(*grid) T) (T, error) {
	var zero T
	names, err := r.names()
	if err != nil {
		return zero, err
	}
	reqs := record(names, body)
	results := make([]*pipeline.Stats, len(reqs))
	if err := r.RunRequestsStream(context.Background(), reqs, func(i int, st *pipeline.Stats, _ error) {
		results[i] = st
	}); err != nil {
		return zero, err
	}
	next := 0
	return body(&grid{names: names, get: func(Request) *pipeline.Stats {
		next++
		return results[next-1]
	}}), nil
}

// Figure1 reproduces the motivation figure: NonSpeculative, SpeculativeBR
// and fully Speculative OoO-commit speedups over in-order commit on the
// Skylake-like core with prefetching.
func (r *Runner) Figure1() (*metrics.Table, error) { return run(r, figure1) }

// Figure6 is the main result: NonSpeculative, NOREBA, ideal-reconvergence
// and SpeculativeBR OoO commit over InO-C.
func (r *Runner) Figure6() (*metrics.Table, error) { return run(r, figure6) }

// Figure7 reproduces the criticality scatter for bzip2 and mcf: for every
// static branch, log10 of its dynamic dependent-instruction count against
// log10 of the cycles it stalled commit, under in-order commit on SKL.
func (r *Runner) Figure7() (*metrics.Scatter, error) { return run(r, figure7) }

// Figure8 reports the fraction of dynamic instructions NOREBA commits out
// of order, per workload.
func (r *Runner) Figure8() (*metrics.Table, error) { return run(r, figure8) }

// Figure9 sweeps the Selective ROB configuration — BR-CQ count × entries —
// for two ROB′ sizes, reporting geomean performance normalised to the
// ideal reconvergence commit with the same ROB size.
func (r *Runner) Figure9() (*metrics.Table, error) { return run(r, figure9) }

// Figure10 reports total core power for the same Selective ROB sweep,
// normalised to the smallest configuration.
func (r *Runner) Figure10() (*metrics.Table, error) { return run(r, figure10) }

// Figure11 measures the cost of the setup instructions themselves: NOREBA
// with fetched setup instructions versus a perfect design whose dependence
// information reaches the hardware for free.
func (r *Runner) Figure11() (*metrics.Table, error) { return run(r, figure11) }

// Figure12 compares NOREBA's speedup over in-order commit across the
// Nehalem-, Haswell- and Skylake-like cores (Table 3).
func (r *Runner) Figure12() (*metrics.Table, error) { return run(r, figure12) }

// Figure13 evaluates prefetching: in-order and NOREBA, with and without the
// DCPT prefetcher, normalised to the NHM in-order core with prefetching.
func (r *Runner) Figure13() (*metrics.Table, error) { return run(r, figure13) }

// Figure14 measures Early Commit of Loads on both the in-order baseline and
// NOREBA.
func (r *Runner) Figure14() (*metrics.Table, error) { return run(r, figure14) }

// Figure15 shows that widening in-order commit does not substitute for
// out-of-order commit: InO-C with an 8-wide commit stage versus NOREBA.
func (r *Runner) Figure15() (*metrics.Table, error) { return run(r, figure15) }

// Figure16 reports the per-structure power and area of NOREBA normalised to
// the in-order baseline core.
func (r *Runner) Figure16() (*metrics.Table, *metrics.Table, error) {
	t, err := run(r, figure16)
	return t.power, t.area, err
}

// speedupTable tabulates per-workload speedups of each row config over the
// baseline config, plus a geomean column.
func speedupTable(g *grid, title string, baseline pipeline.Config, rows ...pipeline.Config) *metrics.Table {
	tab := metrics.NewTable(title, append(append([]string{}, g.names...), "geomean")...)
	for _, cfg := range rows {
		var vals []float64
		for _, name := range g.names {
			vals = append(vals, metrics.Speedup(g.sim(name, baseline).Cycles, g.sim(name, cfg).Cycles))
		}
		tab.AddRow(rowName(cfg), append(vals, metrics.Geomean(vals))...)
	}
	return tab
}

func rowName(cfg pipeline.Config) string {
	name := cfg.Policy.String()
	if cfg.ECL {
		name += "+ECL"
	}
	if cfg.FreeSetup && (cfg.Policy == pipeline.Noreba || cfg.Policy == pipeline.IdealReconv) {
		name += "+PerfectSetup"
	}
	if cfg.CommitWidth != 4 {
		name += fmt.Sprintf(" (commit %d)", cfg.CommitWidth)
	}
	if !cfg.PrefetchEnabled {
		name += " no-pf"
	}
	return name
}

func figure1(g *grid) *metrics.Table {
	return speedupTable(g, "Figure 1: OoO-commit approaches over InO-C (SKL + prefetch)",
		skylake(pipeline.InOrder),
		skylake(pipeline.NonSpecOoO), skylake(pipeline.SpecBR), skylake(pipeline.Spec))
}

func figure6(g *grid) *metrics.Table {
	return speedupTable(g, "Figure 6: OoO-commit modes over InO-C (SKL)",
		skylake(pipeline.InOrder),
		skylake(pipeline.NonSpecOoO), skylake(pipeline.Noreba), skylake(pipeline.IdealReconv), skylake(pipeline.SpecBR))
}

func figure7(g *grid) *metrics.Scatter {
	sc := metrics.NewScatter("Figure 7: critical-branch distribution (SKL, InO-C)",
		"log10(dependent instructions)", "log10(cycles ROB stalled)")
	for _, name := range []string{"bzip2", "mcf"} {
		for _, bs := range g.sim(name, skylake(pipeline.InOrder)).BranchStalls {
			if bs.StallCycles <= 0 || bs.Occurrences == 0 {
				continue
			}
			deps := float64(bs.Dependents)
			if deps < 1 {
				deps = 1
			}
			sc.Add(name, math.Log10(deps), math.Log10(float64(bs.StallCycles)))
		}
	}
	return sc
}

func figure8(g *grid) *metrics.Table {
	tab := metrics.NewTable("Figure 8: dynamic instructions committed out-of-order (NOREBA, SKL)", g.names...)
	var vals []float64
	for _, name := range g.names {
		vals = append(vals, g.sim(name, skylake(pipeline.Noreba)).OoOCommitFraction())
	}
	tab.AddRow("OoO-commit fraction", vals...)
	return tab
}

// brcqKnob is one Selective ROB sizing point: BR-CQ count × entries.
type brcqKnob struct{ queues, entries int }

func (k brcqKnob) String() string { return fmt.Sprintf("%dxBR-CQ/%d", k.queues, k.entries) }

// norebaCfg returns the SKL NOREBA core sized at this knob.
func (k brcqKnob) norebaCfg() pipeline.Config {
	cfg := skylake(pipeline.Noreba)
	cfg.Selective.NumBRCQs = k.queues
	cfg.Selective.BRCQSize = k.entries
	return cfg
}

func knobTable(title string, knobs []brcqKnob) *metrics.Table {
	var cols []string
	for _, k := range knobs {
		cols = append(cols, k.String())
	}
	return metrics.NewTable(title, cols...)
}

func figure9(g *grid) *metrics.Table {
	knobs := []brcqKnob{{1, 4}, {1, 8}, {2, 4}, {2, 8}, {2, 16}, {4, 8}, {4, 16}}
	tab := knobTable("Figure 9: Selective ROB sizing, normalised to ideal Reconvergence-OoO-C", knobs)
	for _, robSize := range []int{224, 128} {
		ideal := skylake(pipeline.IdealReconv)
		ideal.ROBSize = robSize
		var vals []float64
		for _, k := range knobs {
			cfg := k.norebaCfg()
			cfg.ROBSize = robSize
			var ratios []float64
			for _, name := range g.names {
				ratios = append(ratios, float64(g.sim(name, ideal).Cycles)/float64(g.sim(name, cfg).Cycles))
			}
			vals = append(vals, metrics.Geomean(ratios))
		}
		tab.AddRow(fmt.Sprintf("ROB' %d", robSize), vals...)
	}
	return tab
}

func figure10(g *grid) *metrics.Table {
	knobs := []brcqKnob{{1, 4}, {1, 8}, {2, 4}, {2, 8}, {2, 16}, {4, 8}, {4, 16}, {8, 64}}
	tab := knobTable("Figure 10: Selective ROB power, normalised to minimum configuration", knobs)
	var vals []float64
	for _, k := range knobs {
		cfg := k.norebaCfg()
		var total float64
		for _, name := range g.names {
			total += power.Estimate(cfg, g.sim(name, cfg)).TotalPower()
		}
		vals = append(vals, total)
	}
	min := vals[0]
	for _, v := range vals {
		if v < min {
			min = v
		}
	}
	for i := range vals {
		vals[i] /= min
	}
	tab.AddRow("power", vals...)
	return tab
}

func figure11(g *grid) *metrics.Table {
	tab := metrics.NewTable("Figure 11: setup-instruction overhead (cycles with setup / cycles perfect)",
		append(append([]string{}, g.names...), "geomean")...)
	perfect := skylake(pipeline.Noreba)
	perfect.FreeSetup = true
	var vals []float64
	for _, name := range g.names {
		vals = append(vals, float64(g.sim(name, skylake(pipeline.Noreba)).Cycles)/float64(g.sim(name, perfect).Cycles))
	}
	tab.AddRow("overhead", append(vals, metrics.Geomean(vals))...)
	return tab
}

// coreConfigs returns the three Table 3 cores with the given policy.
func coreConfigs(policy pipeline.PolicyKind) []pipeline.Config {
	nhm := pipeline.NehalemConfig()
	hsw := pipeline.HaswellConfig()
	skl := pipeline.SkylakeConfig()
	nhm.Policy, hsw.Policy, skl.Policy = policy, policy, policy
	return []pipeline.Config{nhm, hsw, skl}
}

// geomeanSpeedup is the suite geomean of cfg's speedup over baseline.
func geomeanSpeedup(g *grid, baseline, cfg pipeline.Config) float64 {
	var speedups []float64
	for _, name := range g.names {
		speedups = append(speedups, metrics.Speedup(g.sim(name, baseline).Cycles, g.sim(name, cfg).Cycles))
	}
	return metrics.Geomean(speedups)
}

func figure12(g *grid) *metrics.Table {
	tab := metrics.NewTable("Figure 12: NOREBA speedup over InO-C per core", "NHM", "HSW", "SKL")
	inos := coreConfigs(pipeline.InOrder)
	var vals []float64
	for i, nor := range coreConfigs(pipeline.Noreba) {
		vals = append(vals, geomeanSpeedup(g, inos[i], nor))
	}
	tab.AddRow("NOREBA/InO-C", vals...)
	return tab
}

func figure13(g *grid) *metrics.Table {
	tab := metrics.NewTable("Figure 13: prefetching effectiveness (normalised to NHM InO-C + prefetch)",
		"NHM", "HSW", "SKL")
	base := pipeline.NehalemConfig()
	base.Policy = pipeline.InOrder
	for _, v := range []struct {
		name     string
		policy   pipeline.PolicyKind
		prefetch bool
	}{
		{"InO-C+pf", pipeline.InOrder, true},
		{"NOREBA no-pf", pipeline.Noreba, false},
		{"NOREBA+pf", pipeline.Noreba, true},
	} {
		var vals []float64
		for _, core := range coreConfigs(v.policy) {
			core.PrefetchEnabled = v.prefetch
			vals = append(vals, geomeanSpeedup(g, base, core))
		}
		tab.AddRow(v.name, vals...)
	}
	return tab
}

func figure14(g *grid) *metrics.Table {
	inoECL := skylake(pipeline.InOrder)
	inoECL.ECL = true
	norebaECL := skylake(pipeline.Noreba)
	norebaECL.ECL = true
	return speedupTable(g, "Figure 14: Early Commit of Loads (speedup over InO-C, SKL)",
		skylake(pipeline.InOrder), inoECL, skylake(pipeline.Noreba), norebaECL)
}

func figure15(g *grid) *metrics.Table {
	wide := skylake(pipeline.InOrder)
	wide.CommitWidth = 8
	return speedupTable(g, "Figure 15: commit bandwidth (speedup over InO-C, SKL)",
		skylake(pipeline.InOrder), wide, skylake(pipeline.Noreba))
}

// figure16Tables is Figure 16's pair of tables, printed power then area.
type figure16Tables struct{ power, area *metrics.Table }

func (t figure16Tables) String() string { return t.power.String() + "\n" + t.area.String() }

func figure16(g *grid) figure16Tables {
	var cols []string
	for _, s := range power.AllStructures {
		cols = append(cols, string(s))
	}
	cols = append(cols, "TOTAL")
	powTab := metrics.NewTable("Figure 16: power by structure (normalised to InO-C total)", cols...)
	areaTab := metrics.NewTable("Figure 16: area by structure (normalised to InO-C total)", cols...)

	sum := func(policy pipeline.PolicyKind) (pw, ar map[power.Structure]float64) {
		pw, ar = map[power.Structure]float64{}, map[power.Structure]float64{}
		cfg := skylake(policy)
		for _, name := range g.names {
			b := power.Estimate(cfg, g.sim(name, cfg))
			for s, v := range b.Power {
				pw[s] += v
			}
			for s, v := range b.Area {
				ar[s] += v
			}
		}
		return pw, ar
	}
	basePw, baseAr := sum(pipeline.InOrder)
	norPw, norAr := sum(pipeline.Noreba)

	total := func(m map[power.Structure]float64) float64 {
		t := 0.0
		for _, v := range m {
			t += v
		}
		return t
	}
	addRows := func(tab *metrics.Table, base, nor map[power.Structure]float64) {
		baseTotal := total(base)
		var baseVals, norVals []float64
		for _, s := range power.AllStructures {
			baseVals = append(baseVals, base[s]/baseTotal)
			norVals = append(norVals, nor[s]/baseTotal)
		}
		tab.AddRow("In-Order Commit", append(baseVals, 1.0)...)
		tab.AddRow("NOREBA", append(norVals, total(nor)/baseTotal)...)
	}
	addRows(powTab, basePw, norPw)
	addRows(areaTab, baseAr, norAr)
	return figure16Tables{powTab, areaTab}
}

// Tables2And3 prints the system configuration tables the evaluation uses.
func Tables2And3() string {
	skl := pipeline.SkylakeConfig()
	out := "== Table 2: system configuration ==\n"
	out += fmt.Sprintf("L1i/L1d %dKB %dclk | L2 %dKB %dclk | L3 %dMB %dclk\n",
		skl.L1ISize>>10, skl.L1Lat, skl.L2Size>>10, skl.L2Lat, skl.L3Size>>20, skl.L3Lat)
	out += fmt.Sprintf("widths fetch/issue/commit %d/%d/%d | predictor TAGE-SC-L | prefetcher DCPT\n",
		skl.FetchWidth, skl.IssueWidth, skl.CommitWidth)
	sel := skl.Selective
	out += fmt.Sprintf("Selective ROB: ROB' = baseline ROB | BR-CQs %d x %d | PR-CQ %d | BIT/CQT %d/%d | CIT %d\n",
		sel.NumBRCQs, sel.BRCQSize, sel.PRCQSize, sel.BITSize, sel.CQTSize, sel.CITSize)

	out += "\n== Table 3: baseline microarchitectures ==\n"
	out += fmt.Sprintf("%-4s %5s %4s %6s %4s\n", "core", "ROB", "IQ", "LQ/SQ", "RF")
	for _, cfg := range []pipeline.Config{pipeline.NehalemConfig(), pipeline.HaswellConfig(), pipeline.SkylakeConfig()} {
		out += fmt.Sprintf("%-4s %5d %4d %3d/%-3d %4d\n", cfg.Name, cfg.ROBSize, cfg.IQSize, cfg.LQSize, cfg.SQSize, cfg.RenameRegs)
	}
	return out
}
