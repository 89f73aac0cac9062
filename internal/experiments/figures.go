package experiments

import (
	"context"
	"fmt"
	"math"

	"github.com/noreba-sim/noreba/internal/metrics"
	"github.com/noreba-sim/noreba/internal/pipeline"
	"github.com/noreba-sim/noreba/internal/power"
)

// figureReqs maps a figure name ("figure1" … "figure16") to the builder of
// its simulation requests. FigureN warms the cache by running its own
// builder's requests; FigureRequests lets callers batch several figures'
// requests through one RunRequests pass, so every configuration of a
// workload shares a single functional emulation across figures.
var figureReqs = map[string]func(*Runner) ([]Request, error){
	"figure1":  (*Runner).figure1Reqs,
	"figure6":  (*Runner).figure6Reqs,
	"figure7":  (*Runner).figure7Reqs,
	"figure8":  (*Runner).figure8Reqs,
	"figure9":  (*Runner).figure9Reqs,
	"figure10": (*Runner).figure10Reqs,
	"figure11": (*Runner).figure11Reqs,
	"figure12": (*Runner).figure12Reqs,
	"figure13": (*Runner).figure13Reqs,
	"figure14": (*Runner).figure14Reqs,
	"figure15": (*Runner).figure15Reqs,
	"figure16": (*Runner).figure16Reqs,
}

// FigureRequests returns the union of the named figures' simulation
// requests (duplicates included — the scheduler coalesces them), for
// batching through RunRequests. Figure names are "figure1" through
// "figure16"; an unknown name is an error.
func (r *Runner) FigureRequests(figures ...string) ([]Request, error) {
	var out []Request
	for _, f := range figures {
		build, ok := figureReqs[f]
		if !ok {
			return nil, fmt.Errorf("experiments: unknown figure %q", f)
		}
		qs, err := build(r)
		if err != nil {
			return nil, err
		}
		out = append(out, qs...)
	}
	return out, nil
}

// speedupReqs lists the requests of a baseline-vs-rows speedup table.
func (r *Runner) speedupReqs(baseline pipeline.Config, rows []pipeline.Config) ([]Request, error) {
	names, err := r.names()
	if err != nil {
		return nil, err
	}
	var reqs []Request
	for _, name := range names {
		reqs = append(reqs, Request{Workload: name, Config: baseline})
		for _, cfg := range rows {
			reqs = append(reqs, Request{Workload: name, Config: cfg})
		}
	}
	return reqs, nil
}

// speedupTable runs the given policies over the suite — batched on the
// broadcast-bus scheduler — and tabulates per-workload speedups over the
// baseline config, plus a geomean column.
func (r *Runner) speedupTable(title string, baseline pipeline.Config, rows []pipeline.Config) (*metrics.Table, error) {
	names, err := r.names()
	if err != nil {
		return nil, err
	}
	reqs, err := r.speedupReqs(baseline, rows)
	if err != nil {
		return nil, err
	}
	if err := r.RunRequests(context.Background(), reqs); err != nil {
		return nil, err
	}
	tab := metrics.NewTable(title, append(append([]string{}, names...), "geomean")...)
	for _, cfg := range rows {
		var vals []float64
		for _, name := range names {
			base, err := r.Simulate(name, baseline)
			if err != nil {
				return nil, err
			}
			st, err := r.Simulate(name, cfg)
			if err != nil {
				return nil, err
			}
			vals = append(vals, metrics.Speedup(base.Cycles, st.Cycles))
		}
		tab.AddRow(rowName(cfg), append(vals, metrics.Geomean(vals))...)
	}
	return tab, nil
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

// figure1Rows lists the non-baseline configurations of Figure 1.
func figure1Rows() []pipeline.Config {
	return []pipeline.Config{
		skylake(pipeline.NonSpecOoO),
		skylake(pipeline.SpecBR),
		skylake(pipeline.Spec),
	}
}

func (r *Runner) figure1Reqs() ([]Request, error) {
	return r.speedupReqs(skylake(pipeline.InOrder), figure1Rows())
}

// Figure1 reproduces the motivation figure: NonSpeculative, SpeculativeBR
// and fully Speculative OoO-commit speedups over in-order commit on the
// Skylake-like core with prefetching.
func (r *Runner) Figure1() (*metrics.Table, error) {
	return r.speedupTable(
		"Figure 1: OoO-commit approaches over InO-C (SKL + prefetch)",
		skylake(pipeline.InOrder), figure1Rows())
}

// figure6Rows lists the non-baseline configurations of Figure 6.
func figure6Rows() []pipeline.Config {
	return []pipeline.Config{
		skylake(pipeline.NonSpecOoO),
		skylake(pipeline.Noreba),
		skylake(pipeline.IdealReconv),
		skylake(pipeline.SpecBR),
	}
}

func (r *Runner) figure6Reqs() ([]Request, error) {
	return r.speedupReqs(skylake(pipeline.InOrder), figure6Rows())
}

// Figure6 is the main result: NonSpeculative, NOREBA, ideal-reconvergence
// and SpeculativeBR OoO commit over InO-C.
func (r *Runner) Figure6() (*metrics.Table, error) {
	return r.speedupTable(
		"Figure 6: OoO-commit modes over InO-C (SKL)",
		skylake(pipeline.InOrder), figure6Rows())
}

func (r *Runner) figure7Reqs() ([]Request, error) {
	return []Request{
		{Workload: "bzip2", Config: skylake(pipeline.InOrder)},
		{Workload: "mcf", Config: skylake(pipeline.InOrder)},
	}, nil
}

// Figure7 reproduces the criticality scatter for bzip2 and mcf: for every
// static branch, log10 of its dynamic dependent-instruction count against
// log10 of the cycles it stalled commit, under in-order commit on SKL.
func (r *Runner) Figure7() (*metrics.Scatter, error) {
	sc := metrics.NewScatter("Figure 7: critical-branch distribution (SKL, InO-C)",
		"log10(dependent instructions)", "log10(cycles ROB stalled)")
	reqs, err := r.figure7Reqs()
	if err != nil {
		return nil, err
	}
	if err := r.RunRequests(context.Background(), reqs); err != nil {
		return nil, err
	}
	for _, name := range []string{"bzip2", "mcf"} {
		st, err := r.Simulate(name, skylake(pipeline.InOrder))
		if err != nil {
			return nil, err
		}
		for _, bs := range st.BranchStalls {
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
	return sc, nil
}

func (r *Runner) figure8Reqs() ([]Request, error) {
	names, err := r.names()
	if err != nil {
		return nil, err
	}
	var reqs []Request
	for _, name := range names {
		reqs = append(reqs, Request{Workload: name, Config: skylake(pipeline.Noreba)})
	}
	return reqs, nil
}

// Figure8 reports the fraction of dynamic instructions NOREBA commits out
// of order, per workload.
func (r *Runner) Figure8() (*metrics.Table, error) {
	names, err := r.names()
	if err != nil {
		return nil, err
	}
	reqs, err := r.figure8Reqs()
	if err != nil {
		return nil, err
	}
	if err := r.RunRequests(context.Background(), reqs); err != nil {
		return nil, err
	}
	tab := metrics.NewTable("Figure 8: dynamic instructions committed out-of-order (NOREBA, SKL)", names...)
	var vals []float64
	for _, name := range names {
		st, err := r.Simulate(name, skylake(pipeline.Noreba))
		if err != nil {
			return nil, err
		}
		vals = append(vals, st.OoOCommitFraction())
	}
	tab.AddRow("OoO-commit fraction", vals...)
	return tab, nil
}

// brcqKnob is one Selective ROB sizing point: BR-CQ count × entries.
type brcqKnob struct{ queues, entries int }

var figure9Knobs = []brcqKnob{{1, 4}, {1, 8}, {2, 4}, {2, 8}, {2, 16}, {4, 8}, {4, 16}}

func (r *Runner) figure9Reqs() ([]Request, error) {
	names, err := r.names()
	if err != nil {
		return nil, err
	}
	var reqs []Request
	for _, robSize := range []int{224, 128} {
		for _, name := range names {
			ideal := skylake(pipeline.IdealReconv)
			ideal.ROBSize = robSize
			reqs = append(reqs, Request{Workload: name, Config: ideal})
			for _, k := range figure9Knobs {
				cfg := skylake(pipeline.Noreba)
				cfg.ROBSize = robSize
				cfg.Selective.NumBRCQs = k.queues
				cfg.Selective.BRCQSize = k.entries
				reqs = append(reqs, Request{Workload: name, Config: cfg})
			}
		}
	}
	return reqs, nil
}

// Figure9 sweeps the Selective ROB configuration — BR-CQ count × entries —
// for two ROB′ sizes, reporting geomean performance normalised to the
// ideal reconvergence commit with the same ROB size.
func (r *Runner) Figure9() (*metrics.Table, error) {
	knobs := figure9Knobs
	var cols []string
	for _, k := range knobs {
		cols = append(cols, fmt.Sprintf("%dxBR-CQ/%d", k.queues, k.entries))
	}
	tab := metrics.NewTable("Figure 9: Selective ROB sizing, normalised to ideal Reconvergence-OoO-C", cols...)

	names, err := r.names()
	if err != nil {
		return nil, err
	}
	reqs, err := r.figure9Reqs()
	if err != nil {
		return nil, err
	}
	if err := r.RunRequests(context.Background(), reqs); err != nil {
		return nil, err
	}

	for _, robSize := range []int{224, 128} {
		var vals []float64
		for _, k := range knobs {
			var ratios []float64
			for _, name := range names {
				ideal := skylake(pipeline.IdealReconv)
				ideal.ROBSize = robSize
				idealSt, err := r.Simulate(name, ideal)
				if err != nil {
					return nil, err
				}
				cfg := skylake(pipeline.Noreba)
				cfg.ROBSize = robSize
				cfg.Selective.NumBRCQs = k.queues
				cfg.Selective.BRCQSize = k.entries
				st, err := r.Simulate(name, cfg)
				if err != nil {
					return nil, err
				}
				ratios = append(ratios, float64(idealSt.Cycles)/float64(st.Cycles))
			}
			vals = append(vals, metrics.Geomean(ratios))
		}
		tab.AddRow(fmt.Sprintf("ROB' %d", robSize), vals...)
	}
	return tab, nil
}

var figure10Knobs = []brcqKnob{{1, 4}, {1, 8}, {2, 4}, {2, 8}, {2, 16}, {4, 8}, {4, 16}, {8, 64}}

func (r *Runner) figure10Reqs() ([]Request, error) {
	names, err := r.names()
	if err != nil {
		return nil, err
	}
	var reqs []Request
	for _, k := range figure10Knobs {
		for _, name := range names {
			cfg := skylake(pipeline.Noreba)
			cfg.Selective.NumBRCQs = k.queues
			cfg.Selective.BRCQSize = k.entries
			reqs = append(reqs, Request{Workload: name, Config: cfg})
		}
	}
	return reqs, nil
}

// Figure10 reports total core power for the same Selective ROB sweep,
// normalised to the smallest configuration.
func (r *Runner) Figure10() (*metrics.Table, error) {
	knobs := figure10Knobs
	var cols []string
	for _, k := range knobs {
		cols = append(cols, fmt.Sprintf("%dxBR-CQ/%d", k.queues, k.entries))
	}
	tab := metrics.NewTable("Figure 10: Selective ROB power, normalised to minimum configuration", cols...)

	names, err := r.names()
	if err != nil {
		return nil, err
	}
	reqs, err := r.figure10Reqs()
	if err != nil {
		return nil, err
	}
	if err := r.RunRequests(context.Background(), reqs); err != nil {
		return nil, err
	}

	var vals []float64
	for _, k := range knobs {
		var total float64
		for _, name := range names {
			cfg := skylake(pipeline.Noreba)
			cfg.Selective.NumBRCQs = k.queues
			cfg.Selective.BRCQSize = k.entries
			st, err := r.Simulate(name, cfg)
			if err != nil {
				return nil, err
			}
			total += power.Estimate(cfg, st).TotalPower()
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
	return tab, nil
}

func (r *Runner) figure11Reqs() ([]Request, error) {
	names, err := r.names()
	if err != nil {
		return nil, err
	}
	perfectCfg := skylake(pipeline.Noreba)
	perfectCfg.FreeSetup = true
	var reqs []Request
	for _, name := range names {
		reqs = append(reqs, Request{Workload: name, Config: skylake(pipeline.Noreba)}, Request{Workload: name, Config: perfectCfg})
	}
	return reqs, nil
}

// Figure11 measures the cost of the setup instructions themselves: NOREBA
// with fetched setup instructions versus a perfect design whose dependence
// information reaches the hardware for free.
func (r *Runner) Figure11() (*metrics.Table, error) {
	names, err := r.names()
	if err != nil {
		return nil, err
	}
	reqs, err := r.figure11Reqs()
	if err != nil {
		return nil, err
	}
	if err := r.RunRequests(context.Background(), reqs); err != nil {
		return nil, err
	}
	tab := metrics.NewTable("Figure 11: setup-instruction overhead (cycles with setup / cycles perfect)",
		append(append([]string{}, names...), "geomean")...)
	var vals []float64
	for _, name := range names {
		withSetup, err := r.Simulate(name, skylake(pipeline.Noreba))
		if err != nil {
			return nil, err
		}
		perfect := skylake(pipeline.Noreba)
		perfect.FreeSetup = true
		free, err := r.Simulate(name, perfect)
		if err != nil {
			return nil, err
		}
		vals = append(vals, float64(withSetup.Cycles)/float64(free.Cycles))
	}
	tab.AddRow("overhead", append(vals, metrics.Geomean(vals))...)
	return tab, nil
}

// coreConfigs returns the three Table 3 cores with the given policy.
func coreConfigs(policy pipeline.PolicyKind) []pipeline.Config {
	nhm := pipeline.NehalemConfig()
	hsw := pipeline.HaswellConfig()
	skl := pipeline.SkylakeConfig()
	nhm.Policy, hsw.Policy, skl.Policy = policy, policy, policy
	return []pipeline.Config{nhm, hsw, skl}
}

func (r *Runner) figure12Reqs() ([]Request, error) {
	names, err := r.names()
	if err != nil {
		return nil, err
	}
	inos := coreConfigs(pipeline.InOrder)
	norebas := coreConfigs(pipeline.Noreba)
	var reqs []Request
	for i := range inos {
		for _, name := range names {
			reqs = append(reqs, Request{Workload: name, Config: inos[i]}, Request{Workload: name, Config: norebas[i]})
		}
	}
	return reqs, nil
}

// Figure12 compares NOREBA's speedup over in-order commit across the
// Nehalem-, Haswell- and Skylake-like cores (Table 3).
func (r *Runner) Figure12() (*metrics.Table, error) {
	tab := metrics.NewTable("Figure 12: NOREBA speedup over InO-C per core", "NHM", "HSW", "SKL")
	inos := coreConfigs(pipeline.InOrder)
	norebas := coreConfigs(pipeline.Noreba)
	names, err := r.names()
	if err != nil {
		return nil, err
	}
	reqs, err := r.figure12Reqs()
	if err != nil {
		return nil, err
	}
	if err := r.RunRequests(context.Background(), reqs); err != nil {
		return nil, err
	}
	var vals []float64
	for i := range inos {
		var speedups []float64
		for _, name := range names {
			base, err := r.Simulate(name, inos[i])
			if err != nil {
				return nil, err
			}
			st, err := r.Simulate(name, norebas[i])
			if err != nil {
				return nil, err
			}
			speedups = append(speedups, metrics.Speedup(base.Cycles, st.Cycles))
		}
		vals = append(vals, metrics.Geomean(speedups))
	}
	tab.AddRow("NOREBA/InO-C", vals...)
	return tab, nil
}

// figure13Variants are the policy/prefetcher combinations of Figure 13.
var figure13Variants = []struct {
	name     string
	policy   pipeline.PolicyKind
	prefetch bool
}{
	{"InO-C+pf", pipeline.InOrder, true},
	{"NOREBA no-pf", pipeline.Noreba, false},
	{"NOREBA+pf", pipeline.Noreba, true},
}

// figure13Base is Figure 13's normalisation baseline: the NHM in-order core.
func figure13Base() pipeline.Config {
	nhmBase := pipeline.NehalemConfig()
	nhmBase.Policy = pipeline.InOrder
	return nhmBase
}

func (r *Runner) figure13Reqs() ([]Request, error) {
	names, err := r.names()
	if err != nil {
		return nil, err
	}
	var reqs []Request
	for _, name := range names {
		reqs = append(reqs, Request{Workload: name, Config: figure13Base()})
		for _, v := range figure13Variants {
			for _, core := range coreConfigs(v.policy) {
				core.PrefetchEnabled = v.prefetch
				reqs = append(reqs, Request{Workload: name, Config: core})
			}
		}
	}
	return reqs, nil
}

// Figure13 evaluates prefetching: in-order and NOREBA, with and without the
// DCPT prefetcher, normalised to the NHM in-order core with prefetching.
func (r *Runner) Figure13() (*metrics.Table, error) {
	tab := metrics.NewTable("Figure 13: prefetching effectiveness (normalised to NHM InO-C + prefetch)",
		"NHM", "HSW", "SKL")
	nhmBase := figure13Base()
	variants := figure13Variants
	names, err := r.names()
	if err != nil {
		return nil, err
	}
	reqs, err := r.figure13Reqs()
	if err != nil {
		return nil, err
	}
	if err := r.RunRequests(context.Background(), reqs); err != nil {
		return nil, err
	}
	for _, v := range variants {
		cores := coreConfigs(v.policy)
		var vals []float64
		for _, core := range cores {
			core.PrefetchEnabled = v.prefetch
			var speedups []float64
			for _, name := range names {
				base, err := r.Simulate(name, nhmBase)
				if err != nil {
					return nil, err
				}
				st, err := r.Simulate(name, core)
				if err != nil {
					return nil, err
				}
				speedups = append(speedups, metrics.Speedup(base.Cycles, st.Cycles))
			}
			vals = append(vals, metrics.Geomean(speedups))
		}
		tab.AddRow(v.name, vals...)
	}
	return tab, nil
}

// figure14Rows lists the non-baseline configurations of Figure 14.
func figure14Rows() []pipeline.Config {
	inoECL := skylake(pipeline.InOrder)
	inoECL.ECL = true
	norebaECL := skylake(pipeline.Noreba)
	norebaECL.ECL = true
	return []pipeline.Config{inoECL, skylake(pipeline.Noreba), norebaECL}
}

func (r *Runner) figure14Reqs() ([]Request, error) {
	return r.speedupReqs(skylake(pipeline.InOrder), figure14Rows())
}

// Figure14 measures Early Commit of Loads on both the in-order baseline and
// NOREBA.
func (r *Runner) Figure14() (*metrics.Table, error) {
	return r.speedupTable(
		"Figure 14: Early Commit of Loads (speedup over InO-C, SKL)",
		skylake(pipeline.InOrder), figure14Rows())
}

// figure15Rows lists the non-baseline configurations of Figure 15.
func figure15Rows() []pipeline.Config {
	wide := skylake(pipeline.InOrder)
	wide.CommitWidth = 8
	return []pipeline.Config{wide, skylake(pipeline.Noreba)}
}

func (r *Runner) figure15Reqs() ([]Request, error) {
	return r.speedupReqs(skylake(pipeline.InOrder), figure15Rows())
}

// Figure15 shows that widening in-order commit does not substitute for
// out-of-order commit: InO-C with an 8-wide commit stage versus NOREBA.
func (r *Runner) Figure15() (*metrics.Table, error) {
	return r.speedupTable(
		"Figure 15: commit bandwidth (speedup over InO-C, SKL)",
		skylake(pipeline.InOrder), figure15Rows())
}

func (r *Runner) figure16Reqs() ([]Request, error) {
	names, err := r.names()
	if err != nil {
		return nil, err
	}
	var reqs []Request
	for _, name := range names {
		reqs = append(reqs, Request{Workload: name, Config: skylake(pipeline.InOrder)}, Request{Workload: name, Config: skylake(pipeline.Noreba)})
	}
	return reqs, nil
}

// Figure16 reports the per-structure power and area of NOREBA normalised to
// the in-order baseline core.
func (r *Runner) Figure16() (*metrics.Table, *metrics.Table, error) {
	var cols []string
	for _, s := range power.AllStructures {
		cols = append(cols, string(s))
	}
	cols = append(cols, "TOTAL")
	powTab := metrics.NewTable("Figure 16: power by structure (normalised to InO-C total)", cols...)
	areaTab := metrics.NewTable("Figure 16: area by structure (normalised to InO-C total)", cols...)

	names, err := r.names()
	if err != nil {
		return nil, nil, err
	}
	reqs, err := r.figure16Reqs()
	if err != nil {
		return nil, nil, err
	}
	if err := r.RunRequests(context.Background(), reqs); err != nil {
		return nil, nil, err
	}

	sum := func(policy pipeline.PolicyKind) (map[power.Structure]float64, map[power.Structure]float64, error) {
		pw := map[power.Structure]float64{}
		ar := map[power.Structure]float64{}
		for _, name := range names {
			cfg := skylake(policy)
			st, err := r.Simulate(name, cfg)
			if err != nil {
				return nil, nil, err
			}
			b := power.Estimate(cfg, st)
			for s, v := range b.Power {
				pw[s] += v
			}
			for s, v := range b.Area {
				ar[s] += v
			}
		}
		return pw, ar, nil
	}

	basePw, baseAr, err := sum(pipeline.InOrder)
	if err != nil {
		return nil, nil, err
	}
	norPw, norAr, err := sum(pipeline.Noreba)
	if err != nil {
		return nil, nil, err
	}

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
	return powTab, areaTab, nil
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
