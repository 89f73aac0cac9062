package sampling

import (
	"context"
	"math"
	"reflect"
	"testing"

	"github.com/noreba-sim/noreba/internal/compiler"
	"github.com/noreba-sim/noreba/internal/emulator"
	"github.com/noreba-sim/noreba/internal/pipeline"
	"github.com/noreba-sim/noreba/internal/workloads"
)

func compileWorkload(t testing.TB, name string, scaleDiv int) *compiler.Result {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	scale := w.DefaultScale / scaleDiv
	if scale < 2 {
		scale = 2
	}
	res, err := compiler.Compile(w.Build(scale), compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestParamsNormalize: every field at zero, negative and positive values
// normalizes to its documented meaning, and normalizing again changes
// nothing — a runner that normalizes a request twice must still build the
// plan the request asked for.
func TestParamsNormalize(t *testing.T) {
	def := Params{
		Enabled:         true,
		IntervalLen:     DefaultIntervalLen,
		MaxK:            DefaultMaxK,
		WarmupIntervals: DefaultWarmupIntervals,
		CooldownInsts:   DefaultCooldownInsts,
		KMeansIters:     DefaultKMeansIters,
		Seed:            DefaultSeed,
	}
	with := func(base Params, f func(*Params)) Params {
		f(&base)
		return base
	}
	enabled := Params{Enabled: true}
	for _, tc := range []struct {
		name string
		in   Params
		want Params
	}{
		{"disabled", Params{IntervalLen: 99, WarmupIntervals: -1}, Params{}},
		{"enabled", enabled, def},
		{"IntervalLen/negative", with(enabled, func(p *Params) { p.IntervalLen = -3 }), def},
		{"IntervalLen/positive", with(enabled, func(p *Params) { p.IntervalLen = 7 }), with(def, func(p *Params) { p.IntervalLen = 7 })},
		{"MaxK/negative", with(enabled, func(p *Params) { p.MaxK = -3 }), def},
		{"MaxK/positive", with(enabled, func(p *Params) { p.MaxK = 7 }), with(def, func(p *Params) { p.MaxK = 7 })},
		{"WarmupIntervals/negative", with(enabled, func(p *Params) { p.WarmupIntervals = -3 }), with(def, func(p *Params) { p.WarmupIntervals = -1 })},
		{"WarmupIntervals/positive", with(enabled, func(p *Params) { p.WarmupIntervals = 7 }), with(def, func(p *Params) { p.WarmupIntervals = 7 })},
		{"CooldownInsts/negative", with(enabled, func(p *Params) { p.CooldownInsts = -3 }), with(def, func(p *Params) { p.CooldownInsts = -1 })},
		{"CooldownInsts/positive", with(enabled, func(p *Params) { p.CooldownInsts = 7 }), with(def, func(p *Params) { p.CooldownInsts = 7 })},
		{"KMeansIters/negative", with(enabled, func(p *Params) { p.KMeansIters = -3 }), def},
		{"KMeansIters/positive", with(enabled, func(p *Params) { p.KMeansIters = 7 }), with(def, func(p *Params) { p.KMeansIters = 7 })},
		{"Seed/positive", with(enabled, func(p *Params) { p.Seed = 7 }), with(def, func(p *Params) { p.Seed = 7 })},
	} {
		got := tc.in.Normalize()
		if got != tc.want {
			t.Errorf("%s: Normalize(%+v) = %+v, want %+v", tc.name, tc.in, got, tc.want)
		}
		if again := got.Normalize(); again != got {
			t.Errorf("%s: Normalize is not idempotent: %+v then %+v", tc.name, got, again)
		}
	}
	if none := (Params{Enabled: true, WarmupIntervals: -1, CooldownInsts: -1}).Normalize(); none.warmupIntervals() != 0 || none.cooldownInsts() != 0 {
		t.Fatalf("negative means none, got warmup %d, cooldown %d", none.warmupIntervals(), none.cooldownInsts())
	}
}

func TestBuildProfileIntervals(t *testing.T) {
	res := compileWorkload(t, "CRC32", 4)
	prof := BuildProfile(emulator.NewSource(emulator.New(res.Image), 1<<20), 512)
	if prof.Err != nil {
		t.Fatal(prof.Err)
	}
	if len(prof.Intervals) < 2 {
		t.Fatalf("expected multiple intervals, got %d", len(prof.Intervals))
	}
	var insts, setup int64
	for i := range prof.Intervals {
		iv := &prof.Intervals[i]
		if iv.Index != i {
			t.Fatalf("interval %d has Index %d", i, iv.Index)
		}
		if iv.Start != insts {
			t.Fatalf("interval %d starts at %d, want %d", i, iv.Start, insts)
		}
		if i < len(prof.Intervals)-1 && iv.Insts != 512 {
			t.Fatalf("interior interval %d has %d insts, want 512", i, iv.Insts)
		}
		var bbv int64
		for _, n := range iv.BBV {
			bbv += n
		}
		if bbv != iv.Insts {
			t.Fatalf("interval %d BBV mass %d != Insts %d", i, bbv, iv.Insts)
		}
		if iv.Committed() != iv.Insts-iv.Setup {
			t.Fatalf("interval %d Committed() inconsistent", i)
		}
		insts += iv.Insts
		setup += iv.Setup
	}
	if insts != prof.TotalInsts || setup != prof.TotalSetup {
		t.Fatalf("totals %d/%d, intervals sum to %d/%d", prof.TotalInsts, prof.TotalSetup, insts, setup)
	}
	if prof.TotalCommitted() != prof.TotalInsts-prof.TotalSetup {
		t.Fatal("TotalCommitted inconsistent")
	}
}

func TestBuildPlanShortProgramFallsBackToFull(t *testing.T) {
	// sha's whole run is smaller than twice the detailed-window budget, so
	// the plan must degenerate to a full simulation — and its estimate must
	// then be exact, not approximate.
	res := compileWorkload(t, "sha", 2)
	pl, err := BuildPlan(res.Image, res.Meta, 1<<20, Default())
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Full {
		t.Fatalf("sha plan not Full: %d reps over %d insts", len(pl.Reps), pl.Profile.TotalInsts)
	}
	cfg := pipeline.SkylakeConfig()
	cfg.Policy = pipeline.Noreba
	full, err := pipeline.NewCoreFromSource(cfg, emulator.NewSource(emulator.New(res.Image), 1<<20), res.Meta).Run()
	if err != nil {
		t.Fatal(err)
	}
	est, err := pl.Estimate(cfg, res.Meta)
	if err != nil {
		t.Fatal(err)
	}
	if est.Cycles != full.Cycles || est.Committed != full.Committed {
		t.Fatalf("Full-plan estimate (%d cycles, %d committed) != full run (%d, %d)",
			est.Cycles, est.Committed, full.Cycles, full.Committed)
	}
	if !est.Sampled || est.SampledIntervals != 0 || est.SampledDetailInsts != full.TraceInsts {
		t.Fatalf("Full-plan provenance wrong: Sampled=%v intervals=%d detail=%d",
			est.Sampled, est.SampledIntervals, est.SampledDetailInsts)
	}
}

func TestBuildPlanSingleIntervalProgram(t *testing.T) {
	// Bounding the stream below one interval length leaves a single partial
	// interval: the precheck must fall back to Full without error.
	res := compileWorkload(t, "CRC32", 4)
	pl, err := BuildPlan(res.Image, res.Meta, 300, Default())
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Full {
		t.Fatal("single-interval program did not fall back to Full")
	}
	if len(pl.Profile.Intervals) != 1 {
		t.Fatalf("expected 1 interval, got %d", len(pl.Profile.Intervals))
	}
	if pl.DetailInsts() != pl.Profile.TotalInsts {
		t.Fatalf("Full plan DetailInsts %d != TotalInsts %d", pl.DetailInsts(), pl.Profile.TotalInsts)
	}
}

func TestBuildPlanDeterministic(t *testing.T) {
	res := compileWorkload(t, "dijkstra", 4)
	a, err := BuildPlan(res.Image, res.Meta, 1<<20, Default())
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildPlan(res.Image, res.Meta, 1<<20, Default())
	if err != nil {
		t.Fatal(err)
	}
	if a.Full != b.Full || len(a.Reps) != len(b.Reps) {
		t.Fatalf("plans differ in shape: %v/%d vs %v/%d", a.Full, len(a.Reps), b.Full, len(b.Reps))
	}
	for i := range a.Reps {
		ra, rb := &a.Reps[i], &b.Reps[i]
		if ra.Interval != rb.Interval || ra.Weight != rb.Weight || ra.WarmStart != rb.WarmStart ||
			ra.WarmCommits != rb.WarmCommits || ra.MeasureCommits != rb.MeasureCommits {
			t.Fatalf("rep %d differs: %+v vs %+v", i, ra, rb)
		}
	}
}

func TestPlanRepInvariants(t *testing.T) {
	res := compileWorkload(t, "dijkstra", 4)
	p := Default()
	pl, err := BuildPlan(res.Image, res.Meta, 1<<20, p)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Full {
		t.Skip("plan degenerated to Full at this scale")
	}
	var weight float64
	var mass int64
	prev := -1
	for i := range pl.Reps {
		rep := &pl.Reps[i]
		if rep.Interval <= prev {
			t.Fatalf("reps not ordered by interval: %d after %d", rep.Interval, prev)
		}
		prev = rep.Interval
		iv := &pl.Profile.Intervals[rep.Interval]
		if rep.MeasureCommits != iv.Committed() {
			t.Fatalf("rep %d MeasureCommits %d != interval committed %d", i, rep.MeasureCommits, iv.Committed())
		}
		if rep.WarmStart > iv.Start || iv.Start-rep.WarmStart > p.IntervalLen*int64(p.WarmupIntervals) {
			t.Fatalf("rep %d warm span [%d,%d) inconsistent", i, rep.WarmStart, iv.Start)
		}
		if rep.SrcBound != iv.Start+iv.Insts-rep.WarmStart+p.CooldownInsts {
			t.Fatalf("rep %d SrcBound %d inconsistent", i, rep.SrcBound)
		}
		weight += rep.Weight
		mass += rep.ClusterCommitted
	}
	if math.Abs(weight-1) > 1e-9 {
		t.Fatalf("rep weights sum to %v, want 1", weight)
	}
	if mass != pl.Profile.TotalCommitted() {
		t.Fatalf("cluster masses sum to %d, want %d", mass, pl.Profile.TotalCommitted())
	}
	if pl.DetailInsts() >= pl.Profile.TotalInsts/2 {
		t.Fatalf("sampled plan does not halve cost: %d detail vs %d total", pl.DetailInsts(), pl.Profile.TotalInsts)
	}
}

// TestControlVariateBasis pins the columns Estimate's control variate fits
// (Rep.PilotRep): the pilot CPI and the setup density for a quick workload
// with setup instructions, the pilot CPI and the first fingerprint column
// for one without.
func TestControlVariateBasis(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name  string
		setup bool
	}{{"mcf", true}, {"CRC32", false}} {
		res := compileWorkload(t, tc.name, 2)
		pl, err := BuildPlan(res.Image, res.Meta, 1<<20, Default())
		if err != nil {
			t.Fatal(err)
		}
		if pl.Full {
			t.Fatalf("%s: plan fell back to full simulation", tc.name)
		}
		stream := func() emulator.TraceSource { return emulator.NewSource(emulator.New(res.Image), 1<<20) }
		cpi, _, err := pilotCPI(ctx, stream(), res.Meta, pl.Profile, pilotPolicy)
		if err != nil {
			t.Fatal(err)
		}
		fp, err := fingerprintDims(ctx, stream(), pl.Profile)
		if err != nil {
			t.Fatal(err)
		}
		density := make([]float64, len(pl.Profile.Intervals))
		for i, iv := range pl.Profile.Intervals {
			density[i] = float64(iv.Setup) / float64(iv.Insts)
		}
		second := normalizeMean1(density)
		if (second != nil) != tc.setup {
			t.Fatalf("%s: has setup instructions %v, want %v", tc.name, second != nil, tc.setup)
		}
		if second == nil {
			second = fp[0]
		}
		for _, rep := range pl.Reps {
			want := []float64{cpi[rep.Interval], second[rep.Interval]}
			if !reflect.DeepEqual(rep.PilotRep, want) {
				t.Errorf("%s: interval %d basis %v, want %v", tc.name, rep.Interval, rep.PilotRep, want)
			}
		}
	}
}

// TestWarmCursorSchedule: the warm replay's absolute pilot clock is
// non-decreasing over the stream, reads warmCum[j] exactly at each interval
// start, stands at warmCum[n] past the end, and restarts its walk when asked
// for a position behind the one it holds.
func TestWarmCursorSchedule(t *testing.T) {
	res := compileWorkload(t, "dijkstra", 4)
	pl, err := BuildPlan(res.Image, res.Meta, 1<<20, Default())
	if err != nil {
		t.Fatal(err)
	}
	if pl.Full {
		t.Skip("plan degenerated to Full at this scale")
	}
	ivs := pl.Profile.Intervals
	n := len(ivs)
	end := ivs[n-1].Start + ivs[n-1].Insts
	cur := &warmCursor{pl: pl}
	prev := math.Inf(-1)
	for pos, j := int64(0), 0; pos <= end+1000; pos++ {
		c := cur.at(pos)
		if c < prev {
			t.Fatalf("warm cursor decreases: at(%d)=%v after %v", pos, c, prev)
		}
		prev = c
		if j < n && pos == ivs[j].Start {
			if c != pl.warmCum[j] {
				t.Fatalf("at(%d) = %v at interval %d start, want warmCum %v", pos, c, j, pl.warmCum[j])
			}
			j++
		}
		if pos >= end && c != pl.warmCum[n] {
			t.Fatalf("at(%d) = %v past the end, want warmCum[n] %v", pos, c, pl.warmCum[n])
		}
	}
	if pl.warmCum[n] <= 0 || pl.warmCum[n] > 64*float64(end) {
		t.Fatalf("pilot run of %d insts took %v cycles: implausible", end, pl.warmCum[n])
	}
	if c := cur.at(ivs[1].Start); c != pl.warmCum[1] {
		t.Fatalf("restarted cursor reads %v at interval 1 start, want %v", c, pl.warmCum[1])
	}
}

func TestEstimateAccuracySmoke(t *testing.T) {
	// One cheap regression canary inside the package: CRC32's phases are
	// regular enough that the estimate must land close to the full run. The
	// cross-workload, cross-policy error table lives in the differential
	// accuracy suite under internal/experiments.
	res := compileWorkload(t, "CRC32", 2)
	pl, err := BuildPlan(res.Image, res.Meta, 1<<20, Default())
	if err != nil {
		t.Fatal(err)
	}
	if pl.Full {
		t.Fatal("CRC32 at half scale should be sampleable")
	}
	for _, pol := range []pipeline.PolicyKind{pipeline.InOrder, pipeline.Noreba} {
		cfg := pipeline.SkylakeConfig()
		cfg.Policy = pol
		if pol != pipeline.Noreba && pol != pipeline.IdealReconv {
			cfg.FreeSetup = true
		}
		full, err := pipeline.NewCoreFromSource(cfg, emulator.NewSource(emulator.New(res.Image), 1<<20), res.Meta).Run()
		if err != nil {
			t.Fatal(err)
		}
		est, err := pl.Estimate(cfg, res.Meta)
		if err != nil {
			t.Fatal(err)
		}
		relErr := math.Abs(est.IPC()-full.IPC()) / full.IPC()
		if relErr > 0.05 {
			t.Fatalf("%v: sampled IPC %.4f vs full %.4f, error %.1f%% > 5%%",
				pol, est.IPC(), full.IPC(), 100*relErr)
		}
		if est.Committed != full.Committed {
			t.Fatalf("%v: estimate Committed %d != profile-exact %d", pol, est.Committed, full.Committed)
		}
		if !est.Sampled || est.SampledIntervals != len(pl.Reps) || est.SampledDetailInsts >= full.TraceInsts/2 {
			t.Fatalf("%v: sampling provenance wrong: %v/%d/%d", pol, est.Sampled, est.SampledIntervals, est.SampledDetailInsts)
		}
	}
}
