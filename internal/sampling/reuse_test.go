package sampling

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/noreba-sim/noreba/internal/pipeline"
)

// TestRecycledEstimateDeterminism: detailed windows on recycled cores, fed
// by a warm replay that publishes each representative's state while later
// ones are still warming, must estimate byte-for-byte what fresh cores fed
// by a finished replay do. The recycled side runs eight concurrent
// estimates over every policy on one freshly loaded plan, interleaving
// cache geometries (Skylake, then a larger L2, then Skylake again) so cores
// are reset across geometries and one geometry's replay overlaps another's
// windows. Run under -race it also proves recycled cores share nothing.
func TestRecycledEstimateDeterminism(t *testing.T) {
	res := compileWorkload(t, "dijkstra", 4)
	p := Default()
	built, err := BuildPlan(res.Image, res.Meta, 1<<20, p)
	if err != nil {
		t.Fatal(err)
	}
	if built.Full || len(built.Reps) < 2 {
		t.Fatalf("plan has %d representatives (full %v): pick a bigger scale", len(built.Reps), built.Full)
	}
	type job struct {
		name string
		cfg  pipeline.Config
	}
	var jobs []job
	for _, geo := range []struct {
		name  string
		l2Mul int
	}{{"skl", 1}, {"big-L2", 2}, {"skl-again", 1}} {
		for _, pol := range allPolicies {
			cfg := policyCfg(pol)
			cfg.L2Size *= geo.l2Mul
			jobs = append(jobs, job{geo.name + "/" + pol.String(), cfg})
		}
	}

	// Reference: fresh cores, serial windows, each geometry's replay
	// finished before its first window starts.
	recycleCores = false
	want := make([][]byte, len(jobs))
	for i, j := range jobs {
		st, err := built.EstimateContextN(context.Background(), j.cfg, res.Meta, 1)
		if err != nil {
			recycleCores = true
			t.Fatal(err)
		}
		want[i] = statsJSON(t, st)
	}
	recycleCores = true

	loaded, err := LoadPlan(EncodePlan(built), res.Image, 1<<20, p)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*pipeline.Stats, len(jobs))
	errs := make([]error, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				got[i], errs[i] = loaded.EstimateContextN(context.Background(), jobs[i].cfg, res.Meta, 2)
			}
		}()
	}
	wg.Wait()
	for i, j := range jobs {
		if errs[i] != nil {
			t.Errorf("%s: %v", j.name, errs[i])
			continue
		}
		if g := statsJSON(t, got[i]); !bytes.Equal(g, want[i]) {
			t.Errorf("%s: recycled estimate differs from fresh-core estimate:\nfresh:    %s\nrecycled: %s", j.name, want[i], g)
		}
	}
}

// cancelWhen is a context that cancels itself at the first poll of its Done
// channel at which when() holds: the cancellation lands at a point of
// observable progress, however often the code under test polls.
type cancelWhen struct {
	context.Context
	cancel context.CancelFunc
	when   func() bool
	fired  atomic.Bool
}

func (c *cancelWhen) Done() <-chan struct{} {
	if !c.fired.Load() && c.when() && c.fired.CompareAndSwap(false, true) {
		c.cancel()
	}
	return c.Context.Done()
}

// published reports whether e's replay has published representative i.
func published(e *warmEntry, i int) bool {
	select {
	case <-e.ready[i]:
		return true
	default:
		return false
	}
}

// TestWarmReplayCancel: cancelling an estimate while its warm replay runs
// must stop the replay, surface the cancellation with provenance, and leave
// nothing cached — the next estimate on the same plan replays afresh and
// matches an estimate that was never cancelled, byte for byte.
func TestWarmReplayCancel(t *testing.T) {
	res := compileWorkload(t, "dijkstra", 4)
	pl, err := BuildPlan(res.Image, res.Meta, 1<<20, Default())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := BuildPlan(res.Image, res.Meta, 1<<20, Default())
	if err != nil {
		t.Fatal(err)
	}
	if pl.Full || pl.Reps[0].WarmStart == pl.Reps[len(pl.Reps)-1].WarmStart {
		t.Fatal("plan needs representatives at distinct warm boundaries")
	}
	cfg := policyCfg(pipeline.Noreba)

	// Cancel once the replay has published the first representative's
	// capture, and note whether it had already published the last.
	var lastDone bool
	inner, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := &cancelWhen{Context: inner, cancel: cancel, when: func() bool {
		pl.warmMu.Lock()
		e := pl.warm[warmKeyOf(cfg)]
		pl.warmMu.Unlock()
		if e == nil || !published(e, 0) {
			return false
		}
		lastDone = published(e, len(pl.Reps)-1)
		return true
	}}
	_, err = pl.EstimateContextN(ctx, cfg, res.Meta, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled estimate returned %v, want an error wrapping context.Canceled", err)
	}
	if !ctx.fired.Load() || lastDone {
		t.Fatal("the replay never reached its second span: the cancellation was not mid-replay")
	}
	pl.warmMu.Lock()
	cached := len(pl.warm)
	pl.warmMu.Unlock()
	if cached != 0 {
		t.Fatalf("cancelled replay left %d warm entries cached", cached)
	}

	got, err := pl.EstimateContextN(context.Background(), cfg, res.Meta, 1)
	if err != nil {
		t.Fatalf("estimate after a cancelled replay: %v", err)
	}
	want, err := ref.EstimateContextN(context.Background(), cfg, res.Meta, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := statsJSON(t, got), statsJSON(t, want); !bytes.Equal(g, w) {
		t.Errorf("estimate after a cancelled replay differs from an uncancelled one:\ngot:  %s\nwant: %s", g, w)
	}
}

// maxAllocsPerRep bounds a warmed-up estimate's heap allocations per
// representative window. The window's core is recycled, so what remains is
// fixed per window — the restored machine and its write maps, the source,
// per-branch stall records — and per estimate (result slices, the pilot
// blend's solve), never proportional to the instructions simulated.
const maxAllocsPerRep = 24

// TestWarmEstimateAllocs pins the allocation count of an estimate whose
// warm state is cached and whose window cores come back recycled.
func TestWarmEstimateAllocs(t *testing.T) {
	res := compileWorkload(t, "dijkstra", 4)
	pl, err := BuildPlan(res.Image, res.Meta, 1<<20, Default())
	if err != nil {
		t.Fatal(err)
	}
	cfg := policyCfg(pipeline.Noreba)
	estimate := func() {
		if _, err := pl.EstimateContextN(context.Background(), cfg, res.Meta, 1); err != nil {
			t.Fatal(err)
		}
	}
	estimate()
	estimate()
	n := testing.AllocsPerRun(10, estimate)
	if limit := float64(maxAllocsPerRep * len(pl.Reps)); n > limit {
		t.Errorf("warmed-up estimate of %d windows allocates %.0f objects, want at most %.0f", len(pl.Reps), n, limit)
	}
	t.Logf("%d windows: %.0f allocations per estimate", len(pl.Reps), n)
}

// BenchmarkWarmReplay times one quick-suite plan's warm replay: the
// functional-warming pass buildWarmStates runs once per cache and predictor
// geometry before a loaded plan's first estimate, capturing every
// representative's warm state on the way. It is the sampled path's
// functional layer — caches, prefetcher, TAGE and the return-address stack
// driven at emulator speed — and reports its cost per replayed instruction.
func BenchmarkWarmReplay(b *testing.B) {
	// dijkstra has the quick suite's longest warm prefix (~104k
	// instructions at the quick runner's scale).
	res := compileWorkload(b, "dijkstra", 2)
	pl, err := BuildPlan(res.Image, res.Meta, 1<<20, Default())
	if err != nil {
		b.Fatal(err)
	}
	if pl.Full || len(pl.Reps) == 0 {
		b.Fatal("plan has no representatives to warm")
	}
	replayed := pl.Reps[len(pl.Reps)-1].WarmStart
	cfg := policyCfg(pipeline.Noreba)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pl.buildWarmStates(context.Background(), cfg, func(int, *pipeline.WarmState) {}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*replayed), "ns/inst")
}
