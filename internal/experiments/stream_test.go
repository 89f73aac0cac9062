package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"

	"github.com/noreba-sim/noreba/internal/pipeline"
	"github.com/noreba-sim/noreba/internal/sampling"
)

// TestRunRequestsStream: the streaming variant notifies exactly once per
// request index as it settles, the delivered stats are bit-identical to
// independent runs, duplicates coalesce, the full-detail requests still cost
// one functional emulation per workload, and the sampled requests mixed into
// the same batch build one plan per (workload, Params).
func TestRunRequestsStream(t *testing.T) {
	r := NewRunner()
	r.MaxInsts = 1 << 12
	r.ScaleDiv = 8

	// short is small enough to sample a 4K-instruction stream for real; the
	// default parameters degenerate to a Full plan at this size.
	short := sampling.Params{Enabled: true, IntervalLen: 128, MaxK: 2, CooldownInsts: 64}
	policies := []pipeline.PolicyKind{pipeline.InOrder, pipeline.NonSpecOoO, pipeline.Noreba}
	var reqs []Request
	for _, w := range []string{"mcf", "CRC32"} {
		for _, p := range policies {
			reqs = append(reqs, Request{Workload: w, Config: skylake(p)})
		}
	}
	for _, w := range []string{"mcf", "CRC32"} {
		for _, p := range policies {
			reqs = append(reqs, Request{Workload: w, Config: skylake(p), Sampling: short})
		}
	}
	reqs = append(reqs, Request{Workload: "mcf", Config: skylake(pipeline.Noreba), Sampling: sampling.Default()})
	// Duplicates of the first full and the first sampled request: they must
	// coalesce (no extra runs) yet still be notified under their own index.
	reqs = append(reqs, reqs[0], reqs[len(policies)*2])

	var mu sync.Mutex
	got := map[int]*pipeline.Stats{}
	calls := map[int]int{}
	err := r.RunRequestsStream(context.Background(), reqs, func(i int, st *pipeline.Stats, err error) {
		if err != nil {
			t.Errorf("request %d: %v", i, err)
			return
		}
		mu.Lock()
		got[i] = st
		calls[i]++
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(reqs) {
		t.Fatalf("notified %d of %d requests", len(got), len(reqs))
	}
	for i, n := range calls {
		if n != 1 {
			t.Errorf("request %d notified %d times", i, n)
		}
	}
	// Plans: (mcf, short), (CRC32, short) and (mcf, default). Each plan's
	// profiling pass is one emulation; the full-detail part costs one more
	// per workload.
	if plans := r.PlansBuilt(); plans != 3 {
		t.Errorf("plansBuilt = %d, want 3 (one per workload and sampling mode)", plans)
	}
	if emus := r.EmulationsRun() - r.PlansBuilt(); emus != 2 {
		t.Errorf("full-detail emulations = %d, want 2 (one per workload)", emus)
	}
	if sims := r.SimulationsRun(); sims != int64(len(reqs)-2) {
		t.Errorf("simulationsRun = %d, want %d (duplicates coalesce)", sims, len(reqs)-2)
	}

	// Every delivered result must match an independent run bit-for-bit.
	solo := NewRunner()
	solo.MaxInsts = r.MaxInsts
	solo.ScaleDiv = r.ScaleDiv
	for i, q := range reqs {
		want, err := solo.SimulateSampledContext(context.Background(), q.Workload, q.Config, q.Sampling)
		if err != nil {
			t.Fatal(err)
		}
		if q.Sampling == short && !want.Sampled {
			t.Errorf("request %d (%s %v): the short params did not sample", i, q.Workload, q.Config.Policy)
		}
		wb, _ := json.Marshal(want)
		gb, _ := json.Marshal(got[i])
		if string(wb) != string(gb) {
			t.Errorf("request %d (%s %v, sampled %v): streamed stats differ from solo run", i, q.Workload, q.Config.Policy, q.Sampling.Enabled)
		}
	}

	// "No warmup, no cooldown" survives the runner's normalizations: the
	// plan is built under exactly the Params the request is hashed under,
	// and no representative simulates a detailed warmup or cooldown.
	none := short
	none.WarmupIntervals, none.CooldownInsts = -1, -1
	pl, err := r.Plan(context.Background(), "mcf", none)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Params != none.Normalize() {
		t.Errorf("plan built under %+v, request normalizes to %+v", pl.Params, none.Normalize())
	}
	if pl.Full {
		t.Fatal("the no-warmup plan did not sample")
	}
	for i, rep := range pl.Reps {
		iv := pl.Profile.Intervals[rep.Interval]
		if rep.WarmCommits != 0 || rep.WarmStart != iv.Start || rep.SrcBound != iv.Insts {
			t.Errorf("rep %d: %d warmup commits from %d, bound %d; want a bare interval [%d, +%d)",
				i, rep.WarmCommits, rep.WarmStart, rep.SrcBound, iv.Start, iv.Insts)
		}
	}
}

// TestRunRequestsStreamCancelled: a cancelled context still notifies every
// request exactly once, with an error — a sampled request cancelled before
// its plan is built included, with the cancellation cause wrapped.
func TestRunRequestsStreamCancelled(t *testing.T) {
	r := NewRunner()
	r.MaxInsts = 1 << 12
	r.ScaleDiv = 8
	cause := errors.New("client went away")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)

	reqs := []Request{
		{Workload: "mcf", Config: skylake(pipeline.InOrder)},
		{Workload: "CRC32", Config: skylake(pipeline.Noreba)},
		{Workload: "sha", Config: skylake(pipeline.Noreba), Sampling: sampling.Default()},
	}
	var mu sync.Mutex
	notified := map[int]int{}
	errs := map[int]error{}
	err := r.RunRequestsStream(ctx, reqs, func(i int, st *pipeline.Stats, err error) {
		mu.Lock()
		notified[i]++
		if err != nil {
			errs[i] = err
		}
		mu.Unlock()
	})
	if err == nil {
		t.Fatal("cancelled batch returned nil error")
	}
	if len(notified) != len(reqs) || len(errs) != len(reqs) {
		t.Fatalf("notified=%v errs=%v, want every request notified once with an error", notified, errs)
	}
	for i, n := range notified {
		if n != 1 {
			t.Errorf("request %d notified %d times", i, n)
		}
	}
	if !errors.Is(errs[2], cause) {
		t.Errorf("sampled request error %v does not wrap the cancellation cause", errs[2])
	}
}
