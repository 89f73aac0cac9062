package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"github.com/noreba-sim/noreba/internal/experiments"
	"github.com/noreba-sim/noreba/internal/pipeline"
	"github.com/noreba-sim/noreba/internal/sampling"
)

// sampledCurated are the quick-suite workloads whose sampling plans are
// real (sha and gobmk are too short to sample and fall back to full
// detail, so they would measure the simulator, not the sampler).
var sampledCurated = []string{"mcf", "bzip2", "astar", "CRC32", "dijkstra", "libquantum"}

// warmRounds is how many fresh warm runners one pass times.
const warmRounds = 5

// planOnlyStore shares sampling-plan blobs between the cold and warm
// halves of a pass without ever sharing results: the warm runner must
// re-estimate every point, so its time measures plan reuse, not result
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

func init() {
	register(&workload{
		name:    "sampled",
		curated: sampledCurated,
		pass:    sampledPass,
		layers:  sampledLayers,
	})
}

// sampledState is what a sampled pass leaves for its per-layer metrics.
type sampledState struct {
	cold, warm *experiments.Runner
}

// sampledPass runs the sampled suite from fresh runners sharing one
// plan-only store: once cold, building and storing every plan, then
// warmRounds times warm, loading every plan and building none. Each warm
// estimate's latency is one job sample.
func sampledPass(e *env, tr *tracer) (passResult, error) {
	d := e.progs
	ctx := context.Background()
	params := sampling.Default()
	store := &planOnlyStore{blobs: map[string][]byte{}}
	op := tr.op()
	root := tr.begin("sampled.pass", op, nil)

	type point struct {
		name string
		pk   pipeline.PolicyKind
	}
	var points []point
	for _, name := range d.all() {
		for _, pk := range sampledPolicies {
			points = append(points, point{name, pk})
		}
	}
	estimate := func(phase string, r *experiments.Runner, lat []float64) ([]*pipeline.Stats, time.Duration, error) {
		parent := tr.begin("sampled."+phase, op, root)
		sts := make([]*pipeline.Stats, len(points))
		start := time.Now()
		for i, pt := range points {
			t0 := time.Now()
			sp := tr.begin("experiments.SimulateSampledContext", tr.op(), parent)
			st, err := r.SimulateSampledContext(ctx, pt.name, skylake(pt.pk), params)
			if err != nil {
				return nil, 0, err
			}
			sp.end(st.SampledDetailInsts)
			if lat != nil {
				lat[i] = float64(time.Since(t0)) / 1e6
			}
			sts[i] = st
		}
		elapsed := time.Since(start)
		parent.end(int64(len(points)))
		return sts, elapsed, nil
	}

	cold := experiments.QuickRunner()
	cold.Store = store
	coldSts, coldDur, err := estimate("cold", cold, nil)
	if err != nil {
		return passResult{}, err
	}
	// One warm round has too few estimates for a p90, so the pass runs
	// warmRounds of them, each from a fresh runner, and the pass counts
	// their median.
	var warm *experiments.Runner
	var warmSts []*pipeline.Stats
	var warmDurs []float64
	lat := make([]float64, 0, warmRounds*len(points))
	for round := 0; round < warmRounds; round++ {
		runtime.GC()
		warm = experiments.QuickRunner()
		warm.Store = store
		roundLat := make([]float64, len(points))
		sts, d, err := estimate("warm", warm, roundLat)
		if err != nil {
			return passResult{}, err
		}
		if warm.PlansBuilt() != 0 {
			return passResult{}, fmt.Errorf("warm runner rebuilt %d plans", warm.PlansBuilt())
		}
		for i, st := range sts {
			if warmSts != nil && st.Cycles != warmSts[i].Cycles {
				e.chk.fail("%s under %s: warm rounds disagree", points[i].name, st.Policy)
			}
		}
		warmSts = sts
		warmDurs = append(warmDurs, d.Seconds())
		lat = append(lat, roundLat...)
	}
	root.end(int64((1 + warmRounds) * len(points)))
	warmDur := time.Duration(median(warmDurs) * float64(time.Second))

	// Curated estimates match the committed sampled IPCs; held-out ones
	// commit the emulator's count; warm reproduces cold exactly.
	state := &sampledState{cold: cold, warm: warm}
	for i, pt := range points {
		c, w := coldSts[i], warmSts[i]
		if slices.Contains(d.curated, pt.name) {
			e.chk.sampledIPC(e.ref, pt.name, w, nil)
		} else {
			e.chk.committed(pt.name, d.commits[pt.name], w, nil)
		}
		if c.Cycles != w.Cycles || c.Committed != w.Committed {
			e.chk.fail("%s under %s: warm estimate %d cycles, cold %d", pt.name, w.Policy, w.Cycles, c.Cycles)
		} else {
			e.chk.pass()
		}
	}
	return passResult{wall: coldDur + warmDur, jobsMs: lat, state: state}, nil
}
