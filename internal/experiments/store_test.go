package experiments

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/noreba-sim/noreba/internal/pipeline"
	"github.com/noreba-sim/noreba/internal/sampling"
)

// memStore is an in-memory ResultStore with optional fault injection.
type memStore struct {
	mu     sync.Mutex
	m      map[string]*pipeline.Stats
	failTx bool // make Put fail
	hits   int
	puts   int
}

func newMemStore() *memStore { return &memStore{m: map[string]*pipeline.Stats{}} }

func (s *memStore) Get(key string) (*pipeline.Stats, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.m[key]
	if ok {
		s.hits++
	}
	return st, ok
}

func (s *memStore) Put(key string, st *pipeline.Stats) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failTx {
		return errors.New("injected store failure")
	}
	s.m[key] = st
	s.puts++
	return nil
}

func quickCfg(policy pipeline.PolicyKind) pipeline.Config {
	cfg := pipeline.SkylakeConfig()
	cfg.Policy = policy
	return cfg
}

func storeRunner(store ResultStore) *Runner {
	r := NewRunner()
	r.MaxInsts = 1 << 12
	r.ScaleDiv = 8
	r.Store = store
	return r
}

// TestConfigHashStability: the hash is deterministic, policy-normalised
// (FreeSetup is forced for baselines, so setting it by hand is a no-op),
// and sensitive to everything that changes results — workload, scale
// parameters and any timing-relevant config field.
func TestConfigHashStability(t *testing.T) {
	r := storeRunner(nil)
	base := r.ConfigHash("mcf", quickCfg(pipeline.InOrder), sampling.Params{})
	if len(base) != 64 {
		t.Fatalf("hash %q is not sha256 hex", base)
	}
	if again := r.ConfigHash("mcf", quickCfg(pipeline.InOrder), sampling.Params{}); again != base {
		t.Error("hash is not deterministic")
	}

	// normalize() forces FreeSetup for non-annotation policies, so an
	// explicitly set FreeSetup must not change the InOrder hash.
	cfg := quickCfg(pipeline.InOrder)
	cfg.FreeSetup = true
	if got := r.ConfigHash("mcf", cfg, sampling.Params{}); got != base {
		t.Error("normalisation not applied before hashing")
	}

	diffs := map[string]string{
		"workload": r.ConfigHash("bzip2", quickCfg(pipeline.InOrder), sampling.Params{}),
		"policy":   r.ConfigHash("mcf", quickCfg(pipeline.Noreba), sampling.Params{}),
	}
	cfg = quickCfg(pipeline.InOrder)
	cfg.ROBSize++
	diffs["config field"] = r.ConfigHash("mcf", cfg, sampling.Params{})

	r2 := storeRunner(nil)
	r2.MaxInsts = r.MaxInsts * 2
	diffs["maxInsts"] = r2.ConfigHash("mcf", quickCfg(pipeline.InOrder), sampling.Params{})
	r3 := storeRunner(nil)
	r3.ScaleDiv = r.ScaleDiv * 2
	diffs["scaleDiv"] = r3.ConfigHash("mcf", quickCfg(pipeline.InOrder), sampling.Params{})
	r4 := storeRunner(nil)
	r4.Sanitize = true
	diffs["sanitize"] = r4.ConfigHash("mcf", quickCfg(pipeline.InOrder), sampling.Params{})

	for what, h := range diffs {
		if h == base {
			t.Errorf("changing the %s did not change the hash", what)
		}
	}
}

// TestRunnerStoreRoundTrip: a second runner over the same store serves every
// result without executing, and the stats are identical.
func TestRunnerStoreRoundTrip(t *testing.T) {
	store := newMemStore()
	r1 := storeRunner(store)
	want, err := r1.Simulate("mcf", quickCfg(pipeline.Noreba))
	if err != nil {
		t.Fatal(err)
	}
	if r1.StoreMisses() != 1 || r1.StoreHits() != 0 || store.puts != 1 {
		t.Fatalf("cold run: %d misses %d hits %d puts", r1.StoreMisses(), r1.StoreHits(), store.puts)
	}

	r2 := storeRunner(store)
	got, err := r2.Simulate("mcf", quickCfg(pipeline.Noreba))
	if err != nil {
		t.Fatal(err)
	}
	if r2.SimulationsRun() != 0 {
		t.Errorf("warm runner executed %d simulations, want 0", r2.SimulationsRun())
	}
	if r2.StoreHits() != 1 || r2.StoreMisses() != 0 {
		t.Errorf("warm run: %d hits %d misses", r2.StoreHits(), r2.StoreMisses())
	}
	if got.Cycles != want.Cycles || got.Committed != want.Committed {
		t.Errorf("store round trip changed stats: %d/%d vs %d/%d cycles/committed",
			got.Cycles, got.Committed, want.Cycles, want.Committed)
	}
}

// TestRunnerStorePutFailure: a failing store write is counted but the
// simulation still succeeds.
func TestRunnerStorePutFailure(t *testing.T) {
	store := newMemStore()
	store.failTx = true
	r := storeRunner(store)
	st, err := r.Simulate("sha", quickCfg(pipeline.InOrder))
	if err != nil || st == nil {
		t.Fatalf("simulation failed on store error: %v", err)
	}
	if r.StorePutErrors() != 1 {
		t.Errorf("StorePutErrors = %d, want 1", r.StorePutErrors())
	}
}

// TestSimulateContextCancelled: a full-detail SimulateSampledContext under a
// pre-cancelled context fails fast with the context's cause, and — crucially — the cancellation is NOT cached: the next
// identical request must actually run.
func TestSimulateContextCancelled(t *testing.T) {
	r := storeRunner(nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := r.SimulateSampledContext(ctx, "mcf", quickCfg(pipeline.InOrder), sampling.Params{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := r.UniqueSimulations(); n != 0 {
		t.Fatalf("cancelled run left %d cache entries", n)
	}

	st, err := r.Simulate("mcf", quickCfg(pipeline.InOrder))
	if err != nil || st.Committed == 0 {
		t.Fatalf("retry after cancellation: %v (%+v)", err, st)
	}
}

// TestSimulateContextDeadline: a deadline expiring mid-run cancels a
// full-detail SimulateSampledContext's pipeline cooperatively.
func TestSimulateContextDeadline(t *testing.T) {
	r := NewRunner() // full scale, so the deadline always fires first
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err := r.SimulateSampledContext(ctx, "dijkstra", quickCfg(pipeline.Noreba), sampling.Params{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestSimulateSampledDeadline: a sampled estimate on a full-scale runner
// stops at its deadline too. The second case is a deadline that has passed
// while its timer has not fired yet (a loaded host can deliver a timer tens
// of milliseconds late): only the detailed pilot's wall-clock check can see
// it, so it must surface from there.
func TestSimulateSampledDeadline(t *testing.T) {
	short, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	late := lateTimer{Context: context.Background(), deadline: time.Now()}
	for name, ctx := range map[string]context.Context{"timer fired": short, "timer late": late} {
		r := NewRunner()
		_, err := r.SimulateSampledContext(ctx, "dijkstra", quickCfg(pipeline.Noreba), sampling.Default())
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: err = %v, want context.DeadlineExceeded", name, err)
		}
	}
}

// lateTimer is a context whose deadline has passed but whose Done channel
// has not closed.
type lateTimer struct {
	context.Context
	deadline time.Time
}

func (c lateTimer) Deadline() (time.Time, bool) { return c.deadline, true }
func (c lateTimer) Done() <-chan struct{}       { return make(chan struct{}) }

// TestRunnerCacheLRUEviction: with CacheLimit 2, running three distinct
// configs evicts the least recently used finished entry, and an evicted
// entry re-runs on the next request.
func TestRunnerCacheLRUEviction(t *testing.T) {
	r := storeRunner(nil)
	r.CacheLimit = 2
	cfgs := []pipeline.Config{
		quickCfg(pipeline.InOrder),
		quickCfg(pipeline.Noreba),
		quickCfg(pipeline.Spec),
	}
	for _, cfg := range cfgs {
		if _, err := r.Simulate("sha", cfg); err != nil {
			t.Fatal(err)
		}
	}
	if n := r.UniqueSimulations(); n != 2 {
		t.Fatalf("cache holds %d entries, want 2", n)
	}
	runs := r.SimulationsRun()
	// cfgs[0] was evicted → re-runs; cfgs[2] is resident → cache hit.
	if _, err := r.Simulate("sha", cfgs[2]); err != nil {
		t.Fatal(err)
	}
	if r.SimulationsRun() != runs {
		t.Error("resident entry re-ran")
	}
	if _, err := r.Simulate("sha", cfgs[0]); err != nil {
		t.Fatal(err)
	}
	if r.SimulationsRun() != runs+1 {
		t.Error("evicted entry did not re-run")
	}
}

// TestRunnerEvictionSparesInFlight: filling the cache past its bound while
// another simulation is mid-flight must never evict the in-flight job —
// its waiters would otherwise hang or observe a half-built result. The
// in-flight run here is a full-scale dijkstra on a CacheLimit-1 runner being
// flooded by quick sha runs; afterwards the coalesced waiters must all get
// the same completed result.
func TestRunnerEvictionSparesInFlight(t *testing.T) {
	r := NewRunner() // full scale: dijkstra runs for hundreds of ms
	r.CacheLimit = 1

	const waiters = 4
	var wg sync.WaitGroup
	results := make([]*pipeline.Stats, waiters)
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = r.Simulate("dijkstra", quickCfg(pipeline.InOrder))
		}(i)
	}

	// Flood the cache while dijkstra is in flight. Every sha run pushes a
	// finished entry through the CacheLimit-1 LRU; if eviction could touch
	// the in-flight dijkstra job, some waiter above would fail or hang.
	for i := 0; i < 8; i++ {
		cfg := quickCfg(pipeline.InOrder)
		cfg.ROBSize += i // distinct configs → distinct cache keys
		if _, err := r.Simulate("sha", cfg); err != nil {
			t.Fatal(err)
		}
	}

	wg.Wait()
	for i := 0; i < waiters; i++ {
		if errs[i] != nil {
			t.Fatalf("waiter %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("waiter %d got a different result object — singleflight broken by eviction", i)
		}
	}
	if got := r.SimulationsRun(); got != 1+8 {
		t.Errorf("ran %d simulations, want 9 (1 dijkstra + 8 sha)", got)
	}
}

// TestRunnerCacheUnbounded: a negative CacheLimit disables eviction.
func TestRunnerCacheUnbounded(t *testing.T) {
	r := storeRunner(nil)
	r.CacheLimit = -1
	for i := 0; i < 6; i++ {
		cfg := quickCfg(pipeline.InOrder)
		cfg.ROBSize += i
		if _, err := r.Simulate("sha", cfg); err != nil {
			t.Fatal(err)
		}
	}
	if n := r.UniqueSimulations(); n != 6 {
		t.Errorf("unbounded cache holds %d entries, want 6", n)
	}
}

// TestRunnerStoreConcurrentDedup: concurrent identical requests through a
// store-backed runner still coalesce to one execution and one store write.
func TestRunnerStoreConcurrentDedup(t *testing.T) {
	store := newMemStore()
	r := storeRunner(store)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := r.Simulate("mcf", quickCfg(pipeline.Noreba)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if r.SimulationsRun() != 1 {
		t.Errorf("ran %d simulations, want 1", r.SimulationsRun())
	}
	if store.puts != 1 {
		t.Errorf("store saw %d puts, want 1", store.puts)
	}
	if r.SimulateCalls() != 8 {
		t.Errorf("SimulateCalls = %d, want 8", r.SimulateCalls())
	}
}
