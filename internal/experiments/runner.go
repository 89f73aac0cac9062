// Package experiments regenerates every figure and table of the paper's
// evaluation (§6): each FigureN function fans the required simulations out
// over a parallel scheduler — deduplicating concurrent identical requests
// and reusing compiled programs and finished runs through a cache — and
// returns the same rows or point clouds the paper plots, as plain-text
// tables.
//
// Absolute cycle counts differ from the paper's gem5/SPEC numbers (the
// substrate here is this repository's simulator and synthetic kernels); the
// shapes — who wins, by roughly what factor, where configurations saturate —
// are the reproduction target. EXPERIMENTS.md records paper-vs-measured for
// every figure.
package experiments

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/noreba-sim/noreba/internal/compiler"
	"github.com/noreba-sim/noreba/internal/emulator"
	"github.com/noreba-sim/noreba/internal/pipeline"
	"github.com/noreba-sim/noreba/internal/sampling"
	"github.com/noreba-sim/noreba/internal/workloads"
)

// ResultStore persists finished simulation results across processes, keyed
// by the canonical config hash (ConfigHash). Implementations must be safe
// for concurrent use. Get returns the stored statistics and whether the key
// was present; Put makes the result durable. The runner treats the store as
// a cache: a Put failure is counted but never fails the simulation.
type ResultStore interface {
	Get(key string) (*pipeline.Stats, bool)
	Put(key string, st *pipeline.Stats) error
}

// BlobStore is the optional binary-artifact side of a ResultStore: opaque
// byte blobs keyed by content hash, used to persist encoded sampling plans
// (sampling.EncodePlan) across process restarts. A runner whose Store also
// implements BlobStore loads plans from it before building and writes every
// freshly built plan back; a store that only holds results simply rebuilds
// plans each process. Like results, blob Puts are best-effort — a failure is
// counted, never fatal.
type BlobStore interface {
	GetBlob(key string) ([]byte, bool)
	PutBlob(key string, data []byte) error
}

// DefaultCacheLimit bounds the in-memory finished-run cache when
// Runner.CacheLimit is zero. The full figure suite needs a few hundred
// distinct configurations, so the default keeps every result of one
// regeneration resident while bounding a long-lived service process.
const DefaultCacheLimit = 4096

// Runner schedules simulations across figures: compiled workloads and
// finished runs are cached, concurrent identical requests are coalesced into
// one execution (singleflight), and distinct requests run in parallel on a
// worker pool. Results are independent of scheduling: each simulation
// consumes its own emulator stream and the model is deterministic, so a
// parallel run is bit-identical to a sequential one.
type Runner struct {
	// MaxInsts bounds each workload's dynamic instruction stream.
	MaxInsts int64
	// ScaleDiv divides every workload's default scale (for quick runs).
	ScaleDiv int
	// Workloads restricts the suite (nil = all registered workloads).
	Workloads []string
	// Parallelism caps simulations executing at once; 0 means GOMAXPROCS.
	Parallelism int
	// Sanitize runs every simulation with the pipeline sanitizer enabled:
	// any commit-legality or conservation violation fails the run with a
	// *sanity.Error instead of silently producing wrong figures.
	Sanitize bool
	// Sampling, when enabled, makes every Simulate call estimate its result
	// from SimPoint-style sampled simulation (see internal/sampling) instead
	// of a full detailed run. The normalized parameters are part of the
	// simulation key and the persistent-store hash, so sampled and full
	// results of the same configuration never alias. Per-call overrides go
	// through SimulateSampledContext.
	Sampling sampling.Params
	// Store, when non-nil, is consulted before executing a simulation and
	// updated after one: repeated requests across process restarts become
	// store hits instead of re-simulations. Set it before the first
	// Simulate call.
	Store ResultStore
	// CacheLimit bounds the in-memory finished-run cache (completed
	// entries; in-flight singleflight jobs are never evicted). 0 means
	// DefaultCacheLimit; negative means unbounded.
	CacheLimit int
	// BusSkew bounds how far the fastest core of a batched fan-out may run
	// ahead of the slowest on the shared trace bus (see emulator.Broadcast);
	// 0 means emulator.DefaultBusSkew.
	BusSkew int

	mu       sync.Mutex
	compiles map[string]*compileJob
	sims     map[simKey]*simJob
	plans    map[planKey]*planJob
	lru      *list.List // finished *simJob, front = most recently used

	semOnce sync.Once
	sem     chan struct{}

	simReqs     atomic.Int64 // Simulate calls (cache hits included)
	simsRun     atomic.Int64 // simulations actually executed
	sampledRuns atomic.Int64 // executed simulations that were sampled estimates
	plansBuilt  atomic.Int64 // sampling plans built (coalesced/cached excluded)
	storeHits   atomic.Int64 // results served from the persistent store
	storeMisses atomic.Int64 // store lookups that missed
	storeErrs   atomic.Int64 // store Put failures (non-fatal)

	planStoreHits   atomic.Int64 // plans decoded from the persistent store
	planStoreMisses atomic.Int64 // plan-store lookups that missed or were stale
	peakWindow      atomic.Int64 // largest sliding window across all runs

	emulationsRun  atomic.Int64 // functional passes executed (solo, batched or profiling)
	peakBusRecords atomic.Int64 // largest broadcast-bus high-water mark across batches
}

type compileJob struct {
	done chan struct{}
	res  *compiler.Result
	err  error
}

type simJob struct {
	done chan struct{}
	st   *pipeline.Stats
	err  error

	// Guarded by Runner.mu: a finished job sits in the LRU list under its
	// key; an in-flight job (finished == false) is never evicted, so a
	// concurrent eviction sweep cannot corrupt a singleflight in progress.
	key      simKey
	finished bool
	elem     *list.Element
}

// simKey identifies one simulation request. The config portion is a
// comparable struct mirroring every timing-relevant pipeline.Config field —
// not a formatted string, so a key can never alias two distinct configs
// through formatting ambiguity, and the compiler enforces that the key stays
// a pure value. The normalized sampling parameters are part of the key:
// a sampled estimate and a full run of the same configuration are distinct
// results and must never coalesce or serve each other from cache.
type simKey struct {
	workload string
	cfg      cfgKey
	sampling sampling.Params
}

// planKey identifies one sampling plan: plans depend only on the workload's
// compiled stream and the normalized sampling parameters, so every
// configuration estimated under the same (workload, Params) shares one plan
// — the profiling, pilot and checkpoint cost amortises across the suite.
type planKey struct {
	workload string
	params   sampling.Params
}

type planJob struct {
	done chan struct{}
	pl   *sampling.Plan
	err  error
}

// cfgKey mirrors pipeline.Config field-for-field, minus FenceGate and
// TraceSink (function/interface values: not comparable, and observation
// never changes results — the trace layer's timing-invariance tests hold
// that line). TestCfgKeyCoversConfig asserts by reflection that every other
// Config field has a same-named counterpart here and actually distinguishes
// keys, so a newly added Config field cannot silently alias cache entries.
//
// The struct doubles as the canonical serialisation for the persistent
// store: ConfigHash marshals it as JSON (fields emit in declaration order,
// so the encoding is deterministic) and hashes the result. Reordering or
// renaming fields therefore changes every store key — bump hashVersion when
// the Stats schema changes instead.
type cfgKey struct {
	Name                                            string
	FetchWidth, IssueWidth, CommitWidth             int
	ROBSize, IQSize, LQSize, SQSize, RenameRegs     int
	IntALUs, IntMulDiv, FPUs, LoadPorts, StorePorts int
	FrontendDepth, MispredictPenalty, RASEntries    int
	L1ISize, L1DSize, L2Size, L3Size                int
	L1Lat, L2Lat, L3Lat, MemLat                     int64
	CacheWays                                       int
	PrefetchEnabled                                 bool
	PrefetchDegree, PrefetchTable                   int
	Predictor                                       pipeline.PredictorKind
	Policy                                          pipeline.PolicyKind
	Selective                                       pipeline.SelectiveROBConfig
	ECL                                             bool
	FreeSetup                                       bool
	WindowFetchLimit                                int
	PipeTraceLimit                                  int
	Sanitize                                        bool
}

func keyOf(cfg pipeline.Config) cfgKey {
	return cfgKey{
		Name:              cfg.Name,
		FetchWidth:        cfg.FetchWidth,
		IssueWidth:        cfg.IssueWidth,
		CommitWidth:       cfg.CommitWidth,
		ROBSize:           cfg.ROBSize,
		IQSize:            cfg.IQSize,
		LQSize:            cfg.LQSize,
		SQSize:            cfg.SQSize,
		RenameRegs:        cfg.RenameRegs,
		IntALUs:           cfg.IntALUs,
		IntMulDiv:         cfg.IntMulDiv,
		FPUs:              cfg.FPUs,
		LoadPorts:         cfg.LoadPorts,
		StorePorts:        cfg.StorePorts,
		FrontendDepth:     cfg.FrontendDepth,
		MispredictPenalty: cfg.MispredictPenalty,
		RASEntries:        cfg.RASEntries,
		L1ISize:           cfg.L1ISize,
		L1DSize:           cfg.L1DSize,
		L2Size:            cfg.L2Size,
		L3Size:            cfg.L3Size,
		L1Lat:             cfg.L1Lat,
		L2Lat:             cfg.L2Lat,
		L3Lat:             cfg.L3Lat,
		MemLat:            cfg.MemLat,
		CacheWays:         cfg.CacheWays,
		PrefetchEnabled:   cfg.PrefetchEnabled,
		PrefetchDegree:    cfg.PrefetchDegree,
		PrefetchTable:     cfg.PrefetchTable,
		Predictor:         cfg.Predictor,
		Policy:            cfg.Policy,
		Selective:         cfg.Selective,
		ECL:               cfg.ECL,
		FreeSetup:         cfg.FreeSetup,
		WindowFetchLimit:  cfg.WindowFetchLimit,
		PipeTraceLimit:    cfg.PipeTraceLimit,
		Sanitize:          cfg.Sanitize,
	}
}

// hashVersion tags the store-key schema: bump it whenever pipeline.Stats
// gains or changes meaning of a field — or when the hashed request content
// itself changes shape, as in v2, which added the sampling parameters — so
// stale persisted results from an older binary can never be served as
// current ones.
const hashVersion = "noreba-result-v2"

// hashedConfig is the canonical content to be hashed for one simulation
// request: everything that can influence the resulting Stats. Sampling holds
// the normalized sampling parameters (the zero value for a full run), so a
// sampled estimate's store entry can never be served for a full-run request
// or vice versa.
type hashedConfig struct {
	Version  string
	Workload string
	MaxInsts int64
	ScaleDiv int
	Cfg      cfgKey
	Sampling sampling.Params
}

// ConfigHash returns the canonical content hash identifying one simulation
// request under this runner: the workload, the runner's scale parameters,
// every timing-relevant config field and the runner's sampling mode, after
// the same normalisations Simulate applies. Two requests share a hash if and
// only if they would produce identical Stats, so the hash is a safe
// persistent-store key.
func (r *Runner) ConfigHash(workload string, cfg pipeline.Config) string {
	return r.ConfigHashSampled(workload, cfg, r.Sampling)
}

// ConfigHashSampled is ConfigHash under an explicit per-request sampling
// mode, mirroring SimulateSampledContext.
func (r *Runner) ConfigHashSampled(workload string, cfg pipeline.Config, p sampling.Params) string {
	cfg = normalize(cfg)
	if r.Sanitize {
		cfg.Sanitize = true
	}
	return hashConfig(workload, r.MaxInsts, r.ScaleDiv, cfg, p.Normalize())
}

func hashConfig(workload string, maxInsts int64, scaleDiv int, cfg pipeline.Config, p sampling.Params) string {
	b, err := json.Marshal(hashedConfig{
		Version:  hashVersion,
		Workload: workload,
		MaxInsts: maxInsts,
		ScaleDiv: scaleDiv,
		Cfg:      keyOf(cfg),
		Sampling: p,
	})
	if err != nil {
		// cfgKey is a pure value struct; Marshal cannot fail on it.
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// NewRunner returns a full-scale runner over the whole suite.
func NewRunner() *Runner {
	return &Runner{
		MaxInsts: 1 << 20, ScaleDiv: 1,
		compiles: map[string]*compileJob{},
		sims:     map[simKey]*simJob{},
		plans:    map[planKey]*planJob{},
		lru:      list.New(),
	}
}

// QuickRunner returns a reduced-scale runner for tests.
func QuickRunner() *Runner {
	r := NewRunner()
	r.ScaleDiv = 2
	r.Workloads = []string{"mcf", "bzip2", "astar", "CRC32", "dijkstra", "libquantum", "sha", "gobmk"}
	return r
}

// suite returns the workload list this runner evaluates. The default is the
// curated figure suite: generated workloads (internal/workgen) are reachable
// by naming them in Workloads or in explicit Requests, but must never grow
// the figures — their cycle counts are correctness collateral, not results.
// An unknown name in Workloads is a configuration error reported to the
// caller, not a panic.
func (r *Runner) suite() ([]workloads.Workload, error) {
	if r.Workloads == nil {
		return workloads.Curated(), nil
	}
	var out []workloads.Workload
	for _, name := range r.Workloads {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("experiments: bad workload suite: %w", err)
		}
		out = append(out, w)
	}
	return out, nil
}

// names returns the suite's workload names.
func (r *Runner) names() ([]string, error) {
	ws, err := r.suite()
	if err != nil {
		return nil, err
	}
	var out []string
	for _, w := range ws {
		out = append(out, w.Name)
	}
	return out, nil
}

// compiled returns the annotated image and metadata of a workload, building
// them on first use; concurrent requests for the same workload coalesce into
// one compilation.
func (r *Runner) compiled(name string) (*compiler.Result, error) {
	r.mu.Lock()
	if j, ok := r.compiles[name]; ok {
		r.mu.Unlock()
		<-j.done
		return j.res, j.err
	}
	j := &compileJob{done: make(chan struct{})}
	r.compiles[name] = j
	r.mu.Unlock()

	j.res, j.err = compileWorkload(name, r.ScaleDiv)
	close(j.done)
	return j.res, j.err
}

// Plan returns the sampling plan the runner would use for workload under its
// configured sampling mode, building (or loading from the plan store) and
// caching it like SimulateSampledContext does. Callers use it to inspect plan
// properties — e.g. whether the program is too short to sample (Plan.Full) —
// without running an estimate.
func (r *Runner) Plan(ctx context.Context, workload string) (*sampling.Plan, error) {
	return r.planFor(ctx, workload, r.Sampling.Normalize())
}

// planFor returns the sampling plan for (workload, p), building it on first
// use on a worker-pool slot; concurrent requests for the same key coalesce
// into one build. p must already be normalized. A cancelled build is removed
// so a later request retries it; deterministic failures stay cached like
// simulation failures do.
func (r *Runner) planFor(ctx context.Context, workload string, p sampling.Params) (*sampling.Plan, error) {
	key := planKey{workload: workload, params: p}
	r.mu.Lock()
	if j, ok := r.plans[key]; ok {
		r.mu.Unlock()
		select {
		case <-j.done:
			return j.pl, j.err
		case <-ctx.Done():
			return nil, fmt.Errorf("experiments: %s: plan: %w", workload, context.Cause(ctx))
		}
	}
	j := &planJob{done: make(chan struct{})}
	r.plans[key] = j
	r.mu.Unlock()

	j.pl, j.err = r.buildPlan(ctx, workload, p)

	r.mu.Lock()
	if j.err != nil && (errors.Is(j.err, context.Canceled) || errors.Is(j.err, context.DeadlineExceeded)) {
		if r.plans[key] == j {
			delete(r.plans, key)
		}
	}
	r.mu.Unlock()
	close(j.done)
	return j.pl, j.err
}

func (r *Runner) buildPlan(ctx context.Context, workload string, p sampling.Params) (*sampling.Plan, error) {
	res, err := r.compiled(workload)
	if err != nil {
		return nil, err
	}
	// Consult the persistent plan store before paying for a build: the key
	// covers the compiled image's content hash, the stream bound and the
	// normalized parameters, so a decoded plan is exactly the plan a build
	// would produce. A missing, stale (old format version) or mismatched
	// (recompiled workload) blob is a miss and the plan is rebuilt.
	var (
		bs      BlobStore
		blobKey string
	)
	if b, ok := r.Store.(BlobStore); ok {
		bs = b
		blobKey = sampling.PlanKey(res.ImageHash(), r.MaxInsts, p)
		if data, ok := bs.GetBlob(blobKey); ok {
			if pl, err := sampling.LoadPlanHashed(data, res.Image, res.ImageHash(), r.MaxInsts, p); err == nil {
				r.planStoreHits.Add(1)
				return pl, nil
			}
		}
		r.planStoreMisses.Add(1)
	}
	if err := r.acquire(ctx); err != nil {
		return nil, fmt.Errorf("experiments: %s: plan: %w", workload, err)
	}
	defer r.release()
	r.plansBuilt.Add(1)
	r.emulationsRun.Add(1) // the profiling pass is one functional emulation
	pl, err := sampling.BuildPlanContext(ctx, res.Image, res.Meta, r.MaxInsts, p)
	if err != nil {
		return nil, err
	}
	if bs != nil {
		if err := bs.PutBlob(blobKey, sampling.EncodePlan(pl)); err != nil {
			r.storeErrs.Add(1)
		}
	}
	return pl, nil
}

func compileWorkload(name string, scaleDiv int) (*compiler.Result, error) {
	w, err := workloads.ByName(name)
	if err != nil {
		return nil, err
	}
	scale := w.DefaultScale / scaleDiv
	if scale < 2 {
		scale = 2
	}
	res, err := compiler.Compile(w.Build(scale), compiler.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return res, nil
}

// acquire claims a worker-pool slot, or gives up when ctx is cancelled
// first; release returns the slot. The pool is sized lazily so callers may
// set Parallelism any time before the first run.
func (r *Runner) acquire(ctx context.Context) error {
	select {
	case r.pool() <- struct{}{}:
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}

// pool lazily sizes and returns the worker-pool semaphore. poolSize (its
// capacity) also bounds the per-estimate window fan-out: a sampled estimate
// holds one pool slot and runs up to poolSize representative windows
// concurrently inside it, mirroring how a batched fan-out holds one slot for
// N bus views.
func (r *Runner) pool() chan struct{} {
	r.semOnce.Do(func() {
		n := r.Parallelism
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		r.sem = make(chan struct{}, n)
	})
	return r.sem
}

func (r *Runner) poolSize() int { return cap(r.pool()) }

func (r *Runner) release() { <-r.sem }

// normalize applies the policy convention before keying: policies that do
// not consume compiler annotations (the paper's baselines and speculative
// oracles) run as if on the original binary, so setup instructions do not
// occupy fetch slots for them.
func normalize(cfg pipeline.Config) pipeline.Config {
	switch cfg.Policy {
	case pipeline.Noreba, pipeline.IdealReconv:
		// Annotated binary: setup instructions cost fetch slots unless the
		// experiment explicitly models the "perfect" sideband (§6.1.2).
	default:
		cfg.FreeSetup = true
	}
	return cfg
}

// Simulate runs (or returns the cached run of) one workload under cfg.
// Concurrent calls with the same (workload, cfg) coalesce into a single
// execution; distinct requests proceed in parallel up to the pool size.
func (r *Runner) Simulate(workload string, cfg pipeline.Config) (*pipeline.Stats, error) {
	return r.SimulateContext(context.Background(), workload, cfg)
}

// SimulateContext is Simulate with cooperative cancellation. A caller whose
// context ends while waiting — for a worker slot, for a coalesced twin, or
// mid-simulation — returns an error wrapping the context's cause. A
// cancelled execution is removed from the cache so a later request re-runs
// it instead of being served the cancellation; other results (including
// deterministic failures) stay cached.
func (r *Runner) SimulateContext(ctx context.Context, workload string, cfg pipeline.Config) (*pipeline.Stats, error) {
	return r.SimulateSampledContext(ctx, workload, cfg, r.Sampling)
}

// SimulateSampledContext is SimulateContext under an explicit sampling mode,
// overriding the runner-level Sampling knob for this request: the zero
// Params forces a full run, an enabled Params a sampled estimate. Sampled
// and full results of the same configuration live under distinct cache keys
// and store hashes.
func (r *Runner) SimulateSampledContext(ctx context.Context, workload string, cfg pipeline.Config, p sampling.Params) (*pipeline.Stats, error) {
	r.simReqs.Add(1)
	cfg = normalize(cfg)
	if r.Sanitize {
		cfg.Sanitize = true
	}
	p = p.Normalize()
	key := simKey{workload: workload, cfg: keyOf(cfg), sampling: p}

	r.mu.Lock()
	if j, ok := r.sims[key]; ok {
		if j.finished && j.elem != nil {
			r.lru.MoveToFront(j.elem)
		}
		r.mu.Unlock()
		select {
		case <-j.done:
			return j.st, j.err
		case <-ctx.Done():
			return nil, fmt.Errorf("experiments: %s: %w", workload, context.Cause(ctx))
		}
	}
	j := &simJob{done: make(chan struct{}), key: key}
	r.sims[key] = j
	r.mu.Unlock()

	st, err := r.runSim(ctx, workload, cfg, p)
	r.finishJob(j, st, err)
	return j.st, j.err
}

// finishJob records a claimed singleflight job's outcome and publishes it to
// waiters. A cancellation is not cached — the next identical request should
// execute — while results and deterministic failures enter the LRU cache.
func (r *Runner) finishJob(j *simJob, st *pipeline.Stats, err error) {
	j.st, j.err = st, err
	r.mu.Lock()
	if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		// Waiters coalesced onto this job still observe the error.
		if r.sims[j.key] == j {
			delete(r.sims, j.key)
		}
	} else {
		j.finished = true
		j.elem = r.lru.PushFront(j)
		r.evictLocked()
	}
	r.mu.Unlock()
	close(j.done)
}

// evictLocked trims the finished-run cache to the configured bound, oldest
// first. Only finished jobs are on the LRU list, so an in-flight
// singleflight execution can never be evicted out from under its waiters.
// Callers hold r.mu.
func (r *Runner) evictLocked() {
	limit := r.CacheLimit
	if limit == 0 {
		limit = DefaultCacheLimit
	}
	if limit < 0 {
		return
	}
	for r.lru.Len() > limit {
		elem := r.lru.Back()
		j := elem.Value.(*simJob)
		r.lru.Remove(elem)
		j.elem = nil
		if r.sims[j.key] == j {
			delete(r.sims, j.key)
		}
	}
}

// runSim executes one simulation on the worker pool, consulting the
// persistent store first. Each executed run drives its own live emulator
// through the pipeline's sliding window, so no materialized trace is ever
// held: per-run memory is bounded by the in-flight span. With sampling
// enabled the detailed run is replaced by a plan estimate: the plan is built
// (or reused) once per (workload, Params) and only the representative
// windows are simulated under cfg.
func (r *Runner) runSim(ctx context.Context, workload string, cfg pipeline.Config, p sampling.Params) (*pipeline.Stats, error) {
	var hash string
	if r.Store != nil {
		hash = hashConfig(workload, r.MaxInsts, r.ScaleDiv, cfg, p)
		if st, ok := r.Store.Get(hash); ok {
			r.storeHits.Add(1)
			return st, nil
		}
		r.storeMisses.Add(1)
	}
	res, err := r.compiled(workload)
	if err != nil {
		return nil, err
	}
	var st *pipeline.Stats
	if p.Enabled {
		pl, err := r.planFor(ctx, workload, p)
		if err != nil {
			return nil, err
		}
		if err := r.acquire(ctx); err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", workload, err)
		}
		defer r.release()
		r.simsRun.Add(1)
		r.sampledRuns.Add(1)
		// Sampling errors already carry workload/interval/policy provenance
		// (see sampling.runWindow), so no re-wrap here — callers used to
		// stack a second, differently-worded prefix on the same facts.
		st, err = pl.EstimateContextN(ctx, cfg, res.Meta, r.poolSize())
		if err != nil {
			return nil, err
		}
	} else {
		if err := r.acquire(ctx); err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", workload, err)
		}
		defer r.release()
		r.simsRun.Add(1)
		r.emulationsRun.Add(1)
		src := emulator.NewSource(emulator.New(res.Image), r.MaxInsts)
		st, err = pipeline.NewCoreFromSource(cfg, src, res.Meta).RunContext(ctx)
		if err != nil {
			return nil, fmt.Errorf("%s under %v: %w", workload, cfg.Policy, err)
		}
	}
	casMax(&r.peakWindow, st.WindowPeak)
	if r.Store != nil {
		if err := r.Store.Put(hash, st); err != nil {
			r.storeErrs.Add(1)
		}
	}
	return st, nil
}

// casMax lifts v into the atomic high-water mark m.
func casMax(m *atomic.Int64, v int64) {
	for {
		cur := m.Load()
		if v <= cur || m.CompareAndSwap(cur, v) {
			return
		}
	}
}

// simReq names one simulation for the fan-out helpers. idx is the request's
// position in the caller's slice, carried through grouping so streaming
// callers can be notified per original request.
type simReq struct {
	workload string
	cfg      pipeline.Config
	idx      int
}

// Request names one simulation for RunRequests: a workload and a core
// configuration. Callers can gather the requests of several figures (see
// FigureRequests) and batch them through one scheduling pass, so every
// configuration of a workload shares a single functional emulation.
type Request struct {
	Workload string
	Config   pipeline.Config
}

// RunRequests warms the runner's cache with every request, batching
// same-workload full-detail requests onto a shared broadcast trace bus: one
// functional emulation feeds all N pipeline cores in lockstep (see
// emulator.Broadcast). Results are bit-identical to independent Simulate
// calls — each view delivers the exact solo stream and the model is
// deterministic — and singleflight/cache/store semantics are preserved, so
// subsequent Simulate calls are guaranteed hits. The first error is
// returned after all requests settle.
func (r *Runner) RunRequests(ctx context.Context, reqs []Request) error {
	return r.RunRequestsStream(ctx, reqs, nil)
}

// RunRequestsStream is RunRequests with a per-request completion callback:
// when notify is non-nil, notify(i, st, err) fires exactly once for each
// reqs[i] as that request settles — whether from the in-memory cache, the
// persistent store, a solo run or a batched fan-out — so callers can stream
// results as they land instead of waiting for the whole batch. notify may be
// invoked concurrently from several goroutines and must be safe for that;
// requests cancelled by ctx are notified with the wrapped cancellation
// cause. Batching, singleflight, cache and store semantics are exactly
// RunRequests's.
func (r *Runner) RunRequestsStream(ctx context.Context, reqs []Request, notify func(i int, st *pipeline.Stats, err error)) error {
	qs := make([]simReq, len(reqs))
	for i, q := range reqs {
		qs[i] = simReq{workload: q.Workload, cfg: q.Config, idx: i}
	}
	return r.runAllContext(ctx, qs, notify)
}

// runAll schedules every request and waits for all of them, returning the
// first error. Figures call it to warm the cache, then assemble their tables
// from guaranteed hits.
func (r *Runner) runAll(reqs []simReq) error {
	return r.runAllContext(context.Background(), reqs, nil)
}

// runAllContext groups the requests by workload and runs each group's
// full-detail simulations off one shared functional emulation via the
// broadcast bus; sampled-mode runners fall back to the per-request path
// (sampling already amortises the functional pass through its shared plan).
// notify, when non-nil, is invoked once per request as it settles.
func (r *Runner) runAllContext(ctx context.Context, reqs []simReq, notify func(i int, st *pipeline.Stats, err error)) error {
	var firstErr error
	var mu sync.Mutex
	noteErr := func(err error) {
		if err == nil {
			return
		}
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	var wg sync.WaitGroup
	if r.Sampling.Normalize().Enabled {
		for _, q := range reqs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				st, err := r.SimulateContext(ctx, q.workload, q.cfg)
				if notify != nil {
					notify(q.idx, st, err)
				}
				noteErr(err)
			}()
		}
		wg.Wait()
		return firstErr
	}

	groups := map[string][]simReq{}
	var order []string
	for _, q := range reqs {
		if _, ok := groups[q.workload]; !ok {
			order = append(order, q.workload)
		}
		groups[q.workload] = append(groups[q.workload], q)
	}
	for _, w := range order {
		wg.Add(1)
		go func(group []simReq) {
			defer wg.Done()
			noteErr(r.simulateGroup(ctx, group, notify))
		}(groups[w])
	}
	wg.Wait()
	return firstErr
}

// ownedJob is one singleflight job this group claimed and must complete.
type ownedJob struct {
	j    *simJob
	cfg  pipeline.Config
	hash string
}

// simulateGroup completes one workload's batch of full-detail requests. It
// claims each request's singleflight job (or registers as a waiter on a job
// another caller owns), serves claimed jobs from the persistent store where
// possible, then runs the remainder: a lone survivor takes the classic solo
// path, two or more share a single functional emulation through the
// broadcast bus. Every job is finished with exactly the semantics of
// SimulateSampledContext, so concurrent Simulate callers observe no
// difference. notify, when non-nil, fires once per group entry as its job
// settles (from its own goroutine, so a streaming consumer sees rows as they
// finish, not when the whole batch does).
func (r *Runner) simulateGroup(ctx context.Context, group []simReq, notify func(i int, st *pipeline.Stats, err error)) error {
	workload := group[0].workload
	p := sampling.Params{}.Normalize() // full-detail runs only reach here

	var owned []ownedJob
	var waiters []*simJob
	var notifyWG sync.WaitGroup
	r.mu.Lock()
	for _, q := range group {
		r.simReqs.Add(1)
		cfg := normalize(q.cfg)
		if r.Sanitize {
			cfg.Sanitize = true
		}
		key := simKey{workload: workload, cfg: keyOf(cfg), sampling: p}
		j, have := r.sims[key]
		if have {
			if j.finished && j.elem != nil {
				r.lru.MoveToFront(j.elem)
			}
			waiters = append(waiters, j)
		} else {
			j = &simJob{done: make(chan struct{}), key: key}
			r.sims[key] = j
			owned = append(owned, ownedJob{j: j, cfg: cfg})
		}
		if notify != nil {
			notifyWG.Add(1)
			go func(idx int, j *simJob) {
				defer notifyWG.Done()
				select {
				case <-j.done:
					notify(idx, j.st, j.err)
				case <-ctx.Done():
					notify(idx, nil, fmt.Errorf("experiments: %s: %w", workload, context.Cause(ctx)))
				}
			}(q.idx, j)
		}
	}
	r.mu.Unlock()
	defer notifyWG.Wait()

	// Serve owned jobs from the persistent store before paying for any
	// execution; the rest stay pending.
	pending := owned[:0]
	for _, o := range owned {
		if r.Store != nil {
			o.hash = hashConfig(workload, r.MaxInsts, r.ScaleDiv, o.cfg, p)
			if st, ok := r.Store.Get(o.hash); ok {
				r.storeHits.Add(1)
				r.finishJob(o.j, st, nil)
				continue
			}
			r.storeMisses.Add(1)
		}
		pending = append(pending, o)
	}

	if len(pending) > 0 {
		res, err := r.compiled(workload)
		switch {
		case err != nil:
			for _, o := range pending {
				r.finishJob(o.j, nil, err)
			}
		case len(pending) == 1:
			o := pending[0]
			st, err := r.execSolo(ctx, workload, o, res)
			r.finishJob(o.j, st, err)
		default:
			r.execFanout(ctx, workload, pending, res)
		}
	}

	var firstErr error
	for _, o := range pending {
		if o.j.err != nil && firstErr == nil {
			firstErr = o.j.err
		}
	}
	for _, j := range waiters {
		select {
		case <-j.done:
			if j.err != nil && firstErr == nil {
				firstErr = j.err
			}
		case <-ctx.Done():
			if firstErr == nil {
				firstErr = fmt.Errorf("experiments: %s: %w", workload, context.Cause(ctx))
			}
		}
	}
	return firstErr
}

// execSolo runs one claimed full-detail job on its own emulator stream,
// mirroring runSim's execution arm (the store was already consulted).
func (r *Runner) execSolo(ctx context.Context, workload string, o ownedJob, res *compiler.Result) (*pipeline.Stats, error) {
	if err := r.acquire(ctx); err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", workload, err)
	}
	defer r.release()
	r.simsRun.Add(1)
	r.emulationsRun.Add(1)
	src := emulator.NewSource(emulator.New(res.Image), r.MaxInsts)
	st, err := pipeline.NewCoreFromSource(o.cfg, src, res.Meta).RunContext(ctx)
	if err != nil {
		return nil, fmt.Errorf("%s under %v: %w", workload, o.cfg.Policy, err)
	}
	casMax(&r.peakWindow, st.WindowPeak)
	if r.Store != nil {
		if err := r.Store.Put(o.hash, st); err != nil {
			r.storeErrs.Add(1)
		}
	}
	return st, nil
}

// execFanout runs N claimed same-workload jobs off one functional emulation:
// a broadcast bus wraps a single live emulator source and each core consumes
// its own lockstep view on its own goroutine. The batch holds one worker-pool
// slot — its goroutines block on each other through the bus skew bound, so
// giving each a slot could deadlock the pool — and every job is finished
// individually with the usual store/cache semantics.
func (r *Runner) execFanout(ctx context.Context, workload string, batch []ownedJob, res *compiler.Result) {
	if err := r.acquire(ctx); err != nil {
		err = fmt.Errorf("experiments: %s: %w", workload, err)
		for _, o := range batch {
			r.finishJob(o.j, nil, err)
		}
		return
	}
	defer r.release()
	r.emulationsRun.Add(1)

	bus := emulator.NewBroadcast(emulator.NewSource(emulator.New(res.Image), r.MaxInsts), r.BusSkew)
	views := make([]*emulator.BusView, len(batch))
	for i := range batch {
		views[i] = bus.View()
	}
	var wg sync.WaitGroup
	for i, o := range batch {
		wg.Add(1)
		go func(o ownedJob, view *emulator.BusView) {
			defer wg.Done()
			// An early exit (error, cancellation) must detach the view or its
			// stalled cursor wedges every sibling on the bus.
			defer view.Close()
			r.simsRun.Add(1)
			st, err := pipeline.NewCoreFromSource(o.cfg, view, res.Meta).RunContext(ctx)
			if err != nil {
				r.finishJob(o.j, nil, fmt.Errorf("%s under %v: %w", workload, o.cfg.Policy, err))
				return
			}
			casMax(&r.peakWindow, st.WindowPeak)
			if r.Store != nil {
				if err := r.Store.Put(o.hash, st); err != nil {
					r.storeErrs.Add(1)
				}
			}
			r.finishJob(o.j, st, nil)
		}(o, views[i])
	}
	wg.Wait()
	casMax(&r.peakBusRecords, int64(bus.PeakRecords()))
}

// SimulateCalls returns how many Simulate requests the runner has received,
// cache hits included.
func (r *Runner) SimulateCalls() int64 { return r.simReqs.Load() }

// SimulationsRun returns how many simulations actually executed (requests
// minus coalesced, cached and store-served ones).
func (r *Runner) SimulationsRun() int64 { return r.simsRun.Load() }

// StoreHits returns how many results were served from the persistent store.
func (r *Runner) StoreHits() int64 { return r.storeHits.Load() }

// StoreMisses returns how many persistent-store lookups missed.
func (r *Runner) StoreMisses() int64 { return r.storeMisses.Load() }

// StorePutErrors returns how many store writes failed (each counted run
// still returned its result to the caller).
func (r *Runner) StorePutErrors() int64 { return r.storeErrs.Load() }

// SampledRuns returns how many executed simulations were sampled estimates.
func (r *Runner) SampledRuns() int64 { return r.sampledRuns.Load() }

// PlansBuilt returns how many sampling plans were built (coalesced and
// reused requests excluded).
func (r *Runner) PlansBuilt() int64 { return r.plansBuilt.Load() }

// PlanStoreHits returns how many sampling plans were decoded from the
// persistent plan store instead of built.
func (r *Runner) PlanStoreHits() int64 { return r.planStoreHits.Load() }

// PlanStoreMisses returns how many plan-store lookups missed — no blob, a
// stale format version, or a mismatched image/parameter hash — and fell
// through to a build.
func (r *Runner) PlanStoreMisses() int64 { return r.planStoreMisses.Load() }

// UniqueSimulations returns the number of distinct (workload, config) keys
// currently resident in the in-memory cache (in-flight included).
func (r *Runner) UniqueSimulations() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sims)
}

// PeakWindow returns the largest sliding-window high-water mark (live
// instruction records) observed across all simulations.
func (r *Runner) PeakWindow() int64 { return r.peakWindow.Load() }

// EmulationsRun returns how many functional emulation passes executed: one
// per solo full-detail run, one per broadcast-bus batch (however many cores
// it fed) and one per sampling plan's profiling pass. The gap between
// SimulationsRun and EmulationsRun is the fan-out saving.
func (r *Runner) EmulationsRun() int64 { return r.emulationsRun.Load() }

// PeakBusRecords returns the largest broadcast-bus high-water mark (buffered
// trace records, i.e. realized consumer skew) across all batched fan-outs.
func (r *Runner) PeakBusRecords() int64 { return r.peakBusRecords.Load() }

// skylake returns the paper's default evaluation core (SKL + DCPT).
func skylake(policy pipeline.PolicyKind) pipeline.Config {
	cfg := pipeline.SkylakeConfig()
	cfg.Policy = policy
	return cfg
}
