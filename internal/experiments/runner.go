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
	compiles map[buildKey]*compileJob
	sims     map[string]*simJob // keyed by hashConfig, the store key
	plans    map[planKey]*planJob
	lru      *list.List // finished *simJob, front = most recently used

	semOnce sync.Once
	sem     chan struct{}

	requests    atomic.Int64 // requests received (cache hits included)
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
	key      string
	finished bool
	elem     *list.Element
}

// buildKey identifies one compiled program: a workload built under one set
// of compiler options, the zero Options meaning compiler.DefaultOptions().
type buildKey struct {
	workload string
	opts     compiler.Options
}

// planKey identifies one sampling plan: plans depend only on the workload's
// compiled stream and the normalized sampling parameters, so every
// configuration estimated under the same (build, Params) shares one plan —
// the profiling, pilot and checkpoint cost amortises across the suite.
type planKey struct {
	buildKey
	params sampling.Params
}

type planJob struct {
	done chan struct{}
	pl   *sampling.Plan
	err  error
}

// hashVersion tags the store-key schema: bump it whenever pipeline.Stats
// gains or changes meaning of a field — or when the hashed request content
// itself changes shape, as in v2, which added the sampling parameters — so
// stale persisted results from an older binary can never be served as
// current ones.
const hashVersion = "noreba-result-v2"

// hashedConfig is the canonical content to be hashed for one simulation
// request: everything that can influence the resulting Stats. It is both the
// persistent-store key and the in-memory singleflight key, so the two can
// never disagree about which requests are the same simulation.
//
// Cfg is the whole pipeline.Config, minus its json:"-" observation hooks
// (FenceGate, TraceSink: observing never changes results). Its fields encode
// in declaration order, so reordering or renaming Config fields changes
// every store key — bump hashVersion when the Stats schema changes instead.
// Sampling holds the normalized sampling parameters (the zero value for a
// full run), so a sampled estimate's store entry can never be served for a
// full-run request or vice versa. Compiler appears only for non-default
// compiler options, so every default-build request keeps its hash.
type hashedConfig struct {
	Version  string
	Workload string
	MaxInsts int64
	ScaleDiv int
	Cfg      pipeline.Config
	Sampling sampling.Params
	Compiler *compiler.Options `json:",omitempty"`
}

// ConfigHash returns the canonical content hash identifying one simulation
// request under this runner: the workload, the runner's scale parameters,
// every timing-relevant config field and the sampling mode (the zero Params
// for a full run), after the same normalisations RunRequestsStream applies.
// Two requests share a hash if and only if they would produce identical
// Stats, so the hash is a safe persistent-store key.
func (r *Runner) ConfigHash(workload string, cfg pipeline.Config, p sampling.Params) string {
	return r.hashConfig(r.canonical(Request{Workload: workload, Config: cfg, Sampling: p}))
}

// hashConfig hashes a canonical request (see canonical).
func (r *Runner) hashConfig(q Request) string {
	h := hashedConfig{
		Version:  hashVersion,
		Workload: q.Workload,
		MaxInsts: r.MaxInsts,
		ScaleDiv: r.ScaleDiv,
		Cfg:      q.Config,
		Sampling: q.Sampling,
	}
	if q.Compiler != (compiler.Options{}) {
		h.Compiler = &q.Compiler
	}
	b, err := json.Marshal(h)
	if err != nil {
		// Every hashed field is a plain value; Marshal cannot fail on them.
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// NewRunner returns a full-scale runner over the whole suite.
func NewRunner() *Runner {
	return &Runner{
		MaxInsts: 1 << 20, ScaleDiv: 1,
		compiles: map[buildKey]*compileJob{},
		sims:     map[string]*simJob{},
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

// compiled returns the annotated image and metadata of a workload under
// the build's compiler options, building them on first use; concurrent
// requests for the same build coalesce into one compilation.
func (r *Runner) compiled(b buildKey) (*compiler.Result, error) {
	r.mu.Lock()
	if j, ok := r.compiles[b]; ok {
		r.mu.Unlock()
		<-j.done
		return j.res, j.err
	}
	j := &compileJob{done: make(chan struct{})}
	r.compiles[b] = j
	r.mu.Unlock()

	j.res, j.err = compileWorkload(b.workload, r.ScaleDiv, b.opts)
	close(j.done)
	return j.res, j.err
}

// Plan returns the sampling plan the runner uses for workload under p,
// building (or loading from the plan store) and caching it exactly as a
// sampled request would. Callers use it to inspect plan properties — e.g.
// whether the program is too short to sample (Plan.Full) — without running
// an estimate.
func (r *Runner) Plan(ctx context.Context, workload string, p sampling.Params) (*sampling.Plan, error) {
	return r.planFor(ctx, planKey{buildKey{workload: workload}, p.Normalize()})
}

// planFor returns the sampling plan for key, building it on first use on a
// worker-pool slot; concurrent requests for the same key coalesce into one
// build. key.params must already be normalized. A cancelled build is removed
// so a later request retries it; deterministic failures stay cached like
// simulation failures do.
func (r *Runner) planFor(ctx context.Context, key planKey) (*sampling.Plan, error) {
	r.mu.Lock()
	if j, ok := r.plans[key]; ok {
		r.mu.Unlock()
		select {
		case <-j.done:
			return j.pl, j.err
		case <-ctx.Done():
			return nil, fmt.Errorf("experiments: %s: plan: %w", key.workload, context.Cause(ctx))
		}
	}
	j := &planJob{done: make(chan struct{})}
	r.plans[key] = j
	r.mu.Unlock()

	j.pl, j.err = r.buildPlan(ctx, key)

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

func (r *Runner) buildPlan(ctx context.Context, key planKey) (*sampling.Plan, error) {
	workload, p := key.workload, key.params
	res, err := r.compiled(key.buildKey)
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

// compileWorkload builds a workload at the runner's scale and compiles it
// under opts, the zero Options meaning compiler.DefaultOptions().
func compileWorkload(name string, scaleDiv int, opts compiler.Options) (*compiler.Result, error) {
	w, err := workloads.ByName(name)
	if err != nil {
		return nil, err
	}
	scale := w.DefaultScale / scaleDiv
	if scale < 2 {
		scale = 2
	}
	if opts == (compiler.Options{}) {
		opts = compiler.DefaultOptions()
	}
	res, err := compiler.Compile(w.Build(scale), opts)
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

// canonical applies the runner's request normalisations — the policy
// convention, the runner-wide sanitizer, the sampling defaults and the
// compiler defaults (spelled out, they become the zero Options) — so keys,
// store hashes and executions all see the same request.
func (r *Runner) canonical(q Request) Request {
	q.Config = normalize(q.Config)
	if r.Sanitize {
		q.Config.Sanitize = true
	}
	q.Sampling = q.Sampling.Normalize()
	if q.Compiler == compiler.DefaultOptions() {
		q.Compiler = compiler.Options{}
	}
	return q
}

// Simulate returns the full-detail run of one workload under cfg, from the
// cache or from a fresh run.
func (r *Runner) Simulate(workload string, cfg pipeline.Config) (*pipeline.Stats, error) {
	return r.SimulateSampledContext(context.Background(), workload, cfg, sampling.Params{})
}

// SimulateSampledContext runs (or returns the cached run of) one request
// under an explicit sampling mode — the zero Params for a full run, an
// enabled Params for a sampled estimate. It is a one-request
// RunRequestsStream and executes on the caller's goroutine. A caller whose
// context ends while waiting (for a worker slot, a coalesced twin or the
// sampling plan) or mid-run gets an error wrapping the context's cause.
func (r *Runner) SimulateSampledContext(ctx context.Context, workload string, cfg pipeline.Config, p sampling.Params) (st *pipeline.Stats, err error) {
	r.RunRequestsStream(ctx, []Request{{Workload: workload, Config: cfg, Sampling: p}}, func(_ int, s *pipeline.Stats, e error) {
		st, err = s, e
	})
	return st, err
}

// Request names one simulation: a workload, a core configuration, a
// sampling mode whose zero value means a full detailed run, and the compiler
// options the workload is built with, whose zero value means
// compiler.DefaultOptions(). Callers can gather the requests of several
// figures (see FigureRequests) and batch them through one RunRequests pass,
// so every full-detail configuration of a build shares one functional
// emulation and every sampled one one plan.
type Request struct {
	Workload string
	Config   pipeline.Config
	Sampling sampling.Params
	Compiler compiler.Options
}

// RunRequests runs every request (see RunRequestsStream) and returns the
// first error after all of them settle — e.g. to warm the cache with several
// experiments' FigureRequests in one batch.
func (r *Runner) RunRequests(ctx context.Context, reqs []Request) error {
	return r.RunRequestsStream(ctx, reqs, nil)
}

// RunRequestsStream is the one way work executes on a runner. claim takes
// each request's singleflight job or makes the request wait on an identical
// job that is cached or in flight; the claimed jobs, grouped by (workload,
// compiler options, normalized Params), then run one group per goroutine
// (see execGroup).
// Results are bit-identical to independent runs: each core consumes the
// exact solo stream and the model is deterministic.
//
// When notify is non-nil, notify(i, st, err) fires exactly once for each
// reqs[i] as that request settles — from the cache, the persistent store, a
// solo run, a batched fan-out or a sampled estimate — so callers can stream
// results as they land. notify may be invoked concurrently from several
// goroutines, including one still holding a fan-out's worker slot, so it
// must be safe for that and should not block. Requests cancelled by ctx are
// notified with an error wrapping the cancellation cause. The first error is
// returned after every request settles.
func (r *Runner) RunRequestsStream(ctx context.Context, reqs []Request, notify func(i int, st *pipeline.Stats, err error)) error {
	var (
		mu       sync.Mutex
		firstErr error
	)
	settle := func(i int, st *pipeline.Stats, err error) {
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}
		if notify != nil {
			notify(i, st, err)
		}
	}
	groups, waits := r.claim(reqs)
	tasks := make([]func(), 0, len(waits)+len(groups))
	for _, w := range waits {
		tasks = append(tasks, func() {
			select {
			case <-w.j.done:
				settle(w.idx, w.j.st, w.j.err)
			case <-ctx.Done():
				settle(w.idx, nil, fmt.Errorf("experiments: %s: %w", reqs[w.idx].Workload, context.Cause(ctx)))
			}
		})
	}
	for _, g := range groups {
		tasks = append(tasks, func() { r.execGroup(ctx, g, settle) })
	}
	parallel(tasks)
	return firstErr
}

// claimed is one request and its singleflight job: reqs[idx] in the
// caller's slice, its canonical config, and its key (hashConfig).
type claimed struct {
	idx  int
	j    *simJob
	cfg  pipeline.Config
	hash string
}

// group is the claimed jobs of one (workload, compiler options, normalized
// Params): the unit that shares one compiled program and one functional
// emulation (full detail) or one sampling plan.
type group struct {
	planKey
	jobs []claimed
}

// claim is the runner's one singleflight gate. It keys every request by
// hashConfig of its canonical form — the persistent store's key — before
// taking the lock, since hashing is the costly part; then, under a single
// lock, a key already cached or in flight makes the request a waiter on that
// job (a cached job moves to the LRU front), and otherwise the request claims
// a new job, grouped with this call's other claims of the same (workload,
// compiler options, Params) in first-appearance order.
func (r *Runner) claim(reqs []Request) (groups []*group, waits []claimed) {
	r.requests.Add(int64(len(reqs)))
	canon := make([]Request, len(reqs))
	hashes := make([]string, len(reqs))
	for i, q := range reqs {
		canon[i] = r.canonical(q)
		hashes[i] = r.hashConfig(canon[i])
	}
	byKey := map[planKey]*group{}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, q := range canon {
		if j, ok := r.sims[hashes[i]]; ok {
			if j.finished && j.elem != nil {
				r.lru.MoveToFront(j.elem)
			}
			waits = append(waits, claimed{idx: i, j: j})
			continue
		}
		j := &simJob{done: make(chan struct{}), key: hashes[i]}
		r.sims[hashes[i]] = j
		gk := planKey{buildKey{q.Workload, q.Compiler}, q.Sampling}
		g := byKey[gk]
		if g == nil {
			g = &group{planKey: gk}
			byKey[gk] = g
			groups = append(groups, g)
		}
		g.jobs = append(g.jobs, claimed{idx: i, j: j, cfg: q.Config, hash: hashes[i]})
	}
	return groups, waits
}

// execGroup completes one group's claimed jobs. Each job is first looked up
// in the persistent store under its key; the rest execute on the worker
// pool:
//
//   - sampled: planFor builds (or loads, or waits for) the group's plan once,
//     then every job estimates from it on its own goroutine and pool slot;
//   - full detail, one job: a solo run on its own emulator stream;
//   - full detail, two or more: one broadcast emulation feeds every job's
//     core, all on one pool slot (execFanout). The choice follows the group
//     size because a bus copies every record once more per view.
func (r *Runner) execGroup(ctx context.Context, g *group, settle func(int, *pipeline.Stats, error)) {
	var pending []claimed
	for _, c := range g.jobs {
		if r.Store != nil {
			if st, ok := r.Store.Get(c.hash); ok {
				r.storeHits.Add(1)
				r.finish(c, st, nil, settle)
				continue
			}
			r.storeMisses.Add(1)
		}
		pending = append(pending, c)
	}
	if len(pending) == 0 {
		return
	}
	res, err := r.compiled(g.buildKey)
	var pl *sampling.Plan
	if err == nil && g.params.Enabled {
		pl, err = r.planFor(ctx, g.planKey)
	}
	switch {
	case err != nil:
		for _, c := range pending {
			r.finish(c, nil, err, settle)
		}
	case pl == nil && len(pending) > 1:
		r.execFanout(ctx, g.workload, pending, res, settle)
	default:
		tasks := make([]func(), len(pending))
		for i, c := range pending {
			tasks[i] = func() {
				st, err := r.execOne(ctx, g.workload, c, res, pl)
				r.finish(c, st, err, settle)
			}
		}
		parallel(tasks)
	}
}

// execOne runs one job on its own worker-pool slot: a solo full-detail run
// driving its own live emulator through the pipeline's sliding window (no
// materialized trace; memory is bounded by the in-flight span), or, given a
// plan, a sampled estimate that simulates only the plan's representative
// windows under c.cfg.
func (r *Runner) execOne(ctx context.Context, workload string, c claimed, res *compiler.Result, pl *sampling.Plan) (*pipeline.Stats, error) {
	if err := r.acquire(ctx); err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", workload, err)
	}
	defer r.release()
	r.simsRun.Add(1)
	var st *pipeline.Stats
	var err error
	if pl != nil {
		r.sampledRuns.Add(1)
		// Sampling errors already carry workload/interval/policy
		// provenance (see sampling.runWindow), so they are not re-wrapped.
		st, err = pl.EstimateContextN(ctx, c.cfg, res.Meta, r.poolSize())
	} else {
		r.emulationsRun.Add(1)
		src := emulator.NewSource(emulator.New(res.Image), r.MaxInsts)
		if st, err = pipeline.NewCoreFromSource(c.cfg, src, res.Meta).RunContext(ctx); err != nil {
			err = fmt.Errorf("%s under %v: %w", workload, c.cfg.Policy, err)
		}
	}
	if err != nil {
		return nil, err
	}
	r.recordRun(c.hash, st)
	return st, nil
}

// execFanout runs N claimed same-workload jobs off one functional emulation:
// a broadcast bus wraps a single live emulator source and each core consumes
// its own lockstep view on its own goroutine. The batch holds one worker-pool
// slot — its goroutines block on each other through the bus skew bound, so
// giving each a slot could deadlock the pool — and every job is finished
// individually with the usual store/cache semantics.
func (r *Runner) execFanout(ctx context.Context, workload string, batch []claimed, res *compiler.Result, settle func(int, *pipeline.Stats, error)) {
	if err := r.acquire(ctx); err != nil {
		err = fmt.Errorf("experiments: %s: %w", workload, err)
		for _, c := range batch {
			r.finish(c, nil, err, settle)
		}
		return
	}
	defer r.release()
	r.emulationsRun.Add(1)

	bus := emulator.NewBroadcast(emulator.NewSource(emulator.New(res.Image), r.MaxInsts), r.BusSkew)
	tasks := make([]func(), len(batch))
	for i, c := range batch {
		view := bus.View()
		tasks[i] = func() {
			r.simsRun.Add(1)
			st, err := pipeline.NewCoreFromSource(c.cfg, view, res.Meta).RunContext(ctx)
			// An early exit (error, cancellation) must detach the view or its
			// stalled cursor wedges every sibling on the bus; closing before
			// finishing also keeps a slow notify off the siblings' path.
			view.Close()
			if err != nil {
				r.finish(c, nil, fmt.Errorf("%s under %v: %w", workload, c.cfg.Policy, err), settle)
				return
			}
			r.recordRun(c.hash, st)
			r.finish(c, st, nil, settle)
		}
	}
	parallel(tasks)
	casMax(&r.peakBusRecords, int64(bus.PeakRecords()))
}

// parallel runs every task concurrently and returns once all have finished.
// The last task runs on the calling goroutine, so a single task starts no
// goroutine at all.
func parallel(tasks []func()) {
	if len(tasks) == 0 {
		return
	}
	var wg sync.WaitGroup
	for _, t := range tasks[:len(tasks)-1] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t()
		}()
	}
	tasks[len(tasks)-1]()
	wg.Wait()
}

// finish records a claimed job's outcome, publishes it to coalesced waiters
// and settles the request that claimed it. A cancellation is not cached —
// the next identical request should execute — while results and
// deterministic failures enter the LRU cache.
func (r *Runner) finish(c claimed, st *pipeline.Stats, err error, settle func(int, *pipeline.Stats, error)) {
	j := c.j
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
	settle(c.idx, st, err)
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

// recordRun folds a finished run into the window high-water mark and
// writes it to the persistent store, if any, under hash.
func (r *Runner) recordRun(hash string, st *pipeline.Stats) {
	casMax(&r.peakWindow, st.WindowPeak)
	if r.Store != nil {
		if err := r.Store.Put(hash, st); err != nil {
			r.storeErrs.Add(1)
		}
	}
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

// SimulateCalls returns how many requests the runner has received,
// cache hits included.
func (r *Runner) SimulateCalls() int64 { return r.requests.Load() }

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

// UniqueSimulations returns the number of distinct request keys
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
