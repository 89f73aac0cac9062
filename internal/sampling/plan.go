package sampling

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"github.com/noreba-sim/noreba/internal/compiler"
	"github.com/noreba-sim/noreba/internal/emulator"
	"github.com/noreba-sim/noreba/internal/pipeline"
	"github.com/noreba-sim/noreba/internal/program"
)

// maxWindowCycles bounds one representative's detailed window, mirroring
// RunContext's livelock guard at a scale proportionate to the short streams
// the sampler simulates.
const maxWindowCycles = 1 << 30

// Rep is one representative interval chosen by clustering: the detailed
// simulation unit. Its checkpoint holds the architectural state at the
// start of its detailed warmup span; the measurement window opens once
// WarmCommits instructions have committed (the warmup is simulated in
// detail but excluded from measurement) and closes MeasureCommits later,
// with the stream extended CooldownInsts past the interval so the window
// closes in steady state rather than against a draining pipeline.
type Rep struct {
	// Interval is the represented interval's index in the profile.
	Interval int
	// Weight is the fraction of the program's committed instructions this
	// representative stands for.
	Weight float64
	// ClusterCommitted is the committed-instruction mass of the cluster.
	ClusterCommitted int64
	// WarmStart is the dynamic-instruction index (stream position) where
	// detailed simulation begins. Everything before it is functionally
	// warmed: replayed from program start through the caches and predictor
	// at emulator speed, never through the pipeline.
	WarmStart int64
	// WarmCommits is the committed-instruction length of the warmup span.
	WarmCommits int64
	// MeasureCommits is the committed-instruction length of the measured
	// interval.
	MeasureCommits int64
	// SrcBound is the stream length (in delivered instructions, setup
	// included) the detailed window may consume: warmup + interval +
	// cooldown.
	SrcBound int64
	// PilotRep is this representative interval's normalised CPI under each
	// pilot run, and PilotCluster the committed-weighted mean of the same
	// over the whole cluster. The pilots observe every interval's timing, so
	// Estimate can correct the first-order bias of standing a whole cluster
	// on one member: it fits the target configuration's measured
	// representative CPIs as a blend of the pilot dimensions and rescales
	// each representative's cycle contribution by the blend's
	// cluster-mean-to-representative ratio.
	PilotRep     []float64
	PilotCluster []float64
	// WarmSnap is the architectural state at WarmStart — the detailed
	// window's entry point. Estimates restore it and install a cached
	// microarchitectural warm state, so the warm replay is paid once per
	// (plan, cache/predictor geometry) rather than once per representative
	// per configuration. On a loaded plan its memory maps hold only the
	// entries that differ from the image until windowSnap materializes it.
	WarmSnap emulator.Snapshot
}

// Plan is a compiled sampling schedule for one program image: the profile,
// the chosen representatives with their checkpoints, and everything needed
// to estimate any pipeline configuration's full-run statistics from
// detailed simulation of the representatives alone. A Plan is built once
// per (image, Params) and reused across configurations — the profiling and
// checkpoint cost amortises over every policy and core evaluated.
type Plan struct {
	// Name identifies the planned program.
	Name string
	// Params is the normalized sampling configuration the plan was built
	// under.
	Params Params
	// Profile is the interval profile the clustering ran on.
	Profile *Profile
	// Reps are the representatives, ordered by interval index.
	Reps []Rep
	// Full marks a degenerate plan: the program is so short that detailed
	// windows would cost at least as much as simulating everything, so
	// Estimate runs a plain full simulation instead (still tagged with
	// sampling provenance so the caller can see no reduction happened).
	Full bool

	img     *program.Image
	imgHash [32]byte // img.ContentHash(), computed once per built plan
	// windowSnaps holds a loaded plan's WarmSnaps, materialized on first
	// use (see windowSnap); nil on a built plan, whose WarmSnaps are whole.
	windowSnaps []lazySnap
	maxInsts    int64
	// offsets locates a decoded plan's header fields in its NRPF bytes, so
	// a binding mismatch names the offending field's offset.
	offsets struct{ params, maxInsts, imgHash int64 }
	// warmRate is the pilot run's cycles per delivered instruction for each
	// interval, and warmCum its prefix sum at interval starts (warmCum[j] is
	// the pilot cycle count at Intervals[j].Start; warmCum[n] at stream end).
	// Functional warming replays this schedule so the pseudo-clock's
	// in-flight horizon at window open matches a continuous run's.
	warmRate []float64
	warmCum  []float64

	// warm caches functionally-warmed microarchitectural state per
	// cache/predictor geometry: one warming replay serves every commit
	// policy and every representative window sharing the geometry (warming
	// never touches the pipeline model, so it is policy-independent). Built
	// lazily under a per-key once so concurrent estimates warm at most once.
	warmMu sync.Mutex
	warm   map[warmKey]*warmEntry
}

// warmKey is the subset of pipeline.Config that functional warming can
// observe: cache geometry and latencies, prefetcher setup, predictor kind
// and RAS depth. Commit policy, FreeSetup and ECL shape only the pipeline
// model, which warming never runs, so configurations differing only there
// share one warmed state.
type warmKey struct {
	l1i, l1d, l2, l3            int
	l1Lat, l2Lat, l3Lat, memLat int64
	ways                        int
	prefetch                    bool
	prefDegree, prefTable       int
	pred                        pipeline.PredictorKind
	ras                         int
}

func warmKeyOf(cfg pipeline.Config) warmKey {
	return warmKey{
		l1i: cfg.L1ISize, l1d: cfg.L1DSize, l2: cfg.L2Size, l3: cfg.L3Size,
		l1Lat: cfg.L1Lat, l2Lat: cfg.L2Lat, l3Lat: cfg.L3Lat, memLat: cfg.MemLat,
		ways:     cfg.CacheWays,
		prefetch: cfg.PrefetchEnabled, prefDegree: cfg.PrefetchDegree, prefTable: cfg.PrefetchTable,
		pred: cfg.Predictor,
		ras:  cfg.RASEntries,
	}
}

// warmEntry is one geometry's warmed state, one capture per representative.
// The replay publishes each capture as soon as it is taken, so a
// representative's window can start while the replay is still warming the
// ones after it.
type warmEntry struct {
	states []*pipeline.WarmState
	ready  []chan struct{} // ready[i] is closed once states[i] is set
	done   chan struct{}   // closed once the replay has ended
	err    error           // the replay's failure, if any; read after done
}

// wait returns representative i's warm state once the replay has published
// it, the replay's error if it ended without doing so, or ctx's cause.
func (e *warmEntry) wait(ctx context.Context, i int) (*pipeline.WarmState, error) {
	select {
	case <-e.ready[i]:
		return e.states[i], nil
	case <-e.done:
		select {
		case <-e.ready[i]:
			return e.states[i], nil
		default:
		}
		if e.err == nil {
			return nil, fmt.Errorf("warm replay published no state for representative %d", i)
		}
		return nil, e.err
	case <-ctx.Done():
		return nil, fmt.Errorf("waiting for warm state: %w", context.Cause(ctx))
	}
}

// warmCursor evaluates the pilot run's cumulative cycle count at stream
// positions, interpolated within intervals at the interval's rate. It keeps
// the interval the last position fell in, so the warm replay's
// non-decreasing positions cost one range check each and a forward step at
// interval boundaries, instead of a search of the profile per instruction;
// a position behind the cached interval restarts the walk.
type warmCursor struct {
	pl    *Plan
	j     int     // first interval ending after the last position sought
	lo, n int64   // the position range [lo, lo+n) the cached terms serve
	cum   float64 // pilot cycles at lo
	rate  float64 // pilot cycles per instruction from lo
}

func (c *warmCursor) at(pos int64) float64 {
	if d := pos - c.lo; uint64(d) < uint64(c.n) { // pos in [lo, lo+n)
		return c.cum + c.rate*float64(d)
	}
	return c.seek(pos)
}

// seek caches the interval holding pos — the first interval ending after it
// — and evaluates the clock there. Past the last interval the clock stands
// still at the run's total.
func (c *warmCursor) seek(pos int64) float64 {
	ivs := c.pl.Profile.Intervals
	if pos < c.lo {
		c.j = 0
	}
	for c.j < len(ivs) && ivs[c.j].Start+ivs[c.j].Insts <= pos {
		c.j++
	}
	if c.j >= len(ivs) {
		c.lo, c.n = pos, math.MaxInt64
		c.cum, c.rate = c.pl.warmCum[len(ivs)], 0
		return c.cum
	}
	iv := &ivs[c.j]
	c.lo, c.n = iv.Start, iv.Insts
	c.cum, c.rate = c.pl.warmCum[c.j], c.pl.warmRate[c.j]
	return c.cum + c.rate*float64(pos-c.lo)
}

// BuildPlan is BuildPlanContext with a background context.
func BuildPlan(img *program.Image, meta *compiler.Meta, maxInsts int64, p Params) (*Plan, error) {
	return BuildPlanContext(context.Background(), img, meta, maxInsts, p)
}

// BuildPlanContext profiles the image's dynamic instruction stream (bounded
// by maxInsts), clusters its intervals, selects representatives, and
// captures a checkpoint at each representative's detailed-window start via
// a second fast-forward execution pass. The profiling pass must end
// cleanly: a stream that terminates on a memory exception cannot be sampled
// (parity with the full-run path, which fails on the same error).
//
// Clustering runs on each interval's basic-block vector extended with
// timing columns: its CPI under one detailed pilot run of a fixed in-order
// reference configuration, plus functional memory-latency and branch-
// misprediction fingerprints (see fingerprintDims). Basic-block vectors
// alone identify code phases, but this simulator's kernels exhibit timing
// phases the code mix cannot see — cache and prefetcher feedback regimes
// where byte-identical instruction streams run at several times different
// IPC depending on the microarchitectural context they inherit, and
// branch-resolution regimes that only gate some commit policies. The timing
// columns separate those phases, and double as the control-variate basis
// that corrects representative bias at estimate time; their cost is paid
// once per (image, Params) and amortises across every configuration
// estimated from the plan.
func BuildPlanContext(ctx context.Context, img *program.Image, meta *compiler.Meta, maxInsts int64, p Params) (*Plan, error) {
	p = p.Normalize()
	if !p.Enabled {
		return nil, fmt.Errorf("sampling: BuildPlan with disabled params")
	}
	prof := BuildProfile(emulator.NewSource(emulator.New(img), maxInsts), p.IntervalLen)
	if prof.Err != nil {
		return nil, fmt.Errorf("sampling: %s: profiling pass failed: %w", prof.Name, prof.Err)
	}
	pl := &Plan{Name: prof.Name, Params: p, Profile: prof, img: img, imgHash: img.ContentHash(), maxInsts: maxInsts}
	if len(prof.Intervals) == 0 {
		pl.Full = true
		return pl, nil
	}

	// Degenerate-size precheck before paying for pilot runs: with k
	// representatives of (warmup + interval + cooldown) instructions each,
	// would sampling even halve the detailed-simulation cost?
	k := p.MaxK
	if n := len(prof.Intervals); k > n {
		k = n
	}
	perRep := p.IntervalLen*int64(1+p.warmupIntervals()) + p.cooldownInsts()
	if 2*int64(k)*perRep >= prof.TotalInsts {
		pl.Full = true
		return pl, nil
	}

	vecs := prof.vectors()
	// dims are the per-interval timing columns — the detailed pilot CPI
	// first (the primary control variate), then the functional memory and
	// branch fingerprints. Each is appended to the clustering vectors and
	// kept as the control-variate basis used to correct representative bias
	// at estimate time.
	//
	// The pilot and the fingerprint replay the same stream, so both hang off
	// one shared functional emulation (emulator.Broadcast) instead of
	// re-emulating: the bus pays one emulator pass for two consumers. The
	// profiling pass above stays separate by design — its output feeds the
	// degenerate-size precheck that decides whether the pilot is worth
	// paying for at all — and the checkpoint-capture pass below cannot join
	// either, because the capture positions are only known after clustering
	// has consumed the pilot's output.
	bus := emulator.NewBroadcast(emulator.NewSource(emulator.New(img), maxInsts), 0)
	pilotView := bus.View()
	fpView := bus.View()
	var fpDims [][]float64
	var fpErr error
	fpDone := make(chan struct{})
	go func() {
		defer close(fpDone)
		defer fpView.Close()
		fpDims, fpErr = fingerprintDims(ctx, fpView, prof)
	}()
	cpi, rate, err := pilotCPI(ctx, pilotView, meta, prof, pilotPolicy)
	pilotView.Close()
	<-fpDone
	if err == nil {
		err = fpErr
	}
	if err != nil {
		return nil, err
	}
	pl.warmRate = rate
	pl.warmCum = make([]float64, len(prof.Intervals)+1)
	for i := range prof.Intervals {
		pl.warmCum[i+1] = pl.warmCum[i] + rate[i]*float64(prof.Intervals[i].Insts)
	}
	dims := [][]float64{cpi}
	// Setup-annotation density: policies that fetch setup instructions
	// (FreeSetup off) pay per-interval costs proportional to it, and no
	// FreeSetup pilot or fingerprint can see them.
	setup := make([]float64, len(prof.Intervals))
	for i := range prof.Intervals {
		if iv := &prof.Intervals[i]; iv.Insts > 0 {
			setup[i] = float64(iv.Setup) / float64(iv.Insts)
		}
	}
	if nd := normalizeMean1(setup); nd != nil {
		dims = append(dims, nd)
	}
	dims = append(dims, fpDims...)
	pilot := make([][]float64, len(vecs))
	for nd, d := range dims {
		for i := range vecs {
			vecs[i] = append(vecs[i], d[i])
			if nd < 2 {
				pilot[i] = append(pilot[i], d[i])
			}
		}
	}
	assign := KMeans(vecs, p.MaxK, p.KMeansIters, p.Seed)
	pl.Reps = selectReps(prof, vecs, assign, pilot, p)

	var detail int64
	for i := range pl.Reps {
		detail += pl.Reps[i].SrcBound
	}
	if 2*detail >= prof.TotalInsts {
		// Sampling would not even halve the detailed-simulation cost:
		// short program, or warmup/cooldown dominating tiny intervals.
		// Running full costs little and keeps the result exact.
		pl.Full = true
		pl.Reps = nil
		return pl, nil
	}

	if err := pl.capture(); err != nil {
		return nil, err
	}
	return pl, nil
}

// pilotPolicy is the reference commit policy for the single detailed pilot
// run. In-order commit is the cheapest policy to simulate and exposes the
// phases gated by head-of-line blocking and serial dependence chains; the
// phase families it flattens — memory-context and branch-resolution regimes
// — are covered by the functional fingerprint columns instead of a second
// detailed pilot.
const pilotPolicy = pipeline.InOrder

// pilotCPI runs one detailed simulation of a fixed reference configuration
// (the Skylake core under the given commit policy) over src — typically a
// view of the shared build-time broadcast bus — and returns each interval's
// cycles-per-committed-instruction, normalised to the run's mean — one
// timing dimension appended to the clustering vectors — plus the raw cycles
// per delivered instruction (setup included), which drives the
// functional-warming pseudo-clock. Timing phases (cache, prefetcher,
// dependence-chain regimes) that basic-block vectors cannot see separate
// here; the cost is paid once per (image, Params) and amortises across
// every configuration estimated from the plan.
func pilotCPI(ctx context.Context, src emulator.TraceSource, meta *compiler.Meta, prof *Profile, pol pipeline.PolicyKind) ([]float64, []float64, error) {
	cfg := pipeline.SkylakeConfig()
	cfg.Policy = pol
	cfg.FreeSetup = true
	core := pipeline.NewCoreFromSource(cfg, src, meta)

	crossings := make([]int64, len(prof.Intervals))
	var cum int64
	for i := range prof.Intervals {
		cum += prof.Intervals[i].Committed()
		crossings[i] = cum
	}
	cpi := make([]float64, len(prof.Intervals))
	rate := make([]float64, len(prof.Intervals))
	done := ctx.Done()
	var cycle, lastCycle, lastCom int64
	next := 0
	for !core.Done() && next < len(crossings) {
		if done != nil && cycle%4096 == 0 {
			select {
			case <-done:
				return nil, nil, fmt.Errorf("sampling: %s: pilot cancelled: %w", prof.Name, context.Cause(ctx))
			default:
			}
		}
		if cycle > maxWindowCycles {
			return nil, nil, fmt.Errorf("sampling: %s: pilot livelock at cycle %d", prof.Name, cycle)
		}
		core.Step()
		cycle++
		if serr := core.SanityErr(); serr != nil {
			return nil, nil, fmt.Errorf("sampling: %s: pilot: %w", prof.Name, serr)
		}
		for next < len(crossings) && core.CommittedCount() >= crossings[next] {
			com := core.CommittedCount() - lastCom
			if com > 0 {
				cpi[next] = float64(cycle-lastCycle) / float64(com)
			}
			if iv := &prof.Intervals[next]; iv.Insts > 0 {
				rate[next] = float64(cycle-lastCycle) / float64(iv.Insts)
			}
			lastCycle, lastCom = cycle, core.CommittedCount()
			next++
		}
	}
	// Normalise the CPI column to mean 1 so the timing dimension is
	// commensurate with the L1-normalised block dimensions; empty slots in
	// either column get the mean.
	fillMean(rate)
	var sum float64
	var n int
	for _, c := range cpi {
		if c > 0 {
			sum += c
			n++
		}
	}
	if n == 0 {
		return cpi, rate, nil
	}
	mean := sum / float64(n)
	for i, c := range cpi {
		if c > 0 {
			cpi[i] = c / mean
		} else {
			cpi[i] = 1
		}
	}
	return cpi, rate, nil
}

// fillMean replaces non-positive entries with the mean of the positive ones
// (or 1 if there are none): intervals a multi-interval commit crossing
// skipped still need a defined warm-clock rate.
func fillMean(d []float64) {
	var sum float64
	var n int
	for _, x := range d {
		if x > 0 {
			sum += x
			n++
		}
	}
	mean := 1.0
	if n > 0 {
		mean = sum / float64(n)
	}
	for i, x := range d {
		if x <= 0 {
			d[i] = mean
		}
	}
}

// selectReps turns a cluster assignment into representatives: per cluster,
// the member interval closest to the cluster centroid (lowest index on
// ties), weighted by the cluster's committed-instruction mass and carrying
// the pilot control-variate basis for its cycle correction.
func selectReps(prof *Profile, vecs [][]float64, assign []int, pilot [][]float64, p Params) []Rep {
	k := 0
	for _, c := range assign {
		if c+1 > k {
			k = c + 1
		}
	}
	dim := 0
	if len(vecs) > 0 {
		dim = len(vecs[0])
	}
	// Final centroids of the assignment (means), then argmin member.
	sums := make([][]float64, k)
	counts := make([]int, k)
	for c := range sums {
		sums[c] = make([]float64, dim)
	}
	for i, c := range assign {
		counts[c]++
		for j, x := range vecs[i] {
			sums[c][j] += x
		}
	}
	repIdx := make([]int, k)
	bestD := make([]float64, k)
	for c := range repIdx {
		repIdx[c] = -1
	}
	for i, c := range assign {
		if counts[c] == 0 {
			continue
		}
		// Distance to the centroid scaled by counts[c] to avoid dividing
		// the sums: argmin over members is unchanged.
		var d float64
		for j, x := range vecs[i] {
			diff := x*float64(counts[c]) - sums[c][j]
			d += diff * diff
		}
		if repIdx[c] < 0 || d < bestD[c] {
			repIdx[c], bestD[c] = i, d
		}
	}

	total := prof.TotalCommitted()
	if total <= 0 {
		total = 1
	}
	var reps []Rep
	for c := 0; c < k; c++ {
		ri := repIdx[c]
		if ri < 0 {
			continue // empty cluster (k > intervals)
		}
		nd := len(pilot[ri])
		var clusterCommitted int64
		clusterPilot := make([]float64, nd)
		for i, ci := range assign {
			if ci == c {
				com := prof.Intervals[i].Committed()
				clusterCommitted += com
				for j := 0; j < nd; j++ {
					clusterPilot[j] += pilot[i][j] * float64(com)
				}
			}
		}
		if clusterCommitted > 0 {
			for j := range clusterPilot {
				clusterPilot[j] /= float64(clusterCommitted)
			}
		}
		warmIdx := max(ri-p.warmupIntervals(), 0)
		var warmCommits int64
		for i := warmIdx; i < ri; i++ {
			warmCommits += prof.Intervals[i].Committed()
		}
		iv := &prof.Intervals[ri]
		end := iv.Start + iv.Insts
		warmStart := prof.Intervals[warmIdx].Start
		reps = append(reps, Rep{
			Interval:         ri,
			Weight:           float64(clusterCommitted) / float64(total),
			ClusterCommitted: clusterCommitted,
			WarmStart:        warmStart,
			WarmCommits:      warmCommits,
			MeasureCommits:   iv.Committed(),
			SrcBound:         end - warmStart + p.cooldownInsts(),
			PilotRep:         cloneVec(pilot[ri]),
			PilotCluster:     clusterPilot,
		})
	}
	// Order by interval index so the capture pass walks the stream forward.
	for i := 1; i < len(reps); i++ {
		for j := i; j > 0 && reps[j].Interval < reps[j-1].Interval; j-- {
			reps[j], reps[j-1] = reps[j-1], reps[j]
		}
	}
	return reps
}

// capture executes the program once more, functionally, pausing at each
// representative's detailed-window start to snapshot architectural state
// (WarmSnap). The representatives are ordered by interval, so their starts
// are non-decreasing and one forward pass visits them all. Only the needed
// checkpoints are held — never one per interval boundary — so plan memory
// is O(k · architectural state).
func (pl *Plan) capture() error {
	m := emulator.New(pl.img)
	var d emulator.DynInst
	var pos int64
	for i := range pl.Reps {
		for ; pos < pl.Reps[i].WarmStart; pos++ {
			if err := m.StepInto(&d); err != nil {
				return fmt.Errorf("sampling: %s: fast-forward to %d: %w",
					pl.Name, pl.Reps[i].WarmStart, err)
			}
		}
		pl.Reps[i].WarmSnap = m.Snapshot()
	}
	return nil
}

// DetailInsts returns the number of dynamic instructions the plan simulates
// in detail per configuration — the sampler's cost, versus the profile's
// TotalInsts for a full run.
func (pl *Plan) DetailInsts() int64 {
	if pl.Full {
		return pl.Profile.TotalInsts
	}
	var n int64
	for i := range pl.Reps {
		n += pl.Reps[i].SrcBound
	}
	return n
}

// Estimate is EstimateContext with a background context.
func (pl *Plan) Estimate(cfg pipeline.Config, meta *compiler.Meta) (*pipeline.Stats, error) {
	return pl.EstimateContext(context.Background(), cfg, meta)
}

// warmEntryFor returns the warm entry for cfg's geometry. run reports that
// the caller created it and must run its replay (runWarm); everyone else
// waits on the entry, so concurrent estimates warm each geometry at most
// once.
func (pl *Plan) warmEntryFor(cfg pipeline.Config) (e *warmEntry, key warmKey, run bool) {
	key = warmKeyOf(cfg)
	pl.warmMu.Lock()
	defer pl.warmMu.Unlock()
	if pl.warm == nil {
		pl.warm = map[warmKey]*warmEntry{}
	}
	if e = pl.warm[key]; e != nil {
		return e, key, false
	}
	e = &warmEntry{
		states: make([]*pipeline.WarmState, len(pl.Reps)),
		ready:  make([]chan struct{}, len(pl.Reps)),
		done:   make(chan struct{}),
	}
	for i := range e.ready {
		e.ready[i] = make(chan struct{})
	}
	pl.warm[key] = e
	return e, key, true
}

// runWarm runs e's replay under ctx, publishing each capture as it is taken.
// A failed replay leaves its error for e's waiters. A cancelled one is also
// dropped from the plan, like a cancelled plan build in the experiment
// runner: the next estimate replays afresh instead of inheriting the
// cancellation, while deterministic failures stay cached.
func (pl *Plan) runWarm(ctx context.Context, key warmKey, e *warmEntry, cfg pipeline.Config) {
	err := pl.buildWarmStates(ctx, cfg, func(i int, ws *pipeline.WarmState) {
		e.states[i] = ws
		close(e.ready[i])
	})
	if err != nil {
		e.err = err
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			pl.warmMu.Lock()
			if pl.warm[key] == e {
				delete(pl.warm, key)
			}
			pl.warmMu.Unlock()
		}
	}
	close(e.done)
}

// buildWarmStates replays the stream from program start through a
// functional model of cfg's geometry and hands each representative's
// captured state to publish, in representative order, as soon as it is
// taken. The representatives are interval-sorted, so their warm spans are
// nested prefixes of the stream: one sequential replay on the pilot's
// absolute cycle schedule serves all of them, capturing at each boundary
// and shifting that capture's cache timestamps so its clock ends at 0
// (timing is linear in the clock — see cache.Hierarchy.ShiftClock).
func (pl *Plan) buildWarmStates(ctx context.Context, cfg pipeline.Config, publish func(int, *pipeline.WarmState)) error {
	// The pilot cycle count after pos instructions.
	cur := &warmCursor{pl: pl}
	cycleAt := func(pos int64) int64 { return int64(cur.at(pos)) }
	// Warm in segments on one persistent machine, capturing at each
	// boundary between segments.
	m := emulator.New(pl.img)
	ws := pipeline.NewWarmState(cfg)
	pos := int64(0)
	for next := 0; next < len(pl.Reps); {
		bound := pl.Reps[next].WarmStart
		if span := bound - pos; span > 0 {
			src := emulator.NewSource(m, span)
			start := pos
			clock := func(i int64) int64 { return cycleAt(start + i + 1) }
			if err := ws.Replay(ctx, src, clock, nil); err != nil {
				return err
			}
			pos += src.Counts().Insts
			if pos != bound {
				return fmt.Errorf("warm replay ended at %d before rep %d boundary %d", pos, next, bound)
			}
		}
		for next < len(pl.Reps) && pl.Reps[next].WarmStart == bound {
			c := ws.Capture()
			c.ShiftClock(-cycleAt(bound))
			publish(next, c)
			next++
		}
	}
	return nil
}

// EstimateContext is EstimateContextN with a serial (single-worker) window
// schedule.
func (pl *Plan) EstimateContext(ctx context.Context, cfg pipeline.Config, meta *compiler.Meta) (*pipeline.Stats, error) {
	return pl.EstimateContextN(ctx, cfg, meta, 1)
}

// EstimateContextN simulates each representative's detailed window under cfg
// and extrapolates full-run statistics: per-cluster counter rates scaled to
// the cluster's committed-instruction mass and summed. The returned Stats
// carries sampling provenance (Sampled, SampledIntervals,
// SampledDetailInsts) and exact values for the fields the profile knows
// outright (Committed, TraceInsts).
//
// workers bounds how many goroutines run windows concurrently (≤ 1 means
// serial). The first estimate of a cache/predictor geometry also runs its
// warm replay: serially before the windows, or on the first worker, which
// joins the windows once the replay is done while the others start each
// window as soon as its representative's warm state is published. Each
// window restores its own emulator.Machine from the representative's
// WarmSnap and resets a private core over the shared warmed state, so
// windows share nothing mutable; results land in a slice indexed by
// representative, and the extrapolation consumes them in interval order —
// the estimate is byte-identical for every worker count.
func (pl *Plan) EstimateContextN(ctx context.Context, cfg pipeline.Config, meta *compiler.Meta, workers int) (*pipeline.Stats, error) {
	if pl.Full {
		src := emulator.NewSource(emulator.New(pl.img), pl.maxInsts)
		st, err := pipeline.NewCoreFromSource(cfg, src, meta).RunContext(ctx)
		if err != nil {
			return nil, fmt.Errorf("sampling: %s under %v: %w", pl.Name, cfg.Policy, err)
		}
		st.Sampled = true
		st.SampledIntervals = 0
		st.SampledDetailInsts = st.TraceInsts
		return st, nil
	}

	e, key, replay := pl.warmEntryFor(cfg)
	ms := make([]measured, len(pl.Reps))
	details := make([]int64, len(pl.Reps))
	if workers > len(pl.Reps) {
		workers = len(pl.Reps)
	}
	if workers <= 1 {
		if replay {
			pl.runWarm(ctx, key, e, cfg)
		}
		for i := range pl.Reps {
			if err := pl.measureRep(ctx, cfg, meta, i, e, &ms[i], &details[i]); err != nil {
				return nil, err
			}
		}
	} else {
		var (
			wg   sync.WaitGroup
			next atomic.Int64
			stop atomic.Bool
		)
		errs := make([]error, len(pl.Reps))
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				if w == 0 && replay {
					pl.runWarm(ctx, key, e, cfg)
				}
				for !stop.Load() {
					i := int(next.Add(1) - 1)
					if i >= len(pl.Reps) {
						return
					}
					if err := pl.measureRep(ctx, cfg, meta, i, e, &ms[i], &details[i]); err != nil {
						errs[i] = err
						stop.Store(true)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}

	// With every representative measured under cfg, fit the pilot blend and
	// apply each representative's cycle correction before extrapolating.
	for i, s := range pilotScales(pl.Reps, ms) {
		ms[i].cycleScale = s
	}

	var detail int64
	for _, d := range details {
		detail += d
	}
	est := extrapolate(ms)
	est.Name = pl.Name
	est.Policy = cfg.Policy.String()
	// Fields the profile knows exactly — no reason to carry rounding error.
	est.Committed = pl.Profile.TotalCommitted()
	est.TraceInsts = pl.Profile.TotalInsts
	est.Sampled = true
	est.SampledIntervals = len(pl.Reps)
	est.SampledDetailInsts = detail
	return &est, nil
}

// windowCores parks detailed-window cores between windows, estimates and
// plans: a parked core keeps its storage (see pipeline.Core.Reset), so a
// window on a recycled core allocates nothing in the pipeline model. The
// list is bounded — it only ever holds as many cores as windows once ran
// at the same time, at most maxParkedCores — and, unlike a sync.Pool, is
// not emptied by garbage collection, so a fresh runner's first estimate
// also runs on warmed-up storage.
var windowCores struct {
	sync.Mutex
	free []*pipeline.Core
}

const maxParkedCores = 16

// recycleCores enables windowCores; tests turn it off to compare recycled
// estimates against fresh-core ones.
var recycleCores = true

func getWindowCore() *pipeline.Core {
	if recycleCores {
		windowCores.Lock()
		defer windowCores.Unlock()
		if n := len(windowCores.free); n > 0 {
			c := windowCores.free[n-1]
			windowCores.free = windowCores.free[:n-1]
			return c
		}
	}
	return new(pipeline.Core)
}

func putWindowCore(c *pipeline.Core) {
	c.Release()
	if recycleCores {
		windowCores.Lock()
		defer windowCores.Unlock()
		if len(windowCores.free) < maxParkedCores {
			windowCores.free = append(windowCores.free, c)
		}
	}
}

// measureRep runs one representative's detailed window: wait for its warmed
// microarchitectural state, restore the window-entry checkpoint, reset a
// core over the warmed state, and simulate warmup + measurement.
func (pl *Plan) measureRep(ctx context.Context, cfg pipeline.Config, meta *compiler.Meta, i int, e *warmEntry, out *measured, detail *int64) error {
	rep := &pl.Reps[i]
	snap := pl.windowSnap(i) // before waiting: overlaps the replay
	ws, err := e.wait(ctx, i)
	if err != nil {
		return fmt.Errorf("sampling: %s interval %d under %v: %w", pl.Name, rep.Interval, cfg.Policy, err)
	}
	m := emulator.NewRestored(pl.img, snap)
	// Seq is rebased before the first pull because sequence numbers double
	// as window indices in the pipeline's dependence tracking.
	m.RebaseSeq()
	src := emulator.NewSource(m, rep.SrcBound)
	core := getWindowCore()
	defer putWindowCore(core)
	core.Reset(cfg, src, meta, ws)
	warm, end, err := runWindow(ctx, core, pl.Name, rep.Interval, cfg.Policy,
		rep.WarmCommits, rep.WarmCommits+rep.MeasureCommits)
	if err != nil {
		return err
	}
	if err := src.Err(); err != nil {
		return fmt.Errorf("sampling: %s interval %d under %v: source: %w",
			pl.Name, rep.Interval, cfg.Policy, err)
	}
	*out = measured{
		delta:     deltaStats(end, warm),
		committed: end.Committed - warm.Committed,
		weight:    rep.ClusterCommitted,
	}
	*detail = src.Counts().Insts
	return nil
}

// runWindow steps the core until the measurement window has closed: warm
// statistics are snapshotted at the first commit-count crossing of
// warmTarget (the pre-step state when warmTarget is 0, so counters inflated
// by functional warming still cancel), end statistics at the crossing of
// endTarget — or at stream completion, whichever comes first. Mirrors
// RunContext's cancellation cadence and livelock guard. Errors carry full
// provenance — workload, representative interval and commit policy — so
// callers never have to re-wrap them.
func runWindow(ctx context.Context, core *pipeline.Core, name string, interval int, policy pipeline.PolicyKind, warmTarget, endTarget int64) (warm, end pipeline.Stats, err error) {
	done := ctx.Done()
	warmTaken := warmTarget == 0
	if warmTaken {
		warm = core.StatsSnapshot()
	}
	var cycle int64
	for !core.Done() {
		if done != nil && cycle%4096 == 0 {
			select {
			case <-done:
				return warm, end, fmt.Errorf("sampling: %s interval %d under %v: window cancelled at cycle %d: %w",
					name, interval, policy, cycle, context.Cause(ctx))
			default:
			}
		}
		if cycle > maxWindowCycles {
			return warm, end, fmt.Errorf("sampling: %s interval %d under %v: window livelock: %d cycles at %d committed",
				name, interval, policy, cycle, core.CommittedCount())
		}
		core.Step()
		cycle++
		if serr := core.SanityErr(); serr != nil {
			return warm, end, fmt.Errorf("sampling: %s interval %d under %v: %w", name, interval, policy, serr)
		}
		c := core.CommittedCount()
		if !warmTaken && c >= warmTarget {
			warm = core.StatsSnapshot()
			warmTaken = true
		}
		if warmTaken && c >= endTarget {
			return warm, core.StatsSnapshot(), nil
		}
	}
	// Stream complete before the end target: the cooldown tail was shorter
	// than the stream's remainder (last interval of the program). The final
	// state is the window close.
	if !warmTaken {
		warm = core.StatsSnapshot()
	}
	return warm, core.StatsSnapshot(), nil
}
