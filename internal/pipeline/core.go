package pipeline

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"github.com/noreba-sim/noreba/internal/branchpred"
	"github.com/noreba-sim/noreba/internal/cache"
	"github.com/noreba-sim/noreba/internal/compiler"
	"github.com/noreba-sim/noreba/internal/emulator"
	"github.com/noreba-sim/noreba/internal/isa"
	"github.com/noreba-sim/noreba/internal/prefetch"
	"github.com/noreba-sim/noreba/internal/sanity"
	"github.com/noreba-sim/noreba/internal/trace"
)

// Core replays one dynamic instruction stream through the cycle-level
// pipeline model under a given configuration and commit policy. The stream
// is consumed through a bounded sliding window: the core addresses
// instructions by trace index, the window pulls them from the source on
// demand and releases them once committed, so memory is proportional to the
// in-flight span rather than the stream length.
//
// The hot loop is event-driven: instead of rescanning the ROB every cycle,
// the core keeps the derived state the scans used to recompute up to date
// at the events that change it — a ready set fed by producer-to-consumer
// wakeups at writeback, a commit-candidate set fed at the event that first
// makes each instruction retirable, Seq-keyed branch sets updated at
// dispatch, resolution, commit and squash, blocker deques tracking the
// oldest instruction that still pins each policy's commit boundary, the
// window's commit and memory frontiers moved only when the record at one
// commits or records load behind it, and a cycle-indexed completion wheel.
// A cycle in which nothing can happen is fast-forwarded (see step).
// The ready and candidate sets are ordered by dispatchOrder — the order
// the old code scanned the ROB slice in — so cycle-level behaviour is
// bit-identical; every ordered set is an O(1) ring with a membership
// bitmap (entrySet). Each record is decoded once, when the window loads it.
// The sanitizer (Config.Sanitize) re-derives all of it from scratch each
// cycle and cross-checks the incremental state.
type Core struct {
	cfg    Config
	win    *window
	meta   *compiler.Meta
	policy policy

	pred   branchpred.Predictor
	ras    *branchpred.RAS
	dcache *cache.Hierarchy
	icache *cache.Hierarchy
	dcpt   *prefetch.DCPT
	// ownsMem reports that dcache and icache are private to this core (not
	// shared through ShareLLC), so Reset may rebuild them in place.
	ownsMem bool

	cycle int64

	// Front end.
	cursor            int // next trace index to fetch
	fetchStalledUntil int64
	fetchBlockedBy    *Entry // unresolved branch with no reconvergence window
	pendingBubbles    int    // wrong-path fetch slots still to burn
	windowFetched     int
	ifq               entryDeque

	// Back end: the ROB is an intrusive doubly-linked list in dispatch
	// order (dispatched, uncommitted-or-awaiting-completion, in order), so
	// removal is O(1) and commit walks start at the head.
	robHead, robTail *Entry
	robCount         int

	storeQueue  []*Entry
	regProducer [isa.NumRegs]*Entry

	// nextDispatchOrder numbers ROB entries as they dispatch.
	nextDispatchOrder int64

	// Event-driven issue: dispatched, unissued entries whose waits counter
	// hit zero, keyed by dispatch order. stepIssue walks this instead of
	// the ROB.
	readyQ entrySet

	// Event-driven commit: entries that have passed the event that first
	// makes them retirable under the configured policy (see candMode),
	// keyed by dispatch order. eligible() remains the authoritative recheck
	// at commit time.
	candQ    entrySet
	candMode candMode
	// walk holds the eligibility rules of the policy's candidate walk.
	walk walkRules
	// memWait holds the armed memory ops and fences of a memory-ordered
	// walk that are not yet on the memory frontier, keyed by trace index:
	// they cannot retire until every older one has, so they join candQ
	// only when a commit moves the frontier onto them (see candArm).
	memWait entrySet

	// Policy-selected incremental boundary trackers (see deques in sched.go).
	needBlockers bool     // NonSpecOoO
	needTransMem bool     // IdealReconv, SpecBR
	needUnmarked bool     // Noreba, IdealReconv
	blockers     refDeque // unresolved-branch / untranslated-memory boundary
	untransMem   refDeque // untranslated-memory trap boundary

	// Committed-before-completion entries still resident in the ROB. Their
	// position can block positional commit walks (residentCutoff).
	committedResidents []*Entry

	// Live (dispatched, uncommitted, unsquashed) conditional branches keyed
	// by Seq.
	liveBranches entrySet

	// Unresolved conditional branches keyed by Seq, maintained eagerly at
	// resolve/squash; unmarkedUnresolved is the BranchID==0 subset.
	unresolvedBranches entrySet
	unmarkedUnresolved entrySet

	// Pending mispredicted-but-unresolved conditional branches (fetch-time
	// knowledge standing in for wrong-path fetch).
	pendingMisp []*Entry

	// Resource occupancy.
	robOcc, iqOcc, lqOcc, sqOcc, physUsed int

	// Functional-unit busy state (unpipelined dividers).
	intDivBusyUntil, fpDivBusyUntil int64

	// Completion events, bucketed by cycle.
	wheel complWheel

	// Entry recycling: drained entries collect in dead (their fields stay
	// readable for the rest of the cycle) and return to the pool at the next
	// fetch stage.
	pool entryPool
	dead []*Entry

	// Retirement bookkeeping. Per-instruction flags and the commit and
	// memory frontiers live in the window.
	highWater int // maximum cursor value ever reached

	// Observability and checking layers (nil/false when disabled).
	sink    trace.Sink
	traceOn bool
	san     *sanitizer
	sanErr  *sanity.Error

	// Idle-cycle fast-forward (see step). activity counts the events that
	// can change what a later cycle does: commits, live completions,
	// issues, dispatches, fetched records, fetch bubbles, icache accesses
	// and Selective ROB steers. idleSteps counts the consecutive full steps
	// that moved it not at all; after two, the cycles [idleFrom, idleUntil)
	// are fast-forwarded: each adds idleDelta to the counters and charges
	// idleStall (the oldest unresolved branch's record, or nil) one stall
	// cycle. The fast path itself only advances the clock; flushIdle adds
	// the skipped cycles' counts in one go before anything reads them.
	// skipIdle is off where something outside the core's own events can
	// change a cycle: the sanitizer and trace sink (which observe every
	// cycle), a fence gate and shared memory (other cores' state).
	activity   int64
	idleSteps  int
	skipIdle   bool
	idleFrom   int64
	idleUntil  int64
	idleBefore idleCounters
	idleDelta  idleCounters
	idleStall  *BranchStall

	stats Stats
}

// walkRules are the commit conditions a candidate walk applies (see
// eligible and depSatisfied).
type walkRules struct {
	memOrder, completion, dep bool
}

// candMode selects the event that arms an instruction as a commit candidate
// — the earliest event after which the policy's eligibility test could ever
// pass for it. Under a memory-ordered walk (walkRules.memOrder) an armed
// memory op or fence joins candQ only once it is on the memory frontier
// (candArm).
type candMode uint8

const (
	// candNone: the policy does not walk candidates (InOrder commits from
	// the ROB head, Noreba from its commit queues).
	candNone candMode = iota
	// candCompletion: Condition-1 policies (NonSpecOoO). Everything arms at
	// the commit stage of its completion cycle; ECL loads arm at issue
	// (they may retire on translation alone).
	candCompletion
	// candRelaxed: relaxed-Condition-1 policies (IdealReconv, SpecBR, Spec).
	// Non-memory, non-control instructions arm at dispatch, memory ops at
	// issue (translation), control transfers at resolution.
	candRelaxed
)

// maxCycles guards against livelock in the model; runs this long indicate
// a modelling bug and are reported as an error.
const maxCycles = int64(1) << 33

// cancelCheckCycles is how often runLockstep polls its context: a
// non-blocking channel read every 4096 simulated cycles, cheap enough to be
// invisible in profiles while bounding cancellation latency to well under a
// millisecond of wall clock.
const cancelCheckCycles = 4096

// NewCoreFromSource builds a core consuming the instruction stream. meta may
// be nil (unannotated program). The source is drained incrementally; peak
// buffering is bounded by the in-flight span and reported in
// Stats.WindowPeak. The caches, predictor, prefetcher and RAS start empty,
// as NewWarmState builds them.
func NewCoreFromSource(cfg Config, src emulator.TraceSource, meta *compiler.Meta) *Core {
	c := &Core{}
	c.resetShell(cfg, src, meta)
	ws := NewWarmState(cfg)
	c.dcache, c.icache, c.ownsMem = ws.dcache, ws.icache, true
	c.pred, c.ras, c.dcpt = ws.pred, ws.ras, ws.dcpt
	return c
}

// Reset re-initialises c in place as a core consuming src under cfg whose
// entire microarchitectural state — caches, predictor, prefetcher table and
// RAS — comes from the warm-state capture ws: the core a fresh
// NewCoreFromSource would be after running the warming that produced ws.
// ws must come from a core with the same cache and predictor geometry as
// cfg. A zero Core is a valid receiver. A used one keeps its storage — the
// entry pool, window chunks, completion wheel, queue capacity, the caches'
// set indexes and storage chunks and the predictor, RAS and prefetcher
// tables, which ws is copied into — so a detailed sample window on a
// recycled core allocates nothing once the storage has grown to the
// window's needs. The caches are
// installed as copy-on-write clones over ws's frozen hierarchies: a window
// touches a tiny fraction of the warmed lower levels, so sharing the capture
// and materializing touched sets lazily replaces a per-window copy. ws must
// not be mutated while a core reset over it is live (captures are shifted
// once at capture time, then only read).
func (c *Core) Reset(cfg Config, src emulator.TraceSource, meta *compiler.Meta, ws *WarmState) {
	dcache, icache := c.dcache, c.icache
	if !c.ownsMem {
		dcache, icache = nil, nil // shared via ShareLLC: never write into it
	}
	pred, ras, dcpt := c.pred, c.ras, c.dcpt
	c.resetShell(cfg, src, meta)

	if dcache == nil {
		dcache = new(cache.Hierarchy)
	}
	if icache == nil {
		icache = new(cache.Hierarchy)
	}
	dcache.ResetCOW(ws.dcache)
	icache.ResetCOW(ws.icache)
	c.dcache, c.icache, c.ownsMem = dcache, icache, true
	c.pred = branchpred.CloneInto(pred, ws.pred)
	if ras == nil {
		ras = new(branchpred.RAS)
	}
	ras.CopyFrom(ws.ras)
	c.ras = ras
	if ws.dcpt != nil {
		if dcpt == nil {
			dcpt = new(prefetch.DCPT)
		}
		dcpt.CopyFrom(ws.dcpt)
		c.dcpt = dcpt
	}
}

// Release drops the core's references to its stream, program metadata,
// trace sink and the warm state its caches read through, keeping only its
// storage: a core parked for a later Reset pins nothing of the run it
// finished. The core is unusable until the next Reset.
func (c *Core) Release() {
	c.win.detach()
	c.meta = nil
	c.cfg.TraceSink, c.sink, c.traceOn = nil, nil, false
	c.san = nil
	if c.ownsMem {
		c.dcache.ReleaseCOW()
		c.icache.ReleaseCOW()
	}
}

// resetShell re-initialises everything of a core except the
// microarchitectural state (caches, predictor, prefetcher, RAS), which the
// caller supplies. Per-run state starts from zero exactly as in a new core;
// storage the previous run grew — entries, window chunks, wheel buckets,
// queue backing arrays, the Selective ROB's structures — is kept.
func (c *Core) resetShell(cfg Config, src emulator.TraceSource, meta *compiler.Meta) {
	old := *c
	*c = Core{cfg: cfg, meta: meta}
	c.win = old.win.reset(src, cfg.Selective.BITSize)
	c.pool = old.pool
	c.pool.reclaim()
	// The wheel horizon covers the longest issue-to-complete latency: a
	// full-miss demand access behind in-flight fills, plus slack for
	// divider latency and store-forwarding adjustments. It grows on demand
	// if a configuration exceeds it.
	c.wheel = old.wheel
	c.wheel.reset(cfg.L1Lat + cfg.L2Lat + cfg.L3Lat + cfg.MemLat + 64)
	c.ifq = old.ifq.cleared()
	c.blockers = old.blockers.cleared()
	c.untransMem = old.untransMem.cleared()
	c.storeQueue = old.storeQueue[:0]
	c.readyQ = old.readyQ.cleared()
	c.candQ = old.candQ.cleared()
	c.memWait = old.memWait.cleared()
	c.committedResidents = old.committedResidents[:0]
	c.liveBranches = old.liveBranches.cleared()
	c.unresolvedBranches = old.unresolvedBranches.cleared()
	c.unmarkedUnresolved = old.unmarkedUnresolved.cleared()
	c.pendingMisp = old.pendingMisp[:0]
	c.dead = old.dead[:0]
	c.policy = resetPolicy(old.policy, cfg)
	switch cfg.Policy {
	case NonSpecOoO:
		c.candMode = candCompletion
		c.walk = walkRules{memOrder: true, completion: true}
		c.needBlockers = true
	case IdealReconv:
		c.candMode = candRelaxed
		c.walk = walkRules{memOrder: true, dep: true}
		c.needTransMem = true
		c.needUnmarked = true
	case SpecBR:
		c.candMode = candRelaxed
		c.walk = walkRules{memOrder: true}
		c.needTransMem = true
	case Spec:
		c.candMode = candRelaxed
	case Noreba:
		c.needUnmarked = true
	}
	c.skipIdle = !cfg.Sanitize && cfg.TraceSink == nil && cfg.FenceGate == nil
	c.stats.Name = src.Name()
	c.stats.Policy = cfg.Policy.String()
	if cfg.TraceSink != nil {
		c.sink, c.traceOn = cfg.TraceSink, true
	}
	if cfg.Sanitize {
		c.san = newSanitizer(c)
	}
}

// NewCore builds a core replaying a materialized trace. meta may be nil
// (unannotated program).
func NewCore(cfg Config, tr *emulator.Trace, meta *compiler.Meta) *Core {
	return NewCoreFromSource(cfg, tr.Source(), meta)
}

// ShareLLC points the L3 of every core's data and instruction hierarchies at
// one cache, core 0's data-side L3, before the cores' first step. Other
// cores' accesses change it, so the cores stop fast-forwarding idle cycles,
// and Reset never writes into their hierarchies.
func ShareLLC(cores []*Core) {
	llc := cores[0].dcache.Levels[2]
	for _, c := range cores {
		c.dcache.Levels[2], c.icache.Levels[2] = llc, llc
		c.ownsMem, c.skipIdle = false, false
	}
}

// done reports whether every stream instruction has committed: the commit
// frontier has passed the end of the stream.
func (c *Core) done() bool { return !c.win.ensure(c.win.frontier) }

// step advances the core by one cycle; runLockstep is its one caller.
//
// A cycle in which nothing happens is not simulated stage by stage. Once two
// consecutive steps have changed nothing (activity did not move), the next
// cycle that can differ is the next event: a completion in the wheel, the
// end of a fetch stall, the fetch-queue head becoming dispatchable, or a
// divider freeing up. Every time-dependent condition the stages test is one
// of those, or a translation that lands the cycle after its issue (already
// past two idle steps later), so each cycle before that event would repeat
// the second idle step exactly. Those steps only advance the clock, and
// flushIdle adds the second step's counter deltas for all of them at once;
// the event's own cycle runs in full.
func (c *Core) step() {
	if c.cycle < c.idleUntil {
		c.cycle++
		return
	}
	if c.idleFrom < c.idleUntil {
		c.flushIdle()
	}
	activity := c.activity
	if c.idleSteps == 1 {
		c.idleBefore.readFrom(&c.stats)
	}
	c.stepCommit()
	c.stepComplete()
	c.stepIssue()
	c.stepDispatch()
	c.stepFetch()
	c.stats.ROBOccupancy += int64(c.robOcc)
	c.policy.accumulate(c)
	c.cycle++

	// Everything below both the commit frontier and the fetch cursor is
	// retired and can never be re-fetched (after a recovery the frontier may
	// run ahead of the cursor through the OoO-committed replay region, so
	// the cursor bounds the release too).
	bound := c.win.frontier
	if c.cursor < bound {
		bound = c.cursor
	}
	c.win.release(bound)

	if c.san != nil {
		c.san.endCycle(c)
	}
	if c.skipIdle {
		c.noteIdle(activity)
	}
}

// noteIdle tracks consecutive idle steps and arms the fast-forward after the
// second: it records that step's counter deltas and the stall charge, and
// fast-forwards every cycle before the next event. A fast-forward ends with
// the count at zero, so the event cycle and the one after it are both run
// in full before the next one is armed.
func (c *Core) noteIdle(activity int64) {
	if c.activity != activity {
		c.idleSteps = 0
		return
	}
	c.idleSteps++
	if c.idleSteps < 2 {
		return
	}
	var after idleCounters
	after.readFrom(&c.stats)
	c.idleDelta = after.minus(&c.idleBefore)
	c.idleStall = nil
	if b := c.oldestUnresolvedBranch(); b != nil {
		c.idleStall = c.stats.BranchStalls[b.pc]
	}
	c.idleFrom, c.idleUntil = c.cycle, c.nextEvent()
	if c.idleUntil > c.cycle {
		c.idleSteps = 0
	} else {
		c.idleSteps = 1 // this step counts as the first of the next pair
	}
}

// flushIdle adds the counts of the fast-forwarded cycles not yet counted.
func (c *Core) flushIdle() {
	n := min(c.cycle, c.idleUntil) - c.idleFrom
	if n <= 0 {
		return
	}
	for i, p := range c.stats.idleFields() {
		*p += n * c.idleDelta[i]
	}
	if c.idleStall != nil {
		c.idleStall.StallCycles += n
	}
	c.idleFrom += n
}

// nextEvent returns the first cycle at or after the current one at which a
// stage can act without another stage acting first: the earliest non-empty
// completion-wheel bucket, the end of a fetch stall, the cycle the
// fetch-queue head becomes dispatchable, or a divider's busy-until cycle.
// The search looks one wheel horizon ahead at most; an idle stretch longer
// than that is re-armed at its end.
func (c *Core) nextEvent() int64 {
	next := c.cycle + int64(len(c.wheel.buckets))
	for _, t := range [...]int64{c.fetchStalledUntil, c.intDivBusyUntil, c.fpDivBusyUntil} {
		if t >= c.cycle && t < next {
			next = t
		}
	}
	if e := c.ifq.front(); e != nil && e.dispatchable >= c.cycle && e.dispatchable < next {
		next = e.dispatchable
	}
	return c.wheel.nextBusy(c.cycle, next)
}

// idleCounters are the Stats counters that still move in a cycle in which
// nothing happens: the occupancy integrals, the phase cycle counts and the
// stall tallies.
type idleCounters [14]int64

// idleFields lists s's idle counters in idleCounters order.
func (s *Stats) idleFields() [14]*int64 {
	return [14]*int64{
		&s.ROBOccupancy, &s.PRCQOcc, &s.BRCQOcc,
		&s.WindowCycles, &s.ReplayCycles, &s.NormalCycles,
		&s.StallROB, &s.StallIQ, &s.StallLQ, &s.StallSQ, &s.StallRegs,
		&s.SteerStalls, &s.CITFullStalls, &s.CQTFullStalls,
	}
}

func (k *idleCounters) readFrom(s *Stats) {
	for i, p := range s.idleFields() {
		k[i] = *p
	}
}

func (k *idleCounters) minus(before *idleCounters) idleCounters {
	var d idleCounters
	for i := range k {
		d[i] = k[i] - before[i]
	}
	return d
}

// fail records the first sanitizer violation; later ones are dropped so the
// diagnostic always names the root cause, not a cascade.
func (c *Core) fail(err *sanity.Error) {
	if c.sanErr == nil {
		c.sanErr = err
	}
}

// emit sends a stage event for e to the trace sink. Callers guard with
// c.traceOn so the disabled path costs a single branch.
func (c *Core) emit(kind trace.Kind, e *Entry) {
	c.sink.Emit(trace.Event{
		Kind: kind, Cycle: c.cycle, Seq: e.seq, Idx: e.idx, PC: e.pc,
	})
}

// finalize snapshots end-of-run statistics.
func (c *Core) finalize() *Stats {
	c.flushIdle()
	c.stats.Cycles = c.cycle
	c.stats.L1DAccesses = c.dcache.Levels[0].Accesses
	c.stats.L1DMisses = c.dcache.Levels[0].Misses
	c.stats.L2Misses = c.dcache.Levels[1].Misses
	c.stats.L3Misses = c.dcache.Levels[2].Misses
	c.stats.ICacheMisses = c.icache.Levels[0].Misses
	c.stats.MemAccesses = c.dcache.MemAccs
	c.stats.PrefetchIssued = c.dcache.PrefetchIssued
	c.stats.PrefetchUseful = c.dcache.PrefetchUseful
	c.stats.WindowPeak = int64(c.win.peak)
	c.stats.TraceInsts = c.win.counts().Insts
	return &c.stats
}

// StatsSnapshot returns a copy of the statistics as of the current cycle,
// with the cache counters refreshed. The reference-typed BranchStalls map
// is cleared in the copy: callers taking mid-run snapshots (the sampler's
// measurement windows) difference counters, and sharing a live map across
// snapshots would alias mutable state. finalize recomputes every derived
// field, so snapshotting mid-run does not disturb a later full finalization.
func (c *Core) StatsSnapshot() Stats {
	st := *c.finalize()
	st.BranchStalls = nil
	return st
}

// CommittedCount returns the number of dynamic instructions committed so
// far (excluding setup instructions). Callers stepping the core through
// RunUntil use it to read where a segment ended.
func (c *Core) CommittedCount() int64 { return c.stats.Committed }

// Cycle returns the number of cycles simulated so far.
func (c *Core) Cycle() int64 { return c.cycle }

// Run simulates until every stream instruction has committed and returns the
// statistics. If the source ends on an execution error (memory exception),
// the delivered prefix is simulated to completion and the error is returned
// alongside the statistics. Modelling failures — a sanitizer invariant
// violation, or a livelocked run — are reported as a *sanity.Error carrying
// the cycle and invariant name.
func (c *Core) Run() (*Stats, error) { return c.RunContext(context.Background()) }

// RunContext is Run with cooperative cancellation (see RunUntil): a
// cancelled run returns the partial statistics accumulated so far alongside
// an error wrapping the context's cause (so errors.Is(err,
// context.Canceled/DeadlineExceeded) holds).
func (c *Core) RunContext(ctx context.Context) (*Stats, error) {
	return c.finish(c.RunUntil(ctx, math.MaxInt64))
}

// RunUntil steps the core until at least commits instructions have
// committed (CommittedCount) or every stream instruction has; a target
// already reached takes no step. Callers measuring a run in segments (the
// sampler's pilot and its measurement windows) call it once per segment
// boundary. It is runLockstep over the one core.
func (c *Core) RunUntil(ctx context.Context, commits int64) error {
	_, err := runLockstep(ctx, []*Core{c}, commits)
	return err
}

// RunLockstep is the N-core form of RunContext: cores sharing state
// (ShareLLC, a Config.FenceGate) run in lockstep until each has committed
// its whole stream, then each finishes as RunContext does. The statistics
// come back aligned with cores, partial after an error; the first error
// stops every core and names its core.
func RunLockstep(ctx context.Context, cores []*Core) ([]*Stats, error) {
	i, err := runLockstep(ctx, cores, math.MaxInt64)
	if err != nil {
		err = fmt.Errorf("pipeline: core %d: %w", i, err)
	}
	stats := make([]*Stats, len(cores))
	for i, c := range cores {
		var cerr error
		if stats[i], cerr = c.finish(err); err == nil && cerr != nil {
			err = fmt.Errorf("pipeline: core %d: %w", i, cerr)
		}
	}
	return stats, err
}

// runLockstep is the one run loop. Each round steps, in slice order, every
// core that has committed fewer than commits instructions and not yet its
// whole stream by one cycle; the first error returns with its core's index.
// Every cancelCheckCycles cycles it polls ctx and stops with an error
// wrapping the context's cause once it is cancelled or its deadline has
// passed, read from the wall clock: on a loaded box the runtime can fire the
// context's timer tens of milliseconds late, long enough for a short run to
// report success past its deadline. A background context costs one nil
// check a cycle. A livelock (more than maxCycles cycles) or a sanitizer
// violation stops it with a *sanity.Error.
func runLockstep(ctx context.Context, cores []*Core, commits int64) (int, error) {
	done := ctx.Done()
	for live := true; live; {
		live = false
		for i, c := range cores {
			if c.stats.Committed >= commits || c.done() {
				continue
			}
			live = true
			if done != nil && c.cycle%cancelCheckCycles == 0 {
				select {
				case <-done:
					return i, fmt.Errorf("pipeline: run cancelled at cycle %d: %w",
						c.cycle, context.Cause(ctx))
				default:
				}
				if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
					return i, fmt.Errorf("pipeline: run cancelled at cycle %d: %w",
						c.cycle, context.DeadlineExceeded)
				}
			}
			if c.cycle > maxCycles {
				return i, sanity.Errorf("core/livelock", c.cycle,
					"exceeded %d cycles at frontier %d with %d instructions pulled (policy %s)",
					maxCycles, c.win.frontier, c.win.counts().Insts, c.cfg.Policy)
			}
			c.step()
			if c.sanErr != nil {
				return i, c.sanErr
			}
		}
	}
	return 0, nil
}

// finish ends a run that stopped with runErr: it finalizes the statistics
// and, if the run itself succeeded, reports the trace source's error.
func (c *Core) finish(runErr error) (*Stats, error) {
	st := c.finalize()
	if runErr == nil {
		if err := c.win.srcErr(); err != nil {
			runErr = fmt.Errorf("pipeline: trace source: %w", err)
		}
	}
	return st, runErr
}

// ---- ROB list / scheduler maintenance ----

func (c *Core) robLink(e *Entry) {
	e.robPrev = c.robTail
	e.robNext = nil
	if c.robTail != nil {
		c.robTail.robNext = e
	} else {
		c.robHead = e
	}
	c.robTail = e
	e.inROB = true
	c.robCount++
}

func (c *Core) robUnlink(e *Entry) {
	if e.robPrev != nil {
		e.robPrev.robNext = e.robNext
	} else {
		c.robHead = e.robNext
	}
	if e.robNext != nil {
		e.robNext.robPrev = e.robPrev
	} else {
		c.robTail = e.robPrev
	}
	e.robPrev, e.robNext = nil, nil
	e.inROB = false
	c.robCount--
}

// drainFromROB removes a fully-retired (committed and completed) entry from
// the pipeline and schedules its Entry for recycling. The rename-table slot
// is cleared — a drained producer imposed no dependence anyway — so the
// recycled Entry can never satisfy a stale lookup.
func (c *Core) drainFromROB(e *Entry) {
	c.robUnlink(e)
	if e.hasDest() && c.regProducer[e.rd] == e {
		c.regProducer[e.rd] = nil
	}
	c.dead = append(c.dead, e)
}

// readyInsert queues a dispatched, unissued entry whose operands are all
// available for stepIssue's walk.
func (c *Core) readyInsert(e *Entry) {
	if e.inReady {
		return
	}
	e.inReady = true
	c.readyQ.insert(e.dispatchOrder, e)
}

// candInsert queues a commit candidate for the policy's walk.
func (c *Core) candInsert(e *Entry) {
	if e.inCand {
		return
	}
	e.inCand = true
	c.candQ.insert(e.dispatchOrder, e)
}

// candArm makes e a commit candidate at the event that lets it pass (see
// candMode). Under a memory-ordered walk a memory op or fence can pass only
// on the memory frontier, so one that is not there waits in memWait until
// the commit that moves the frontier onto it (armFrontier). Arming an
// entry that is already armed does nothing.
func (c *Core) candArm(e *Entry) {
	if e.inCand {
		return
	}
	if c.walk.memOrder && (e.isMem() || e.isFence()) && e.idx != c.win.memFrontier {
		if c.memWait.get(int64(e.idx)) != e {
			c.memWait.insert(int64(e.idx), e)
		}
		return
	}
	c.candInsert(e)
}

// armFrontier moves the waiting memory op or fence the memory frontier now
// sits on, if any, into candQ.
func (c *Core) armFrontier() {
	k := int64(c.win.memFrontier)
	if e := c.memWait.get(k); e != nil {
		c.memWait.remove(k)
		c.candInsert(e)
	}
}

// armCompleting arms, at the commit stage of their completion cycle, the
// entries a completion-requiring walk could first retire then: their
// doneAt <= cycle test passes before the completion event itself fires
// later in the cycle, so waiting for writeback would be a cycle late.
func (c *Core) armCompleting() {
	for _, ref := range c.wheel.peek(c.cycle) {
		if e := ref.e; ref.live() && !e.squashed && !e.committed {
			c.candArm(e)
		}
	}
}

// wakeConsumers credits every consumer waiting on e (which just completed or
// was squashed); consumers whose last outstanding operand this was become
// issue-ready.
func (c *Core) wakeConsumers(e *Entry) {
	for _, ref := range e.consumers {
		if !ref.live() {
			continue
		}
		x := ref.e
		if x.squashed {
			continue
		}
		x.waits--
		if x.waits == 0 && !x.issued {
			c.readyInsert(x)
		}
	}
	e.consumers = e.consumers[:0]
}

// addResident tracks an entry that committed before completing.
func (c *Core) addResident(e *Entry) {
	e.resident = len(c.committedResidents)
	c.committedResidents = append(c.committedResidents, e)
}

func (c *Core) removeResident(e *Entry) {
	if e.resident < 0 {
		return
	}
	last := len(c.committedResidents) - 1
	moved := c.committedResidents[last]
	c.committedResidents[e.resident] = moved
	moved.resident = e.resident
	c.committedResidents[last] = nil
	c.committedResidents = c.committedResidents[:last]
	e.resident = -1
}

// residentCutoff returns the smallest dispatch order among committed
// residents at or past the commit boundary. The old commit scans walked the
// ROB slice and broke at the first entry — live or committed-resident —
// with Seq() >= boundary; candidates past a blocking resident must
// therefore not retire this cycle, even though the resident itself is
// already committed.
func (c *Core) residentCutoff(boundary int64) int64 {
	cut := noBoundary
	for _, e := range c.committedResidents {
		if e.Seq() >= boundary && e.dispatchOrder < cut {
			cut = e.dispatchOrder
		}
	}
	return cut
}

// ---- commit ----

func (c *Core) stepCommit() {
	if c.candMode == candCompletion {
		c.armCompleting()
	}
	if c.san != nil {
		c.san.beforeWalk(c)
	}
	n := c.policy.commit(c, c.cycle, c.cfg.CommitWidth)
	if n == 0 {
		// Attribute the stall to the oldest unresolved branch, if any
		// (Figure 7's criticality metric).
		if b := c.oldestUnresolvedBranch(); b != nil {
			c.stats.branchStall(b.pc).StallCycles++
		}
	}
	if c.cursor > c.highWater {
		c.highWater = c.cursor
	}
	switch {
	case len(c.pendingMisp) > 0:
		c.stats.WindowCycles++
		c.stats.WindowCommits += int64(n)
	case c.cursor < c.highWater:
		c.stats.ReplayCycles++
		c.stats.ReplayCommits += int64(n)
	default:
		c.stats.NormalCycles++
		c.stats.NormalCommits += int64(n)
	}
}

// commitEntry retires e: marks it committed, frees its resources and
// advances the in-order frontier. Policies call this after their own
// eligibility checks.
func (c *Core) commitEntry(e *Entry) {
	if c.san != nil {
		c.san.onCommit(c, e)
	}
	c.activity++
	e.committed = true
	if e.idx != c.win.frontier {
		e.oooCommit = true
	}
	// Figure 8's metric: instructions committed past a still-unresolved
	// older branch — the commits that actually exploit the relaxed branch
	// condition (trivial commit-order skew behind short-latency producers
	// does not count).
	if b := c.oldestUnresolvedBranch(); b != nil && b.Seq() < e.Seq() {
		c.stats.OoOCommitted++
	}
	// The record is resident throughout the step that commits the entry
	// (release happens at end of step), so the cached pointer is still good.
	c.win.commit(e.rec, e.idx)
	if c.memWait.len() > 0 && (e.isMem() || e.isFence()) {
		c.armFrontier()
	}

	if e.inCand {
		c.candQ.remove(e.dispatchOrder)
		e.inCand = false
	}

	// Steered entries (Noreba) freed their ROB′ slot when they moved to a
	// commit queue. Instructions committed before completing (relaxed
	// Condition 1) stay on the issue list until their result is produced.
	if !e.steered {
		c.robOcc--
	}
	if e.issued && e.doneAt <= c.cycle {
		c.drainFromROB(e)
	} else {
		c.addResident(e)
	}
	if e.hasDest() {
		c.physUsed--
	}
	switch e.class {
	case opLoad:
		// Without ECL, a load that commits before its data returns keeps
		// its load-queue entry until the fill completes; ECL reclaims it
		// here (§6.1.5).
		if c.cfg.ECL || (e.issued && e.doneAt <= c.cycle) {
			c.lqOcc--
			if c.traceOn && c.cfg.ECL && e.doneAt > c.cycle {
				c.emit(trace.KindEarlyReclaim, e)
			}
		} else {
			e.lqHeld = true
		}
	case opStore:
		c.sqOcc--
		c.removeFromStoreQueue(e)
		// The store's write reaches the cache at retirement.
		c.dcache.Access(e.addr, c.cycle)
	}
	if e.isCondBranch() {
		c.liveBranches.remove(e.seq)
	}
	if e.isFence() {
		c.stats.FencesCommitted++
	}
	if c.traceOn {
		q := int64(-1)
		if e.steered {
			q = int64(e.queue)
		}
		c.sink.Emit(trace.Event{
			Kind: trace.KindCommit, Cycle: c.cycle, Seq: e.Seq(), Idx: e.idx,
			PC: e.pc, Arg: q, OoO: e.oooCommit,
		})
	}
	c.stats.Committed++
}

// eligible is the policy-independent part of the commit conditions.
//
// requireCompletion distinguishes the traditional designs (in-order commit
// and Bell & Lipasti's conditions, where Condition 1 — completion — must
// hold) from the paper's relaxed definition (§2 footnote: Conditions 1 and
// 3 need not hold when the branch and trap conditions are met, because the
// instruction is then guaranteed to complete and its resources can be
// reclaimed). Even in the relaxed designs, loads hold their entry until
// data returns (that final relaxation is §6.1.5's Early Commit of Loads),
// stores retire with their data, and control transfers must have resolved
// to validate their prediction.
func (c *Core) eligible(e *Entry, cycle int64, requireMemOrder, requireCompletion bool) bool {
	if e.squashed || e.committed {
		return false
	}
	switch {
	case e.class == opLoad:
		// Under the relaxed Condition 1 (§2 footnote: "instructions can be
		// committed even if the results have not returned"), a translated
		// load may retire before its data arrives, but its load-queue
		// entry is held until the fill completes; §6.1.5's ECL frees that
		// entry at translation too. The traditional designs
		// (requireCompletion) keep loads until data unless ECL is on.
		if requireCompletion && !c.cfg.ECL {
			if !(e.issued && e.doneAt <= cycle) {
				return false
			}
		} else if !(e.issued && e.addrReadyAt <= cycle) {
			return false
		}
	case e.class == opStore:
		if !(e.issued && e.doneAt <= cycle) {
			return false
		}
	case e.isCondBranch() || e.isJalr():
		if !e.resolved {
			return false
		}
	default:
		if requireCompletion && !(e.issued && e.doneAt <= cycle) {
			return false
		}
	}
	if e.isFence() {
		// §4.5: commit is strictly in order across a synchronisation
		// barrier.
		if e.idx != c.win.frontier {
			return false
		}
		if c.cfg.FenceGate != nil && !c.cfg.FenceGate(c.stats.FencesCommitted) {
			return false
		}
	}
	if requireMemOrder && (e.isMem() || e.isFence()) && e.idx != c.win.memFrontier {
		return false
	}
	if c.poisoned(e) {
		return false
	}
	return true
}

// poisoned reports whether e executed with wrong-path-dependent data during
// a misprediction window: its governing branch instance is either a pending
// mispredicted branch or was skipped by window fetch entirely.
func (c *Core) poisoned(e *Entry) bool {
	if e.dep.DepSeq < 0 {
		return false
	}
	idx := int(e.dep.DepSeq)
	if !c.win.isFetched(idx) && !c.win.isCommitted(idx) {
		return true // dependence on an instance window fetch skipped
	}
	for _, b := range c.pendingMisp {
		if !b.squashed && b.Seq() == e.dep.DepSeq {
			return true
		}
	}
	return false
}

// oldestUnresolvedBranch returns the oldest member of the eagerly-maintained
// unresolved-branch set (branches leave it at resolution and squash).
func (c *Core) oldestUnresolvedBranch() *Entry { return c.unresolvedBranches.first() }

// allOlderBranchesResolved reports whether no unresolved conditional branch
// older than e remains (the serialisation rule for DepOrdered instructions
// and unmarked branches).
func (c *Core) allOlderBranchesResolved(e *Entry) bool {
	b := c.unresolvedBranches.first()
	return b == nil || b.seq >= e.seq
}

// findLiveBranch returns the live (dispatched, uncommitted, unsquashed)
// conditional branch with the given sequence number, or nil.
func (c *Core) findLiveBranch(seq int64) *Entry { return c.liveBranches.get(seq) }

// nonSpecBoundary returns the sequence number of the oldest instruction that
// blocks non-speculative commit: an unresolved control transfer or a memory
// operation whose translation has not yet succeeded. The blocker deque holds
// every such instruction in dispatch order; entries that stopped blocking
// are pruned from the front (blocking is monotone — see refDeque).
func (c *Core) nonSpecBoundary(cycle int64) int64 {
	for {
		ref, ok := c.blockers.front()
		if !ok {
			return noBoundary
		}
		e := ref.e
		if !ref.live() || e.squashed || e.committed {
			c.blockers.popFront()
			continue
		}
		if e.isCondBranch() || e.isJalr() {
			if e.resolved {
				c.blockers.popFront()
				continue
			}
			return e.Seq()
		}
		if e.issued && e.addrReadyAt <= cycle {
			c.blockers.popFront()
			continue
		}
		return e.Seq()
	}
}

// memTrapBoundary returns the sequence number of the oldest memory
// operation whose translation has not yet succeeded; no instruction past it
// may commit (Condition 2).
func (c *Core) memTrapBoundary(cycle int64) int64 {
	for {
		ref, ok := c.untransMem.front()
		if !ok {
			return noBoundary
		}
		e := ref.e
		if !ref.live() || e.squashed || e.committed {
			c.untransMem.popFront()
			continue
		}
		if e.issued && e.addrReadyAt <= cycle {
			c.untransMem.popFront()
			continue
		}
		return e.Seq()
	}
}

func (c *Core) removeFromStoreQueue(e *Entry) {
	if i := slices.Index(c.storeQueue, e); i >= 0 {
		c.storeQueue = slices.Delete(c.storeQueue, i, i+1)
	}
}

// ---- complete / resolve ----

func (c *Core) stepComplete() {
	bucket := c.wheel.take(c.cycle)
	for _, ref := range bucket {
		e := ref.e
		if !ref.live() || e.squashed {
			continue
		}
		c.activity++
		e.done = true
		if c.traceOn {
			c.emit(trace.KindWriteback, e)
		}
		c.wakeConsumers(e)
		if e.lqHeld {
			c.lqOcc--
			e.lqHeld = false
		}
		if e.committed && e.inROB {
			// Committed before completion: leave the pipeline now. (An entry
			// that committed earlier this same cycle with doneAt == now was
			// already drained by commitEntry and is off the list.)
			c.removeResident(e)
			c.drainFromROB(e)
		}
		if e.isCondBranch() || e.isJalr() {
			e.resolved = true
			e.resolvedAt = c.cycle
			if e.isCondBranch() {
				c.unresolvedBranches.remove(e.seq)
				if c.needUnmarked && e.dep.BranchID == 0 {
					c.unmarkedUnresolved.remove(e.seq)
				}
			}
			c.policy.resolve(c, e)
			// Control transfers become commit candidates at resolution (a
			// branch cannot have committed earlier: eligibility requires
			// resolution under every policy).
			if c.candMode == candRelaxed {
				c.candInsert(e)
			}
			if c.traceOn && e.mispredicted {
				c.emit(trace.KindMispredict, e)
			}
			if e.isCondBranch() {
				c.stats.Branches++
				if e.mispredicted {
					c.stats.Mispredicts++
					c.stats.branchStall(e.pc).Mispredicts++
					c.recover(e)
				}
			} else if e.mispredicted {
				c.stats.JalrMispredicts++
				c.unblockFetch(e)
			}
		}
		if e.isCondBranch() {
			c.stats.branchStall(e.pc).Occurrences++
		}
	}
}

// recover handles a mispredicted conditional branch resolving: squash every
// younger uncommitted instruction, redirect fetch to the correct path
// (the skipped dependent region) and pay the redirect penalty. Instructions
// already committed out of order survive; their re-fetch is dropped at
// decode via the CIT. All rebuilds below filter in place or truncate;
// recovery allocates nothing.
func (c *Core) recover(b *Entry) {
	b.rec.recovered = true // resolving branch is uncommitted, so still resident
	// Squash IFQ (everything younger than b, i.e. fetched after it).
	w := c.ifq.head
	for i := 0; i < c.ifq.n; i++ {
		e := c.ifq.buf[c.ifq.head+i]
		if e.Seq() > b.Seq() {
			c.squashEntry(e, false)
		} else {
			c.ifq.buf[w] = e
			w++
		}
	}
	for i := w; i < c.ifq.head+c.ifq.n; i++ {
		c.ifq.buf[i] = nil
	}
	c.ifq.n = w - c.ifq.head
	if c.ifq.n == 0 {
		c.ifq.head = 0
	}

	// Squash back end (ROB plus policy-held queues).
	for e := c.robHead; e != nil; {
		next := e.robNext
		if e.Seq() > b.Seq() && !e.committed {
			c.squashEntry(e, true)
			c.robUnlink(e)
		}
		e = next
	}
	c.policy.squash(c, b.Seq())

	c.storeQueue = purgeSquashed(c.storeQueue)

	// Rename table: squashed producers must not satisfy future consumers.
	for r := range c.regProducer {
		if p := c.regProducer[r]; p != nil && p.squashed {
			c.regProducer[r] = nil
		}
	}

	// Drop squashed pending mispredicts and this branch.
	keepPM := c.pendingMisp[:0]
	for _, e := range c.pendingMisp {
		if e != b && !e.squashed {
			keepPM = append(keepPM, e)
		}
	}
	for i := len(keepPM); i < len(c.pendingMisp); i++ {
		c.pendingMisp[i] = nil
	}
	c.pendingMisp = keepPM

	// Scheduler state: squashed entries leave the ready and candidate
	// queues; every squashed branch is younger than b, so the branch lists
	// truncate. The blocker deques purge squashed references mid-deque.
	c.readyQ.purgeSquashed()
	c.candQ.purgeSquashed()
	c.memWait.purgeSquashed()
	c.liveBranches.truncateAbove(b.seq)
	c.unresolvedBranches.truncateAbove(b.seq)
	if c.needUnmarked {
		c.unmarkedUnresolved.truncateAbove(b.seq)
	}
	if c.needBlockers {
		c.blockers.purgeSquashed()
	}
	if c.needTransMem {
		c.untransMem.purgeSquashed()
	}

	// Mark skipped/unfetched region refetchable. The branch was unresolved
	// until now, so every release bound since its fetch was below its index;
	// the region [resumeIdx, cursor) is still resident in the window.
	for i := b.resumeIdx; i < c.cursor && i < c.win.loadedEnd(); i++ {
		if r := c.win.rec(i); !r.committed {
			r.fetched = false
		}
	}

	// Redirect.
	c.cursor = b.resumeIdx
	c.pendingBubbles = 0
	c.windowFetched = 0
	c.fetchBlockedBy = nil
	c.fetchStalledUntil = c.cycle + int64(c.cfg.MispredictPenalty)
}

func (c *Core) unblockFetch(b *Entry) {
	if c.fetchBlockedBy == b {
		c.fetchBlockedBy = nil
		c.fetchStalledUntil = c.cycle + int64(c.cfg.MispredictPenalty)
	}
}

func (c *Core) squashEntry(e *Entry, dispatched bool) {
	e.squashed = true
	if c.traceOn {
		c.emit(trace.KindSquash, e)
	}
	if dispatched {
		if !e.steered {
			c.robOcc--
		}
		if !e.issued {
			c.iqOcc--
		}
		if e.hasDest() {
			c.physUsed--
		}
		switch e.class {
		case opLoad:
			c.lqOcc--
		case opStore:
			c.sqOcc--
		}
		// Consumers no longer wait on a squashed producer (its value comes
		// from re-execution, guarded by refetch).
		c.wakeConsumers(e)
	}
	c.dead = append(c.dead, e)
}

// ---- issue ----

func (c *Core) stepIssue() {
	budget := c.cfg.IssueWidth
	var aluUsed, mulDivUsed, fpUsed, loadUsed, storeUsed int
	for e, next := c.readyQ.first(), (*Entry)(nil); e != nil && budget > 0; e = next {
		next = c.readyQ.after(e.dispatchOrder)
		switch e.class {
		case opIntALU, opBranch, opOther:
			if aluUsed >= c.cfg.IntALUs {
				continue
			}
			aluUsed++
		case opIntMul:
			if mulDivUsed >= c.cfg.IntMulDiv {
				continue
			}
			mulDivUsed++
		case opIntDiv:
			if mulDivUsed >= c.cfg.IntMulDiv || c.intDivBusyUntil > c.cycle {
				continue
			}
			mulDivUsed++
			c.intDivBusyUntil = c.cycle + c.cfg.latencyOf(opIntDiv)
		case opFPALU:
			if fpUsed >= c.cfg.FPUs {
				continue
			}
			fpUsed++
		case opFPDiv:
			if fpUsed >= c.cfg.FPUs || c.fpDivBusyUntil > c.cycle {
				continue
			}
			fpUsed++
			c.fpDivBusyUntil = c.cycle + c.cfg.latencyOf(opFPDiv)
		case opLoad:
			if loadUsed >= c.cfg.LoadPorts || c.loadBlocked(e) {
				continue
			}
			loadUsed++
		case opStore:
			if storeUsed >= c.cfg.StorePorts {
				continue
			}
			storeUsed++
		}

		c.readyQ.remove(e.dispatchOrder)
		c.activity++
		e.inReady = false
		e.issued = true
		c.iqOcc--
		budget--
		if c.traceOn {
			c.emit(trace.KindIssue, e)
		}

		switch e.class {
		case opLoad:
			e.addrReadyAt = c.cycle + 1 // translation succeeds
			e.doneAt = c.loadDone(e)
		case opStore:
			e.addrReadyAt = c.cycle + 1
			e.doneAt = c.cycle + 1
		default:
			e.doneAt = c.cycle + c.cfg.latencyOf(e.class)
		}
		c.wheel.schedule(c.cycle, e)

		// Issue arms the memory ops of the relaxed policies (they translate
		// the cycle after issue) and, under Condition 1, ECL loads (they may
		// retire on translation alone); everything else a Condition-1 walk
		// retires is armed at its completion cycle (armCompleting).
		switch c.candMode {
		case candRelaxed:
			if e.isMem() {
				c.candArm(e)
			}
		case candCompletion:
			if c.cfg.ECL && e.class == opLoad {
				c.candArm(e)
			}
		}
	}
}

// loadBlocked reports whether an older in-flight store to the same address
// has not produced its data yet; the load must wait so it can forward.
func (c *Core) loadBlocked(e *Entry) bool {
	for _, st := range c.storeQueue {
		if st.Seq() >= e.Seq() || st.squashed {
			continue
		}
		if st.addr == e.addr && !st.issued {
			return true
		}
	}
	return false
}

// loadDone computes a load's data-available cycle: store-to-load forwarding
// from an older in-flight store to the same address, otherwise a cache
// access, with DCPT training on the demand stream.
func (c *Core) loadDone(e *Entry) int64 {
	for i := len(c.storeQueue) - 1; i >= 0; i-- {
		st := c.storeQueue[i]
		if st.Seq() >= e.Seq() || st.squashed {
			continue
		}
		if st.addr == e.addr {
			// Forward from the store queue once the store's data is ready.
			done := st.doneAt + 1
			if done < c.cycle+2 {
				done = c.cycle + 2
			}
			return done
		}
	}
	done := c.dcache.Access(e.addr, c.cycle+1)
	if c.traceOn && done > c.cycle+1+c.cfg.L1Lat {
		c.sink.Emit(trace.Event{
			Kind: trace.KindCacheMiss, Cycle: c.cycle, Seq: e.Seq(), Idx: e.idx,
			PC: e.pc, Addr: e.addr, Arg: done - c.cycle - 1,
		})
	}
	if c.dcpt != nil {
		for _, addr := range c.dcpt.Train(e.pc, e.addr) {
			c.dcache.Prefetch(addr, c.cycle+1)
		}
	}
	return done
}

// ---- dispatch ----

func (c *Core) stepDispatch() {
	for width := c.cfg.FetchWidth; width > 0 && c.ifq.len() > 0; width-- {
		e := c.ifq.front()
		if e.dispatchable > c.cycle {
			break
		}
		if c.robOcc >= c.cfg.ROBSize {
			c.stats.StallROB++
			break
		}
		if c.iqOcc >= c.cfg.IQSize {
			c.stats.StallIQ++
			break
		}
		if e.class == opLoad && c.lqOcc >= c.cfg.LQSize {
			c.stats.StallLQ++
			break
		}
		if e.class == opStore && c.sqOcc >= c.cfg.SQSize {
			c.stats.StallSQ++
			break
		}
		if e.hasDest() && c.physUsed >= c.cfg.PhysRegs() {
			c.stats.StallRegs++
			break
		}

		c.ifq.popFront()
		c.activity++
		e.dispatched = true
		e.dispatchOrder = c.nextDispatchOrder
		c.nextDispatchOrder++
		if c.traceOn {
			c.emit(trace.KindDispatch, e)
		}
		if c.san != nil {
			c.san.onDispatch(c, e)
		}
		c.robOcc++
		c.iqOcc++
		switch e.class {
		case opLoad:
			c.lqOcc++
		case opStore:
			c.sqOcc++
			c.storeQueue = append(c.storeQueue, e)
		}
		if e.hasDest() {
			c.physUsed++
		}

		// Rename: link register producers.
		r1, r2 := e.rec.sources()
		c.linkProducer(e, r1)
		c.linkProducer(e, r2)
		if e.hasDest() {
			c.regProducer[e.rd] = e
		}

		if e.isCondBranch() {
			c.liveBranches.insert(e.seq, e)
			c.unresolvedBranches.insert(e.seq, e)
			if c.needUnmarked && e.dep.BranchID == 0 {
				c.unmarkedUnresolved.insert(e.seq, e)
			}
		}
		if e.dep.DepSeq >= 0 {
			c.stats.branchStall(e.dep.DepPC).Dependents++
		}

		c.robLink(e)
		if c.needBlockers && (e.isCondBranch() || e.isJalr() || e.isMem()) {
			c.blockers.push(e)
		}
		if c.needTransMem && e.isMem() {
			c.untransMem.push(e)
		}
		// Non-memory, non-control instructions are commit candidates from
		// dispatch under the relaxed policies (no completion condition).
		if c.candMode == candRelaxed && !e.isMem() && !e.isCondBranch() && !e.isJalr() {
			c.candArm(e)
		}
		if e.waits == 0 {
			c.readyInsert(e)
		}
		c.policy.dispatch(c, e)
	}
}

// linkProducer registers the dependence of e on the in-flight producer of
// register r, if one exists: e's waits counter goes up, and the producer's
// consumer list gains a wakeup edge. A producer that has already completed
// (or register X0) imposes no wait.
func (c *Core) linkProducer(e *Entry, r isa.Reg) {
	if r == isa.X0 {
		return
	}
	p := c.regProducer[r]
	if p != nil && !p.squashed && (!p.issued || p.doneAt > c.cycle) {
		e.producers = append(e.producers, entryRef{p, p.gen})
		p.consumers = append(p.consumers, entryRef{e, e.gen})
		e.waits++
	}
}

// ---- fetch ----

// windowFetchLimit caps how many post-reconvergence instructions the front
// end fetches during a misprediction window.
const windowFetchLimit = 2048

func (c *Core) stepFetch() {
	// Recycle entries drained earlier this cycle: nothing references them
	// any more (tagged references went stale at queue time), and fetch is
	// the only stage that allocates.
	for i, e := range c.dead {
		c.pool.put(e)
		c.dead[i] = nil
	}
	c.dead = c.dead[:0]

	if !c.win.ensure(c.cursor) {
		return
	}
	if c.fetchStalledUntil > c.cycle || c.fetchBlockedBy != nil {
		return
	}
	if c.ifq.len() >= 4*c.cfg.FetchWidth {
		return
	}

	slots := c.cfg.FetchWidth
	for c.pendingBubbles > 0 && slots > 0 {
		c.pendingBubbles--
		slots--
	}
	// Burnt bubbles and the instruction-cache access each change what a
	// later fetch does; the records fetched below change everything else.
	c.activity++
	if slots == 0 {
		return
	}

	// Instruction-cache access for this fetch group.
	pcAddr := int64(c.win.rec(c.cursor).d.PC) * 4
	if done := c.icache.Access(pcAddr, c.cycle); done > c.cycle+c.cfg.L1Lat {
		c.fetchStalledUntil = done
		return
	}

	inWindow := len(c.pendingMisp) > 0
	if inWindow && c.windowFetched >= windowFetchLimit {
		return
	}

	for slots > 0 && c.win.ensure(c.cursor) {
		idx := c.cursor
		r := c.win.rec(idx)

		if r.isSetup() {
			if !c.cfg.FreeSetup {
				slots--
				c.stats.FetchedSetup++
			}
			r.fetched = true
			c.win.commit(r, idx)
			c.cursor++
			continue
		}
		if r.committed {
			// Re-fetch of an instruction already committed out-of-order:
			// CIT hit, dropped at decode (§4.3).
			slots--
			c.cursor++
			c.stats.CITDrops++
			continue
		}

		e := c.pool.get()
		e.idx = idx
		e.rec = r
		e.seq = r.d.Seq
		e.pc = r.d.PC
		e.addr = r.d.Addr
		e.rd = r.d.Inst.Rd
		e.taken = r.d.Taken
		e.dep = r.dep
		e.decoded = r.decoded
		e.dispatchable = c.cycle + int64(c.cfg.FrontendDepth)
		e.windowInst = inWindow
		e.resident = -1
		r.fetched = true
		c.cursor++
		slots--
		if c.traceOn {
			c.emit(trace.KindFetch, e)
		}

		switch {
		case e.isCondBranch():
			if !r.predicted {
				pred := r.d.Taken // oracle predictor
				if c.pred != nil {
					pred = c.pred.Predict(r.d.PC)
					c.pred.Update(r.d.PC, r.d.Taken)
				}
				r.predicted = true
				r.predMisp = pred != r.d.Taken
			}
			e.mispredicted = r.predMisp && !r.recovered
		case r.isCall():
			c.ras.Push(r.d.PC + 1)
		case e.isJalr():
			_, hit := c.ras.Pop(r.d.NextPC)
			e.mispredicted = !hit
		}

		switch e.class {
		case opLoad:
			c.stats.Loads++
		case opStore:
			c.stats.Stores++
		}

		c.ifq.push(e)

		if e.isCondBranch() && e.mispredicted {
			e.resumeIdx = c.cursor
			c.pendingMisp = append(c.pendingMisp, e)
			if !c.openWindow(e) {
				c.fetchBlockedBy = e
			}
			return // redirect ends the fetch group
		}
		if e.isJalr() && e.mispredicted {
			e.resumeIdx = c.cursor
			c.fetchBlockedBy = e
			return
		}
		if inWindow {
			c.windowFetched++
			if c.windowFetched >= windowFetchLimit {
				return
			}
		}
		if e.taken {
			return // taken control transfer ends the fetch group
		}
	}
}

// openWindow redirects fetch past a mispredicted branch's dependent region
// to its reconvergence point, charging wrong-path fetch bubbles for the
// not-taken/taken alternate path. Returns false when no usable
// reconvergence information exists (fetch then blocks until resolve).
func (c *Core) openWindow(b *Entry) bool {
	if c.meta == nil {
		return false
	}
	bm := c.meta.Branches[b.pc]
	if bm == nil || bm.ReconvPC < 0 || !bm.Marked {
		return false
	}
	// The wrong path is the side the predictor chose: the branch actually
	// went d.Taken, so the predictor fetched the other side.
	wrongLen := bm.TakenLen
	if b.taken {
		wrongLen = bm.FallLen
	}
	const maxWrongPath = 64
	if wrongLen > maxWrongPath {
		return false
	}
	// Locate the reconvergence point in the upcoming stream; the scan pulls
	// at most 2048 instructions ahead into the window.
	limit := c.cursor + 2048
	for j := c.cursor; j < limit && c.win.ensure(j); j++ {
		if c.win.rec(j).d.PC == bm.ReconvPC {
			c.pendingBubbles += wrongLen
			c.windowFetched = 0
			c.cursor = j
			return true
		}
	}
	return false
}
