package pipeline

import (
	"fmt"

	"github.com/noreba-sim/noreba/internal/sanity"
)

// sanitizer is the opt-in invariant checker (Config.Sanitize). It validates,
// independently of the commit policies' own eligibility code, that every
// retirement obeys the paper's commit-order rules (§4) and that the pipeline's
// structural bookkeeping stays conserved. Checks are deliberately re-derived
// from first principles — scanning the raw ROB and recounting occupancy from
// the in-flight set — rather than calling the same helpers the policies use,
// so a bug in policy code cannot hide itself.
//
// With the event-driven scheduler the sanitizer is also the correctness
// oracle for the incremental state: every cycle it recomputes, from the ROB
// alone, what the wakeup counters, ready and commit-candidate queues, branch
// lists, committed-resident set and commit boundaries must contain, and
// cross-checks the maintained versions against the from-scratch answer.
//
// The checker has three hook points: onCommit validates each retirement at
// the moment it happens (commit legality is a property of that instant),
// beforeWalk checks the commit-candidate set at the commit stage, and
// endCycle recounts structural state once per cycle. The first violation is
// recorded as a *sanity.Error on the core and fails the run.
//
// Invariant names (sanity.Error.Invariant), by subsystem:
//
//	commit/*   — commit-order legality (per-policy, §2/§4 rules)
//	rob/*      — ROB allocation order and occupancy conservation
//	iq/*       — issue-queue occupancy conservation
//	prf/*      — physical-register free-list conservation
//	lq/*, sq/* — load/store-queue occupancy conservation
//	lsq/*      — LSQ age ordering
//	sched/*    — event-driven scheduler state vs from-scratch re-derivation
//	frontier/* — commit-frontier monotonicity
//	window/*   — sliding-window release safety
//	cit/*, cqt/*, cq/*, robprime/* — NOREBA Selective ROB structures (§4.2–§4.3)
//	core/*     — whole-run guards (livelock)
type sanitizer struct {
	lastFrontier    int
	lastMemFrontier int

	// Scratch for the branch sets' contents, reused across cycles.
	live, unres, unmarked []*Entry
}

func newSanitizer(c *Core) *sanitizer { return &sanitizer{} }

// policyChecker is implemented by policies that carry private structures
// worth validating every cycle (the Selective ROB's queues and tables).
type policyChecker interface {
	check(c *Core, cycle int64) *sanity.Error
}

// onDispatch validates ROB allocation order at the moment of allocation: the
// ROB is a FIFO in dispatch order, and among *uncommitted* entries dispatch
// order is age order, so the newcomer must be younger than the youngest live
// entry. Entries already retired out of order (NOREBA keeps them resident
// until the frontier drains them) are exempt: after a recovery the skipped
// dependent region legitimately re-dispatches behind them.
func (s *sanitizer) onDispatch(c *Core, e *Entry) {
	for t := c.robTail; t != nil; t = t.robPrev {
		if t.committed {
			continue
		}
		if t.Seq() >= e.Seq() {
			c.fail(sanity.At("rob/alloc-order", c.cycle, e.pc, e.Seq(),
				"dispatching seq %d behind live ROB entry seq %d", e.Seq(), t.Seq()))
		}
		return
	}
}

// onCommit re-derives the commit conditions for e at the instant the policy
// retires it. Runs before commitEntry mutates any state. The branch checks
// scan the ROB directly rather than reading the core's incremental branch
// lists, so they stay independent of the event-driven bookkeeping they are
// meant to catch out.
func (s *sanitizer) onCommit(c *Core, e *Entry) {
	cyc := c.cycle
	pol := c.cfg.Policy

	if e.committed || e.squashed {
		c.fail(sanity.At("commit/lifecycle", cyc, e.pc, e.Seq(),
			"retiring an entry that is already committed=%t squashed=%t", e.committed, e.squashed))
		return
	}

	// In-order baseline: strictly in program order, i.e. always at the
	// commit frontier.
	if pol == InOrder && e.idx != c.win.frontier {
		c.fail(sanity.At("commit/in-order", cyc, e.pc, e.Seq(),
			"InO-C retiring trace index %d but frontier is %d", e.idx, c.win.frontier))
	}

	// §4.5: synchronisation barriers commit strictly in order under every
	// policy.
	if e.isFence() && e.idx != c.win.frontier {
		c.fail(sanity.At("commit/fence-order", cyc, e.pc, e.Seq(),
			"fence retiring at index %d ahead of frontier %d", e.idx, c.win.frontier))
	}

	// Program-order memory retirement (every design but the full
	// speculative oracle).
	if pol != Spec && e.isMem() && e.idx != c.win.memFrontier {
		c.fail(sanity.At("commit/mem-order", cyc, e.pc, e.Seq(),
			"memory op retiring at index %d ahead of memory frontier %d", e.idx, c.win.memFrontier))
	}

	// Completion conditions. The traditional designs require Condition 1
	// (completion) outright; the relaxed designs still require stores to
	// have their data, control transfers to have resolved, and loads to
	// have translated (§2 footnote, §6.1.5).
	requireCompletion := pol == InOrder || pol == NonSpecOoO
	switch {
	case e.class == opLoad:
		if !e.issued || e.addrReadyAt > cyc {
			c.fail(sanity.At("commit/load-translation", cyc, e.pc, e.Seq(),
				"load retiring before its translation succeeded"))
		} else if requireCompletion && !c.cfg.ECL && e.doneAt > cyc {
			c.fail(sanity.At("commit/load-data", cyc, e.pc, e.Seq(),
				"load retiring %d cycles before its data returns without ECL", e.doneAt-cyc))
		}
	case e.class == opStore:
		if !e.issued || e.doneAt > cyc {
			c.fail(sanity.At("commit/store-data", cyc, e.pc, e.Seq(),
				"store retiring before its data is ready"))
		}
	case e.isCondBranch() || e.isJalr():
		if !e.resolved {
			c.fail(sanity.At("commit/branch-unresolved", cyc, e.pc, e.Seq(),
				"control transfer retiring before it resolved"))
		}
	default:
		if requireCompletion && (!e.issued || e.doneAt > cyc) {
			c.fail(sanity.At("commit/completion", cyc, e.pc, e.Seq(),
				"instruction retiring before completion under a Condition-1 policy"))
		}
	}

	// Never retire work computed from wrong-path-dependent data.
	if c.poisoned(e) {
		c.fail(sanity.At("commit/poisoned", cyc, e.pc, e.Seq(),
			"retiring an instruction whose governing branch instance is a pending mispredict or was skipped"))
	}

	// Branch-condition legality: what an unresolved older branch permits
	// depends on the design. The speculative oracles relax it entirely.
	// Every unresolved branch is uncommitted and unsquashed, hence still on
	// the ROB list, so a head-first walk meets them oldest-first.
	if pol == Spec || pol == SpecBR {
		return
	}
	for t := c.robHead; t != nil; t = t.robNext {
		if t.committed {
			continue
		}
		if t.Seq() >= e.Seq() {
			break // dispatch order == age order among live entries
		}
		if !t.isCondBranch() || t.resolved {
			continue
		}
		b := t
		switch pol {
		case InOrder, NonSpecOoO:
			// Condition 3 in full: no commit past any unresolved branch.
			c.fail(sanity.At("commit/branch-order", cyc, e.pc, e.Seq(),
				"retiring past unresolved branch seq %d (pc %d) under %s", b.Seq(), b.pc, pol))
			return
		case Noreba, IdealReconv:
			// §4: commit may pass an unresolved branch only when the
			// compiler marked it (BranchID > 0) — an unmarked branch
			// carries no dependence information and serialises commit.
			if b.dep.BranchID == 0 {
				c.fail(sanity.At("commit/unmarked-branch", cyc, e.pc, e.Seq(),
					"retiring past unresolved UNMARKED branch seq %d (pc %d)", b.Seq(), b.pc))
				return
			}
			// A DepOrdered instruction (invalid BIT reference) must wait
			// for all older branches; one is still unresolved.
			if e.dep.DepSeq == DepOrdered {
				c.fail(sanity.At("commit/dep-ordered", cyc, e.pc, e.Seq(),
					"DepOrdered instruction retiring past unresolved branch seq %d", b.Seq()))
				return
			}
		}
	}
	// The instruction's own governing branch instance (setDependency) must
	// have resolved or committed before its dependents retire (§4.2).
	if (pol == Noreba || pol == IdealReconv) && e.dep.DepSeq >= 0 {
		idx := int(e.dep.DepSeq)
		if !c.win.isCommitted(idx) {
			var b *Entry
			for t := c.robHead; t != nil; t = t.robNext {
				if t.isCondBranch() && t.Seq() == e.dep.DepSeq {
					b = t
					break
				}
			}
			if b == nil || !b.resolved {
				c.fail(sanity.At("commit/dep-unresolved", cyc, e.pc, e.Seq(),
					"retiring before governing branch instance seq %d resolved", e.dep.DepSeq))
			}
		}
	}
}

// beforeWalk checks, at the commit stage just before the policy's walk, the
// two properties the candidate walk relies on. sched/cand-complete: every
// uncommitted entry that passes the walk's rules this cycle is in candQ —
// the walk never examines anything else, so an entry armed late retires
// late. (Fences are skipped under a fence gate: asking it registers an
// arrival at the barrier.) sched/cand-order: candQ's dispatch order is age
// order, which the walk's boundary break relies on. The ROB list is in
// dispatch order and endCycle checks that inCand marks exactly candQ's
// members, so one walk over the list checks both.
func (s *sanitizer) beforeWalk(c *Core) {
	if c.candMode == candNone {
		return
	}
	cyc := c.cycle
	last := int64(-1)
	for e := c.robHead; e != nil; e = e.robNext {
		switch {
		case e.inCand:
			if e.seq <= last {
				c.fail(sanity.At("sched/cand-order", cyc, e.pc, e.Seq(),
					"candidate seq %d follows seq %d in dispatch order", e.seq, last))
				return
			}
			last = e.seq
		case e.committed || e.isFence() && c.cfg.FenceGate != nil:
		case c.eligible(e, cyc, c.walk.memOrder, c.walk.completion) && (!c.walk.dep || depSatisfied(c, e)):
			c.fail(sanity.At("sched/cand-complete", cyc, e.pc, e.Seq(),
				"entry passes the %s walk's rules but is not a commit candidate", c.cfg.Policy))
			return
		}
	}
}

// endCycle recounts structural state from the in-flight set and cross-checks
// the core's incremental bookkeeping. The ROB list is the complete universe
// of dispatched, un-squashed, not-yet-drained entries (steered NOREBA entries
// and committed residents remain on it), so conservation laws and every
// scheduler structure are checkable by one walk.
func (s *sanitizer) endCycle(c *Core) {
	cyc := c.cycle - 1 // step increments before this hook runs

	// Commit frontiers only move forward.
	if c.win.frontier < s.lastFrontier {
		c.fail(sanity.Errorf("frontier/monotonic", cyc,
			"commit frontier moved backwards: %d -> %d", s.lastFrontier, c.win.frontier))
		return
	}
	if c.win.memFrontier < s.lastMemFrontier {
		c.fail(sanity.Errorf("frontier/mem-monotonic", cyc,
			"memory frontier moved backwards: %d -> %d", s.lastMemFrontier, c.win.memFrontier))
		return
	}
	s.lastFrontier, s.lastMemFrontier = c.win.frontier, c.win.memFrontier

	// Both frontiers sit at their fixpoint: re-walk the resident window
	// from its base (everything below it is committed) record by record.
	frontier, memFrontier := -1, -1
	for i := c.win.baseIdx(); i < c.win.loadedEnd() && memFrontier < 0; i++ {
		r := c.win.rec(i)
		if r.committed {
			continue
		}
		if frontier < 0 {
			frontier = i
		}
		if r.isMem() || r.isFence() {
			memFrontier = i
		}
	}
	if frontier < 0 {
		frontier = c.win.loadedEnd()
	}
	if memFrontier < 0 {
		memFrontier = c.win.loadedEnd()
	}
	if frontier != c.win.frontier || memFrontier != c.win.memFrontier {
		c.fail(sanity.Errorf("frontier/fixpoint", cyc,
			"frontiers %d / mem %d but the window re-walk finds %d / mem %d",
			c.win.frontier, c.win.memFrontier, frontier, memFrontier))
		return
	}

	// Sliding-window release safety: no record may be dropped before both
	// the commit frontier and the fetch cursor have passed it (a released
	// record can never be re-addressed).
	if base := c.win.baseIdx(); base > c.win.frontier || base > c.cursor {
		c.fail(sanity.Errorf("window/release", cyc,
			"window released through %d past frontier %d / cursor %d", base, c.win.frontier, c.cursor))
		return
	}

	// The ordered sets' contents are re-derived every cycle: the branch
	// sets element for element against a ROB-order walk below, the ready
	// and candidate sets by membership and count. Their ring storage is
	// re-derived on the same 16-cycle stride as the arena cross-check (a
	// corrupted ring stays corrupted, so the stride loses no coverage).
	if cyc&15 == 0 {
		for i, set := range [...]*entrySet{&c.readyQ, &c.candQ, &c.memWait, &c.liveBranches, &c.unresolvedBranches, &c.unmarkedUnresolved} {
			if msg := set.check(); msg != "" {
				c.fail(sanity.Errorf("sched/set-storage", cyc, "%s set: %s",
					[...]string{"ready", "candidate", "memory-wait", "live-branch", "unresolved-branch", "unmarked-unresolved"}[i], msg))
				return
			}
		}
	}
	s.live = c.liveBranches.appendTo(s.live[:0])
	s.unres = c.unresolvedBranches.appendTo(s.unres[:0])
	s.unmarked = c.unmarkedUnresolved.appendTo(s.unmarked[:0])

	// One walk over the ROB list: ordering, occupancy recount, and the
	// from-scratch re-derivation of every scheduler structure.
	robCount, robOcc, iqOcc, lqOcc, physUsed := 0, 0, 0, 0, 0
	nReady, nCand, nWait, nResident := 0, 0, 0, 0
	liveBr, unresBr, unmarked := 0, 0, 0
	lastSeq, lastOrder := int64(-1), int64(-1)
	for e := c.robHead; e != nil; e = e.robNext {
		robCount++
		if e.squashed {
			c.fail(sanity.At("rob/squashed-resident", cyc, e.pc, e.Seq(),
				"squashed entry still resident in the ROB"))
			return
		}
		if !e.dispatched {
			c.fail(sanity.At("rob/undispatched", cyc, e.pc, e.Seq(),
				"undispatched entry resident in the ROB"))
			return
		}
		if !e.committed {
			// Age order is only guaranteed among live entries: committed
			// survivors of a recovery may be younger than re-dispatched
			// skipped-region work sitting behind them.
			if e.Seq() <= lastSeq {
				c.fail(sanity.At("rob/alloc-order", cyc, e.pc, e.Seq(),
					"ROB out of age order: live seq %d after seq %d", e.Seq(), lastSeq))
				return
			}
			lastSeq = e.Seq()
		}
		if e.dispatchOrder <= lastOrder {
			c.fail(sanity.At("rob/dispatch-order", cyc, e.pc, e.Seq(),
				"ROB list out of dispatch order: %d after %d", e.dispatchOrder, lastOrder))
			return
		}
		lastOrder = e.dispatchOrder
		if !e.committed && cyc&15 == 0 {
			// Arena aliasing cross-check. An uncommitted entry's record
			// pointer must still address its window slot (committed entries
			// may legitimately outlive their record), and the scalars cached
			// at fetch must match the live record — catching both a stale
			// pointer surviving a release and any stage that mutated a
			// record other stages still read through the arena. Divergence is
			// persistent until the record is released, so a 16-cycle stride
			// loses no coverage while keeping the sanitized whole-suite run
			// (which already pays O(ROB) per cycle, ~3x under -race) fast
			// enough for CI.
			r := c.win.rec(e.idx)
			if e.rec != r {
				c.fail(sanity.At("window/arena-alias", cyc, e.pc, e.Seq(),
					"entry's record pointer does not address its arena slot for index %d", e.idx))
				return
			}
			if e.seq != r.d.Seq || e.pc != r.d.PC || e.addr != r.d.Addr ||
				e.taken != r.d.Taken || e.rd != r.d.Inst.Rd {
				c.fail(sanity.At("window/arena-scalars", cyc, e.pc, e.Seq(),
					"cached scalars diverge from live record (rec seq %d pc %d addr %d)",
					r.d.Seq, r.d.PC, r.d.Addr))
				return
			}
		}
		if !e.steered && !e.committed {
			robOcc++
		}
		if !e.issued {
			iqOcc++
		}
		if e.hasDest() && !e.committed {
			physUsed++
		}
		if e.class == opLoad && (!e.committed || e.lqHeld) {
			lqOcc++
		}

		// Wakeup state: the waits counter must equal the number of linked
		// producers that are still in flight (not completed, not squashed,
		// not recycled), and ready-queue membership must follow from it.
		want := int32(0)
		for _, ref := range e.producers {
			if ref.live() && !ref.e.squashed && !ref.e.done {
				want++
			}
		}
		if e.waits != want {
			c.fail(sanity.At("sched/waits", cyc, e.pc, e.Seq(),
				"waits counter %d but %d producers still outstanding", e.waits, want))
			return
		}
		if wantReady := !e.issued && e.waits == 0; e.inReady != wantReady {
			c.fail(sanity.At("sched/ready-membership", cyc, e.pc, e.Seq(),
				"inReady=%t but issued=%t waits=%d", e.inReady, e.issued, e.waits))
			return
		}
		if e.inReady {
			nReady++
			if c.readyQ.get(e.dispatchOrder) != e {
				c.fail(sanity.At("sched/ready-membership", cyc, e.pc, e.Seq(),
					"inReady entry missing from the ready set at dispatch order %d", e.dispatchOrder))
				return
			}
		}

		// Commit-candidate membership: derived from the entry's class and
		// progress and the memory frontier alone (see candMode and candArm).
		armed := false
		if !e.committed {
			switch c.candMode {
			case candRelaxed:
				switch {
				case e.isCondBranch() || e.isJalr():
					armed = e.resolved
				case e.isMem():
					armed = e.issued
				default:
					armed = true
				}
			case candCompletion:
				armed = e.issued && (e.doneAt <= cyc || c.cfg.ECL && e.class == opLoad)
			}
		}
		wantCand, wantWait := armed, false
		if armed && c.walk.memOrder && (e.isMem() || e.isFence()) && e.idx != c.win.memFrontier {
			wantCand, wantWait = false, true
		}
		if e.inCand != wantCand {
			c.fail(sanity.At("sched/cand-membership", cyc, e.pc, e.Seq(),
				"inCand=%t but derivation says %t (committed=%t issued=%t resolved=%t done=%t memFrontier=%d)",
				e.inCand, wantCand, e.committed, e.issued, e.resolved, e.done, c.win.memFrontier))
			return
		}
		if e.inCand {
			nCand++
			if c.candQ.get(e.dispatchOrder) != e {
				c.fail(sanity.At("sched/cand-membership", cyc, e.pc, e.Seq(),
					"inCand entry missing from the candidate set at dispatch order %d", e.dispatchOrder))
				return
			}
		}
		if waiting := c.memWait.get(int64(e.idx)) == e; waiting != wantWait {
			c.fail(sanity.At("sched/mem-wait", cyc, e.pc, e.Seq(),
				"in memory-wait set=%t but derivation says %t (issued=%t memFrontier=%d)",
				waiting, wantWait, e.issued, c.win.memFrontier))
			return
		}
		if wantWait {
			nWait++
		}

		// Committed residents: exactly the committed entries still on the
		// list, with a consistent back-index.
		if e.committed != (e.resident >= 0) {
			c.fail(sanity.At("sched/resident", cyc, e.pc, e.Seq(),
				"committed=%t but resident index %d", e.committed, e.resident))
			return
		}
		if e.resident >= 0 {
			nResident++
			if e.resident >= len(c.committedResidents) || c.committedResidents[e.resident] != e {
				c.fail(sanity.At("sched/resident-index", cyc, e.pc, e.Seq(),
					"resident index %d does not point back to the entry", e.resident))
				return
			}
		}

		// Branch sets: walked in ROB order, they must match the maintained
		// sets' key order element for element (committed branches drain
		// immediately — resolution is completion — so every listed branch
		// is live).
		if e.isCondBranch() && !e.committed {
			if liveBr >= len(s.live) || s.live[liveBr] != e {
				c.fail(sanity.At("sched/live-branches", cyc, e.pc, e.Seq(),
					"live-branch list diverges from the ROB at position %d", liveBr))
				return
			}
			liveBr++
			if !e.resolved {
				if unresBr >= len(s.unres) || s.unres[unresBr] != e {
					c.fail(sanity.At("sched/unresolved-branches", cyc, e.pc, e.Seq(),
						"unresolved-branch list diverges from the ROB at position %d", unresBr))
					return
				}
				unresBr++
				if c.needUnmarked && e.dep.BranchID == 0 {
					if unmarked >= len(s.unmarked) || s.unmarked[unmarked] != e {
						c.fail(sanity.At("sched/unmarked-unresolved", cyc, e.pc, e.Seq(),
							"unmarked-unresolved list diverges from the ROB at position %d", unmarked))
						return
					}
					unmarked++
				}
			}
		}
	}
	switch {
	case robCount != c.robCount:
		c.fail(sanity.Errorf("rob/count", cyc, "robCount=%d but the list holds %d entries", c.robCount, robCount))
		return
	case liveBr != len(s.live):
		c.fail(sanity.Errorf("sched/live-branches", cyc,
			"live-branch set holds %d entries but the ROB has %d live branches", len(s.live), liveBr))
		return
	case unresBr != len(s.unres):
		c.fail(sanity.Errorf("sched/unresolved-branches", cyc,
			"unresolved-branch set holds %d entries but the ROB has %d", len(s.unres), unresBr))
		return
	case unmarked != len(s.unmarked):
		c.fail(sanity.Errorf("sched/unmarked-unresolved", cyc,
			"unmarked-unresolved set holds %d entries but the ROB has %d", len(s.unmarked), unmarked))
		return
	case nReady != c.readyQ.len():
		c.fail(sanity.Errorf("sched/ready-count", cyc,
			"ready set holds %d entries but %d ROB entries are ready", c.readyQ.len(), nReady))
		return
	case nCand != c.candQ.len():
		c.fail(sanity.Errorf("sched/cand-count", cyc,
			"candidate set holds %d entries but %d ROB entries are candidates", c.candQ.len(), nCand))
		return
	case nWait != c.memWait.len():
		c.fail(sanity.Errorf("sched/mem-wait", cyc,
			"memory-wait set holds %d entries but %d ROB entries wait for the memory frontier", c.memWait.len(), nWait))
		return
	case nResident != len(c.committedResidents):
		c.fail(sanity.Errorf("sched/resident-count", cyc,
			"resident list holds %d entries but %d committed entries are on the ROB", len(c.committedResidents), nResident))
		return
	}
	// Boundary deques vs a from-scratch scan. Pruning the deques here is
	// harmless: blocking is monotone, so anything prunable at cyc stays
	// prunable.
	if c.needBlockers {
		want := noBoundary
		for e := c.robHead; e != nil; e = e.robNext {
			if e.committed {
				continue
			}
			if (e.isCondBranch() || e.isJalr()) && !e.resolved {
				want = e.Seq()
				break
			}
			if e.isMem() && !(e.issued && e.addrReadyAt <= cyc) {
				want = e.Seq()
				break
			}
		}
		if got := c.nonSpecBoundary(cyc); got != want {
			c.fail(sanity.Errorf("sched/nonspec-boundary", cyc,
				"blocker deque reports boundary %d but the ROB scan finds %d", got, want))
			return
		}
	}
	if c.needTransMem {
		want := noBoundary
		for e := c.robHead; e != nil; e = e.robNext {
			if e.committed {
				continue
			}
			if e.isMem() && !(e.issued && e.addrReadyAt <= cyc) {
				want = e.Seq()
				break
			}
		}
		if got := c.memTrapBoundary(cyc); got != want {
			c.fail(sanity.Errorf("sched/memtrap-boundary", cyc,
				"untranslated-memory deque reports boundary %d but the ROB scan finds %d", got, want))
			return
		}
	}

	if robOcc != c.robOcc {
		c.fail(sanity.Errorf("rob/occupancy", cyc, "robOcc=%d but %d live unsteered entries", c.robOcc, robOcc))
		return
	}
	if iqOcc != c.iqOcc {
		c.fail(sanity.Errorf("iq/occupancy", cyc, "iqOcc=%d but %d unissued entries", c.iqOcc, iqOcc))
		return
	}
	if physUsed != c.physUsed {
		c.fail(sanity.Errorf("prf/conservation", cyc,
			"physUsed=%d but %d uncommitted destination registers are live (leak or double-free)", c.physUsed, physUsed))
		return
	}
	if lqOcc != c.lqOcc {
		c.fail(sanity.Errorf("lq/occupancy", cyc, "lqOcc=%d but %d live loads", c.lqOcc, lqOcc))
		return
	}

	// Store queue: occupancy and strict age ordering (stores drain to the
	// cache at retirement in program order).
	sqOcc := 0
	lastSeq = -1
	for _, st := range c.storeQueue {
		if st.squashed {
			continue
		}
		sqOcc++
		if st.Seq() <= lastSeq {
			c.fail(sanity.At("lsq/age-order", cyc, st.pc, st.Seq(),
				"store queue out of age order: seq %d after seq %d", st.Seq(), lastSeq))
			return
		}
		lastSeq = st.Seq()
	}
	if sqOcc != c.sqOcc {
		c.fail(sanity.Errorf("sq/occupancy", cyc, "sqOcc=%d but %d live stores", c.sqOcc, sqOcc))
		return
	}

	// Capacity bounds (a conservation bug that slips past the recount for
	// one cycle still cannot oversubscribe a structure unnoticed).
	switch {
	case c.robOcc < 0 || c.robOcc > c.cfg.ROBSize:
		c.fail(sanity.Errorf("rob/capacity", cyc, "robOcc=%d outside [0,%d]", c.robOcc, c.cfg.ROBSize))
		return
	case c.iqOcc < 0 || c.iqOcc > c.cfg.IQSize:
		c.fail(sanity.Errorf("iq/capacity", cyc, "iqOcc=%d outside [0,%d]", c.iqOcc, c.cfg.IQSize))
		return
	case c.lqOcc < 0 || c.lqOcc > c.cfg.LQSize:
		c.fail(sanity.Errorf("lq/capacity", cyc, "lqOcc=%d outside [0,%d]", c.lqOcc, c.cfg.LQSize))
		return
	case c.sqOcc < 0 || c.sqOcc > c.cfg.SQSize:
		c.fail(sanity.Errorf("sq/capacity", cyc, "sqOcc=%d outside [0,%d]", c.sqOcc, c.cfg.SQSize))
		return
	case c.physUsed < 0 || c.physUsed > c.cfg.PhysRegs():
		c.fail(sanity.Errorf("prf/capacity", cyc, "physUsed=%d outside [0,%d]", c.physUsed, c.cfg.PhysRegs()))
		return
	}

	// Policy-private structures (the Selective ROB's queues and tables).
	if pc, ok := c.policy.(policyChecker); ok {
		if err := pc.check(c, cyc); err != nil {
			c.fail(err)
		}
	}
}

// check re-derives an ordered set's bookkeeping from its raw storage: the
// bitmap marks exactly the occupied slots, the member count matches, the
// key span fits the ring, and every occupied slot maps back to a key inside
// [lo, hi). It returns a description of the first broken invariant, or "".
func (s *entrySet) check() string {
	if s.hi-s.lo > int64(len(s.slots)) {
		return fmt.Sprintf("key span [%d,%d) wider than the %d-slot ring", s.lo, s.hi, len(s.slots))
	}
	n := 0
	for i, e := range s.slots {
		bit := s.bits[i>>6]>>(i&63)&1 == 1
		if bit != (e != nil) {
			return fmt.Sprintf("slot %d occupied=%t but bitmap says %t", i, e != nil, bit)
		}
		if e != nil {
			n++
		}
	}
	if n != s.n {
		return fmt.Sprintf("count %d but %d occupied slots", s.n, n)
	}
	found := 0
	for j, ok := s.scan(s.lo); ok; j, ok = s.scan(j + 1) {
		found++
	}
	if found != n {
		return fmt.Sprintf("%d occupied slots but only %d lie in the key span [%d,%d)", n, found, s.lo, s.hi)
	}
	return ""
}
