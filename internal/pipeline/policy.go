package pipeline

// policy is the commit-stage strategy. All policies share the pipeline and
// the common eligibility rules in Core.eligible; they differ in which
// instructions they may retire each cycle and in what resources retirement
// reclaims.
//
// The commit walks are event-driven: instead of rescanning the ROB, each
// policy examines the core's commit-candidate queue (entries past the event
// that first made them retirable, in dispatch order — see candMode) bounded
// by its incremental commit boundary (the blocker deques). The positional
// semantics of the old full-ROB scans are preserved exactly: a walk stops at
// the first instruction — candidate, live blocker, or committed resident —
// that the old scan would have broken at.
type policy interface {
	dispatch(c *Core, e *Entry)
	// commit retires up to width instructions at cycle and returns how many
	// it retired.
	commit(c *Core, cycle int64, width int) int
	// resolve is called when a control transfer resolves (after the core
	// updates its own branch lists, before any recovery).
	resolve(c *Core, e *Entry)
	// squash drops policy-internal state for instructions younger than seq.
	squash(c *Core, seq int64)
	// accumulate records per-cycle occupancy statistics.
	accumulate(c *Core)
}

func newPolicy(cfg Config) policy {
	switch cfg.Policy {
	case InOrder:
		return &inOrderPolicy{}
	case NonSpecOoO:
		return &nonSpecPolicy{}
	case IdealReconv:
		return &idealReconvPolicy{}
	case SpecBR:
		return &specBRPolicy{}
	case Spec:
		return &specPolicy{}
	case Noreba:
		return newNorebaPolicy(cfg.Selective)
	default:
		return &inOrderPolicy{}
	}
}

// resetPolicy returns a policy for cfg in newPolicy's state, reusing old's
// storage when it is the Selective ROB with the same sizing (the other
// policies are stateless).
func resetPolicy(old policy, cfg Config) policy {
	if p, ok := old.(*norebaPolicy); ok && cfg.Policy == Noreba && p.cfg == cfg.Selective {
		p.reset()
		return p
	}
	return newPolicy(cfg)
}

// commitStep retires e from a candidate-queue walk and reports whether the
// walk must also skip the candidate that directly follows e in the ROB.
// The scans this code replaces ranged over the ROB slice while commitEntry
// spliced drained entries out of the shared backing array, so each
// commit-that-drained shifted the remaining elements left by one and the
// range skipped e's immediate successor that cycle. The golden cycle counts
// bake that positional behaviour in, so the walks reproduce it: when e
// drains at commit and its ROB successor is a candidate (then sitting at
// e's old queue index), the caller advances past it. The one exception is
// the youngest ROB entry: the splice leaves a stale copy of the original
// last element in the tail slot the range still reads, so the last entry
// was always examined and is never skipped.
func (c *Core) commitStep(e *Entry) bool {
	next := e.robNext
	c.commitEntry(e)
	return !e.inROB && next != nil && next.inCand && next != c.robTail
}

type basePolicy struct{}

func (basePolicy) dispatch(*Core, *Entry) {}
func (basePolicy) resolve(*Core, *Entry)  {}
func (basePolicy) squash(*Core, int64)    {}
func (basePolicy) accumulate(*Core)       {}

// inOrderPolicy is the conventional baseline (InO-C): strict head-of-ROB
// commit.
type inOrderPolicy struct{ basePolicy }

func (inOrderPolicy) commit(c *Core, cycle int64, width int) int {
	n := 0
	for n < width && c.robHead != nil {
		e := c.robHead
		if !c.eligible(e, cycle, true, true) {
			break
		}
		c.commitEntry(e)
		n++
	}
	return n
}

// noBoundary is the commit boundary of a walk nothing blocks.
const noBoundary = int64(1) << 62

// commitCandidates is the candidate-queue walk shared by the out-of-order
// policies: in dispatch order, it retires up to width candidates that pass
// the walk's rules (c.walk: eligible, plus depSatisfied when dep is set),
// stopping at the first candidate at or past boundary — or past a committed
// resident there (see residentCutoff) — and honouring commitStep's
// skip-successor rule.
//
// candQ holds only entries past the event that lets them pass (candArm), so
// the walk skips the rest without examining them. That leaves its outcome
// unchanged: a skipped entry could not retire this cycle; if it is the
// committed entry's ROB successor, stepping to the next candidate lands
// where the skip rule would have; and if it sits at or past the boundary,
// so does every later candidate (dispatch order is age order among
// uncommitted entries), so the walk breaks at the next one instead.
func (c *Core) commitCandidates(cycle int64, width int, boundary int64) int {
	residentCut := noBoundary
	if boundary != noBoundary {
		residentCut = c.residentCutoff(boundary)
	}
	n := 0
	for e := c.candQ.first(); e != nil && n < width; {
		if e.dispatchOrder > residentCut || e.seq >= boundary {
			break
		}
		k, skip := e.dispatchOrder, false
		if c.eligible(e, cycle, c.walk.memOrder, c.walk.completion) && (!c.walk.dep || depSatisfied(c, e)) {
			skip = c.commitStep(e) // removes e from candQ
			n++
		}
		e = c.candQ.after(k)
		if skip {
			e = c.candQ.after(e.dispatchOrder)
		}
	}
	return n
}

// nonSpecPolicy is Bell & Lipasti's non-speculative OoO commit: a completed
// instruction may retire once every older branch has resolved and every
// older memory operation has passed translation (no possible trap ahead of
// it). Memory operations additionally retire in program order.
type nonSpecPolicy struct{ basePolicy }

func (nonSpecPolicy) commit(c *Core, cycle int64, width int) int {
	return c.commitCandidates(cycle, width, c.nonSpecBoundary(cycle))
}

// idealReconvPolicy commits with Noreba's compiler information but an ideal
// ROB: any completed instruction whose governing branch instance has
// resolved may retire, with no queue or table capacity limits. Condition 2
// still holds: a possibly-trapping older access blocks commit.
type idealReconvPolicy struct{ basePolicy }

func (idealReconvPolicy) commit(c *Core, cycle int64, width int) int {
	return c.commitCandidates(cycle, width, c.memTrapBoundary(cycle))
}

// depSatisfied checks the compiler-dependence commit condition shared by
// the ideal-reconvergence policy: the instruction's governing branch
// instance has resolved, DepOrdered instructions wait for all older
// branches, and unmarked unresolved branches serialise everything younger.
// Every clause reads an eagerly-maintained set, so the check is O(1).
func depSatisfied(c *Core, e *Entry) bool {
	// An unmarked (no setBranchId) unresolved conditional branch blocks
	// all younger instructions: the compiler gave no information about
	// its dependents.
	if b := c.unmarkedUnresolved.first(); b != nil && b.seq < e.seq {
		return false
	}
	switch {
	case e.dep.DepSeq == DepNone:
		return true
	case e.dep.DepSeq == DepOrdered:
		return c.allOlderBranchesResolved(e)
	default:
		idx := int(e.dep.DepSeq)
		if c.win.isCommitted(idx) {
			return true
		}
		if b := c.findLiveBranch(e.dep.DepSeq); b != nil {
			return b.resolved && !b.mispredictPending()
		}
		return false // not fetched (skipped region): poisoned
	}
}

// mispredictPending reports whether the branch resolved mispredicted but
// its recovery semantics make dependents unsafe; resolved branches in this
// model have already recovered, so only unresolved counts.
func (e *Entry) mispredictPending() bool { return e.mispredicted && !e.resolved }

// specBRPolicy is the SpeculativeBR oracle: the branch condition is fully
// relaxed (completed instructions retire past unresolved branches with no
// misspeculation cost), while the memory-trap condition and program-order
// memory retirement still hold.
type specBRPolicy struct{ basePolicy }

func (specBRPolicy) commit(c *Core, cycle int64, width int) int {
	return c.commitCandidates(cycle, width, c.memTrapBoundary(cycle))
}

// specPolicy is Figure 1's fully speculative oracle: completed instructions
// retire with every commit condition relaxed.
type specPolicy struct{ basePolicy }

func (specPolicy) commit(c *Core, cycle int64, width int) int {
	return c.commitCandidates(cycle, width, noBoundary)
}
