package pipeline

import (
	"github.com/noreba-sim/noreba/internal/isa"
)

// opClass buckets ops by functional unit.
type opClass uint8

const (
	opIntALU opClass = iota
	opIntMul
	opIntDiv
	opFPALU
	opFPDiv
	opLoad
	opStore
	opBranch
	opOther
)

func classOf(op isa.Op) opClass {
	switch op.Class() {
	case isa.ClassIntALU:
		return opIntALU
	case isa.ClassIntMul:
		return opIntMul
	case isa.ClassIntDiv:
		return opIntDiv
	case isa.ClassFPALU:
		return opFPALU
	case isa.ClassFPDiv:
		return opFPDiv
	case isa.ClassLoad:
		return opLoad
	case isa.ClassStore:
		return opStore
	case isa.ClassBranch, isa.ClassJump:
		return opBranch
	default:
		return opOther
	}
}

// decoded is the per-instruction decode the pipeline stages consult: the
// functional-unit class and the flags the isa switches would otherwise
// re-derive at every fetch and dispatch. window.fill decodes each record
// once; fetch copies the decode into the record's Entry. It is two bytes,
// so a window record stays exactly two cache lines.
type decoded struct {
	class opClass
	flags decFlags
}

type decFlags uint8

const (
	decCondBranch decFlags = 1 << iota
	decJalr
	decMem
	decFence
	decHasDest // writes an architectural register
	decSetup   // setBranchId/setDependency: dropped at fetch
	decCall    // jal writing ra: pushes the return-address stack
)

func (d decoded) isCondBranch() bool { return d.flags&decCondBranch != 0 }
func (d decoded) isJalr() bool       { return d.flags&decJalr != 0 }
func (d decoded) isMem() bool        { return d.flags&decMem != 0 }
func (d decoded) isFence() bool      { return d.flags&decFence != 0 }
func (d decoded) hasDest() bool      { return d.flags&decHasDest != 0 }
func (d decoded) isSetup() bool      { return d.flags&decSetup != 0 }
func (d decoded) isCall() bool       { return d.flags&decCall != 0 }

// Entry is one in-flight dynamic instruction in the pipeline. Entries are
// pooled: when an instruction drains (committed and completed, or squashed
// and reclaimed) its Entry is recycled for a later instruction, with gen
// bumped so generation-tagged references to the former life read as stale.
type Entry struct {
	idx int // trace index
	// rec points at the instruction's window arena slot. Arena slots are
	// stable while resident, so the pointer is valid from fetch until the
	// record is released — which can happen as soon as the instruction
	// commits and the fetch cursor passes it. A committed-but-incomplete
	// entry (relaxed Condition 1) outlives its record: everything the
	// post-commit paths read is cached in the scalars below at fetch, and
	// rec must not be dereferenced once committed is set.
	rec *instRecord
	// Scalars cached out of the record at fetch: the post-commit and
	// sanitizer paths (drain, resident cutoffs, diagnostics) stay valid
	// after the record is released, and the hot loops touch one small Entry
	// field instead of chasing rec.
	seq   int64
	pc    int
	addr  int64
	rd    isa.Reg
	taken bool
	dep   DepInfo
	decoded

	gen uint32 // pool generation; bumped on recycle

	dispatchable int64 // earliest dispatch cycle (front-end depth)
	dispatched   bool
	issued       bool
	done         bool
	doneAt       int64

	// dispatchOrder numbers entries in the order they entered the ROB — the
	// order the old code scanned the ROB slice in. The event-driven ready and
	// commit-candidate queues sort by it to reproduce scan order exactly.
	// Unlike Seq it never repeats, even across squash/refetch.
	dispatchOrder int64

	// Branch state.
	mispredicted bool
	resolved     bool
	resolvedAt   int64
	resumeIdx    int // refetch point after recovery

	// Memory state. A memory op "resolves" when its translation succeeds
	// (addrReadyAt); data arrives at doneAt.
	addrReadyAt int64

	// Register dependence. producers are the in-flight entries this one
	// waited on at rename (kept for the sanitizer's from-scratch readiness
	// re-derivation); consumers are the dispatched entries waiting on this
	// one's result, woken at writeback. waits counts producers that have
	// neither completed nor been squashed: the entry is issue-ready when it
	// reaches zero. Both edge lists are generation-tagged because either
	// side may drain and be recycled while the other is still in flight.
	producers []entryRef
	consumers []entryRef
	waits     int32

	// Scheduler membership flags (see core.go).
	inReady bool
	inCand  bool

	// resident is this entry's index in the core's committed-residents list
	// while it is committed but not yet completed, -1 otherwise.
	resident int

	// Commit state.
	committed bool
	oooCommit bool // committed while not the oldest uncommitted entry
	squashed  bool

	// lqHeld marks a load that committed before its data returned (relaxed
	// Condition 1): its load-queue entry stays allocated until completion.
	lqHeld bool

	// Intrusive ROB links: the ROB is a doubly-linked list in dispatch order
	// so removal is O(1) and commit walks start at the head.
	robPrev, robNext *Entry
	inROB            bool

	// Noreba state.
	steered    bool // left ROB′ into a commit queue
	queue      int  // queue index once steered (0 = PR-CQ, 1.. = BR-CQs)
	windowInst bool // fetched during a misprediction window (beyond reconvergence)
	cqtCounted bool // counted in the policy's live-CQT tally (unresolved in CQT)
}

// Seq returns the entry's dynamic sequence number.
func (e *Entry) Seq() int64 { return e.seq }

// reset clears per-life state for pool reuse, keeping gen and the edge-list
// capacities.
func (e *Entry) reset() {
	producers, consumers := e.producers[:0], e.consumers[:0]
	gen := e.gen
	// Zero then restore the kept fields: assigning a composite literal with
	// non-zero fields materialises a stack temporary and block-copies it,
	// twice the writes of a plain zeroing store on this hot path.
	*e = Entry{}
	e.gen = gen
	e.producers = producers
	e.consumers = consumers
	e.resident = -1
}

// ready reports whether all source operands are available at cycle. The hot
// path uses the waits counter instead; this re-derivation from the producer
// edges backs the sanitizer's cross-check.
func (e *Entry) ready(cycle int64) bool {
	for _, ref := range e.producers {
		if !ref.live() || ref.e.squashed {
			continue // drained or squashed producer: value forwarded or re-executed
		}
		if !ref.e.done || ref.e.doneAt > cycle {
			return false
		}
	}
	return true
}
