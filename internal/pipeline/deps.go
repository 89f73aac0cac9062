package pipeline

import (
	"github.com/noreba-sim/noreba/internal/emulator"
	"github.com/noreba-sim/noreba/internal/isa"
)

// Dependence sentinels for DepInfo.DepSeq.
const (
	// DepNone marks an instruction independent of all live branches
	// (BranchID 0 in the paper).
	DepNone int64 = -1
	// DepOrdered marks an instruction whose setDependency referenced a
	// branch ID with no valid BIT entry (the branch has not executed yet,
	// e.g. a loop's first iteration). The hardware serialises such
	// instructions: they wait at the ROB′ head until all older branches
	// resolve, which keeps the single-BranchID encoding sound.
	DepOrdered int64 = -2
)

// DepInfo is the per-dynamic-instruction result of the hardware decode of
// setup instructions (Table 1's Branch Dependencies Flow, steps ❶–❷):
// which dynamic branch instance the instruction waits for, and the branch
// ID assigned to the instruction itself if it is a marked branch.
type DepInfo struct {
	// DepSeq is the trace sequence number of the governing branch
	// instance, or DepNone / DepOrdered.
	DepSeq int64
	// DepPC is the static PC of the governing branch instance, valid only
	// when DepSeq >= 0 (criticality attribution does not need to look the
	// instance up in the trace again).
	DepPC int
	// BranchID is the compiler-assigned ID when this instruction is a
	// marked conditional branch (setBranchId preceded it); 0 otherwise.
	BranchID int64
}

// depTracker incrementally models the Branch Dependencies Flow over a
// dynamic instruction stream: the Branch ID Table (BIT, mapping compiler IDs
// to their most recent dynamic instance) and the single-entry Dependents
// Counter Table (DCT). Feeding it the stream in trace order yields, per
// instruction, the same DepInfo the materialized ComputeDeps produces — in
// O(BIT) state instead of O(trace).
type depTracker struct {
	bit       []depBITEntry
	dctDepSeq int64
	dctDepPC  int
	dctCount  int64
	pendingID int64 // from a decoded setBranchId, applies to the next branch
}

type depBITEntry struct {
	seq   int64
	pc    int
	valid bool
}

// newDepTracker sizes the BIT exactly as the hardware table does; IDs index
// BIT[id mod bitSize], so an undersized table aliases entries just like the
// real structure would.
func newDepTracker(bitSize int) *depTracker {
	return (*depTracker)(nil).reset(bitSize)
}

// reset returns a tracker in newDepTracker's state, reusing t's BIT when it
// already has the size; a nil t allocates.
func (t *depTracker) reset(bitSize int) *depTracker {
	if bitSize < 1 {
		bitSize = 8
	}
	if t == nil || len(t.bit) != bitSize {
		return &depTracker{bit: make([]depBITEntry, bitSize), dctDepSeq: DepNone}
	}
	clear(t.bit)
	*t = depTracker{bit: t.bit, dctDepSeq: DepNone}
	return t
}

// next decodes one dynamic instruction and returns its DepInfo.
func (t *depTracker) next(d *emulator.DynInst) DepInfo {
	switch d.Inst.Op {
	case isa.OpSetBranchID:
		t.pendingID = d.Inst.Imm
		return DepInfo{DepSeq: DepNone}
	case isa.OpSetDependency:
		id := d.Inst.Aux
		e := t.bit[int(id)%len(t.bit)]
		if e.valid {
			t.dctDepSeq, t.dctDepPC = e.seq, e.pc
		} else {
			t.dctDepSeq, t.dctDepPC = DepOrdered, 0
		}
		t.dctCount = d.Inst.Imm
		return DepInfo{DepSeq: DepNone}
	}

	// Any instruction entering ROB′ (step ❷).
	info := DepInfo{DepSeq: DepNone}
	if t.dctCount > 0 {
		info.DepSeq, info.DepPC = t.dctDepSeq, t.dctDepPC
		t.dctCount--
	}
	if d.Inst.Op.IsCondBranch() && t.pendingID > 0 {
		t.bit[int(t.pendingID)%len(t.bit)] = depBITEntry{seq: d.Seq, pc: d.PC, valid: true}
		info.BranchID = t.pendingID
	}
	t.pendingID = 0
	return info
}

// ComputeDeps replays the Branch Dependencies Flow over a materialized
// trace; the i-th returned element describes trace instruction i. Setup
// instructions themselves get DepNone. The sliding-window core computes the
// same information incrementally via depTracker; this form remains for tests
// and offline analysis.
func ComputeDeps(tr *emulator.Trace, bitSize int) []DepInfo {
	t := newDepTracker(bitSize)
	out := make([]DepInfo, len(tr.Insts))
	for i := range tr.Insts {
		out[i] = t.next(&tr.Insts[i])
	}
	return out
}
