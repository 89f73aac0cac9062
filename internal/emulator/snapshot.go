package emulator

import (
	"maps"

	"github.com/noreba-sim/noreba/internal/program"
)

// Snapshot is a deep copy of architectural state, used to model the
// §4.4/§4.3 OS flows: on an exception or context switch the OS captures the
// machine (including whatever the CIT exposed), runs something else, and
// later restores and resumes.
type Snapshot struct {
	IntRegs [32]int64
	FPRegs  [32]float64
	Mem     map[int64]int64
	FMem    map[int64]float64
	PC      int
	Seq     int64
	Halted  bool
}

// Snapshot captures the machine's architectural state. The snapshot owns
// full, independent memory maps even when the machine reads through to a
// restored snapshot.
func (m *Machine) Snapshot() Snapshot {
	return Snapshot{
		IntRegs: m.IntRegs,
		FPRegs:  m.FPRegs,
		PC:      m.PC,
		Seq:     m.seq,
		Halted:  m.halted,
		Mem:     mergeMap(m.base, m.Mem),
		FMem:    mergeMap(m.fbase, m.FMem),
	}
}

// mergeMap returns a fresh map holding base overlaid with writes. Machine
// memory is never deleted from, so the overlay is the whole view.
func mergeMap[M ~map[K]V, K comparable, V any](base, writes M) M {
	if len(base) == 0 {
		return cloneMap(writes)
	}
	merged := cloneMap(base)
	for k, v := range writes {
		merged[k] = v
	}
	return merged
}

// cloneMap is maps.Clone that never returns nil: machine memory maps must
// stay writable even when the source is empty.
func cloneMap[M ~map[K]V, K comparable, V any](src M) M {
	if len(src) == 0 {
		return make(M)
	}
	return maps.Clone(src)
}

// RebaseSeq resets the dynamic sequence counter to zero. The pipeline's
// dependence tracking identifies branch instances by sequence number and
// relies on the stream's first instruction having Seq 0 (sequence numbers
// double as sliding-window indices), so a consumer feeding the pipeline a
// stream that starts from a restored snapshot — the sampler's detailed
// windows — rebases the counter after Restore.
func (m *Machine) RebaseSeq() { m.seq = 0 }

// Restore replaces the machine's architectural state with the snapshot,
// copying its memory into the machine's own maps.
func (m *Machine) Restore(s Snapshot) {
	m.restoreRegs(s)
	m.Mem = cloneMap(s.Mem)
	m.FMem = cloneMap(s.FMem)
	m.base, m.fbase = nil, nil
}

func (m *Machine) restoreRegs(s Snapshot) {
	m.IntRegs = s.IntRegs
	m.FPRegs = s.FPRegs
	m.PC = s.PC
	m.seq = s.Seq
	m.halted = s.Halted
}

// NewRestored creates a machine directly in the snapshot's state without
// copying its memory: the machine reads through to s's maps and keeps only
// its own writes, so its set-up cost is independent of the program's data
// size. s's maps must not change while the machine is live. Sampled
// simulation builds a machine per detailed window this way, all reading one
// frozen checkpoint.
func NewRestored(img *program.Image, s Snapshot) *Machine {
	m := &Machine{
		img:   img,
		Mem:   make(map[int64]int64),
		FMem:  make(map[int64]float64),
		base:  s.Mem,
		fbase: s.FMem,
	}
	m.restoreRegs(s)
	return m
}
