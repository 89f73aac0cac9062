// Package emulator is the functional (architectural) model of the NOREBA
// ISA. It executes a laid-out program image instruction by instruction,
// maintaining architectural state, and emits the correct-path dynamic
// instruction trace the cycle-level pipeline model replays.
//
// The emulator is also the repository's golden model: tests compare
// architectural state across commit policies and after exception recovery
// against it.
package emulator

import (
	"fmt"
	"math"

	"github.com/noreba-sim/noreba/internal/isa"
	"github.com/noreba-sim/noreba/internal/program"
)

// MemError is the memory exception of §4.4: an access outside the image's
// valid address ranges (a page fault / mprotect-style violation).
type MemError struct {
	PC   int
	Seq  int64
	Addr int64
}

func (e *MemError) Error() string {
	return fmt.Sprintf("memory exception at pc %d (seq %d): illegal address %#x", e.PC, e.Seq, e.Addr)
}

// Machine holds architectural state: the integer and floating-point
// register files, memory, and the program counter.
type Machine struct {
	img *program.Image

	IntRegs [32]int64
	FPRegs  [32]float64
	// Mem and FMem are the machine's memory. On a machine from NewRestored
	// they hold only the machine's own writes, and reads of other addresses
	// fall through to the frozen snapshot maps in base and fbase; Snapshot
	// returns the merged view.
	Mem  map[int64]int64
	FMem map[int64]float64
	PC   int

	base  map[int64]int64
	fbase map[int64]float64

	seq    int64
	halted bool
}

// New creates a machine with the image's initial data loaded and PC at 0.
func New(img *program.Image) *Machine {
	return &Machine{
		img:  img,
		Mem:  cloneMap(img.Data),
		FMem: cloneMap(img.FData),
	}
}

// Image returns the program image the machine executes.
func (m *Machine) Image() *program.Image { return m.img }

// Halted reports whether the program has executed halt or run off the end
// of the text segment.
func (m *Machine) Halted() bool { return m.halted || m.PC < 0 || m.PC >= len(m.img.Insts) }

// Seq returns the number of dynamic instructions executed so far.
func (m *Machine) Seq() int64 { return m.seq }

func (m *Machine) legalAddr(a int64) bool {
	if len(m.img.ValidRanges) == 0 {
		return true
	}
	for _, r := range m.img.ValidRanges {
		if a >= r[0] && a < r[1] {
			return true
		}
	}
	return false
}

func (m *Machine) readInt(r isa.Reg) int64 {
	if r == isa.X0 {
		return 0
	}
	return m.IntRegs[r]
}

func (m *Machine) writeInt(r isa.Reg, v int64) {
	if r != isa.X0 {
		m.IntRegs[r] = v
	}
}

func (m *Machine) readFP(r isa.Reg) float64     { return m.FPRegs[r-isa.F0] }
func (m *Machine) writeFP(r isa.Reg, v float64) { m.FPRegs[r-isa.F0] = v }

// Step executes one instruction and returns its dynamic-trace record.
// A memory exception returns a *MemError; the faulting instruction is still
// recorded (with Trap set) and the PC is left at the faulting instruction so
// an OS-style handler can inspect and resume.
func (m *Machine) Step() (DynInst, error) {
	var d DynInst
	err := m.StepInto(&d)
	return d, err
}

// StepInto is Step writing the dynamic-trace record into *d instead of
// returning it: trace sources sit on the per-instruction hot path of both
// detailed and functional-warming simulation, where the record's size makes
// the extra value copy measurable.
func (m *Machine) StepInto(d *DynInst) error {
	if m.Halted() {
		return fmt.Errorf("emulator: step after halt")
	}
	pc := m.PC
	in := &m.img.Insts[pc]
	// Zero then store: a composite literal with non-constant fields goes
	// through a stack temporary and a block copy, double the writes on the
	// emulation hot loop.
	*d = DynInst{}
	d.Seq = m.seq
	d.PC = pc
	d.Inst = *in
	d.NextPC = pc + 1
	m.seq++

	switch in.Op {
	case isa.OpAdd:
		m.writeInt(in.Rd, m.readInt(in.Rs1)+m.readInt(in.Rs2))
	case isa.OpSub:
		m.writeInt(in.Rd, m.readInt(in.Rs1)-m.readInt(in.Rs2))
	case isa.OpAnd:
		m.writeInt(in.Rd, m.readInt(in.Rs1)&m.readInt(in.Rs2))
	case isa.OpOr:
		m.writeInt(in.Rd, m.readInt(in.Rs1)|m.readInt(in.Rs2))
	case isa.OpXor:
		m.writeInt(in.Rd, m.readInt(in.Rs1)^m.readInt(in.Rs2))
	case isa.OpSll:
		m.writeInt(in.Rd, m.readInt(in.Rs1)<<(uint64(m.readInt(in.Rs2))&63))
	case isa.OpSrl:
		m.writeInt(in.Rd, int64(uint64(m.readInt(in.Rs1))>>(uint64(m.readInt(in.Rs2))&63)))
	case isa.OpSra:
		m.writeInt(in.Rd, m.readInt(in.Rs1)>>(uint64(m.readInt(in.Rs2))&63))
	case isa.OpSlt:
		m.writeInt(in.Rd, b2i(m.readInt(in.Rs1) < m.readInt(in.Rs2)))
	case isa.OpSltu:
		m.writeInt(in.Rd, b2i(uint64(m.readInt(in.Rs1)) < uint64(m.readInt(in.Rs2))))

	case isa.OpAddi:
		m.writeInt(in.Rd, m.readInt(in.Rs1)+in.Imm)
	case isa.OpAndi:
		m.writeInt(in.Rd, m.readInt(in.Rs1)&in.Imm)
	case isa.OpOri:
		m.writeInt(in.Rd, m.readInt(in.Rs1)|in.Imm)
	case isa.OpXori:
		m.writeInt(in.Rd, m.readInt(in.Rs1)^in.Imm)
	case isa.OpSlli:
		m.writeInt(in.Rd, m.readInt(in.Rs1)<<(uint64(in.Imm)&63))
	case isa.OpSrli:
		m.writeInt(in.Rd, int64(uint64(m.readInt(in.Rs1))>>(uint64(in.Imm)&63)))
	case isa.OpSrai:
		m.writeInt(in.Rd, m.readInt(in.Rs1)>>(uint64(in.Imm)&63))
	case isa.OpSlti:
		m.writeInt(in.Rd, b2i(m.readInt(in.Rs1) < in.Imm))
	case isa.OpLui:
		m.writeInt(in.Rd, in.Imm<<12)

	case isa.OpMul:
		m.writeInt(in.Rd, m.readInt(in.Rs1)*m.readInt(in.Rs2))
	case isa.OpMulh:
		hi, _ := mul128(m.readInt(in.Rs1), m.readInt(in.Rs2))
		m.writeInt(in.Rd, hi)
	case isa.OpDiv:
		den := m.readInt(in.Rs2)
		if den == 0 {
			m.writeInt(in.Rd, -1) // RISC-V semantics: divide by zero = all ones
		} else {
			m.writeInt(in.Rd, m.readInt(in.Rs1)/den)
		}
	case isa.OpRem:
		den := m.readInt(in.Rs2)
		if den == 0 {
			m.writeInt(in.Rd, m.readInt(in.Rs1))
		} else {
			m.writeInt(in.Rd, m.readInt(in.Rs1)%den)
		}

	case isa.OpFadd:
		m.writeFP(in.Rd, m.readFP(in.Rs1)+m.readFP(in.Rs2))
	case isa.OpFsub:
		m.writeFP(in.Rd, m.readFP(in.Rs1)-m.readFP(in.Rs2))
	case isa.OpFmul:
		m.writeFP(in.Rd, m.readFP(in.Rs1)*m.readFP(in.Rs2))
	case isa.OpFdiv:
		m.writeFP(in.Rd, m.readFP(in.Rs1)/m.readFP(in.Rs2))
	case isa.OpFsqrt:
		m.writeFP(in.Rd, math.Sqrt(m.readFP(in.Rs1)))
	case isa.OpFmin:
		m.writeFP(in.Rd, math.Min(m.readFP(in.Rs1), m.readFP(in.Rs2)))
	case isa.OpFmax:
		m.writeFP(in.Rd, math.Max(m.readFP(in.Rs1), m.readFP(in.Rs2)))
	case isa.OpFcvtIF:
		m.writeFP(in.Rd, float64(m.readInt(in.Rs1)))
	case isa.OpFcvtFI:
		m.writeInt(in.Rd, int64(m.readFP(in.Rs1)))
	case isa.OpFlt:
		m.writeInt(in.Rd, b2i(m.readFP(in.Rs1) < m.readFP(in.Rs2)))
	case isa.OpFle:
		m.writeInt(in.Rd, b2i(m.readFP(in.Rs1) <= m.readFP(in.Rs2)))
	case isa.OpFeq:
		m.writeInt(in.Rd, b2i(m.readFP(in.Rs1) == m.readFP(in.Rs2)))

	case isa.OpLw, isa.OpFlw:
		addr := m.readInt(in.Rs1) + in.Imm
		d.Addr = addr
		if !m.legalAddr(addr) {
			d.Trap = true
			m.seq-- // the faulting instruction has not retired
			return &MemError{PC: pc, Seq: d.Seq, Addr: addr}
		}
		if in.Op == isa.OpLw {
			v, ok := m.Mem[addr]
			if !ok {
				v = m.base[addr]
			}
			m.writeInt(in.Rd, v)
		} else {
			v, ok := m.FMem[addr]
			if !ok {
				v = m.fbase[addr]
			}
			m.writeFP(in.Rd, v)
		}
	case isa.OpSw, isa.OpFsw:
		addr := m.readInt(in.Rs1) + in.Imm
		d.Addr = addr
		if !m.legalAddr(addr) {
			d.Trap = true
			m.seq--
			return &MemError{PC: pc, Seq: d.Seq, Addr: addr}
		}
		if in.Op == isa.OpSw {
			m.Mem[addr] = m.readInt(in.Rs2)
		} else {
			m.FMem[addr] = m.readFP(in.Rs2)
		}

	case isa.OpBeq:
		d.Taken = m.readInt(in.Rs1) == m.readInt(in.Rs2)
	case isa.OpBne:
		d.Taken = m.readInt(in.Rs1) != m.readInt(in.Rs2)
	case isa.OpBlt:
		d.Taken = m.readInt(in.Rs1) < m.readInt(in.Rs2)
	case isa.OpBge:
		d.Taken = m.readInt(in.Rs1) >= m.readInt(in.Rs2)
	case isa.OpBltu:
		d.Taken = uint64(m.readInt(in.Rs1)) < uint64(m.readInt(in.Rs2))
	case isa.OpBgeu:
		d.Taken = uint64(m.readInt(in.Rs1)) >= uint64(m.readInt(in.Rs2))
	case isa.OpJal:
		m.writeInt(in.Rd, int64(pc+1))
		d.Taken = true
		d.NextPC = in.Target
	case isa.OpJalr:
		target := int(m.readInt(in.Rs1) + in.Imm)
		m.writeInt(in.Rd, int64(pc+1))
		d.Taken = true
		d.NextPC = target

	case isa.OpSetBranchID, isa.OpSetDependency:
		// Setup instructions occupy a fetch slot but have no architectural
		// effect (dropped at decode, §4).
	case isa.OpGetCITEntry, isa.OpSetCITEntry:
		// CIT exchange is a microarchitectural effect; architecturally a
		// no-op (the OS treats the value as an opaque token).
	case isa.OpFence:
		// Synchronisation barrier: no architectural effect single-threaded.
	case isa.OpNop:
	case isa.OpHalt:
		m.halted = true
	default:
		return fmt.Errorf("emulator: unimplemented op %v at pc %d", in.Op, pc)
	}

	if in.Op.IsCondBranch() && d.Taken {
		d.NextPC = in.Target
	}
	m.PC = d.NextPC
	return nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// mul128 returns the high and low 64 bits of a*b (signed).
func mul128(a, b int64) (hi, lo int64) {
	au, bu := uint64(a), uint64(b)
	aHi, aLo := au>>32, au&0xffffffff
	bHi, bLo := bu>>32, bu&0xffffffff
	t := aLo * bLo
	w0 := t & 0xffffffff
	k := t >> 32
	t = aHi*bLo + k
	w1 := t & 0xffffffff
	w2 := t >> 32
	t = aLo*bHi + w1
	k = t >> 32
	hiU := aHi*bHi + w2 + k
	loU := (t << 32) + w0
	// Convert unsigned 128-bit product to signed.
	h := int64(hiU)
	if a < 0 {
		h -= b
	}
	if b < 0 {
		h -= a
	}
	return h, int64(loU)
}
