package emulator

// Counts summarises a dynamic instruction stream.
type Counts struct {
	Insts    int64 // dynamic instructions delivered
	Branches int64 // conditional branches
	Loads    int64
	Stores   int64
	Setup    int64 // setBranchId + setDependency occurrences
}

// Add folds one delivered instruction into the summary. Exported for
// alternative TraceSource implementations (the trace-file replay reader must
// count exactly as the live sources do).
func (c *Counts) Add(d *DynInst) { c.add(d) }

func (c *Counts) add(d *DynInst) {
	c.Insts++
	switch {
	case d.Inst.Op.IsCondBranch():
		c.Branches++
	case d.Inst.Op.IsLoad():
		c.Loads++
	case d.Inst.Op.IsStore():
		c.Stores++
	case d.Inst.Op.IsSetup():
		c.Setup++
	}
}

// TraceSource is a pull-based stream of correct-path dynamic instructions:
// the unit of work the cycle-level pipeline model consumes. Unlike a
// materialized Trace, a source need not hold the whole stream in memory —
// the live emulator produces instructions on demand, so a consumer that
// keeps only a sliding window runs in O(window) space instead of O(trace).
//
// NextInto writes into caller-owned storage, so a consumer that keeps
// records (a window arena slot, a broadcast ring slot) receives each one
// where it will live: the live emulator executes straight into it. After
// NextInto returns false, Err reports whether the stream ended on a memory
// exception (or other execution error) rather than a clean halt; a faulting
// access is still delivered (with Trap set) before the stream ends. Sources
// are single-consumer and not safe for concurrent use.
type TraceSource interface {
	// Name identifies the program the stream executes.
	Name() string
	// NextInto fully overwrites *d with the next dynamic instruction and
	// reports whether one was produced. On false *d holds garbage, and every
	// later call returns false too.
	NextInto(d *DynInst) bool
	// Err reports the terminal error, if any, once NextInto has returned
	// false.
	Err() error
	// Counts summarises the instructions delivered so far.
	Counts() Counts
}

// MachineSource streams a live emulator, bounded by maxInsts.
type MachineSource struct {
	m        *Machine
	maxInsts int64
	counts   Counts
	err      error
	done     bool
}

// NewSource returns a TraceSource that executes the machine on demand: each
// NextInto steps the emulator once, until halt, a memory exception, or
// maxInsts dynamic instructions. On a memory exception the faulting
// instruction is delivered (Trap set) and the stream then ends with Err
// returning the *MemError.
func NewSource(m *Machine, maxInsts int64) *MachineSource {
	return &MachineSource{m: m, maxInsts: maxInsts}
}

func (s *MachineSource) Name() string { return s.m.img.Name }

// Next is NextInto by value, for callers outside this module that drain a
// live emulator without records of their own (the benchmark harness).
func (s *MachineSource) Next() (DynInst, bool) {
	var d DynInst
	ok := s.NextInto(&d)
	return d, ok
}

func (s *MachineSource) NextInto(d *DynInst) bool {
	if s.done || s.m.Halted() || s.counts.Insts >= s.maxInsts {
		s.done = true
		return false
	}
	err := s.m.StepInto(d)
	if err != nil {
		s.done = true
		s.err = err
		if _, ok := err.(*MemError); ok {
			// The faulting access is part of the correct-path stream.
			s.counts.add(d)
			return true
		}
		return false
	}
	s.counts.add(d)
	return true
}

func (s *MachineSource) Err() error     { return s.err }
func (s *MachineSource) Counts() Counts { return s.counts }

// traceSource replays an already-materialized Trace.
type traceSource struct {
	tr     *Trace
	pos    int
	counts Counts
}

// Source returns a TraceSource replaying the materialized trace. The trace's
// terminal error (if its producing run ended on one) is not replayed: a
// materialized trace is by definition a complete correct-path stream.
func (tr *Trace) Source() TraceSource { return &traceSource{tr: tr} }

func (s *traceSource) Name() string { return s.tr.Name }

func (s *traceSource) NextInto(d *DynInst) bool {
	if s.pos >= len(s.tr.Insts) {
		return false
	}
	*d = s.tr.Insts[s.pos]
	s.pos++
	s.counts.add(d)
	return true
}

func (s *traceSource) Err() error     { return nil }
func (s *traceSource) Counts() Counts { return s.counts }

// Materialize drains a source into a Trace. It returns the instructions
// delivered before any error together with the source's terminal error, so
// callers that need the full random-access trace (golden tests, the
// multicore barrier validator) keep the exact semantics of Machine.Run.
func Materialize(src TraceSource) (*Trace, error) {
	tr := &Trace{Name: src.Name()}
	var d DynInst
	for src.NextInto(&d) {
		tr.Insts = append(tr.Insts, d)
		tr.count(d)
	}
	return tr, src.Err()
}
