// Package multicore models the §4.5 deployment of NOREBA: several cores,
// each running its own trace through the cycle-level pipeline, sharing a
// last-level cache, and synchronising at fence barriers. The paper argues
// NOREBA needs three properties to be multicore-safe — the compiler pass
// operates only between synchronisation barriers, memory barriers commit
// in order, and TLB checks precede commit-queue steering — all of which the
// single-core model already provides; this package adds the system-level
// wiring (shared LLC contention and inter-core barrier timing) so those
// claims can be exercised.
//
// Data values are not exchanged between cores (each trace is precomputed),
// so the model is a timing study: it answers how shared-LLC contention and
// barrier waits affect NOREBA versus in-order commit, for DRF programs.
package multicore

import (
	"context"
	"fmt"
	"slices"

	"github.com/noreba-sim/noreba/internal/compiler"
	"github.com/noreba-sim/noreba/internal/emulator"
	"github.com/noreba-sim/noreba/internal/pipeline"
)

// CoreInput is one core's program: its dynamic instruction stream and branch
// metadata. Any TraceSource works — a live emulator (memory stays bounded by
// each core's in-flight window) or a materialized Trace via Trace.Source.
type CoreInput struct {
	Source emulator.TraceSource
	Meta   *compiler.Meta
}

// Config describes the system.
type Config struct {
	// Core is the per-core configuration (policy, sizes, prefetcher).
	Core pipeline.Config
	// ShareLLC gives every core private L1/L2 slices backed by one shared
	// L3; false gives fully private hierarchies (the scaling baseline).
	ShareLLC bool
	// Barriers, when true, synchronises the cores at their fences: the
	// n-th fence of any core commits only after every core has reached its
	// n-th fence. Traces must then contain the same number of fences.
	Barriers bool
	// AddressSpaceStride offsets core i's data addresses by i×stride,
	// modelling separate processes in distinct physical pages (so a shared
	// LLC exhibits contention rather than accidental sharing). Zero means
	// all cores share one address space (threads of one process).
	AddressSpaceStride int64
}

// System is a set of cores stepping in lockstep.
type System struct {
	cores []*pipeline.Core
	// arrived[i] is the number of barriers core i has reached (its fence
	// was commit-ready except for the gate).
	arrived []int64
	// maxSkew records the largest observed difference in barrier progress
	// between the fastest and slowest core — the barrier-tightness witness
	// used by tests.
	maxSkew int64
}

// New builds a system of len(inputs) cores.
func New(cfg Config, inputs []CoreInput) (*System, error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("multicore: no cores")
	}
	inputs = slices.Clone(inputs)
	if cfg.Barriers {
		// Validating barrier counts requires seeing each whole stream up
		// front, so barrier mode materializes the inputs and replays them;
		// unsynchronised systems keep streaming.
		fences := -1
		for i := range inputs {
			tr, err := emulator.Materialize(inputs[i].Source)
			if err != nil {
				return nil, fmt.Errorf("multicore: core %d stream: %w", i, err)
			}
			n := 0
			for j := range tr.Insts {
				if tr.Insts[j].Inst.Op.IsFence() {
					n++
				}
			}
			if fences == -1 {
				fences = n
			} else if n != fences {
				return nil, fmt.Errorf("multicore: core %d has %d fences, core 0 has %d — barrier counts must match", i, n, fences)
			}
			inputs[i].Source = tr.Source()
		}
	}

	s := &System{arrived: make([]int64, len(inputs))}
	for i, in := range inputs {
		src := in.Source
		if off := cfg.AddressSpaceStride * int64(i); off != 0 {
			src = &offsetSource{src: src, delta: off}
		}
		coreCfg := cfg.Core
		if cfg.Barriers {
			id := i
			coreCfg.FenceGate = func(n int64) bool { return s.barrierGate(id, n) }
		}
		s.cores = append(s.cores, pipeline.NewCoreFromSource(coreCfg, src, in.Meta))
	}
	if cfg.ShareLLC {
		pipeline.ShareLLC(s.cores)
	}
	return s, nil
}

// offsetSource shifts every memory address in the stream by delta (a
// distinct physical address space for one core) without copying the stream.
type offsetSource struct {
	src   emulator.TraceSource
	delta int64
}

func (s *offsetSource) Name() string { return s.src.Name() }

func (s *offsetSource) NextInto(d *emulator.DynInst) bool {
	if !s.src.NextInto(d) {
		return false
	}
	if d.Inst.Op.IsMem() {
		d.Addr += s.delta
	}
	return true
}

func (s *offsetSource) Err() error              { return s.src.Err() }
func (s *offsetSource) Counts() emulator.Counts { return s.src.Counts() }

// barrierGate implements arrive/release barrier timing: calling the gate
// marks the core as having reached barrier n; the fence retires once every
// core has reached it.
func (s *System) barrierGate(core int, n int64) bool {
	if s.arrived[core] < n+1 {
		s.arrived[core] = n + 1
	}
	min, max := s.arrived[0], s.arrived[0]
	for _, a := range s.arrived[1:] {
		if a < min {
			min = a
		}
		if a > max {
			max = a
		}
	}
	if skew := max - min; skew > s.maxSkew {
		s.maxSkew = skew
	}
	return min >= n+1
}

// Run is RunContext with a background context.
func (s *System) Run() ([]*pipeline.Stats, error) { return s.RunContext(context.Background()) }

// RunContext steps every core in lockstep (pipeline.RunLockstep) until all
// streams have fully committed, then returns per-core statistics. A
// cancelled or timed-out run, a failed trace source, a sanitizer violation
// or a livelock returns an error wrapping the cause, alongside the partial
// statistics.
func (s *System) RunContext(ctx context.Context) ([]*pipeline.Stats, error) {
	return pipeline.RunLockstep(ctx, s.cores)
}

// MaxBarrierSkew returns the largest observed difference in barrier
// progress between cores (0 or 1 for a correct barrier: no core may be a
// whole barrier ahead of another while both are still arriving).
func (s *System) MaxBarrierSkew() int64 { return s.maxSkew }
