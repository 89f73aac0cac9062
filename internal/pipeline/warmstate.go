package pipeline

import (
	"context"
	"fmt"

	"github.com/noreba-sim/noreba/internal/branchpred"
	"github.com/noreba-sim/noreba/internal/cache"
	"github.com/noreba-sim/noreba/internal/emulator"
	"github.com/noreba-sim/noreba/internal/isa"
	"github.com/noreba-sim/noreba/internal/prefetch"
)

// WarmState is the functional model of a core's long-lived
// microarchitectural state — instruction and data cache hierarchies,
// prefetcher table, branch predictor and return-address stack — driven at
// emulator speed, with no pipeline timing (SMARTS-style functional warming).
// Every core builds these parts through NewWarmState; sampled simulation
// replays a stream prefix through one (Replay), freezes it at each
// representative's window boundary (Capture), and installs an independent
// copy of a capture in each detailed window (Core.Reset). Warming never
// touches the pipeline model, so one capture serves every commit policy
// sharing the same cache/predictor geometry.
type WarmState struct {
	l1Lat  int64
	dcache *cache.Hierarchy
	icache *cache.Hierarchy
	dcpt   *prefetch.DCPT
	pred   branchpred.Predictor
	ras    *branchpred.RAS
}

// NewWarmState builds cfg's empty caches, prefetcher, predictor and RAS. The
// caches allocate storage per set as they are touched, so the state costs
// its footprint, not its geometry.
func NewWarmState(cfg Config) *WarmState {
	ws := &WarmState{
		l1Lat:  cfg.L1Lat,
		dcache: cfg.hierarchy(),
		icache: cfg.icache(),
		ras:    branchpred.NewRAS(cfg.RASEntries),
	}
	switch cfg.Predictor {
	case PredBimodal:
		ws.pred = branchpred.NewBimodal(12)
	case PredOracle:
		ws.pred = nil // perfect prediction: fetch uses the trace outcome
	default:
		ws.pred = branchpred.NewTAGE()
	}
	if cfg.PrefetchEnabled {
		ws.dcpt = prefetch.New(cfg.PrefetchTable, cfg.PrefetchDegree)
	}
	return ws
}

// replayCancelCheckInsts is how often Replay polls its context: a cancelled
// replay stops within a fraction of a millisecond instead of finishing a
// span of up to a million instructions.
const replayCancelCheckInsts = 1 << 16

// Replay drains src through the state. clock maps the i-th delivered
// instruction (0-based) to the pseudo-cycle of its cache accesses and must be
// non-decreasing. Sampled warming runs on the pilot run's cycle schedule so
// that, once a capture is shifted to end at cycle 0 (ShiftClock), the lines
// still in flight when a detailed window opens are those of a continuous
// run: warming "at cycle 0" would double-charge fill latency against the
// window, warming in the distant past would present every recent miss as
// filled. A non-nil visit receives each instruction's functional timing
// signals — the data-access latency beyond an L1 hit, and whether a control
// transfer mispredicted. The replay polls ctx every replayCancelCheckInsts
// instructions and returns an error wrapping its cause once it is cancelled.
func (ws *WarmState) Replay(ctx context.Context, src emulator.TraceSource, clock func(i int64) int64, visit func(memExtra int64, mispred bool)) error {
	// One reused record: the live emulator executes straight into it, so
	// the replay copies no DynInst per instruction.
	var d emulator.DynInst
	done := ctx.Done()
	// An instruction in the same line as the previous one is a guaranteed
	// L1i hit (nothing else touches the instruction hierarchy in between),
	// and a repeated hit changes nothing a window can observe: the line
	// keeps its LRU rank, and only the uncounted hit tally would move. So
	// the replay looks up each run of same-line instructions once.
	lastLine := int64(-1)
	for i := int64(0); ; i++ {
		if i%replayCancelCheckInsts == 0 {
			select {
			case <-done:
				return fmt.Errorf("pipeline: functional replay cancelled after %d instructions: %w", i, context.Cause(ctx))
			default:
			}
		}
		if !src.NextInto(&d) {
			return nil
		}
		// The pseudo-cycle only matters to cache accesses, so it is computed
		// only for instructions that make one.
		pcAddr := int64(d.PC) * 4
		newLine := pcAddr/cache.LineSize != lastLine
		isMem := d.Inst.Op.IsMem()
		var cycle, memExtra int64
		mispred := false
		if newLine || isMem {
			cycle = clock(i)
		}
		if newLine {
			ws.icache.Access(pcAddr, cycle)
			lastLine = pcAddr / cache.LineSize
		}
		if isMem {
			if ready := ws.dcache.Access(d.Addr, cycle); ready-cycle > ws.l1Lat {
				memExtra = ready - cycle - ws.l1Lat
			}
			// The prefetcher's table is long-lived state too: a detailed
			// window entered with an untrained prefetcher pays demand misses
			// the continuous run had already hidden.
			if ws.dcpt != nil {
				for _, addr := range ws.dcpt.Train(d.PC, d.Addr) {
					ws.dcache.Prefetch(addr, cycle)
				}
			}
		}
		switch {
		case d.Inst.Op.IsCondBranch():
			if ws.pred != nil {
				mispred = ws.pred.Predict(d.PC) != d.Taken
				ws.pred.Update(d.PC, d.Taken)
			}
		case d.Inst.Op == isa.OpJal:
			if d.Inst.Rd == isa.RA {
				ws.ras.Push(d.PC + 1)
			}
		case d.Inst.Op == isa.OpJalr:
			_, hit := ws.ras.Pop(d.NextPC)
			mispred = !hit
		}
		if visit != nil {
			visit(memExtra, mispred)
		}
	}
}

// Capture returns the state as of this call. The capture takes ownership of
// the cache hierarchies, frozen, and ws continues on copy-on-write clones
// layered over them — so a replay that captures at several boundaries pays
// for the sets it touches between boundaries, not a full hierarchy copy per
// capture. Predictor, RAS and prefetcher state are small and copied eagerly.
func (ws *WarmState) Capture() *WarmState {
	c := &WarmState{
		l1Lat:  ws.l1Lat,
		dcache: ws.dcache,
		icache: ws.icache,
		pred:   branchpred.Clone(ws.pred),
		ras:    ws.ras.Clone(),
	}
	ws.dcache = c.dcache.CloneCOW()
	ws.icache = c.icache.CloneCOW()
	if ws.dcpt != nil {
		c.dcpt = ws.dcpt.Clone()
	}
	return c
}

// ShiftClock rebases the capture's cache fill timestamps by delta cycles
// (see cache.Hierarchy.ShiftClock — access timing is linear in the access
// cycle, so a shifted capture equals warming on a shifted clock). Predictor,
// prefetcher table and RAS hold no cycle state. One replay on an absolute
// pseudo-clock can therefore serve windows opening at different
// pseudo-cycles: capture at each window's warm boundary and shift that
// capture's time base to end at cycle 0.
func (ws *WarmState) ShiftClock(delta int64) {
	ws.dcache.ShiftClock(delta)
	ws.icache.ShiftClock(delta)
}
