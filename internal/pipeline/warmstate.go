package pipeline

import (
	"github.com/noreba-sim/noreba/internal/branchpred"
	"github.com/noreba-sim/noreba/internal/cache"
	"github.com/noreba-sim/noreba/internal/prefetch"
)

// WarmState is a capture of the core's long-lived microarchitectural state —
// instruction and data cache hierarchies, prefetcher table, branch predictor
// and return-address stack — taken after functional warming and reusable
// across detailed windows. Warming is policy-independent (it never touches
// the pipeline model), so one capture serves every commit policy sharing the
// same cache/predictor geometry, and each window installs an independent
// copy (Core.Reset) so detailed simulation never mutates the shared capture.
type WarmState struct {
	dcache *cache.Hierarchy
	icache *cache.Hierarchy
	dcpt   *prefetch.DCPT
	pred   branchpred.Predictor
	ras    *branchpred.RAS
}

// CaptureWarmState captures the core's current microarchitectural state.
// Meant to be called on a core used only for WarmFunctional (never stepped).
// The capture takes ownership of the core's cache hierarchies, frozen as of
// this call, and the core continues on copy-on-write clones layered over
// them — so a warming replay that captures at several boundaries pays for
// the sets it touches between boundaries, not a full hierarchy copy per
// capture. Predictor, RAS and prefetcher state are small and copied eagerly.
func (c *Core) CaptureWarmState() *WarmState {
	ws := &WarmState{
		dcache: c.dcache,
		icache: c.icache,
		pred:   branchpred.Clone(c.pred),
		ras:    c.ras.Clone(),
	}
	c.dcache = ws.dcache.CloneCOW()
	c.icache = ws.icache.CloneCOW()
	if c.dcpt != nil {
		ws.dcpt = c.dcpt.Clone()
	}
	return ws
}

// ShiftClock rebases the capture's cache fill timestamps by delta cycles
// (see cache.Hierarchy.ShiftClock — access timing is linear in the access
// cycle, so a shifted capture equals warming on a shifted clock). Predictor,
// prefetcher table and RAS hold no cycle state. One warming pass on an
// absolute pseudo-clock can therefore serve windows opening at different
// pseudo-cycles: capture at each window's warm boundary and shift that
// capture's time base to end at cycle 0.
func (ws *WarmState) ShiftClock(delta int64) {
	ws.dcache.ShiftClock(delta)
	ws.icache.ShiftClock(delta)
}
