package pipeline

import (
	"sync"
	"testing"

	"github.com/noreba-sim/noreba/internal/emulator"
)

// shadowSource wraps a TraceSource, keeping a private copy of every record
// it delivers. Deliveries are in trace order, so shadow[idx] is the record
// the window loaded at trace index idx — the reference for the aliasing
// sweeps below. The wrapped source writes straight into the core's arena
// slot, so the copy is taken from the slot itself.
type shadowSource struct {
	src    emulator.TraceSource
	shadow []emulator.DynInst
}

func newShadowSource(src emulator.TraceSource) *shadowSource {
	return &shadowSource{src: src}
}

func (s *shadowSource) Name() string { return s.src.Name() }

func (s *shadowSource) NextInto(d *emulator.DynInst) bool {
	if !s.src.NextInto(d) {
		return false
	}
	s.shadow = append(s.shadow, *d)
	return true
}

func (s *shadowSource) Err() error              { return s.src.Err() }
func (s *shadowSource) Counts() emulator.Counts { return s.src.Counts() }

// sweepArena compares every resident window record against the shadow copy
// taken at delivery. Records live in the arena from load to release and
// every pipeline stage reads them through pointers, so any stage (or any
// sibling consumer of a shared ring) mutating a record in place shows up as
// a divergence here.
func sweepArena(t *testing.T, c *Core, shadow []emulator.DynInst, who string) {
	t.Helper()
	w := c.win
	for idx := w.baseIdx(); idx < w.loadedEnd(); idx++ {
		if got, want := w.rec(idx).d, shadow[idx]; got != want {
			t.Fatalf("%s: arena record %d mutated in place:\n got %+v\nwant %+v", who, idx, got, want)
		}
	}
}

// TestArenaRecordImmutability: the window arena hands out *instRecord
// pointers instead of copies, so the correctness of every stage now rests
// on records being immutable while resident. Run each policy with a shadow
// copy of every delivered record and sweep the full resident window
// periodically — any in-place mutation of an arena record is caught within
// 64 cycles of when it happened.
func TestArenaRecordImmutability(t *testing.T) {
	tr, meta := benchTrace(t)
	for _, pk := range allPolicies {
		src := newShadowSource(tr.Source())
		c := NewCoreFromSource(testConfig(pk), src, meta)
		for steps := 1; !c.Done() && steps <= 20000; steps++ {
			c.Step()
			if steps%64 == 0 {
				sweepArena(t, c, src.shadow, pk.String())
			}
		}
		sweepArena(t, c, src.shadow, pk.String())
	}
}

// TestBusSharedRecordAliasing: N cores of different policies consume one
// Broadcast, whose ring serves leased records by reference to all views
// concurrently. Each core keeps its own shadow and sweeps its own arena;
// under -race this additionally proves no consumer ever writes a shared
// ring slot another view may still read.
func TestBusSharedRecordAliasing(t *testing.T) {
	tr, meta := benchTrace(t)
	bus := emulator.NewBroadcast(tr.Source(), 4096)
	srcs := make([]*shadowSource, len(allPolicies))
	for i := range allPolicies {
		srcs[i] = newShadowSource(bus.View())
	}
	var wg sync.WaitGroup
	for i, pk := range allPolicies {
		wg.Add(1)
		go func(i int, pk PolicyKind) {
			defer wg.Done()
			src := srcs[i]
			c := NewCoreFromSource(testConfig(pk), src, meta)
			for steps := 1; !c.Done() && steps <= 8000; steps++ {
				c.Step()
				if steps%64 == 0 {
					sweepArena(t, c, src.shadow, pk.String())
				}
			}
			sweepArena(t, c, src.shadow, pk.String())
			src.src.(*emulator.BusView).Close()
		}(i, pk)
	}
	wg.Wait()
}
