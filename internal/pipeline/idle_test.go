package pipeline

import (
	"reflect"
	"testing"
)

// TestIdleFastForward pins the fast path's contract on the MLP kernel, whose
// cache misses leave long stretches with nothing to do: under every policy a
// plain run fast-forwards at least a tenth of its cycles (17–50% today),
// yet its Stats —
// per-branch stalls included — equal those of the same core stepping every
// cycle in full.
func TestIdleFastForward(t *testing.T) {
	tr, meta := buildTrace(t, mlpKernel(200), true)
	for _, pk := range allPolicies {
		cfg := testConfig(pk)
		fast := NewCore(cfg, tr, meta)
		skipped := int64(0)
		for !fast.done() {
			if fast.cycle < fast.idleUntil {
				skipped++
			}
			fast.step()
		}
		full := NewCore(cfg, tr, meta)
		full.skipIdle = false
		want, err := full.Run()
		if err != nil {
			t.Fatalf("%s: %v", pk, err)
		}
		if got := fast.finalize(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: fast-forwarded Stats differ from full steps:\nfast: %+v\nfull: %+v", pk, *got, *want)
		}
		if share := float64(skipped) / float64(want.Cycles); share < 0.1 {
			t.Errorf("%s: fast-forwarded %.0f%% of %d cycles, want at least 10%%", pk, 100*share, want.Cycles)
		}
	}
}

// TestNextEventSources checks each source of the next event on its own: an
// idle stretch must end at the earliest of a completion in the wheel, the
// end of a fetch stall, the fetch-queue head becoming dispatchable and
// either divider's busy-until cycle, and sources already in the past must
// not end it. (A divider's release normally coincides with its divide's
// completion event, but a wheel grow drops the event of a squashed divide,
// so the release is a source of its own.)
func TestNextEventSources(t *testing.T) {
	tr, meta := buildTrace(t, mlpKernel(4), true)
	const now = 1000
	core := func() *Core {
		c := NewCore(testConfig(InOrder), tr, meta)
		c.cycle = now
		return c
	}
	horizon := now + int64(len(core().wheel.buckets))
	if got := core().nextEvent(); got != horizon {
		t.Fatalf("nothing pending: next event %d, want the wheel horizon %d", got, horizon)
	}
	for _, tc := range []struct {
		name string
		set  func(c *Core, at int64)
	}{
		{"completion", func(c *Core, at int64) { c.wheel.schedule(c.cycle, &Entry{doneAt: at}) }},
		{"fetch stall", func(c *Core, at int64) { c.fetchStalledUntil = at }},
		{"dispatchable", func(c *Core, at int64) { c.ifq.push(&Entry{dispatchable: at}) }},
		{"int divider", func(c *Core, at int64) { c.intDivBusyUntil = at }},
		{"fp divider", func(c *Core, at int64) { c.fpDivBusyUntil = at }},
	} {
		c := core()
		tc.set(c, now+7)
		if got := c.nextEvent(); got != now+7 {
			t.Errorf("%s at %d: next event %d", tc.name, now+7, got)
		}
		if tc.name == "completion" {
			continue // the wheel only holds future completions
		}
		c = core()
		tc.set(c, now-1)
		if got := c.nextEvent(); got != horizon {
			t.Errorf("%s already past: next event %d, want the horizon %d", tc.name, got, horizon)
		}
	}
}
