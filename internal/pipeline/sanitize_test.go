package pipeline

import (
	"reflect"
	"strings"
	"testing"

	"github.com/noreba-sim/noreba/internal/compiler"
	"github.com/noreba-sim/noreba/internal/emulator"
	"github.com/noreba-sim/noreba/internal/sanity"
	"github.com/noreba-sim/noreba/internal/trace"
	"github.com/noreba-sim/noreba/internal/workgen"
)

var allPolicies = []PolicyKind{InOrder, NonSpecOoO, Noreba, IdealReconv, SpecBR, Spec}

// sanConfig is testConfig with the invariant checker enabled.
func sanConfig(pk PolicyKind) Config {
	cfg := testConfig(pk)
	cfg.Sanitize = true
	return cfg
}

// TestSanitizerCleanOnMLPKernel: the reference kernel (misses, mispredicts,
// out-of-order commit) must run violation-free under every policy, with and
// without ECL/FreeSetup, since those change which commit conditions apply.
func TestSanitizerCleanOnMLPKernel(t *testing.T) {
	tr, meta := buildTrace(t, mlpKernel(48), true)
	for _, pk := range allPolicies {
		for _, ecl := range []bool{false, true} {
			cfg := sanConfig(pk)
			cfg.ECL = ecl
			cfg.FreeSetup = ecl // vary both together; two runs cover all sites
			st, err := NewCore(cfg, tr, meta).Run()
			if err != nil {
				t.Fatalf("%s ecl=%t: %v", pk, ecl, err)
			}
			if want := int64(tr.Len()) - tr.Setup; st.Committed != want {
				t.Fatalf("%s ecl=%t: committed %d, want %d", pk, ecl, st.Committed, want)
			}
		}
	}
}

// TestSanitizerCleanOnRandomPrograms: random structured programs across every
// policy must never trip an invariant. This is the sanitizer's main job — a
// policy bug that retires illegally now fails loudly instead of just skewing
// cycle counts.
func TestSanitizerCleanOnRandomPrograms(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		res, err := compiler.Compile(generate(seed), compiler.DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		tr, err := emulator.New(res.Image).Run(1 << 18)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, pk := range allPolicies {
			if _, err := NewCore(sanConfig(pk), tr, res.Meta).Run(); err != nil {
				t.Errorf("seed %d policy %v: %v", seed, pk, err)
			}
		}
	}
}

// stepUntilInFlight runs the core until at least n entries are in flight (or
// fails the test if the run drains first).
func stepUntilInFlight(t *testing.T, c *Core, n int) {
	t.Helper()
	for i := 0; i < 10000; i++ {
		if c.robCount >= n {
			return
		}
		if c.done() {
			t.Fatal("run drained before reaching the wanted in-flight depth")
		}
		c.step()
	}
	t.Fatalf("never reached %d in-flight entries", n)
}

// TestSanitizerCatchesPRFLeak: corrupting the free-list accounting must be
// detected by the next cycle's recount as prf/conservation.
func TestSanitizerCatchesPRFLeak(t *testing.T) {
	tr, meta := buildTrace(t, mlpKernel(16), true)
	c := NewCore(sanConfig(Noreba), tr, meta)
	stepUntilInFlight(t, c, 4)
	c.physUsed++ // simulated leak: a register neither allocated nor freed
	c.step()
	assertViolation(t, c.sanErr, "prf/conservation")
}

// TestSanitizerCatchesOccupancyDrift: same for the ROB occupancy counter.
func TestSanitizerCatchesOccupancyDrift(t *testing.T) {
	tr, meta := buildTrace(t, mlpKernel(16), true)
	c := NewCore(sanConfig(InOrder), tr, meta)
	stepUntilInFlight(t, c, 4)
	c.robOcc--
	c.step()
	assertViolation(t, c.sanErr, "rob/occupancy")
}

// TestSanitizerCatchesROBDisorder: breaking the ROB's age order must be
// flagged by the scan.
func TestSanitizerCatchesROBDisorder(t *testing.T) {
	tr, meta := buildTrace(t, mlpKernel(16), true)
	c := NewCore(sanConfig(InOrder), tr, meta)
	stepUntilInFlight(t, c, 4)
	// Swap the first two list nodes so the ROB is out of age order.
	a, b := c.robHead, c.robHead.robNext
	a.robNext, b.robPrev = b.robNext, a.robPrev
	if b.robNext != nil {
		b.robNext.robPrev = a
	} else {
		c.robTail = a
	}
	a.robPrev, b.robNext = b, a
	c.robHead = b
	c.step()
	assertViolation(t, c.sanErr, "rob/alloc-order")
}

// TestSanitizerCatchesFrontierRegression: the frontier must never move
// backwards relative to what the checker last observed.
func TestSanitizerCatchesFrontierRegression(t *testing.T) {
	tr, meta := buildTrace(t, mlpKernel(16), true)
	c := NewCore(sanConfig(InOrder), tr, meta)
	stepUntilInFlight(t, c, 4)
	c.san.lastFrontier = c.win.frontier + 1000
	c.step()
	assertViolation(t, c.sanErr, "frontier/monotonic")
}

// stepUntilCandidate runs the core until fn picks a member of the
// commit-candidate set, and returns it.
func stepUntilCandidate(t *testing.T, c *Core, fn func(*Entry) bool) *Entry {
	t.Helper()
	for i := 0; i < 10000 && !c.done(); i++ {
		for e := c.candQ.first(); e != nil; e = c.candQ.after(e.dispatchOrder) {
			if fn(e) {
				return e
			}
		}
		c.step()
	}
	t.Fatal("no candidate matched")
	return nil
}

// TestSanitizerCatchesMissingCandidate: a retirable entry missing from the
// candidate set would retire late, so the next commit stage must flag it as
// sched/cand-complete before the walk runs.
func TestSanitizerCatchesMissingCandidate(t *testing.T) {
	tr, meta := buildTrace(t, mlpKernel(16), true)
	c := NewCore(sanConfig(Spec), tr, meta)
	e := stepUntilCandidate(t, c, func(e *Entry) bool { return c.eligible(e, c.cycle, false, false) })
	c.candQ.remove(e.dispatchOrder)
	e.inCand = false
	c.step()
	assertViolation(t, c.sanErr, "sched/cand-complete")
}

// TestSanitizerCatchesCandidateDisorder: the walk's boundary break assumes
// the candidate set's dispatch order is age order (sched/cand-order).
func TestSanitizerCatchesCandidateDisorder(t *testing.T) {
	tr, meta := buildTrace(t, mlpKernel(16), true)
	c := NewCore(sanConfig(SpecBR), tr, meta)
	e := stepUntilCandidate(t, c, func(e *Entry) bool { return e != c.candQ.first() })
	e.seq = -1
	c.step()
	assertViolation(t, c.sanErr, "sched/cand-order")
}

// TestSanitizerCatchesDoubleCommit: retiring an already-committed entry is a
// lifecycle violation, reported from the onCommit hook.
func TestSanitizerCatchesDoubleCommit(t *testing.T) {
	tr, meta := buildTrace(t, mlpKernel(16), true)
	c := NewCore(sanConfig(Noreba), tr, meta)
	stepUntilInFlight(t, c, 1)
	e := &Entry{committed: true}
	c.san.onCommit(c, e)
	assertViolation(t, c.sanErr, "commit/lifecycle")
}

// TestSanitizerErrorSurfacesFromRun: once an invariant trips, Run must stop
// and return the typed *sanity.Error rather than finishing the trace.
func TestSanitizerErrorSurfacesFromRun(t *testing.T) {
	tr, meta := buildTrace(t, mlpKernel(16), true)
	c := NewCore(sanConfig(InOrder), tr, meta)
	stepUntilInFlight(t, c, 4)
	c.physUsed++
	_, err := c.Run()
	if err == nil {
		t.Fatal("Run returned nil after an injected violation")
	}
	serr, ok := sanity.As(err)
	if !ok {
		t.Fatalf("Run returned %T, want *sanity.Error", err)
	}
	if serr.Invariant != "prf/conservation" {
		t.Fatalf("invariant = %q, want prf/conservation", serr.Invariant)
	}
	if serr.Cycle <= 0 {
		t.Fatalf("violation not cycle-stamped: %v", serr)
	}
	if !strings.Contains(err.Error(), "prf/conservation") {
		t.Fatalf("error text %q does not name the invariant", err)
	}
}

// TestSanitizerFirstViolationWins: fail() keeps the first diagnostic.
func TestSanitizerFirstViolationWins(t *testing.T) {
	tr, meta := buildTrace(t, mlpKernel(16), true)
	c := NewCore(sanConfig(InOrder), tr, meta)
	c.fail(sanity.Errorf("test/first", 1, "first"))
	c.fail(sanity.Errorf("test/second", 2, "second"))
	assertViolation(t, c.sanErr, "test/first")
}

func assertViolation(t *testing.T, serr *sanity.Error, invariant string) {
	t.Helper()
	if serr == nil {
		t.Fatalf("no violation reported, want %s", invariant)
	}
	if serr.Invariant != invariant {
		t.Fatalf("invariant = %q (%v), want %q", serr.Invariant, serr, invariant)
	}
}

// TestTraceEventsConsistent: with a Collector attached, the event stream must
// agree with the run's statistics — commits match Stats.Committed, every
// commit was preceded by that instruction's dispatch, and cycle stamps are
// monotonic per instruction.
func TestTraceEventsConsistent(t *testing.T) {
	tr, meta := buildTrace(t, mlpKernel(32), true)
	for _, pk := range allPolicies {
		col := &trace.Collector{}
		cfg := sanConfig(pk)
		cfg.TraceSink = col
		st, err := NewCore(cfg, tr, meta).Run()
		if err != nil {
			t.Fatalf("%s: %v", pk, err)
		}

		commits := int64(0)
		dispatched := map[int64]trace.Event{}
		lastCycle := map[int64]int64{}
		for _, e := range col.Events() {
			if last, ok := lastCycle[e.Seq]; ok && e.Cycle < last {
				t.Fatalf("%s: seq %d event %v at cycle %d after cycle %d", pk, e.Seq, e.Kind, e.Cycle, last)
			}
			lastCycle[e.Seq] = e.Cycle
			switch e.Kind {
			case trace.KindDispatch:
				dispatched[e.Seq] = e
			case trace.KindCommit:
				commits++
				if _, ok := dispatched[e.Seq]; !ok {
					t.Fatalf("%s: seq %d committed without a dispatch event", pk, e.Seq)
				}
			}
		}
		if commits != st.Committed {
			t.Fatalf("%s: %d commit events, Stats.Committed=%d", pk, commits, st.Committed)
		}
		if pk == Noreba {
			ooo := false
			for _, e := range col.Events() {
				if e.Kind == trace.KindCommit && e.OoO {
					ooo = true
					break
				}
			}
			if !ooo {
				t.Fatal("NOREBA run on the MLP kernel produced no out-of-order commit events")
			}
		}
	}
}

// TestTraceDisabledMatchesEnabled: attaching a sink or the sanitizer must
// never change timing — cycle counts are identical with observability on and
// off.
func TestTraceDisabledMatchesEnabled(t *testing.T) {
	tr, meta := buildTrace(t, mlpKernel(32), true)
	for _, pk := range allPolicies {
		base := runPolicy(t, testConfig(pk), tr, meta)

		cfg := sanConfig(pk)
		cfg.TraceSink = &trace.Collector{}
		st, err := NewCore(cfg, tr, meta).Run()
		if err != nil {
			t.Fatalf("%s: %v", pk, err)
		}
		if st.Cycles != base.Cycles {
			t.Fatalf("%s: %d cycles with observability on, %d off — observers must not perturb timing",
				pk, st.Cycles, base.Cycles)
		}
	}
}

// TestSanitizeMatchesPlainStats is the broad observer differential: over
// generated programs × every policy × three core sizes, with FreeSetup
// alternating by program, a sanitized run — whose checker re-derives the
// frontiers, the ordered scheduler sets and every other incremental
// structure from scratch each cycle — must run clean and produce Stats
// deep-equal to a plain run's, BranchStalls included. Observation may never
// perturb the model, and the incremental bookkeeping may never disagree
// with its from-scratch derivation.
func TestSanitizeMatchesPlainStats(t *testing.T) {
	cores := []func() Config{SkylakeConfig, HaswellConfig, NehalemConfig}
	for i, p := range workgen.Seeds(20) {
		prog, _, err := workgen.Generate(p)
		if err != nil {
			t.Fatalf("%s: generate: %v", p.Name(), err)
		}
		res, err := compiler.Compile(prog, compiler.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: compile: %v", p.Name(), err)
		}
		// A 1k-instruction prefix keeps the 360 sanitized runs to about
		// three minutes under the race detector. It still exercises the
		// paths the incremental state must survive: over the twenty
		// programs the six policies on the Skylake core see about 2.4k
		// mispredict recoveries, 27k out-of-order commits and 20k CIT
		// drops.
		tr, err := emulator.New(res.Image).Run(1 << 10)
		if err != nil {
			t.Fatalf("%s: emulate: %v", p.Name(), err)
		}
		for _, core := range cores {
			for _, pk := range allPolicies {
				cfg := core()
				cfg.Policy = pk
				cfg.FreeSetup = i%2 == 1
				plain := runPolicy(t, cfg, tr, res.Meta)
				cfg.Sanitize = true
				san, err := NewCore(cfg, tr, res.Meta).Run()
				if err != nil {
					t.Fatalf("%s on %s under %s: %v", p.Name(), cfg.Name, pk, err)
				}
				if !reflect.DeepEqual(plain, san) {
					t.Errorf("%s on %s under %s: sanitized Stats differ from the plain run's:\nplain:     %+v\nsanitized: %+v",
						p.Name(), cfg.Name, pk, *plain, *san)
				}
			}
		}
	}
}
