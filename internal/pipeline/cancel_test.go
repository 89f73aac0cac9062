package pipeline

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// TestRunContextCancelled: a cancelled context stops the run at the next
// cooperative check, returning the partial statistics accumulated so far and
// an error wrapping the context's cause.
func TestRunContextCancelled(t *testing.T) {
	tr, meta := buildTrace(t, mlpKernel(400), true)
	cfg := SkylakeConfig()
	cfg.Policy = Noreba

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, err := NewCore(cfg, tr, meta).RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st == nil {
		t.Fatal("cancelled run returned no partial statistics")
	}
	// A pre-cancelled context stops at the very first check: nothing (or
	// almost nothing) committed, far less than the full run.
	full := runPolicy(t, cfg, tr, meta)
	if st.Committed >= full.Committed {
		t.Errorf("cancelled run committed %d of %d — cancellation did not stop it", st.Committed, full.Committed)
	}
}

// TestRunContextCause: the error carries a custom cancellation cause.
func TestRunContextCause(t *testing.T) {
	tr, meta := buildTrace(t, mlpKernel(400), true)
	cfg := SkylakeConfig()
	cfg.Policy = InOrder

	why := errors.New("operator abort")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(why)
	_, err := NewCore(cfg, tr, meta).RunContext(ctx)
	if !errors.Is(err, why) {
		t.Fatalf("err = %v, want cause %v", err, why)
	}
}

// TestRunMatchesRunContext: Run is exactly RunContext with a background
// context — same stats, bit for bit.
func TestRunMatchesRunContext(t *testing.T) {
	tr, meta := buildTrace(t, mlpKernel(200), true)
	cfg := SkylakeConfig()
	cfg.Policy = Noreba

	a, err := NewCore(cfg, tr, meta).Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewCore(cfg, tr, meta).RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Committed != b.Committed || a.OoOCommitted != b.OoOCommitted {
		t.Errorf("Run and RunContext diverge: %d/%d/%d vs %d/%d/%d",
			a.Cycles, a.Committed, a.OoOCommitted, b.Cycles, b.Committed, b.OoOCommitted)
	}
}

// TestRunUntilSegments: stepping a core through RunUntil one segment at a
// time and then to the end of the stream gives exactly the statistics of one
// RunContext, under every policy; a target already reached takes no step,
// and a cancelled context stops a segment with an error wrapping its cause.
func TestRunUntilSegments(t *testing.T) {
	tr, meta := buildTrace(t, mlpKernel(200), true)
	why := errors.New("segment abort")
	cancelled, cancel := context.WithCancelCause(context.Background())
	cancel(why)
	for _, pk := range allPolicies {
		cfg := testConfig(pk)
		want, err := NewCore(cfg, tr, meta).RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		n := want.Committed
		c := NewCore(cfg, tr, meta)
		for _, target := range []int64{0, 1, n / 3, n / 3, n / 2, 2 * n / 3} {
			reached, before := c.CommittedCount() >= target, c.Cycle()
			if err := c.RunUntil(context.Background(), target); err != nil {
				t.Fatalf("%v: RunUntil(%d): %v", pk, target, err)
			}
			if c.CommittedCount() < target {
				t.Fatalf("%v: RunUntil(%d) stopped at %d commits", pk, target, c.CommittedCount())
			}
			if reached && c.Cycle() != before {
				t.Errorf("%v: RunUntil(%d) stepped %d cycles past a reached target", pk, target, c.Cycle()-before)
			}
		}
		got, err := c.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: segmented run diverges from one RunContext:\ngot  %+v\nwant %+v", pk, *got, *want)
		}

		if err := NewCore(cfg, tr, meta).RunUntil(cancelled, n); !errors.Is(err, why) {
			t.Errorf("%v: cancelled RunUntil returned %v, want cause %v", pk, err, why)
		}
	}
}
