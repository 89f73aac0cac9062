package emulator

import (
	"reflect"
	"testing"

	"github.com/noreba-sim/noreba/internal/progtest"
)

// TestSnapshotRoundTripProperty is the property behind sampled simulation's
// checkpoints: snapshotting a machine at an arbitrary point and restoring the
// snapshot into a completely fresh machine must yield a machine that produces
// the identical dynamic instruction stream — record for record — and ends in
// the identical architectural state. The sampling planner restores one
// checkpoint per representative interval into a fresh machine, so any
// divergence here silently corrupts every estimate built on it.
func TestSnapshotRoundTripProperty(t *testing.T) {
	const steps = 64
	for seed := int64(1); seed <= 6; seed++ {
		img, err := progtest.Generate(seed).Layout()
		if err != nil {
			t.Fatal(err)
		}

		// Find the program's dynamic length so snapshot points can be spread
		// across early, middle and late execution.
		probe := New(img)
		if _, err := probe.Run(1 << 16); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		total := probe.Seq()
		if total < 8 {
			t.Fatalf("seed %d: degenerate program (%d insts)", seed, total)
		}

		for _, snapAt := range []int64{1, total / 5, total / 2, 4 * total / 5, total - 2} {
			ref := New(img)
			for ref.Seq() < snapAt && !ref.Halted() {
				if err := ref.StepInto(&DynInst{}); err != nil {
					t.Fatal(err)
				}
			}
			snap := ref.Snapshot()

			fresh := New(img)
			fresh.Restore(snap)
			if got := fresh.Snapshot(); !reflect.DeepEqual(got, snap) {
				t.Fatalf("seed %d snap@%d: restore into fresh machine lost state", seed, snapAt)
			}

			// Step both machines in lockstep: identical records, then
			// identical final state.
			for i := 0; i < steps && !ref.Halted(); i++ {
				var want, got DynInst
				if err := ref.StepInto(&want); err != nil {
					t.Fatal(err)
				}
				if err := fresh.StepInto(&got); err != nil {
					t.Fatalf("seed %d snap@%d step %d: restored machine faulted: %v", seed, snapAt, i, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d snap@%d step %d: dynamic records diverged:\n got %+v\nwant %+v",
						seed, snapAt, i, got, want)
				}
			}
			if fresh.Halted() != ref.Halted() {
				t.Fatalf("seed %d snap@%d: halt state diverged", seed, snapAt)
			}
			if got, want := fresh.Snapshot(), ref.Snapshot(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d snap@%d: architectural state diverged after %d steps", seed, snapAt, steps)
			}
		}
	}
}
