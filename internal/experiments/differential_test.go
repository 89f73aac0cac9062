package experiments

import (
	"reflect"
	"testing"

	"github.com/noreba-sim/noreba/internal/compiler"
	"github.com/noreba-sim/noreba/internal/emulator"
	"github.com/noreba-sim/noreba/internal/pipeline"
)

// TestPipelineMatchesEmulatorArchitecturally is the differential check: each
// workload executes once purely architecturally, then once per commit policy
// through the cycle-level core (sanitized, driving its own live emulator via
// the sliding window). The final architectural state must be identical —
// out-of-order commit, windowed fetch and early reclaim may only change
// *when* things happen, never *what* is computed — and every policy must
// retire exactly the trace's instruction count.
func TestPipelineMatchesEmulatorArchitecturally(t *testing.T) {
	const budget = 1 << 17
	r := QuickRunner()
	for _, name := range mustNames(t, r) {
		res, err := compileWorkload(name, r.ScaleDiv, compiler.Options{})
		if err != nil {
			t.Fatal(err)
		}
		refMachine := emulator.New(res.Image)
		refTrace, err := refMachine.Run(budget)
		if err != nil {
			t.Fatalf("%s: architectural run: %v", name, err)
		}
		ref := refMachine.Snapshot()
		wantCommits := int64(refTrace.Len()) - refTrace.Setup

		for _, pk := range suitePolicies {
			m := emulator.New(res.Image)
			cfg := skylake(pk)
			cfg.Sanitize = true
			st, err := pipeline.NewCoreFromSource(cfg, emulator.NewSource(m, budget), res.Meta).Run()
			if err != nil {
				t.Fatalf("%s under %v: %v", name, pk, err)
			}
			if st.Committed != wantCommits {
				t.Errorf("%s under %v: committed %d, architectural trace has %d", name, pk, st.Committed, wantCommits)
			}
			got := m.Snapshot()
			if got.IntRegs != ref.IntRegs {
				t.Errorf("%s under %v: integer register state diverged", name, pk)
			}
			if got.FPRegs != ref.FPRegs {
				t.Errorf("%s under %v: FP register state diverged", name, pk)
			}
			if !reflect.DeepEqual(got.Mem, ref.Mem) || !reflect.DeepEqual(got.FMem, ref.FMem) {
				t.Errorf("%s under %v: memory state diverged", name, pk)
			}
			if got.PC != ref.PC || got.Halted != ref.Halted {
				t.Errorf("%s under %v: control state diverged (pc %d/%d halted %t/%t)",
					name, pk, got.PC, ref.PC, got.Halted, ref.Halted)
			}
		}
	}
}
