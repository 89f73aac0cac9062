package experiments

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"github.com/noreba-sim/noreba/internal/compiler"
	"github.com/noreba-sim/noreba/internal/emulator"
	"github.com/noreba-sim/noreba/internal/pipeline"
	"github.com/noreba-sim/noreba/internal/workgen"
	"github.com/noreba-sim/noreba/internal/workloads"
)

// generatedNames returns the pinned generated workloads in the registry.
func generatedNames(t *testing.T) []string {
	t.Helper()
	var names []string
	for _, w := range workloads.All() {
		if w.Suite == workloads.Generated {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		t.Fatal("no generated workloads registered")
	}
	return names
}

// TestGeneratedDifferentialSuite is the breadth half of the generator's
// correctness contract: fifty fresh points in the character space — far
// beyond the pinned registry entries — each simulate under every commit
// policy, sanitized, and must retire exactly the architectural trace with
// bit-identical final state; a plain run, which fast-forwards the idle
// cycles the sanitized one steps through, must produce the same Stats,
// per-branch stalls included. FuzzGeneratedDifferential explores the same
// invariant adversarially; this test guarantees a wide deterministic sweep on
// every plain `go test` run.
func TestGeneratedDifferentialSuite(t *testing.T) {
	const budget = 1 << 16
	for _, p := range workgen.Seeds(50) {
		p := p
		p.Iterations = 6
		t.Run(p.Name(), func(t *testing.T) {
			t.Parallel()
			prog, _, err := workgen.Generate(p)
			if err != nil {
				t.Fatalf("generate: %v", err)
			}
			res, err := compiler.Compile(prog, compiler.DefaultOptions())
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			refMachine := emulator.New(res.Image)
			refTrace, err := refMachine.Run(budget)
			if err != nil {
				t.Fatalf("architectural run: %v", err)
			}
			ref := refMachine.Snapshot()
			wantCommits := int64(refTrace.Len()) - refTrace.Setup

			for _, pk := range suitePolicies {
				m := emulator.New(res.Image)
				cfg := skylake(pk)
				cfg.Sanitize = true
				st, err := pipeline.NewCoreFromSource(cfg, emulator.NewSource(m, budget), res.Meta).Run()
				if err != nil {
					t.Fatalf("under %v: %v", pk, err)
				}
				if st.Committed != wantCommits {
					t.Errorf("under %v: committed %d, architectural trace has %d", pk, st.Committed, wantCommits)
				}
				got := m.Snapshot()
				if got.IntRegs != ref.IntRegs || got.FPRegs != ref.FPRegs {
					t.Errorf("under %v: register state diverged", pk)
				}
				if !reflect.DeepEqual(got.Mem, ref.Mem) || !reflect.DeepEqual(got.FMem, ref.FMem) {
					t.Errorf("under %v: memory state diverged", pk)
				}
				if got.PC != ref.PC || got.Halted != ref.Halted {
					t.Errorf("under %v: control state diverged", pk)
				}
				cfg.Sanitize = false
				plain, err := pipeline.NewCoreFromSource(cfg, emulator.NewSource(emulator.New(res.Image), budget), res.Meta).Run()
				if err != nil {
					t.Fatalf("under %v, plain: %v", pk, err)
				}
				if !reflect.DeepEqual(plain, st) {
					t.Errorf("under %v: plain Stats differ from the sanitized run's:\nplain:     %+v\nsanitized: %+v", pk, *plain, *st)
				}
			}
		})
	}
}

// TestGeneratedSuiteExcludedFromFigures pins the scope rule: a runner with no
// explicit workload list evaluates the curated suite only, so generated
// workloads can never silently grow the paper's figures.
func TestGeneratedSuiteExcludedFromFigures(t *testing.T) {
	r := NewRunner()
	names, err := r.names()
	if err != nil {
		t.Fatal(err)
	}
	curated := map[string]bool{}
	for _, n := range names {
		curated[n] = true
	}
	for _, g := range generatedNames(t) {
		if curated[g] {
			t.Errorf("generated workload %s appears in the default figure suite", g)
		}
	}
}

// TestGeneratedBatchSharesEmulation holds the broadcast-bus batching
// guarantee for generator-built workloads: a six-policy batch of one
// generated workload rides a single functional emulation, exactly like the
// curated suite does.
func TestGeneratedBatchSharesEmulation(t *testing.T) {
	r := NewRunner()
	r.MaxInsts = 1 << 16
	name := generatedNames(t)[0]

	var reqs []Request
	for _, pk := range suitePolicies {
		reqs = append(reqs, Request{Workload: name, Config: skylake(pk)})
	}
	if err := r.RunRequests(context.Background(), reqs); err != nil {
		t.Fatalf("batched generated workload: %v", err)
	}
	if got := r.SimulationsRun(); got != int64(len(reqs)) {
		t.Fatalf("ran %d simulations, want %d", got, len(reqs))
	}
	if got := r.EmulationsRun(); got != 1 {
		t.Fatalf("batch used %d functional emulations, want 1", got)
	}

	// The batch populated the cache with results bit-identical to solo runs.
	solo := NewRunner()
	solo.MaxInsts = r.MaxInsts
	for _, q := range reqs {
		batched, err := r.Simulate(q.Workload, q.Config)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := solo.Simulate(q.Workload, q.Config)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batched, direct) {
			t.Errorf("%s under %v: batched stats differ from solo", q.Workload, q.Config.Policy)
		}
	}
	if r.SimulationsRun() != int64(len(reqs)) {
		t.Fatalf("re-reads triggered %d extra runs", r.SimulationsRun()-int64(len(reqs)))
	}
}

// TestGeneratedWorkloadsDeterministic re-registers nothing — it rebuilds each
// pinned generated workload twice through the registry Build hook and
// requires identical programs, the property that makes gen/ names meaningful
// in golden stats and trace files.
func TestGeneratedWorkloadsDeterministic(t *testing.T) {
	for _, name := range generatedNames(t) {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		a := w.Build(w.DefaultScale)
		b := w.Build(w.DefaultScale)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two builds at the same scale differ", name)
		}
		if fmt.Sprint(a) == "" {
			t.Errorf("%s: empty program", name)
		}
	}
}
