package workgen

import (
	"reflect"
	"testing"

	"github.com/noreba-sim/noreba/internal/compiler"
	"github.com/noreba-sim/noreba/internal/emulator"
	"github.com/noreba-sim/noreba/internal/pipeline"
)

// fuzzPolicies is every commit policy the differential invariant must hold
// under (the paper's baselines, NOREBA, and the speculative oracles).
var fuzzPolicies = []pipeline.PolicyKind{
	pipeline.InOrder, pipeline.NonSpecOoO, pipeline.Noreba,
	pipeline.IdealReconv, pipeline.SpecBR, pipeline.Spec,
}

// FuzzGeneratedDifferential is the generator-driven differential invariant:
// ANY point in the character space must produce a program whose cycle-level
// simulation — under every commit policy, sanitized, ECL on and off for the
// NOREBA policy — retires exactly the architectural trace and leaves
// bit-identical architectural state, and whose plain (unsanitized) run
// produces the same Stats, per-branch stalls included: the plain core
// fast-forwards the idle cycles the sanitized one steps through. The fuzzer
// owns the axis mapping, so it explores interactions (deep nests × critical
// branches × store pressure) no hand-picked table covers.
func FuzzGeneratedDifferential(f *testing.F) {
	// One seed per character-axis extreme, plus an everything-maxed point.
	f.Add(uint64(1), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(10))     // all axes minimal
	f.Add(uint64(2), uint64(100), uint64(0), uint64(0), uint64(0), uint64(0), uint64(10))   // criticality max
	f.Add(uint64(3), uint64(0), uint64(24), uint64(0), uint64(0), uint64(0), uint64(10))    // dependent regions max
	f.Add(uint64(4), uint64(0), uint64(0), uint64(7), uint64(0), uint64(0), uint64(10))     // MLP max
	f.Add(uint64(5), uint64(0), uint64(0), uint64(0), uint64(100), uint64(0), uint64(10))   // store pressure max
	f.Add(uint64(6), uint64(0), uint64(0), uint64(0), uint64(0), uint64(2), uint64(10))     // nest max
	f.Add(uint64(7), uint64(100), uint64(24), uint64(7), uint64(100), uint64(2), uint64(8)) // everything max

	f.Fuzz(func(t *testing.T, seed, crit, dep, mlp, store, nest, iters uint64) {
		p := Params{
			Seed:              seed,
			BranchCriticality: float64(crit%101) / 100,
			DepLen:            int(dep % (MaxDepLen + 1)),
			MLP:               1 + int(mlp%MaxMLP),
			StorePressure:     float64(store%101) / 100,
			Nest:              1 + int(nest%MaxNest),
			Iterations:        1 + int(iters%40),
		}
		prog, _, err := Generate(p)
		if err != nil {
			t.Fatalf("%s: generate: %v", p.Name(), err)
		}
		res, err := compiler.Compile(prog, compiler.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: compile: %v", p.Name(), err)
		}

		const budget = 1 << 17
		refMachine := emulator.New(res.Image)
		refTrace, err := refMachine.Run(budget)
		if err != nil {
			t.Fatalf("%s: architectural run: %v", p.Name(), err)
		}
		ref := refMachine.Snapshot()
		wantCommits := int64(refTrace.Len()) - refTrace.Setup

		check := func(cfg pipeline.Config, variant string) {
			m := emulator.New(res.Image)
			cfg.Sanitize = true
			st, err := pipeline.NewCoreFromSource(cfg, emulator.NewSource(m, budget), res.Meta).Run()
			if err != nil {
				t.Fatalf("%s under %s: %v", p.Name(), variant, err)
			}
			if st.Committed != wantCommits {
				t.Errorf("%s under %s: committed %d, architectural trace has %d", p.Name(), variant, st.Committed, wantCommits)
			}
			got := m.Snapshot()
			if got.IntRegs != ref.IntRegs || got.FPRegs != ref.FPRegs {
				t.Errorf("%s under %s: register state diverged", p.Name(), variant)
			}
			if !reflect.DeepEqual(got.Mem, ref.Mem) || !reflect.DeepEqual(got.FMem, ref.FMem) {
				t.Errorf("%s under %s: memory state diverged", p.Name(), variant)
			}
			if got.PC != ref.PC || got.Halted != ref.Halted {
				t.Errorf("%s under %s: control state diverged", p.Name(), variant)
			}
			cfg.Sanitize = false
			plain, err := pipeline.NewCoreFromSource(cfg, emulator.NewSource(emulator.New(res.Image), budget), res.Meta).Run()
			if err != nil {
				t.Fatalf("%s under %s, plain: %v", p.Name(), variant, err)
			}
			if !reflect.DeepEqual(plain, st) {
				t.Errorf("%s under %s: plain Stats differ from the sanitized run's:\nplain:     %+v\nsanitized: %+v",
					p.Name(), variant, *plain, *st)
			}
		}
		for _, pk := range fuzzPolicies {
			cfg := pipeline.SkylakeConfig()
			cfg.Policy = pk
			check(cfg, pk.String())
		}
		// ECL changes when loads release queue entries; it must never
		// change what is computed.
		cfg := pipeline.SkylakeConfig()
		cfg.Policy = pipeline.Noreba
		cfg.ECL = true
		check(cfg, "Noreba+ECL")
	})
}
