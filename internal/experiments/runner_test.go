package experiments

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/noreba-sim/noreba/internal/emulator"
	"github.com/noreba-sim/noreba/internal/pipeline"
)

// TestCfgKeyCoversConfig asserts by reflection that every pipeline.Config
// field participates in the simulation cache key: a same-named field exists
// on cfgKey, and mutating the Config field changes keyOf's result. A Config
// field added without a key counterpart fails here instead of silently
// aliasing cache entries. The exemptions are non-comparable observability
// hooks (FenceGate is a function value, TraceSink an interface) that the
// experiment suite never sets.
func TestCfgKeyCoversConfig(t *testing.T) {
	exempt := map[string]bool{"FenceGate": true, "TraceSink": true}

	cfgType := reflect.TypeOf(pipeline.Config{})
	keyType := reflect.TypeOf(cfgKey{})
	base := pipeline.SkylakeConfig()
	baseKey := keyOf(base)

	for i := 0; i < cfgType.NumField(); i++ {
		f := cfgType.Field(i)
		if exempt[f.Name] {
			continue
		}
		kf, ok := keyType.FieldByName(f.Name)
		if !ok {
			t.Errorf("pipeline.Config.%s has no counterpart in cfgKey; add it so the cache cannot alias", f.Name)
			continue
		}
		if kf.Type != f.Type {
			t.Errorf("cfgKey.%s has type %v, Config has %v", f.Name, kf.Type, f.Type)
		}

		mutated := base
		mutate(t, reflect.ValueOf(&mutated).Elem().FieldByName(f.Name), f.Name)
		if keyOf(mutated) == baseKey {
			t.Errorf("mutating pipeline.Config.%s does not change the cache key", f.Name)
		}
	}
}

// mutate changes v to a distinct value of its kind.
func mutate(t *testing.T, v reflect.Value, name string) {
	t.Helper()
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Struct:
		if v.NumField() == 0 {
			t.Fatalf("field %s: empty struct cannot be mutated", name)
		}
		mutate(t, v.Field(0), name+"."+v.Type().Field(0).Name)
	default:
		t.Fatalf("field %s: no mutation rule for kind %v — extend mutate()", name, v.Kind())
	}
}

// TestUnknownWorkloadErrors: a misconfigured suite surfaces as an error from
// the figures, not a panic from deep inside suite().
func TestUnknownWorkloadErrors(t *testing.T) {
	r := QuickRunner()
	r.MaxInsts = 1 << 12
	r.Workloads = []string{"mcf", "no-such-workload"}
	if _, err := r.Figure8(); err == nil {
		t.Fatal("Figure8 with an unknown workload should error")
	} else if !strings.Contains(err.Error(), "no-such-workload") {
		t.Errorf("error should name the bad workload, got: %v", err)
	}
	if _, err := r.names(); err == nil {
		t.Error("names() with an unknown workload should error")
	}
	// The direct simulation path fails the same way: compilation reports the
	// unknown name instead of panicking, and the error is not cached as a
	// phantom success.
	if _, err := r.Simulate("no-such-workload", skylake(pipeline.Noreba)); err == nil {
		t.Error("Simulate with an unknown workload should error")
	} else if !strings.Contains(err.Error(), "no-such-workload") {
		t.Errorf("Simulate error should name the bad workload, got: %v", err)
	}
	if _, err := r.Simulate("mcf", skylake(pipeline.Noreba)); err != nil {
		t.Errorf("valid workload on the same runner should still simulate: %v", err)
	}
}

// TestConcurrentFiguresDedup runs two figures with overlapping simulation
// sets concurrently on one runner (under -race this also proves the
// scheduler is data-race-free) and asserts singleflight coalescing: every
// distinct (workload, config) key executed exactly once, even though the
// figures requested many of them at the same time.
func TestConcurrentFiguresDedup(t *testing.T) {
	r := QuickRunner()
	r.MaxInsts = 1 << 15
	r.Parallelism = 4

	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() { defer wg.Done(); _, errs[0] = r.Figure6() }()
	go func() { defer wg.Done(); _, errs[1] = r.Figure14() }()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	run, unique, calls := r.SimulationsRun(), int64(r.UniqueSimulations()), r.SimulateCalls()
	if run != unique {
		t.Errorf("%d simulations executed for %d unique keys; singleflight should make these equal", run, unique)
	}
	if calls <= run {
		t.Errorf("%d Simulate calls for %d executions; the figures overlap, so dedup should have saved work", calls, run)
	}
}

// TestParallelMatchesSequential is the golden-equivalence proof for the
// scheduler: every statistic of every (workload, policy) pair in the
// Figure 6 set, produced by the parallel runner over live emulator streams,
// is bit-identical to a sequential materialized-trace simulation.
func TestParallelMatchesSequential(t *testing.T) {
	r := QuickRunner()
	r.MaxInsts = 1 << 16
	policies := []pipeline.PolicyKind{
		pipeline.InOrder, pipeline.NonSpecOoO, pipeline.Noreba,
		pipeline.IdealReconv, pipeline.SpecBR,
	}

	names, err := r.names()
	if err != nil {
		t.Fatal(err)
	}
	var reqs []Request
	for _, name := range names {
		for _, p := range policies {
			reqs = append(reqs, Request{Workload: name, Config: skylake(p)})
		}
	}
	if err := r.RunRequests(context.Background(), reqs); err != nil {
		t.Fatal(err)
	}

	for _, name := range names {
		res, err := compileWorkload(name, r.ScaleDiv)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := emulator.New(res.Image).Run(r.MaxInsts)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range policies {
			cfg := normalize(skylake(p))
			want, err := pipeline.NewCore(cfg, tr, res.Meta).Run()
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.Simulate(name, skylake(p))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s under %v: parallel run differs from sequential reference\nparallel:   %+v\nsequential: %+v",
					name, p, got, want)
			}
		}
	}
}
