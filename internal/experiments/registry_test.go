package experiments

import (
	"context"
	"testing"

	"github.com/noreba-sim/noreba/internal/compiler"
)

// TestRegistryRequestsCoverExperiments runs, for every registry entry, the
// warm pass over its recorded requests and then the entry itself. The warm
// pass must execute exactly the entry's distinct requests — the recompiled
// ablation variants included, so they ride the same singleflight, cache and
// batching path as everything else — and the entry must then assemble from
// the cache alone, executing nothing.
func TestRegistryRequestsCoverExperiments(t *testing.T) {
	recompiles := map[string]bool{"ablation-loop-marking": true, "ablation-bit-size": true}
	for _, e := range Experiments() {
		t.Run(e.Name, func(t *testing.T) {
			r := QuickRunner()
			r.MaxInsts = 1 << 12
			r.Workloads = []string{"mcf", "bzip2", "sha"}
			reqs, err := r.FigureRequests(e.Name)
			if err != nil {
				t.Fatal(err)
			}
			distinct := map[string]bool{}
			recompiled := 0
			for _, q := range reqs {
				q = r.canonical(q)
				if key := r.hashConfig(q); !distinct[key] {
					distinct[key] = true
					if q.Compiler != (compiler.Options{}) {
						recompiled++
					}
				}
			}
			if recompiles[e.Name] != (recompiled > 0) {
				t.Errorf("%d distinct recompiled requests; want some: %v", recompiled, recompiles[e.Name])
			}

			if err := r.RunRequests(context.Background(), reqs); err != nil {
				t.Fatal(err)
			}
			warmed := r.SimulationsRun()
			if warmed != int64(len(distinct)) || r.UniqueSimulations() != len(distinct) {
				t.Errorf("warm pass executed %d simulations (%d cached) for %d distinct requests",
					warmed, r.UniqueSimulations(), len(distinct))
			}
			if _, err := r.RunExperiment(e.Name); err != nil {
				t.Fatal(err)
			}
			if got := r.SimulationsRun(); got != warmed {
				t.Errorf("regenerating after the warm pass executed %d more simulations", got-warmed)
			}
		})
	}
	if _, err := QuickRunner().FigureRequests("figure2"); err == nil {
		t.Error("FigureRequests accepted an unknown name")
	}
}
