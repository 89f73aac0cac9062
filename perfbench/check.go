package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"

	"github.com/noreba-sim/noreba/internal/compiler"
	"github.com/noreba-sim/noreba/internal/emulator"
	"github.com/noreba-sim/noreba/internal/pipeline"
)

// Committed references the output check compares against.
const (
	goldenStatsFile = "internal/experiments/testdata/golden_stats.json"
	accuracyFile    = "internal/experiments/testdata/sampling_accuracy.json"
)

// references holds the repository's committed reference results: exact
// full-detail cycle counts per workload × policy, and the sampled suite's
// sampled IPCs (rounded to 4 digits, as committed).
type references struct {
	Cycles  map[string]map[string]int64
	Sampled map[string]map[string]accuracyCell
}

type accuracyCell struct {
	SampledIPC float64 `json:"sampledIPC"`
}

// loadReferences reads the committed references below root.
func loadReferences(root string) (*references, error) {
	var g struct {
		Cycles map[string]map[string]int64 `json:"cycles"`
	}
	if err := readJSON(filepath.Join(root, goldenStatsFile), &g); err != nil {
		return nil, err
	}
	var a struct {
		Workloads map[string]map[string]accuracyCell `json:"workloads"`
	}
	if err := readJSON(filepath.Join(root, accuracyFile), &a); err != nil {
		return nil, err
	}
	if len(g.Cycles) == 0 || len(a.Workloads) == 0 {
		return nil, fmt.Errorf("empty reference files")
	}
	return &references{Cycles: g.Cycles, Sampled: a.Workloads}, nil
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// checker counts checked outputs and failures; safe for concurrent use.
// Every operation the benchmark times is attempted once here, and fails if
// it errored or its output differs from the reference.
type checker struct {
	mu        sync.Mutex
	attempted int
	failed    int
	first     []string // the first few failure messages, for stderr
}

// pass records one operation whose output matched.
func (c *checker) pass() { c.record(nil) }

// fail records one failed operation.
func (c *checker) fail(format string, args ...any) { c.record(fmt.Errorf(format, args...)) }

func (c *checker) record(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if err != nil {
		c.failed++
		if len(c.first) < 8 {
			c.first = append(c.first, err.Error())
		}
	}
}

// okFrac is the fraction of attempted operations that passed.
func (c *checker) okFrac() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.attempted == 0 {
		return 0
	}
	return float64(c.attempted-c.failed) / float64(c.attempted)
}

// sampledIPC checks a sampled estimate against the committed sampled IPC.
func (c *checker) sampledIPC(ref *references, workload string, st *pipeline.Stats, err error) {
	if err == nil {
		err = ref.checkSampledIPC(workload, st)
	}
	c.record(err)
}

func (ref *references) checkCycles(workload string, st *pipeline.Stats) error {
	want, ok := ref.Cycles[workload][st.Policy]
	switch {
	case !ok:
		return fmt.Errorf("%s under %s: no golden cycle count", workload, st.Policy)
	case st.Cycles != want:
		return fmt.Errorf("%s under %s: %d cycles, golden %d", workload, st.Policy, st.Cycles, want)
	}
	return nil
}

// checkSampledIPC compares at the committed precision (4 digits).
func (ref *references) checkSampledIPC(workload string, st *pipeline.Stats) error {
	cell, ok := ref.Sampled[workload][st.Policy]
	got := math.Round(st.IPC()*1e4) / 1e4
	switch {
	case !ok:
		return fmt.Errorf("%s under %s: no committed sampled IPC", workload, st.Policy)
	case math.Abs(got-cell.SampledIPC) > 1e-9:
		return fmt.Errorf("%s under %s: sampled IPC %.4f, committed %.4f", workload, st.Policy, got, cell.SampledIPC)
	}
	return nil
}

// committed checks that a run committed exactly the instructions the
// functional emulator retires (setup instructions are not architectural
// commits).
func (c *checker) committed(workload string, want int64, st *pipeline.Stats, err error) {
	switch {
	case err != nil:
		c.fail("%s: %v", workload, err)
	case st.Committed != want:
		c.fail("%s under %s: committed %d, emulator retired %d", workload, st.Policy, st.Committed, want)
	default:
		c.pass()
	}
}

// emulatorCommits runs res functionally and returns how many non-setup
// instructions it retires within maxInsts: the commit count every policy
// must reproduce.
func emulatorCommits(res *compiler.Result, maxInsts int64) (int64, error) {
	src := emulator.NewSource(emulator.New(res.Image), maxInsts)
	var n int64
	for {
		d, ok := src.Next()
		if !ok {
			break
		}
		if !d.Inst.Op.IsSetup() {
			n++
		}
	}
	return n, src.Err()
}
