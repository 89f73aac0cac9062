package main

import (
	"errors"
	"testing"

	"github.com/noreba-sim/noreba/internal/pipeline"
)

func testRefs() *references {
	return &references{
		Cycles: map[string]map[string]int64{"mcf": {"NOREBA": 1000}},
		Sampled: map[string]map[string]accuracyCell{
			"mcf": {"NOREBA": {SampledIPC: 0.5}},
		},
	}
}

// A result one cycle off its golden count is a failed operation, and so
// is a run that errored or commits one instruction too few.
func TestCheckerCountsOffByOneAsFailed(t *testing.T) {
	ref := testRefs()
	var c checker
	c.record(ref.checkCycles("mcf", &pipeline.Stats{Policy: "NOREBA", Cycles: 1000}))
	if c.attempted != 1 || c.failed != 0 {
		t.Fatalf("exact match: attempted %d failed %d, want 1 0", c.attempted, c.failed)
	}
	c.record(ref.checkCycles("mcf", &pipeline.Stats{Policy: "NOREBA", Cycles: 1001}))
	c.record(ref.checkCycles("mcf", &pipeline.Stats{Policy: "NOREBA", Cycles: 999}))
	c.record(errors.New("boom"))
	c.committed("gen/x", 500, &pipeline.Stats{Policy: "NOREBA", Committed: 499}, nil)
	if c.attempted != 5 || c.failed != 4 {
		t.Fatalf("attempted %d failed %d, want 5 4", c.attempted, c.failed)
	}
	if got := c.okFrac(); got != 0.2 {
		t.Fatalf("okFrac %v, want 0.2", got)
	}
}

func TestCheckerSampledIPC(t *testing.T) {
	ref := testRefs()
	var c checker
	// 500 committed in 1000 cycles is IPC 0.5 exactly; one cycle more moves
	// the fourth digit.
	c.sampledIPC(ref, "mcf", &pipeline.Stats{Policy: "NOREBA", Committed: 500, Cycles: 1000}, nil)
	c.sampledIPC(ref, "mcf", &pipeline.Stats{Policy: "NOREBA", Committed: 500, Cycles: 999}, nil)
	if c.attempted != 2 || c.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 2 1", c.attempted, c.failed)
	}
}

func TestSameJSONIgnoresOnlyWhitespace(t *testing.T) {
	if !sameJSON([]byte(`{"a": 1,  "b": [2]}`), []byte("{\n  \"a\":1,\"b\":[2]}\n")) {
		t.Fatal("whitespace-only difference reported as different")
	}
	if sameJSON([]byte(`{"a":1}`), []byte(`{"a":2}`)) {
		t.Fatal("different values reported as same")
	}
}
