package main

import (
	"strings"
	"testing"

	"github.com/noreba-sim/noreba/internal/pipeline"
)

// TestEveryPolicyRenders: the viewer accepts every commit policy by its
// short name — spec included — and names the policy in its header.
func TestEveryPolicyRenders(t *testing.T) {
	for p := pipeline.InOrder; p <= pipeline.Spec; p++ {
		var out strings.Builder
		args := []string{"-workload", "dijkstra", "-scale", "20", "-policy", p.ShortName(), "-n", "5", "-skip", "100"}
		if err := run(args, &out); err != nil {
			t.Fatalf("-policy %s: %v", p.ShortName(), err)
		}
		if !strings.Contains(out.String(), "policy "+p.String()) {
			t.Errorf("-policy %s: header does not name %s:\n%s", p.ShortName(), p, out.String())
		}
	}
	if err := run([]string{"-policy", "warp"}, &strings.Builder{}); err == nil {
		t.Error("an unknown policy was accepted")
	}
}
