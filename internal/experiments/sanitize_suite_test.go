package experiments

import (
	"context"
	"testing"

	"github.com/noreba-sim/noreba/internal/pipeline"
)

var suitePolicies = []pipeline.PolicyKind{
	pipeline.InOrder, pipeline.NonSpecOoO, pipeline.Noreba,
	pipeline.IdealReconv, pipeline.SpecBR, pipeline.Spec,
}

// TestSuiteSanitized runs every suite workload under every commit policy
// (plus ECL variants) with the pipeline invariant checker on: the figures'
// cycle counts are only trustworthy if none of these runs can retire
// illegally or leak a structure entry. Since the scheduler rewrite, the
// sanitizer's per-cycle from-scratch ROB scans also cross-check every piece
// of incremental eligibility state — ready/candidate queue membership,
// wakeup counters, commit-boundary deques, resident indices, and the branch
// lists — so this cross product is the rewrite's correctness oracle. The
// ECL variants matter beyond NOREBA: early commit of loads creates
// committed residents under every candidate-queue policy, exercising the
// resident-cutoff bookkeeping the relaxed walks break on. The instruction
// budget is reduced so the full cross product stays test-sized; the
// sanitizer checks every cycle of every run regardless.
func TestSuiteSanitized(t *testing.T) {
	r := QuickRunner()
	r.Sanitize = true
	r.MaxInsts = 1 << 17

	var reqs []Request
	for _, name := range mustNames(t, r) {
		for _, pk := range suitePolicies {
			reqs = append(reqs, Request{Workload: name, Config: skylake(pk)})
		}
		for _, pk := range []pipeline.PolicyKind{
			pipeline.Noreba, pipeline.NonSpecOoO, pipeline.IdealReconv, pipeline.SpecBR,
		} {
			ecl := skylake(pk)
			ecl.ECL = true
			reqs = append(reqs, Request{Workload: name, Config: ecl})
		}
	}
	if err := r.RunRequests(context.Background(), reqs); err != nil {
		t.Fatalf("sanitized suite reported a violation: %v", err)
	}
	if got := r.SimulationsRun(); got < int64(len(reqs)) {
		t.Fatalf("only %d of %d sanitized simulations ran", got, len(reqs))
	}
}
