package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/noreba-sim/noreba/internal/workgen"
)

// TestExpandSweep: canonical expansion order (workloads outermost, so one
// workload's points are contiguous), defaults, index assignment, and on-
// demand gen/ registration.
func TestExpandSweep(t *testing.T) {
	req := SweepRequest{
		Workloads: []string{"mcf", "sha"},
		Policies:  []string{"inorder", "noreba"},
		Windows:   []int{128, 224},
	}
	rows, err := expandSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("expanded %d rows", len(rows))
	}
	want := sweepRow{Index: 0, Workload: "mcf", Core: "skl", Policy: "inorder", Window: 128}
	if rows[0] != want {
		t.Fatalf("rows[0] = %+v", rows[0])
	}
	for i, r := range rows {
		if r.Index != i {
			t.Fatalf("rows[%d].Index = %d", i, r.Index)
		}
	}
	for _, r := range rows[:4] {
		if r.Workload != "mcf" {
			t.Fatalf("mcf rows not contiguous: %+v", rows)
		}
	}

	// Defaults: one core (skl), one window (the core's own ROB).
	rows, err = expandSweep(SweepRequest{Workloads: []string{"sha"}, Policies: []string{"noreba"}})
	if err != nil || len(rows) != 1 || rows[0].Core != "skl" || rows[0].Window != 0 {
		t.Fatalf("defaults: %+v, %v", rows, err)
	}

	// A fresh gen/ spec is registered during expansion.
	gen := workgen.FromSeed(424242).Name()
	if _, err := expandSweep(SweepRequest{Workloads: []string{gen}, Policies: []string{"noreba"}}); err != nil {
		t.Fatalf("gen spec rejected: %v", err)
	}
}

// TestExpandSweepValidation: every malformed grid fails before simulation.
func TestExpandSweepValidation(t *testing.T) {
	base := func() SweepRequest {
		return SweepRequest{Workloads: []string{"mcf"}, Policies: []string{"noreba"}}
	}
	cases := []struct {
		name string
		mut  func(*SweepRequest)
		want string
	}{
		{"no workloads", func(r *SweepRequest) { r.Workloads = nil }, "workloads is required"},
		{"no policies", func(r *SweepRequest) { r.Policies = nil }, "policies is required"},
		{"bad policy", func(r *SweepRequest) { r.Policies = []string{"yolo"} }, "unknown policy"},
		{"bad core", func(r *SweepRequest) { r.Cores = []string{"m1"} }, "unknown core"},
		{"bad workload", func(r *SweepRequest) { r.Workloads = []string{"nonsense"} }, "unknown workload"},
		{"dup workload", func(r *SweepRequest) { r.Workloads = []string{"mcf", "mcf"} }, "duplicate workload"},
		{"negative window", func(r *SweepRequest) { r.Windows = []int{-1} }, "negative window"},
		{"too many points", func(r *SweepRequest) { r.Windows = make([]int, maxSweepPoints+1) }, "limit"},
	}
	for _, tc := range cases {
		req := base()
		tc.mut(&req)
		_, err := expandSweep(req)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestSweepEmitter: duplicate indices are dropped (the degraded-mode
// contract), progress lines appear at the configured cadence, and counts
// separate successes from errors.
func TestSweepEmitter(t *testing.T) {
	var buf bytes.Buffer
	e := newSweepEmitter(bufio.NewWriter(&buf), nil, 40)
	for i := 0; i < 40; i++ {
		msg := sweepRowMsg{Type: "row", Index: i, Workload: "w"}
		if i == 7 {
			msg.Error = "boom"
		}
		e.row(msg)
		e.row(msg) // duplicate settle, as after a degraded rerun
	}
	done, errs := e.counts()
	if done != 40 || errs != 1 {
		t.Fatalf("counts = %d, %d", done, errs)
	}
	var rows, progress int
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var probe struct {
			Type string `json:"type"`
			Done int    `json:"done"`
		}
		if err := json.Unmarshal([]byte(line), &probe); err != nil {
			t.Fatalf("bad line %q: %v", line, err)
		}
		switch probe.Type {
		case "row":
			rows++
		case "progress":
			progress++
		}
	}
	if rows != 40 {
		t.Fatalf("emitted %d row lines", rows)
	}
	// 40 points / progressTargets(20) = one progress line every 2 rows,
	// minus the final one (done < points fails at 40).
	if progress != 19 {
		t.Fatalf("emitted %d progress lines", progress)
	}
}

// TestSweepAdmission: the semaphore admits SweepMax sweeps and rejects the
// next without blocking; release restores capacity.
func TestSweepAdmission(t *testing.T) {
	n, err := NewNode(Config{Self: "http://self", Runner: quickRunner(), SweepMax: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !n.admitSweep() || !n.admitSweep() {
		t.Fatal("admission under the limit refused")
	}
	if n.admitSweep() {
		t.Fatal("third concurrent sweep admitted")
	}
	m := n.Metrics()
	if m.SweepsActive != 2 || m.SweepsTotal != 2 {
		t.Fatalf("metrics = %+v", m)
	}
	n.releaseSweep()
	if !n.admitSweep() {
		t.Fatal("released slot not reusable")
	}
	if n.Metrics().SweepsTotal != 3 {
		t.Fatalf("metrics = %+v", n.Metrics())
	}
}
