package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"github.com/noreba-sim/noreba/internal/experiments"
	"github.com/noreba-sim/noreba/internal/pipeline"
	"github.com/noreba-sim/noreba/internal/sampling"
	"github.com/noreba-sim/noreba/internal/service"
	"github.com/noreba-sim/noreba/internal/workloads"
)

// Sweep admission and size bounds.
const (
	// DefaultSweepMax bounds concurrently streaming sweeps per replica;
	// further POST /sweep calls get 429 + Retry-After instead of queueing,
	// so batch traffic can never occupy unbounded memory.
	DefaultSweepMax = 2
	// maxSweepPoints bounds one sweep's expanded grid.
	maxSweepPoints = 4096
	// progressTargets is roughly how many progress lines a sweep emits.
	progressTargets = 20
)

// SweepRequest is the POST /sweep body: a design-space grid expanded
// server-side into workloads × cores × policies × windows points. Workload
// names may be canonical generated specs (gen/s…c…d…m…p…n…) that are not
// pre-registered: the fleet generates them on demand.
type SweepRequest struct {
	// Workloads are registered kernel names or gen/ specs. Required.
	Workloads []string `json:"workloads"`
	// Policies are commit policies (see POST /jobs). Required.
	Policies []string `json:"policies"`
	// Windows are ROB sizes; empty means each core model's default window.
	Windows []int `json:"windows,omitempty"`
	// Cores are machine models (nhm|hsw|skl); empty means ["skl"].
	Cores []string `json:"cores,omitempty"`
	// ECL, Prefetch and Sanitize apply to every point (see POST /jobs).
	ECL      *bool `json:"ecl,omitempty"`
	Prefetch *bool `json:"prefetch,omitempty"`
	Sanitize bool  `json:"sanitize,omitempty"`
	// Sample runs every point as a SimPoint-style sampled estimate. A
	// workload's sampled points share one sampling plan instead of a
	// broadcast emulation, and still shard by workload.
	Sample bool `json:"sample,omitempty"`
	// TimeoutSec bounds the whole sweep; expired sweeps end with an error
	// line. 0 means no deadline beyond the client's connection.
	TimeoutSec float64 `json:"timeoutSec,omitempty"`
}

// sweepRow is one expanded grid point.
type sweepRow struct {
	Index    int    `json:"index"`
	Workload string `json:"workload"`
	Core     string `json:"core"`
	Policy   string `json:"policy"`
	Window   int    `json:"window"` // effective ROB size
}

// Stream line types. Every line of the POST /sweep (and internal
// /cluster/sweepgroup) response is one JSON object with a "type" field:
//
//	head     — once, before any row: grid dimensions
//	row      — one grid point's result (stats) or failure (error)
//	progress — periodic: settled counts, elapsed and ETA
//	done     — once, last: totals; degraded=true if any group lost its
//	           owner mid-stream and was rerun locally
type sweepHead struct {
	Type      string `json:"type"` // "head"
	Node      string `json:"node"`
	Points    int    `json:"points"`
	Workloads int    `json:"workloads"`
}

type sweepRowMsg struct {
	Type     string          `json:"type"` // "row"
	Index    int             `json:"index"`
	Workload string          `json:"workload"`
	Core     string          `json:"core"`
	Policy   string          `json:"policy"`
	Window   int             `json:"window"`
	Hash     string          `json:"hash"`
	Stats    json.RawMessage `json:"stats,omitempty"`
	Error    string          `json:"error,omitempty"`
}

type sweepProgress struct {
	Type       string  `json:"type"` // "progress"
	Done       int     `json:"done"`
	Points     int     `json:"points"`
	Errors     int     `json:"errors"`
	ElapsedSec float64 `json:"elapsedSec"`
	EtaSec     float64 `json:"etaSec"`
}

type sweepDone struct {
	Type       string  `json:"type"` // "done"
	Points     int     `json:"points"`
	Errors     int     `json:"errors"`
	Degraded   bool    `json:"degraded,omitempty"`
	ElapsedSec float64 `json:"elapsedSec"`
}

// groupRequest is the internal POST /cluster/sweepgroup body: one
// workload's slice of the grid, forwarded to the replica that owns the
// workload on the ring. The receiving replica always executes locally
// (groups are never re-forwarded, so a stale ring cannot loop). Runner
// scale parameters are not part of the body: a fleet is assumed homogeneous
// (same -max-insts/-scale-div on every replica), which the config hash
// makes safe — heterogeneous replicas would simply never share store keys.
type groupRequest struct {
	Workload string     `json:"workload"`
	Rows     []sweepRow `json:"rows"`
	ECL      *bool      `json:"ecl,omitempty"`
	Prefetch *bool      `json:"prefetch,omitempty"`
	Sanitize bool       `json:"sanitize,omitempty"`
	Sample   bool       `json:"sample,omitempty"`
}

// sweepGroup is one workload's rows plus the replica that should run them.
type sweepGroup struct {
	workload string
	owner    string
	rows     []sweepRow
}

// expandSweep validates req and expands the grid in canonical order:
// workloads outermost (so one workload's points are contiguous and become
// one broadcast batch), then cores, policies, windows. Every workload is
// resolved — registering gen/ specs on demand — before any simulation
// starts, so an invalid grid fails fast with a 400, not mid-stream.
func expandSweep(req SweepRequest) ([]sweepRow, error) {
	if len(req.Workloads) == 0 {
		return nil, fmt.Errorf("workloads is required")
	}
	if len(req.Policies) == 0 {
		return nil, fmt.Errorf("policies is required")
	}
	cores := req.Cores
	if len(cores) == 0 {
		cores = []string{"skl"}
	}
	windows := req.Windows
	if len(windows) == 0 {
		windows = []int{0} // 0 = the core model's default ROB
	}
	points := len(req.Workloads) * len(cores) * len(req.Policies) * len(windows)
	if points > maxSweepPoints {
		return nil, fmt.Errorf("grid has %d points, limit %d", points, maxSweepPoints)
	}
	seen := map[string]bool{}
	for _, w := range req.Workloads {
		if seen[w] {
			return nil, fmt.Errorf("duplicate workload %q", w)
		}
		seen[w] = true
		if _, err := workloads.EnsureGenerated(w); err != nil {
			return nil, err
		}
	}
	for _, win := range windows {
		if win < 0 {
			return nil, fmt.Errorf("negative window %d", win)
		}
	}
	rows := make([]sweepRow, 0, points)
	for _, w := range req.Workloads {
		for _, core := range cores {
			for _, policy := range req.Policies {
				for _, win := range windows {
					r := sweepRow{Index: len(rows), Workload: w, Core: core, Policy: policy, Window: win}
					if _, err := rowConfig(r, req); err != nil {
						return nil, err
					}
					rows = append(rows, r)
				}
			}
		}
	}
	return rows, nil
}

// rowConfig resolves one grid point into a request via the same path as
// POST /jobs, then applies the window override and the sweep's sampling
// mode.
func rowConfig(row sweepRow, req SweepRequest) (experiments.Request, error) {
	sub := service.SubmitRequest{Workload: row.Workload, Policy: row.Policy, Core: row.Core, Prefetch: req.Prefetch, Sanitize: req.Sanitize}
	if req.ECL != nil {
		sub.ECL = *req.ECL
	}
	cfg, err := service.BuildConfig(sub)
	if err != nil {
		return experiments.Request{}, err
	}
	if row.Window > 0 {
		cfg.ROBSize = row.Window
	}
	q := experiments.Request{Workload: row.Workload, Config: cfg}
	if req.Sample {
		q.Sampling = sampling.Default()
	}
	return q, nil
}

// sweepEmitter serialises JSONL line writes and tracks settled rows for
// progress/ETA lines and for degraded-mode deduplication.
type sweepEmitter struct {
	mu      sync.Mutex
	w       *bufio.Writer
	flush   func()
	start   time.Time
	points  int
	done    int
	errors  int
	every   int
	emitted map[int]bool
	failed  error // first write failure; once set, lines are dropped
}

func newSweepEmitter(w *bufio.Writer, flush func(), points int) *sweepEmitter {
	every := points / progressTargets
	if every < 1 {
		every = 1
	}
	return &sweepEmitter{w: w, flush: flush, start: time.Now(), points: points, every: every, emitted: map[int]bool{}}
}

// line marshals v and writes it as one JSONL line. Write errors (client
// went away) are remembered and silence all further output; the sweep
// itself keeps running so the runner's cache still gets warmed.
func (e *sweepEmitter) line(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // all line types are pure value structs
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.lineLocked(b)
}

func (e *sweepEmitter) lineLocked(b []byte) {
	if e.failed != nil {
		return
	}
	if _, err := e.w.Write(append(b, '\n')); err != nil {
		e.failed = err
		return
	}
	if err := e.w.Flush(); err != nil {
		e.failed = err
		return
	}
	if e.flush != nil {
		e.flush()
	}
}

// row emits one settled grid point exactly once: a degraded-mode rerun of a
// half-streamed group re-settles indices the dead owner already delivered,
// and those duplicates are dropped here. Progress lines ride along every
// `every` rows.
func (e *sweepEmitter) row(msg sweepRowMsg) {
	b, err := json.Marshal(msg)
	if err != nil {
		panic(err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.emitted[msg.Index] {
		return
	}
	e.emitted[msg.Index] = true
	e.done++
	if msg.Error != "" {
		e.errors++
	}
	e.lineLocked(b)
	if e.done%e.every == 0 && e.done < e.points {
		elapsed := time.Since(e.start).Seconds()
		eta := 0.0
		if e.done > 0 {
			eta = elapsed / float64(e.done) * float64(e.points-e.done)
		}
		p := sweepProgress{Type: "progress", Done: e.done, Points: e.points, Errors: e.errors, ElapsedSec: round2(elapsed), EtaSec: round2(eta)}
		pb, _ := json.Marshal(p)
		e.lineLocked(pb)
	}
}

// has reports whether index already settled (for degraded-mode dedup).
func (e *sweepEmitter) has(index int) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.emitted[index]
}

func (e *sweepEmitter) counts() (done, errors int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.done, e.errors
}

func round2(f float64) float64 { return float64(int64(f*100+0.5)) / 100 }

// admitSweep reserves a sweep slot without blocking; callers that get false
// should answer 429.
func (n *Node) admitSweep() bool {
	select {
	case n.sweepSem <- struct{}{}:
		n.sweepsActive.Add(1)
		n.sweepsTotal.Add(1)
		return true
	default:
		return false
	}
}

func (n *Node) releaseSweep() {
	n.sweepsActive.Add(-1)
	<-n.sweepSem
}

// runSweep executes an admitted, already-expanded sweep and streams lines
// through emit. Rows are grouped by workload; each group runs on the
// replica that owns the workload name on the ring — locally, or forwarded
// whole via /cluster/sweepgroup so the owner's runner batches the group
// onto one functional emulation. Groups whose owner is down (or dies
// mid-stream) are rerun locally, deduplicating rows the owner already
// delivered; the sweep then completes degraded rather than failing.
func (n *Node) runSweep(ctx context.Context, req SweepRequest, rows []sweepRow, emit *sweepEmitter) sweepDone {
	groups := groupByWorkload(rows)
	for i := range groups {
		groups[i].owner = n.ring.Owner(groups[i].workload)
	}
	emit.line(sweepHead{Type: "head", Node: n.self, Points: len(rows), Workloads: len(groups)})

	degraded := false
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, g := range groups {
		wg.Add(1)
		go func(g sweepGroup) {
			defer wg.Done()
			if g.owner != n.self && n.healthy(g.owner, time.Now()) {
				err := n.forwardGroup(ctx, g, req, emit)
				if err == nil {
					return
				}
				// The owner died mid-group (counted and backed off by
				// peerRPC); fall through to the local rerun.
				mu.Lock()
				degraded = true
				mu.Unlock()
			} else if g.owner != n.self {
				mu.Lock()
				degraded = true
				mu.Unlock()
			}
			n.runGroupLocal(ctx, g, req, emit)
		}(g)
	}
	wg.Wait()

	_, errs := emit.counts()
	return sweepDone{Type: "done", Points: len(rows), Errors: errs, Degraded: degraded, ElapsedSec: round2(time.Since(emit.start).Seconds())}
}

func groupByWorkload(rows []sweepRow) []sweepGroup {
	byName := map[string]int{}
	var groups []sweepGroup
	for _, r := range rows {
		i, ok := byName[r.Workload]
		if !ok {
			i = len(groups)
			byName[r.Workload] = i
			groups = append(groups, sweepGroup{workload: r.Workload})
		}
		groups[i].rows = append(groups[i].rows, r)
	}
	return groups
}

// runGroupLocal executes one workload group on this replica's runner,
// emitting each row as it settles and skipping rows that already settled
// (degraded reruns). The whole group goes through one RunRequestsStream:
// full-detail rows share one functional emulation, sampled rows one plan.
func (n *Node) runGroupLocal(ctx context.Context, g sweepGroup, req SweepRequest, emit *sweepEmitter) {
	var pending []sweepRow
	for _, row := range g.rows {
		if !emit.has(row.Index) {
			pending = append(pending, row)
		}
	}
	if len(pending) == 0 {
		return
	}
	reqs := make([]experiments.Request, len(pending))
	for i, row := range pending {
		// expandSweep already validated every row; an error here would be
		// a programming error surfaced as a row error below.
		reqs[i], _ = rowConfig(row, req)
	}
	n.runner.RunRequestsStream(ctx, reqs, func(i int, st *pipeline.Stats, err error) {
		row, q := pending[i], reqs[i]
		msg := sweepRowMsg{Type: "row", Index: row.Index, Workload: row.Workload, Core: row.Core, Policy: row.Policy, Window: row.Window,
			Hash: n.runner.ConfigHash(q.Workload, q.Config, q.Sampling), Stats: marshalStats(st, err)}
		if err != nil {
			msg.Error = err.Error()
		}
		emit.row(msg)
	})
}

// marshalStats renders a settled run's stats for its row line (nil on
// failure — the row then carries the error string instead).
func marshalStats(st *pipeline.Stats, err error) json.RawMessage {
	if err != nil || st == nil {
		return nil
	}
	b, merr := json.Marshal(st)
	if merr != nil {
		return nil
	}
	return b
}

// forwardGroup POSTs one workload group to its owning replica and relays
// the owner's row lines into the sweep stream. The group's deadline is the
// sweep's, not the node's short RPC timeout. Any transport error, bad
// status or truncated stream (no trailing done line) is a failure: the
// caller reruns the group locally and the emitter drops duplicate rows.
func (n *Node) forwardGroup(ctx context.Context, g sweepGroup, req SweepRequest, emit *sweepEmitter) error {
	body, err := json.Marshal(groupRequest{Workload: g.workload, Rows: g.rows, ECL: req.ECL, Prefetch: req.Prefetch, Sanitize: req.Sanitize, Sample: req.Sample})
	if err != nil {
		return err
	}
	resp, err := n.send(ctx, http.MethodPost, g.owner+"/cluster/sweepgroup", "application/json", bytes.NewReader(body))
	if err != nil {
		n.peerErrors.Add(1)
		n.markFailure(g.owner, time.Now())
		return fmt.Errorf("cluster: forward %s to %s: %w", g.workload, g.owner, err)
	}
	defer drain(resp.Body)
	if resp.StatusCode != http.StatusOK {
		n.peerErrors.Add(1)
		n.markFailure(g.owner, time.Now())
		return fmt.Errorf("cluster: forward %s to %s: status %s", g.workload, g.owner, resp.Status)
	}
	n.forwarded.Add(1)
	n.markSuccess(g.owner)

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	sawDone := false
	for sc.Scan() {
		var probe struct {
			Type string `json:"type"`
		}
		line := sc.Bytes()
		if err := json.Unmarshal(line, &probe); err != nil {
			n.peerErrors.Add(1)
			return fmt.Errorf("cluster: forward %s: bad line from %s: %w", g.workload, g.owner, err)
		}
		switch probe.Type {
		case "row":
			var msg sweepRowMsg
			if err := json.Unmarshal(line, &msg); err != nil {
				n.peerErrors.Add(1)
				return fmt.Errorf("cluster: forward %s: bad row from %s: %w", g.workload, g.owner, err)
			}
			emit.row(msg)
		case "done":
			sawDone = true
		}
		// The owner's progress lines are dropped: the coordinator emits
		// its own, covering the whole grid.
	}
	if err := sc.Err(); err != nil {
		n.peerErrors.Add(1)
		n.markFailure(g.owner, time.Now())
		return fmt.Errorf("cluster: forward %s: stream from %s: %w", g.workload, g.owner, err)
	}
	if !sawDone {
		n.peerErrors.Add(1)
		n.markFailure(g.owner, time.Now())
		return fmt.Errorf("cluster: forward %s: stream from %s truncated", g.workload, g.owner)
	}
	return nil
}
