package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/noreba-sim/noreba/internal/cluster"
	"github.com/noreba-sim/noreba/internal/experiments"
	"github.com/noreba-sim/noreba/internal/pipeline"
	"github.com/noreba-sim/noreba/internal/service"
)

// Fleet shape: three replicas, two closed-loop clients (nproc = 2).
const (
	fleetReplicas = 3
	fleetClients  = 2
	pollEvery     = 2 * time.Millisecond
	warmSweeps    = 4 * fleetReplicas
)

// fleetCurated are the curated programs of the fleet grid; the first three
// are sampleable and form the sampled grid.
var fleetCurated = []string{"mcf", "astar", "bzip2", "CRC32"}

const fleetSampleable = 3

// Grid axes: the full sweep covers sweepCores × sweepPolicies, the sampled
// sweep the default core × sweepPolicies.
var (
	sweepCores    = []string{"skl", "hsw"}
	sweepPolicies = []string{"inorder", "nonspec", "noreba"}
	allCores      = []string{"skl", "hsw", "nhm"}
	policyNames   = []string{"inorder", "nonspec", "noreba", "ideal", "specbr", "spec"}
)

func init() {
	register(&workload{
		name:    "fleet",
		curated: fleetCurated,
		setup:   fleetSetup,
		pass:    fleetPass,
		layers:  fleetLayers,
	})
}

// fleetSetup measures starting a fleet and waiting until every replica
// answers.
func fleetSetup(e *env) (time.Duration, error) {
	f, d, err := startFleet(e, nil)
	if err != nil {
		return 0, err
	}
	f.stop()
	return d, nil
}

// fleetJobs builds the job list, in a seed-shuffled order: the sweep's
// default-core points again (served from a shard or a peer), every
// full-detail point the sweep skipped, and the sampled points on the cores
// the sampled sweep skipped. About a quarter are store reads, so the p50
// and p90 ranks sit well inside the simulated mode.
func fleetJobs(p *programs, seed uint64) []service.SubmitRequest {
	swept := func(core, pol string) bool {
		return (core == "skl" || core == "hsw") && (pol == "inorder" || pol == "nonspec" || pol == "noreba")
	}
	var jobs []service.SubmitRequest
	for _, w := range p.all() {
		for _, c := range allCores {
			for _, pol := range policyNames {
				if !swept(c, pol) || c == "skl" {
					jobs = append(jobs, service.SubmitRequest{Workload: w, Core: c, Policy: pol})
				}
			}
		}
	}
	for _, w := range p.curated[:fleetSampleable] {
		for _, c := range allCores {
			for _, pol := range sweepPolicies {
				jobs = append(jobs, service.SubmitRequest{Workload: w, Core: c, Policy: pol, Sample: true})
			}
		}
	}
	r := rng(seed ^ 0x5eed)
	r.shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

// replica is one in-process fleet member: runner, shard, scheduler and
// HTTP server, reachable by the others only over HTTP.
type replica struct {
	url    string
	ts     *httptest.Server
	runner *experiments.Runner
	sched  *service.Scheduler
}

type fleet struct {
	reps   []*replica
	client *http.Client
}

// startFleet brings up the replicas on loopback with fresh shards and
// returns once every replica answers /healthz, with the time that took.
// With a tracer, each runner's store is wrapped to time Node.Get.
func startFleet(e *env, tr *tracer) (*fleet, time.Duration, error) {
	dir, err := os.MkdirTemp(e.scratch, "fleet-")
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	f := &fleet{client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}}
	urls := make([]string, fleetReplicas)
	for i := range urls {
		ts := httptest.NewUnstartedServer(nil)
		urls[i] = "http://" + ts.Listener.Addr().String()
		f.reps = append(f.reps, &replica{url: urls[i], ts: ts})
	}
	op := tr.op()
	for i, rep := range f.reps {
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		store, err := service.OpenDiskStore(filepath.Join(dir, fmt.Sprint(i)), 1<<30)
		if err != nil {
			f.stop()
			return nil, 0, err
		}
		rep.runner = experiments.NewRunner()
		q := experiments.QuickRunner()
		rep.runner.MaxInsts, rep.runner.ScaleDiv = q.MaxInsts, q.ScaleDiv
		node, err := cluster.NewNode(cluster.Config{
			Self: rep.url, Peers: peers, Runner: rep.runner, Local: store,
			PeerTimeout: 10 * time.Second,
		})
		if err != nil {
			f.stop()
			return nil, 0, err
		}
		rep.runner.Store = node
		if tr != nil {
			rep.runner.Store = &tracedNode{Node: node, tr: tr, op: op}
		}
		rep.sched = service.NewScheduler(service.SchedulerConfig{Runner: rep.runner, Workers: 1, QueueLimit: 64})
		srv := service.NewServer(rep.sched, store)
		node.Mount(srv)
		rep.ts.Config.Handler = srv
		rep.ts.Start()
	}
	for _, rep := range f.reps {
		if err := f.get(rep.url+"/healthz", nil); err != nil {
			f.stop()
			return nil, 0, err
		}
	}
	return f, time.Since(start), nil
}

// stop closes every server and drains every scheduler.
func (f *fleet) stop() {
	for _, rep := range f.reps {
		if rep.ts != nil {
			rep.ts.Close()
		}
		if rep.sched != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			rep.sched.Shutdown(ctx)
			cancel()
		}
	}
	f.client.CloseIdleConnections()
}

// get fetches url and decodes its JSON body into v (nil discards it).
func (f *fleet) get(url string, v any) error {
	resp, err := f.client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	if v == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// tracedNode times the runner's store lookups through the cluster layer,
// separating keys a peer owns from keys this replica owns.
type tracedNode struct {
	*cluster.Node
	tr *tracer
	op int64
}

func (t *tracedNode) Get(key string) (*pipeline.Stats, bool) {
	name := "cluster.Node.Get.local"
	if t.Ring().Owner(key) != t.Self() {
		name = "cluster.Node.Get.peer"
	}
	sp := t.tr.begin(name, t.op, nil)
	st, ok := t.Node.Get(key)
	sp.end(1)
	return st, ok
}

// sweepRow is one row line of a POST /sweep stream.
type sweepRow struct {
	Type     string          `json:"type"`
	Index    int             `json:"index"`
	Workload string          `json:"workload"`
	Core     string          `json:"core"`
	Hash     string          `json:"hash"`
	Stats    json.RawMessage `json:"stats"`
	Error    string          `json:"error"`
}

// sweep posts req to url and collects its rows by index, with the time to
// the first row.
func (f *fleet) sweep(url string, req cluster.SweepRequest) (map[int]sweepRow, time.Duration, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	resp, err := f.client.Post(url+"/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("POST /sweep: %s", resp.Status)
	}
	rows := map[int]sweepRow{}
	var first time.Duration
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	done := false
	for sc.Scan() {
		var row sweepRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			return nil, 0, fmt.Errorf("sweep stream: %w", err)
		}
		switch row.Type {
		case "row":
			if first == 0 {
				first = time.Since(start)
			}
			rows[row.Index] = row
		case "done":
			done = true
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	if !done {
		return nil, 0, fmt.Errorf("sweep stream ended without a done line")
	}
	return rows, first, nil
}

// fleetState is what a fleet pass leaves for its per-layer metrics.
type fleetState struct {
	runners                 []*experiments.Runner
	submitMs, waitMs, runMs []float64
	rejected                int64
	firstRow                time.Duration
	forwarded, shard, peer  int64
	peerMisses, peerErrors  int64
}

// fleetPass starts a fresh fleet, sweeps the grid cold (full detail, then
// sampled), re-sweeps it warm four times through each replica, runs the job
// list through two closed-loop clients, and stops the fleet.
func fleetPass(e *env, tr *tracer) (passResult, error) {
	d := e.progs
	jobs := fleetJobs(d, e.seed)
	f, _, err := startFleet(e, tr)
	if err != nil {
		return passResult{}, err
	}
	defer f.stop()
	op := tr.op()
	root := tr.begin("fleet.pass", op, nil)
	defer root.end(0)
	state := &fleetState{}
	for _, rep := range f.reps {
		state.runners = append(state.runners, rep.runner)
	}

	reqs := []cluster.SweepRequest{
		{Workloads: d.all(), Cores: sweepCores, Policies: sweepPolicies},
		{Workloads: d.curated[:fleetSampleable], Policies: sweepPolicies, Sample: true},
	}
	sweepAll := func(phase, url string) ([]map[int]sweepRow, time.Duration, error) {
		parent := tr.begin("fleet."+phase, op, root)
		start := time.Now()
		var out []map[int]sweepRow
		for i, req := range reqs {
			sp := tr.begin("cluster.POST /sweep", op, parent)
			rows, first, err := f.sweep(url, req)
			if err != nil {
				return nil, 0, err
			}
			sp.end(int64(len(rows)))
			if i == 0 && phase == "cold" {
				state.firstRow = first
			}
			out = append(out, rows)
		}
		elapsed := time.Since(start)
		parent.end(0)
		return out, elapsed, nil
	}
	cold, coldDur, err := sweepAll("cold", f.reps[0].url)
	if err != nil {
		return passResult{}, err
	}
	// A warm sweep takes milliseconds, so the warm phase re-sweeps four
	// times through each replica and times the whole phase.
	runtime.GC()
	var warms [][]map[int]sweepRow
	var warmDur time.Duration
	for i := 0; i < warmSweeps; i++ {
		warm, d, err := sweepAll("warm", f.reps[(i+1)%fleetReplicas].url)
		if err != nil {
			return passResult{}, err
		}
		warms = append(warms, warm)
		warmDur += d
	}

	// Cold rows match the references; warm rows are byte-identical.
	rowOf := map[string]json.RawMessage{} // sweep point hash → cold stats bytes
	for g, rows := range cold {
		for idx, row := range rows {
			if row.Error != "" {
				e.chk.fail("sweep row %d: %s", idx, row.Error)
				continue
			}
			rowOf[row.Hash] = row.Stats
			e.chk.record(checkStats(e, d, row.Stats, row.Workload, row.Core, reqs[g].Sample))
			for _, warm := range warms {
				w, ok := warm[g][idx]
				switch {
				case !ok:
					e.chk.fail("warm sweep lost row %d", idx)
				case !sameJSON(w.Stats, row.Stats):
					e.chk.fail("warm sweep row %d differs from the cold row", idx)
				default:
					e.chk.pass()
				}
			}
		}
	}

	runtime.GC()
	jobsStart := time.Now()
	parent := tr.begin("fleet.jobs", op, root)
	lat := make([]float64, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	for c := 0; c < fleetClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(jobs) {
					return
				}
				url := f.reps[k%fleetReplicas].url
				jr, err := f.job(url, jobs[k], tr, tr.op(), parent)
				if err != nil {
					// A failed or refused job misses any latency limit.
					lat[k] = math.Inf(1)
					e.chk.fail("job %d (%+v): %v", k, jobs[k], err)
					if jr.rejected {
						mu.Lock()
						state.rejected++
						mu.Unlock()
					}
					continue
				}
				lat[k] = jr.latencyMs
				mu.Lock()
				state.submitMs = append(state.submitMs, jr.submitMs)
				state.waitMs = append(state.waitMs, jr.waitMs)
				state.runMs = append(state.runMs, jr.runMs)
				mu.Unlock()
				if want, ok := rowOf[jr.hash]; ok {
					if sameJSON(jr.stats, want) {
						e.chk.pass()
					} else {
						e.chk.fail("job %d repeats sweep point %s with different stats", k, jr.hash)
					}
				} else {
					q := jobs[k]
					e.chk.record(checkStats(e, d, jr.stats, q.Workload, q.Core, q.Sample))
				}
			}
		}()
	}
	wg.Wait()
	jobsDur := time.Since(jobsStart)
	parent.end(int64(len(jobs)))

	for _, rep := range f.reps {
		var m service.MetricsResponse
		if err := f.get(rep.url+"/metrics", &m); err != nil {
			return passResult{}, err
		}
		if c := m.Cluster; c != nil {
			state.forwarded += c.Forwarded
			state.shard += c.ShardHits
			state.peer += c.PeerHits
			state.peerMisses += c.PeerMisses
			state.peerErrors += c.PeerErrors
		}
	}
	return passResult{
		wall:   coldDur + warmDur + jobsDur,
		jobsMs: lat, state: state,
	}, nil
}

// jobResult is one finished job as a client saw it.
type jobResult struct {
	hash                    string
	stats                   json.RawMessage
	latencyMs               float64 // submit round trip + Submitted→Finished
	submitMs, waitMs, runMs float64
	rejected                bool
}

// job submits req to url, waits for it to finish and fetches its result.
// Latency comes from the job's own Submitted/Finished timestamps plus the
// submit round trip, so the poll interval does not quantize it.
func (f *fleet) job(url string, req service.SubmitRequest, tr *tracer, op int64, parent *active) (jobResult, error) {
	var jr jobResult
	body, err := json.Marshal(req)
	if err != nil {
		return jr, err
	}
	sp := tr.begin("service.POST /jobs", op, parent)
	t0 := time.Now()
	resp, err := f.client.Post(url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return jr, err
	}
	var sub service.SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	rtt := time.Since(t0)
	sp.end(1)
	if resp.StatusCode == http.StatusTooManyRequests {
		jr.rejected = true
		return jr, fmt.Errorf("rejected: %s", resp.Status)
	}
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return jr, fmt.Errorf("submit: %s %v", resp.Status, err)
	}
	sp = tr.begin("service.job", op, parent)
	var st service.JobStatus
	for {
		if err := f.get(url+"/jobs/"+sub.ID, &st); err != nil {
			return jr, err
		}
		if st.State != service.StateQueued && st.State != service.StateRunning {
			break
		}
		time.Sleep(pollEvery)
	}
	sp.end(1)
	if st.State != service.StateDone || st.Started == nil || st.Finished == nil {
		return jr, fmt.Errorf("job %s ended %s: %s", sub.ID, st.State, st.Error)
	}
	var raw json.RawMessage
	if err := f.get(url+"/jobs/"+sub.ID+"/result", &raw); err != nil {
		return jr, err
	}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	jr.hash, jr.stats = sub.Hash, raw
	jr.submitMs = ms(rtt)
	jr.waitMs = ms(st.Started.Sub(st.Submitted))
	jr.runMs = ms(st.Finished.Sub(*st.Started))
	jr.latencyMs = ms(rtt + st.Finished.Sub(st.Submitted))
	return jr, nil
}

// checkStats checks one fleet result: every run commits the emulator's
// instruction count (sampled estimates too), and a curated program's
// default-core result matches its committed cycle count (full detail) or
// committed sampled IPC (sampled).
func checkStats(e *env, p *programs, raw json.RawMessage, workload, core string, sampled bool) error {
	var st pipeline.Stats
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("%s: undecodable stats: %w", workload, err)
	}
	if want := p.commits[workload]; st.Committed != want {
		return fmt.Errorf("%s on %s under %s: committed %d, emulator retired %d", workload, core, st.Policy, st.Committed, want)
	}
	if sampled != st.Sampled {
		return fmt.Errorf("%s on %s under %s: sampled=%v, requested %v", workload, core, st.Policy, st.Sampled, sampled)
	}
	if core != "skl" || !slices.Contains(p.curated, workload) {
		return nil
	}
	if sampled {
		return e.ref.checkSampledIPC(workload, &st)
	}
	return e.ref.checkCycles(workload, &st)
}

// sameJSON reports whether two JSON documents are byte-identical once
// insignificant whitespace is removed.
func sameJSON(a, b []byte) bool {
	var ca, cb bytes.Buffer
	if json.Compact(&ca, a) != nil || json.Compact(&cb, b) != nil {
		return false
	}
	return bytes.Equal(ca.Bytes(), cb.Bytes())
}

func fleetLayers(_ *env, tr *tracer, pr passResult, m metrics) error {
	st := pr.state.(*fleetState)
	runnerLayers(m, st.runners...)
	for _, q := range []struct {
		name string
		xs   []float64
		p    float64
	}{
		{"service.submit_ms_p50", st.submitMs, 0.5},
		{"service.queue_wait_ms_p50", st.waitMs, 0.5},
		{"service.queue_wait_ms_p90", st.waitMs, 0.9},
		{"service.run_ms_p50", st.runMs, 0.5},
		{"service.run_ms_p90", st.runMs, 0.9},
		{"cluster.peer_get_ms_p50", durationsMs(tr.named("cluster.Node.Get.peer")), 0.5},
	} {
		v, err := percentile(q.xs, q.p)
		if err != nil {
			return fmt.Errorf("%s: %w", q.name, err)
		}
		m.set(q.name, v, "ms")
	}
	m.set("service.rejected", float64(st.rejected), "count")
	m.set("cluster.forwarded", float64(st.forwarded), "count")
	m.set("cluster.shard_hits", float64(st.shard), "count")
	m.set("cluster.peer_hits", float64(st.peer), "count")
	m.set("cluster.peer_misses", float64(st.peerMisses), "count")
	m.set("cluster.peer_errors", float64(st.peerErrors), "count")
	m.set("cluster.first_row_ms", float64(st.firstRow)/1e6, "ms")
	return nil
}
