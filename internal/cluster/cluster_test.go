package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/noreba-sim/noreba/internal/experiments"
	"github.com/noreba-sim/noreba/internal/sampling"
	"github.com/noreba-sim/noreba/internal/service"
	"github.com/noreba-sim/noreba/internal/workgen"
	"github.com/noreba-sim/noreba/internal/workloads"
)

// replica is one in-process fleet member: its own runner, shard, scheduler
// and HTTP server, connected to the others only over HTTP.
type replica struct {
	url    string
	ts     *httptest.Server
	node   *Node
	runner *experiments.Runner
	store  *service.DiskStore
	sched  *service.Scheduler
}

// startCluster brings up k replicas as real HTTP servers on loopback.
// Unstarted test servers already hold their listeners, so every replica
// knows the full peer-URL list before any of them serves.
func startCluster(t *testing.T, k int) []*replica {
	t.Helper()
	reps := make([]*replica, k)
	urls := make([]string, k)
	for i := range reps {
		ts := httptest.NewUnstartedServer(nil)
		urls[i] = "http://" + ts.Listener.Addr().String()
		reps[i] = &replica{url: urls[i], ts: ts}
	}
	for i, rep := range reps {
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		rep.runner = quickRunner()
		rep.store = tempStore(t)
		node, err := NewNode(Config{
			Self: rep.url, Peers: peers,
			Runner: rep.runner, Local: rep.store,
			PeerTimeout: 2 * time.Second, BackoffBase: 50 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep.node = node
		rep.runner.Store = node
		rep.sched = service.NewScheduler(service.SchedulerConfig{Runner: rep.runner, Workers: 1, QueueLimit: 16})
		srv := service.NewServer(rep.sched, rep.store)
		node.Mount(srv)
		rep.ts.Config.Handler = srv
		rep.ts.Start()
	}
	t.Cleanup(func() {
		for _, rep := range reps {
			rep.ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			rep.sched.Shutdown(ctx)
			cancel()
		}
	})
	return reps
}

// sweepResult is one parsed POST /sweep stream.
type sweepResult struct {
	head sweepHead
	rows map[int]sweepRowMsg
	done sweepDone
}

// doSweep POSTs req and parses the JSONL stream. onLine, when non-nil, is
// called after every decoded line (tests use it to kill a replica
// mid-stream).
func doSweep(t *testing.T, url string, req SweepRequest, onLine func(kind string)) sweepResult {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("sweep status %s: %v", resp.Status, e)
	}
	out := sweepResult{rows: map[int]sweepRowMsg{}}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	sawDone := false
	for sc.Scan() {
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		switch probe.Type {
		case "head":
			json.Unmarshal(sc.Bytes(), &out.head)
		case "row":
			var msg sweepRowMsg
			json.Unmarshal(sc.Bytes(), &msg)
			if _, dup := out.rows[msg.Index]; dup {
				t.Fatalf("row %d emitted twice", msg.Index)
			}
			out.rows[msg.Index] = msg
		case "done":
			json.Unmarshal(sc.Bytes(), &out.done)
			sawDone = true
		}
		if onLine != nil {
			onLine(probe.Type)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("sweep stream: %v", err)
	}
	if !sawDone {
		t.Fatal("sweep stream ended without a done line")
	}
	return out
}

func emulationsAcross(reps []*replica) int64 {
	var n int64
	for _, rep := range reps {
		n += rep.runner.EmulationsRun()
	}
	return n
}

// acceptanceGrid is the ISSUE's reference sweep: 24 points over 2
// workloads (2 cores x 3 policies x 2 windows each).
func acceptanceGrid() SweepRequest {
	return SweepRequest{
		Workloads: []string{"mcf", "sha"},
		Cores:     []string{"skl", "hsw"},
		Policies:  []string{"inorder", "nonspec", "noreba"},
		Windows:   []int{128, 224},
	}
}

// TestClusterSweepAcceptance is the PR's core acceptance check: a 24-point
// sweep over 2 workloads on a 3-replica cluster (a) returns every row
// byte-identical to a single-process experiments.Runner, (b) runs exactly
// one functional emulation per workload fleet-wide, and (c) a repeat sweep
// through a different replica re-runs nothing and returns identical bytes.
func TestClusterSweepAcceptance(t *testing.T) {
	reps := startCluster(t, 3)
	req := acceptanceGrid()

	res := doSweep(t, reps[0].url, req, nil)
	if res.head.Points != 24 || res.head.Workloads != 2 {
		t.Fatalf("head = %+v", res.head)
	}
	if len(res.rows) != 24 || res.done.Points != 24 || res.done.Errors != 0 || res.done.Degraded {
		t.Fatalf("done = %+v with %d rows", res.done, len(res.rows))
	}

	// One functional emulation per workload across the whole fleet: the
	// broadcast batching survives sharding.
	if got := emulationsAcross(reps); got != 2 {
		t.Errorf("fleet ran %d emulations for 2 workloads", got)
	}

	// Byte-identical to a solo runner at the same scale.
	solo := quickRunner()
	for i := 0; i < 24; i++ {
		row, ok := res.rows[i]
		if !ok {
			t.Fatalf("row %d missing", i)
		}
		q, err := rowConfig(sweepRow{Index: row.Index, Workload: row.Workload, Core: row.Core, Policy: row.Policy, Window: row.Window}, req)
		if err != nil {
			t.Fatal(err)
		}
		st, err := solo.Simulate(q.Workload, q.Config)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(st)
		if !bytes.Equal(row.Stats, want) {
			t.Errorf("row %d (%s %s %s rob=%d) differs from solo runner:\n got %s\nwant %s",
				i, row.Workload, row.Core, row.Policy, row.Window, row.Stats, want)
		}
		if row.Hash != solo.ConfigHash(q.Workload, q.Config, sampling.Params{}) {
			t.Errorf("row %d hash %s != solo hash", i, row.Hash)
		}
	}

	// Warm repeat from another replica: identical bytes, zero new
	// emulations, and the fleet served at least one row from a shard
	// (local or peer) rather than the coordinating runner's own memory.
	before := emulationsAcross(reps)
	res2 := doSweep(t, reps[1].url, req, nil)
	if got := emulationsAcross(reps); got != before {
		t.Errorf("warm sweep ran %d new emulations", got-before)
	}
	for i, row := range res.rows {
		if !bytes.Equal(row.Stats, res2.rows[i].Stats) {
			t.Errorf("warm row %d differs", i)
		}
	}

	// Cross-shard result fetch: a replica that neither owns one of the
	// result keys nor executed its workload group must still produce it —
	// from the owning replica's shard, counted as a peerHit.
	ring := reps[0].node.Ring()
	probed := false
	for i, row := range res.rows {
		keyOwner := ring.Owner(row.Hash)
		groupOwner := ring.Owner(row.Workload)
		for _, rep := range reps {
			if rep.url == keyOwner || rep.url == groupOwner {
				continue
			}
			if _, ok := rep.store.Get(row.Hash); ok {
				continue // replicated here by chance; pick another
			}
			hitsBefore := rep.node.Metrics().PeerHits
			st, ok := rep.node.Get(row.Hash)
			if !ok {
				t.Fatalf("row %d: replica %s could not fetch from owner %s", i, rep.url, keyOwner)
			}
			want, _ := json.Marshal(st)
			if !bytes.Equal(row.Stats, want) {
				t.Errorf("row %d: peer-fetched stats differ", i)
			}
			if rep.node.Metrics().PeerHits != hitsBefore+1 {
				t.Errorf("peer fetch not counted as peerHit")
			}
			probed = true
			break
		}
		if probed {
			break
		}
	}
	if !probed {
		t.Log("no (replica, key) pair qualified for the peer-fetch probe; skipped")
	}
}

// TestClusterSweepSampled: a sampled sweep of the acceptance workloads on
// the default core returns every row byte-identical to a solo runner's
// sampled estimate under the same hash, and the fleet builds exactly one
// sampling plan per workload however many rows share it.
func TestClusterSweepSampled(t *testing.T) {
	reps := startCluster(t, 3)
	req := acceptanceGrid()
	req.Cores = nil
	req.Sample = true

	res := doSweep(t, reps[0].url, req, nil)
	if len(res.rows) != 12 || res.done.Points != 12 || res.done.Errors != 0 || res.done.Degraded {
		t.Fatalf("done = %+v with %d rows", res.done, len(res.rows))
	}
	var plans int64
	for _, rep := range reps {
		plans += rep.runner.PlansBuilt()
	}
	if plans != int64(len(req.Workloads)) {
		t.Errorf("fleet built %d sampling plans for %d workloads", plans, len(req.Workloads))
	}

	solo := quickRunner()
	for i := 0; i < 12; i++ {
		row, ok := res.rows[i]
		if !ok {
			t.Fatalf("row %d missing", i)
		}
		q, err := rowConfig(sweepRow{Index: row.Index, Workload: row.Workload, Core: row.Core, Policy: row.Policy, Window: row.Window}, req)
		if err != nil {
			t.Fatal(err)
		}
		st, err := solo.SimulateSampledContext(context.Background(), q.Workload, q.Config, sampling.Default())
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(st)
		if !bytes.Equal(row.Stats, want) {
			t.Errorf("row %d (%s %s rob=%d) differs from solo sampled estimate:\n got %s\nwant %s",
				i, row.Workload, row.Policy, row.Window, row.Stats, want)
		}
		if row.Hash != solo.ConfigHash(q.Workload, q.Config, sampling.Default()) {
			t.Errorf("row %d hash %s != solo sampled hash", i, row.Hash)
		}
	}
}

// TestClusterSweepOwnerKilledMidSweep: the replica owning the first
// workload group dies while the sweep streams. The sweep must still settle
// all 24 points — rows the dead owner never delivered are rerun locally —
// and a fresh cold sweep coordinated by a survivor completes degraded.
func TestClusterSweepOwnerKilledMidSweep(t *testing.T) {
	reps := startCluster(t, 3)
	req := acceptanceGrid()
	ring := reps[0].node.Ring()

	victim := ring.Owner(req.Workloads[0])
	var coord, dead *replica
	for _, rep := range reps {
		if rep.url == victim {
			dead = rep
		} else if coord == nil {
			coord = rep
		}
	}
	if dead == nil {
		t.Fatal("no replica owns the first workload")
	}

	killed := false
	res := doSweep(t, coord.url, req, func(kind string) {
		if !killed && kind == "head" {
			dead.ts.CloseClientConnections()
			dead.ts.Close()
			killed = true
		}
	})
	if len(res.rows) != 24 || res.done.Points != 24 {
		t.Fatalf("sweep with killed owner settled %d rows: %+v", len(res.rows), res.done)
	}
	if res.done.Errors != 0 {
		t.Fatalf("degraded sweep reported %d row errors: %+v", res.done.Errors, res.done)
	}

	// Cold again from the other survivor, with the owner still dead: the
	// forward fails outright, the sweep degrades to local execution.
	var other *replica
	for _, rep := range reps {
		if rep != dead && rep != coord {
			other = rep
		}
	}
	res2 := doSweep(t, other.url, req, nil)
	if len(res2.rows) != 24 || res2.done.Errors != 0 {
		t.Fatalf("survivor sweep: %d rows, %+v", len(res2.rows), res2.done)
	}
	for i, row := range res.rows {
		if !bytes.Equal(row.Stats, res2.rows[i].Stats) {
			t.Errorf("row %d differs between degraded sweeps", i)
		}
	}
}

// TestClusterSweepGeneratedWorkload: a sweep over a gen/ spec that no
// replica has registered works — whichever replica executes the group
// generates the workload on demand from the canonical name.
func TestClusterSweepGeneratedWorkload(t *testing.T) {
	reps := startCluster(t, 3)
	gen := workgen.FromSeed(20260809).Name()
	if _, err := workloads.ByName(gen); err == nil {
		t.Skipf("%s already registered by another test", gen)
	}
	req := SweepRequest{Workloads: []string{gen}, Policies: []string{"inorder", "noreba"}}
	res := doSweep(t, reps[2].url, req, nil)
	if len(res.rows) != 2 || res.done.Errors != 0 {
		t.Fatalf("gen sweep: %d rows, %+v", len(res.rows), res.done)
	}
	for i := 0; i < 2; i++ {
		if len(res.rows[i].Stats) == 0 {
			t.Fatalf("row %d has no stats", i)
		}
	}
}

// TestForwardGroupTruncatedStream: an owner that streams part of a group
// and ends without a done line is treated as failed; the coordinator
// reruns the group locally, keeping the rows the owner did deliver and
// settling the rest itself.
func TestForwardGroupTruncatedStream(t *testing.T) {
	var workload string
	fakeStats := json.RawMessage(`{"Name":"faked","Cycles":42}`)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var greq groupRequest
		if err := json.NewDecoder(r.Body).Decode(&greq); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		// Deliver only the first row, with recognisable fake stats, then
		// end the stream with no done line.
		first := greq.Rows[0]
		json.NewEncoder(w).Encode(sweepRowMsg{Type: "row", Index: first.Index, Workload: first.Workload, Core: first.Core, Policy: first.Policy, Window: first.Window, Hash: "deadbeef", Stats: fakeStats})
	}))
	defer peer.Close()

	n, err := NewNode(Config{
		Self: "http://self", Peers: []string{peer.URL},
		Runner: quickRunner(), Local: tempStore(t),
		PeerTimeout: 5 * time.Second, BackoffBase: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads.All() {
		if n.Ring().Owner(w.Name) == peer.URL {
			workload = w.Name
			break
		}
	}
	if workload == "" {
		t.Skip("no registered workload hashes to the fake peer")
	}

	req := SweepRequest{Workloads: []string{workload}, Policies: []string{"inorder", "nonspec", "noreba"}}
	rows, err := expandSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	emit := newSweepEmitter(bufio.NewWriter(&buf), nil, len(rows))
	done := n.runSweep(context.Background(), req, rows, emit)
	if !done.Degraded || done.Points != 3 || done.Errors != 0 {
		t.Fatalf("done = %+v", done)
	}
	if settled, _ := emit.counts(); settled != 3 {
		t.Fatalf("settled %d of 3 rows", settled)
	}

	// Row 0 must be the owner's (fake) copy — delivered before the
	// truncation, so the local rerun may not overwrite it.
	var got []sweepRowMsg
	for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		var msg sweepRowMsg
		if err := json.Unmarshal(line, &msg); err != nil {
			t.Fatal(err)
		}
		if msg.Type == "row" {
			got = append(got, msg)
		}
	}
	if len(got) != 3 {
		t.Fatalf("emitted %d rows", len(got))
	}
	seen := map[int]sweepRowMsg{}
	for _, msg := range got {
		if _, dup := seen[msg.Index]; dup {
			t.Fatalf("row %d emitted twice", msg.Index)
		}
		seen[msg.Index] = msg
	}
	if string(seen[0].Stats) != string(fakeStats) {
		t.Errorf("row 0 = %s, want the owner's pre-truncation copy", seen[0].Stats)
	}
	for i := 1; i < 3; i++ {
		if len(seen[i].Stats) == 0 || seen[i].Error != "" {
			t.Errorf("locally rerun row %d = %+v", i, seen[i])
		}
	}
	if n.Metrics().PeerErrors == 0 {
		t.Error("truncated stream not counted as a peer error")
	}
}

// TestSweepHTTPValidationAndAdmission: malformed grids get a 400 before any
// streaming; a replica at its sweep limit answers 429 + Retry-After.
func TestSweepHTTPValidationAndAdmission(t *testing.T) {
	reps := startCluster(t, 1)
	for _, body := range []string{
		`{`,
		`{"workloads":[],"policies":["noreba"]}`,
		`{"workloads":["mcf"],"policies":["yolo"]}`,
		`{"workloads":["nonsense"],"policies":["noreba"]}`,
	} {
		resp, err := http.Post(reps[0].url+"/sweep", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status %s", body, resp.Status)
		}
	}

	// Occupy every sweep slot, then expect 429.
	n := reps[0].node
	var held int
	for n.admitSweep() {
		held++
	}
	body, _ := json.Marshal(SweepRequest{Workloads: []string{"mcf"}, Policies: []string{"noreba"}})
	resp, err := http.Post(reps[0].url+"/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("full replica answered %s (Retry-After %q)", resp.Status, resp.Header.Get("Retry-After"))
	}
	for ; held > 0; held-- {
		n.releaseSweep()
	}
	if fmt.Sprint(n.Metrics().SweepsActive) != "0" {
		t.Fatalf("sweepsActive = %d after release", n.Metrics().SweepsActive)
	}
}
