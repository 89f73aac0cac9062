package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"github.com/noreba-sim/noreba/internal/service"
	"github.com/noreba-sim/noreba/internal/workloads"
)

// Mount registers the cluster endpoints on the service's mux and installs
// the /metrics cluster section:
//
//	POST /sweep                     batch design-space sweep → JSONL stream
//	POST /cluster/sweepgroup        internal: run one forwarded workload group
//	GET  /cluster/result/{hash}     internal: this replica's local shard only
//	PUT  /cluster/result/{hash}     internal: store into the local shard
//	GET  /cluster/plan/{hash}       internal: sampling-plan blob, local shard only
//	PUT  /cluster/plan/{hash}       internal: store a plan blob into the local shard
//	GET  /cluster/ping              internal: liveness probe
func (n *Node) Mount(srv *service.Server) {
	srv.Handle("POST /sweep", http.HandlerFunc(n.handleSweep))
	srv.Handle("POST /cluster/sweepgroup", http.HandlerFunc(n.handleSweepGroup))
	for _, k := range []kind{resultKind, planKind} {
		srv.Handle("GET "+k.path("{hash}"), n.handleGet(k))
		srv.Handle("PUT "+k.path("{hash}"), n.handlePut(k))
	}
	srv.Handle("GET /cluster/ping", http.HandlerFunc(n.handlePing))
	srv.SetClusterMetrics(n.Metrics)
}

// handleSweep answers POST /sweep: validate and expand the grid, admit the
// sweep (429 + Retry-After when the replica already streams SweepMax
// sweeps), then stream head/row/progress/done JSONL while the grid's
// workload groups execute across the fleet.
func (n *Node) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	rows, err := expandSweep(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if !n.admitSweep() {
		w.Header().Set("Retry-After", "5")
		httpError(w, http.StatusTooManyRequests, fmt.Errorf("sweep limit reached"))
		return
	}
	defer n.releaseSweep()

	ctx := r.Context()
	if req.TimeoutSec > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutSec*float64(time.Second)))
		defer cancel()
	}

	w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	emit := newSweepEmitter(bufio.NewWriter(w), flusherOf(w), len(rows))
	done := n.runSweep(ctx, req, rows, emit)
	emit.line(done)
}

// handleSweepGroup answers the internal POST /cluster/sweepgroup: execute
// one forwarded workload group locally (never re-forwarded) and stream its
// row lines back. The coordinator holds the sweep admission slot, so group
// execution itself is not admission-controlled — it is already-admitted
// work arriving on its owning shard.
func (n *Node) handleSweepGroup(w http.ResponseWriter, r *http.Request) {
	var greq groupRequest
	if err := json.NewDecoder(r.Body).Decode(&greq); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if len(greq.Rows) == 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("empty group"))
		return
	}
	req := SweepRequest{ECL: greq.ECL, Prefetch: greq.Prefetch, Sanitize: greq.Sanitize, Sample: greq.Sample}
	if _, err := workloads.EnsureGenerated(greq.Workload); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	for _, row := range greq.Rows {
		if row.Workload != greq.Workload {
			httpError(w, http.StatusBadRequest, fmt.Errorf("row %d workload %q outside group %q", row.Index, row.Workload, greq.Workload))
			return
		}
		if _, err := rowConfig(row, req); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
	}

	w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	emit := newSweepEmitter(bufio.NewWriter(w), flusherOf(w), len(greq.Rows))
	n.runGroupLocal(r.Context(), sweepGroup{workload: greq.Workload, owner: n.self, rows: greq.Rows}, req, emit)
	_, errs := emit.counts()
	emit.line(sweepDone{Type: "done", Points: len(greq.Rows), Errors: errs, ElapsedSec: round2(time.Since(emit.start).Seconds())})
}

// handleGet serves a key of kind k from this replica's local shard only —
// no peer fallback, so lookups can never loop through the fleet — as the
// stored bytes, which the fetching replica vets.
func (n *Node) handleGet(k kind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if n.local == nil {
			httpError(w, http.StatusNotFound, fmt.Errorf("no store on this replica"))
			return
		}
		data, ok := n.local.GetRaw(k.ns, r.PathValue("hash"), nil)
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("not stored"))
			return
		}
		w.Header().Set("Content-Type", k.mime)
		w.Write(data)
	}
}

// handlePut stores a replicated artifact of kind k into the local shard. A
// body over the kind's size cap or failing its check is answered 400 and
// stores nothing.
func (n *Node) handlePut(k kind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if n.local == nil {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		if r.ContentLength > k.max { // refuse a declared oversize body unread
			httpError(w, http.StatusBadRequest, fmt.Errorf("%s body of %d bytes exceeds %d", k.route, r.ContentLength, k.max))
			return
		}
		data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, k.max))
		if err == nil && k.check != nil {
			err = k.check(data)
		}
		if err == nil {
			err = n.local.PutRaw(k.ns, r.PathValue("hash"), data)
		}
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad %s body: %w", k.route, err))
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}
}

// handlePing answers the liveness probe with this replica's identity, so a
// misconfigured peer list (two replicas sharing an advertised URL) is
// visible from the outside.
func (n *Node) handlePing(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]string{"node": n.self})
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// flusherOf returns a flush func pushing buffered bytes to the client after
// every line (nil when the writer cannot flush, e.g. in tests against a
// plain buffer).
func flusherOf(w http.ResponseWriter) func() {
	f, ok := w.(http.Flusher)
	if !ok {
		return nil
	}
	return f.Flush
}
