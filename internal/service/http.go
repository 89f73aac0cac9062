package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"github.com/noreba-sim/noreba/internal/pipeline"
	"github.com/noreba-sim/noreba/internal/sampling"
	"github.com/noreba-sim/noreba/internal/trace"
	"github.com/noreba-sim/noreba/internal/workloads"
)

// SubmitRequest is the POST /jobs body: a simulation request in terms of
// the registered workloads and the paper's cores and commit policies.
type SubmitRequest struct {
	// Workload is a registered kernel name (GET /workloads lists them).
	Workload string `json:"workload"`
	// Policy is the commit policy: inorder|nonspec|noreba|ideal|specbr|spec.
	Policy string `json:"policy"`
	// Core is the machine model: nhm|hsw|skl (default skl).
	Core string `json:"core,omitempty"`
	// Prefetch disables the DCPT prefetcher when explicitly false.
	Prefetch *bool `json:"prefetch,omitempty"`
	// ECL enables Early Commit of Loads (§6.1.5).
	ECL bool `json:"ecl,omitempty"`
	// Sanitize runs the job under the pipeline invariant checker.
	Sanitize bool `json:"sanitize,omitempty"`
	// Priority orders the queue (higher first, default 0).
	Priority int `json:"priority,omitempty"`
	// TimeoutSec bounds the job's lifetime, queue wait included.
	TimeoutSec float64 `json:"timeoutSec,omitempty"`
	// Events enables the live JSONL stream on GET /jobs/{id}/events.
	Events bool `json:"events,omitempty"`
	// Sample runs the job as a SimPoint-style sampled estimate with the
	// tuned default parameters instead of a full detailed simulation. The
	// response hash differs from the full run's: sampled and full results
	// never share a cache or store entry.
	Sample bool `json:"sample,omitempty"`
}

// SubmitResponse answers POST /jobs.
type SubmitResponse struct {
	ID         string `json:"id"`
	Hash       string `json:"hash"`
	State      string `json:"state"`
	QueueDepth int    `json:"queueDepth"`
}

// MetricsResponse is the GET /metrics document: scheduler gauges, runner
// cache/store counters, optional store occupancy, cluster counters when the
// process is part of a replica fleet, and the full event-metrics registry
// snapshot.
type MetricsResponse struct {
	Scheduler SchedulerMetrics `json:"scheduler"`
	Runner    RunnerMetrics    `json:"runner"`
	Store     *StoreStats      `json:"store,omitempty"`
	Cluster   *ClusterMetrics  `json:"cluster,omitempty"`
	Registry  trace.Snapshot   `json:"registry"`
}

// ClusterMetrics summarise one replica's view of the fleet: shard-local and
// peer-served cache traffic, forwarded work, peer failures and the current
// health of every peer. The cluster layer (internal/cluster) supplies it
// through Server.SetClusterMetrics; a single-process server omits the
// section entirely.
type ClusterMetrics struct {
	// Node is this replica's advertised base URL.
	Node string `json:"node"`
	// Peers reports every other replica and whether it is currently
	// considered healthy (failed peers re-enter after a backoff probe).
	Peers []PeerStatus `json:"peers"`
	// ShardHits counts store lookups served from this replica's own disk.
	ShardHits int64 `json:"shardHits"`
	// PeerHits counts results fetched from the owning replica's store.
	PeerHits int64 `json:"peerHits"`
	// PeerMisses counts owner probes that answered "not stored".
	PeerMisses int64 `json:"peerMisses"`
	// Forwarded counts work handed to the owning shard: sweep groups
	// executed remotely and result replications pushed to owners.
	Forwarded int64 `json:"forwarded"`
	// PeerErrors counts failed peer RPCs (timeouts, refused connections,
	// bad responses) after their bounded retries.
	PeerErrors int64 `json:"peerErrors"`
	// SweepsActive and SweepsTotal track the batch design-space endpoint's
	// admission: currently streaming sweeps and all sweeps ever admitted.
	SweepsActive int64 `json:"sweepsActive"`
	SweepsTotal  int64 `json:"sweepsTotal"`
}

// PeerStatus is one peer's liveness as seen from this replica.
type PeerStatus struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
}

// SchedulerMetrics are the scheduler's live gauges.
type SchedulerMetrics struct {
	QueueDepth int `json:"queueDepth"`
	InFlight   int `json:"inFlight"`
	Workers    int `json:"workers"`
	QueueLimit int `json:"queueLimit"`
}

// RunnerMetrics summarise the runner's dedup cache and persistent store
// activity. HitRatio is store hits over store lookups — 1.0 means every
// request of the window was served from the persistent store.
type RunnerMetrics struct {
	SimulateCalls  int64   `json:"simulateCalls"`
	SimulationsRun int64   `json:"simulationsRun"`
	EmulationsRun  int64   `json:"emulationsRun"`
	PeakBusRecords int64   `json:"peakBusRecords"`
	SampledRuns    int64   `json:"sampledRuns"`
	PlansBuilt     int64   `json:"plansBuilt"`
	PlanStoreHits  int64   `json:"planStoreHits"`
	PlanStoreMiss  int64   `json:"planStoreMisses"`
	StoreHits      int64   `json:"storeHits"`
	StoreMisses    int64   `json:"storeMisses"`
	StorePutErrors int64   `json:"storePutErrors"`
	HitRatio       float64 `json:"hitRatio"`
}

// Server is the HTTP face of a Scheduler.
type Server struct {
	sched   *Scheduler
	store   *DiskStore // optional, for /metrics occupancy
	mux     *http.ServeMux
	cluster func() *ClusterMetrics // optional, for /metrics cluster section
}

// NewServer wires the service endpoints onto a fresh mux. store may be nil
// (metrics then omit store occupancy).
//
// Endpoints:
//
//	POST   /jobs             submit a simulation        → 202 SubmitResponse
//	GET    /jobs             list job statuses
//	GET    /jobs/{id}        one job's status
//	GET    /jobs/{id}/result finished job's Stats JSON
//	GET    /jobs/{id}/events live trace events as JSONL (submit with events)
//	POST   /jobs/{id}/cancel cancel (DELETE /jobs/{id} is equivalent)
//	GET    /workloads        registered workload names
//	GET    /metrics          MetricsResponse
//	GET    /healthz          liveness probe
func NewServer(sched *Scheduler, store *DiskStore) *Server {
	s := &Server{sched: sched, store: store, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleList)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /workloads", s.handleWorkloads)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Handle registers an additional route on the server's mux. The cluster
// layer mounts POST /sweep and the /cluster/* internal endpoints through it,
// keeping this package free of a dependency on internal/cluster.
func (s *Server) Handle(pattern string, h http.Handler) { s.mux.Handle(pattern, h) }

// SetClusterMetrics installs the provider for the /metrics cluster section.
// fn is called on every metrics request; nil (the default) omits the
// section.
func (s *Server) SetClusterMetrics(fn func() *ClusterMetrics) { s.cluster = fn }

// Scheduler returns the scheduler this server fronts.
func (s *Server) Scheduler() *Scheduler { return s.sched }

// BuildConfig resolves a SubmitRequest into a job spec's pipeline config.
// An empty core means skl.
func BuildConfig(req SubmitRequest) (pipeline.Config, error) {
	core := req.Core
	if core == "" {
		core = "skl"
	}
	cfg, err := pipeline.CoreConfig(core, pipeline.Noreba)
	if err != nil {
		return cfg, err
	}
	if cfg.Policy, err = ParsePolicy(req.Policy); err != nil {
		return cfg, err
	}
	if req.Prefetch != nil {
		cfg.PrefetchEnabled = *req.Prefetch
	}
	cfg.ECL = req.ECL
	cfg.Sanitize = req.Sanitize
	return cfg, nil
}

// ParsePolicy maps the API's policy names onto pipeline.PolicyKind: the
// pipeline's short names (pipeline.ParsePolicy), with "" meaning NOREBA.
func ParsePolicy(name string) (pipeline.PolicyKind, error) {
	if name == "" {
		return pipeline.Noreba, nil
	}
	return pipeline.ParsePolicy(name)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	cfg, err := BuildConfig(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	spec := JobSpec{
		Workload: req.Workload,
		Config:   cfg,
		Priority: req.Priority,
		Timeout:  time.Duration(req.TimeoutSec * float64(time.Second)),
		Events:   req.Events,
	}
	if req.Sample {
		spec.Sampling = sampling.Default()
	}
	job, err := s.sched.Submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrShuttingDown):
		httpError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, err)
		return
	}
	st, _ := s.sched.Status(job.ID())
	writeJSON(w, http.StatusAccepted, SubmitResponse{
		ID: job.ID(), Hash: job.Hash(), State: string(st.State), QueueDepth: s.sched.QueueDepth(),
	})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	jobs := s.sched.Jobs()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		st, err := s.sched.Status(j.ID())
		if err == nil {
			out = append(out, st)
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.sched.Status(r.PathValue("id"))
	if errors.Is(err, ErrUnknownJob) {
		httpError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	stats, state, err := s.sched.Result(id)
	if errors.Is(err, ErrUnknownJob) {
		httpError(w, http.StatusNotFound, err)
		return
	}
	switch state {
	case StateDone:
		writeJSON(w, http.StatusOK, stats)
	case StateFailed:
		httpError(w, http.StatusInternalServerError, err)
	case StateCancelled:
		httpError(w, http.StatusGone, err)
	default:
		// Not finished yet: report progress, not an error.
		st, serr := s.sched.Status(id)
		if serr != nil {
			httpError(w, http.StatusNotFound, serr)
			return
		}
		writeJSON(w, http.StatusAccepted, st)
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	err := s.sched.Cancel(r.PathValue("id"))
	if errors.Is(err, ErrUnknownJob) {
		httpError(w, http.StatusNotFound, err)
		return
	}
	st, _ := s.sched.Status(r.PathValue("id"))
	writeJSON(w, http.StatusOK, st)
}

// handleEvents streams a job's live pipeline events as JSON lines until the
// job finishes or the client goes away. Jobs must opt in at submission
// ("events": true); for others the endpoint reports 409.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ch, cancel, ok, err := s.sched.Subscribe(id)
	if errors.Is(err, ErrUnknownJob) {
		httpError(w, http.StatusNotFound, err)
		return
	}
	if !ok {
		httpError(w, http.StatusConflict, errors.New("job was not submitted with events enabled"))
		return
	}
	defer cancel()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	jsonl := trace.NewJSONL(w)
	flushEvery := 256
	n := 0
	for {
		select {
		case e, open := <-ch:
			if !open {
				jsonl.Flush()
				if flusher != nil {
					flusher.Flush()
				}
				return
			}
			jsonl.Emit(e)
			n++
			if n%flushEvery == 0 {
				jsonl.Flush()
				if flusher != nil {
					flusher.Flush()
				}
			}
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleWorkloads(w http.ResponseWriter, _ *http.Request) {
	type wl struct {
		Name         string `json:"name"`
		Suite        string `json:"suite"`
		DefaultScale int    `json:"defaultScale"`
	}
	var out []wl
	for _, it := range workloads.All() {
		out = append(out, wl{Name: it.Name, Suite: string(it.Suite), DefaultScale: it.DefaultScale})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

// Metrics assembles the /metrics document.
func (s *Server) Metrics() MetricsResponse {
	run := s.sched.Runner()
	rm := RunnerMetrics{
		SimulateCalls:  run.SimulateCalls(),
		SimulationsRun: run.SimulationsRun(),
		EmulationsRun:  run.EmulationsRun(),
		PeakBusRecords: run.PeakBusRecords(),
		SampledRuns:    run.SampledRuns(),
		PlansBuilt:     run.PlansBuilt(),
		PlanStoreHits:  run.PlanStoreHits(),
		PlanStoreMiss:  run.PlanStoreMisses(),
		StoreHits:      run.StoreHits(),
		StoreMisses:    run.StoreMisses(),
		StorePutErrors: run.StorePutErrors(),
	}
	if lookups := rm.StoreHits + rm.StoreMisses; lookups > 0 {
		rm.HitRatio = float64(rm.StoreHits) / float64(lookups)
	}
	m := MetricsResponse{
		Scheduler: SchedulerMetrics{
			QueueDepth: s.sched.QueueDepth(),
			InFlight:   s.sched.InFlight(),
			Workers:    s.sched.Workers(),
			QueueLimit: s.sched.QueueLimit(),
		},
		Runner:   rm,
		Registry: s.sched.Registry().Snapshot(),
	}
	if s.store != nil {
		st := s.store.Stats()
		m.Store = &st
	}
	if s.cluster != nil {
		m.Cluster = s.cluster()
	}
	return m
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	msg := "unknown error"
	if err != nil {
		msg = err.Error()
	}
	writeJSON(w, code, map[string]any{"error": msg, "status": code})
}
