package service

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/noreba-sim/noreba/internal/experiments"
	"github.com/noreba-sim/noreba/internal/pipeline"
	"github.com/noreba-sim/noreba/internal/sampling"
	"github.com/noreba-sim/noreba/internal/trace"
	"github.com/noreba-sim/noreba/internal/workloads"
)

// Scheduler errors surfaced to the HTTP layer.
var (
	// ErrQueueFull is returned by Submit when the bounded queue is at
	// capacity; the HTTP layer maps it to 429 + Retry-After.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrShuttingDown is returned by Submit once a drain has begun.
	ErrShuttingDown = errors.New("service: shutting down")
	// ErrUnknownJob is returned for an ID the scheduler has never issued.
	ErrUnknownJob = errors.New("service: unknown job")
)

// JobState is a job's lifecycle phase.
type JobState string

const (
	// StateQueued: accepted, waiting for a worker.
	StateQueued JobState = "queued"
	// StateRunning: a worker is executing (or coalescing onto) it.
	StateRunning JobState = "running"
	// StateDone: finished successfully; the result is available.
	StateDone JobState = "done"
	// StateFailed: the simulation returned an error.
	StateFailed JobState = "failed"
	// StateCancelled: cancelled by the client, a deadline, or shutdown.
	StateCancelled JobState = "cancelled"
)

// JobSpec describes one simulation request.
type JobSpec struct {
	// Workload is the registered kernel to run.
	Workload string
	// Config is the core configuration (policy included). The scheduler
	// owns Config.TraceSink; any caller-set sink is replaced.
	Config pipeline.Config
	// Priority orders the queue: higher runs first; equal priorities are
	// FIFO.
	Priority int
	// Timeout, when positive, bounds the job's total lifetime (queue wait
	// included).
	Timeout time.Duration
	// Events enables live trace-event streaming for this job. It costs a
	// per-event emit in the pipeline, so it is opt-in per job; results are
	// unaffected (the trace layer is timing-invariant).
	Events bool
	// Sampling, when enabled, runs the job as a SimPoint-style sampled
	// estimate instead of a full detailed simulation (see internal/sampling).
	// The job's config hash — and therefore its cache and store identity —
	// includes the normalized parameters, so a sampled job never serves or
	// is served by a full-run result. The zero value means a full run,
	// regardless of the runner's own Sampling default: the job spec is
	// authoritative.
	Sampling sampling.Params
}

// Job is one scheduled simulation. Fields are guarded by the scheduler's
// mutex; use Snapshot for a consistent copy.
type Job struct {
	id   string
	hash string
	spec JobSpec
	seq  int64

	state     JobState
	result    *pipeline.Stats
	err       error
	submitted time.Time
	started   time.Time
	finished  time.Time

	ctx    context.Context
	cancel context.CancelCauseFunc
	done   chan struct{}
	hub    *eventHub
	index  int // heap index; -1 once popped
	eff    int // effective priority: spec.Priority plus the aging bonus
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Hash returns the job's canonical config hash (the result-store key).
func (j *Job) Hash() string { return j.hash }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// JobStatus is a consistent snapshot of a job's externally visible state.
type JobStatus struct {
	ID        string     `json:"id"`
	Hash      string     `json:"hash"`
	Workload  string     `json:"workload"`
	Policy    string     `json:"policy"`
	Core      string     `json:"core"`
	Priority  int        `json:"priority"`
	Sampled   bool       `json:"sampled,omitempty"`
	State     JobState   `json:"state"`
	Error     string     `json:"error,omitempty"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
}

// SchedulerConfig sizes a Scheduler.
type SchedulerConfig struct {
	// Runner executes the simulations. Required. Its Store field may be
	// set to a DiskStore for persistence; the scheduler reads the runner's
	// store counters for /metrics.
	Runner *experiments.Runner
	// Workers is the worker-pool size; 0 means GOMAXPROCS.
	Workers int
	// QueueLimit bounds jobs waiting for a worker; 0 means 256. Submit
	// returns ErrQueueFull beyond it.
	QueueLimit int
	// DefaultTimeout applies to jobs submitted without one; 0 means none.
	DefaultTimeout time.Duration
	// AgingStep, when positive, raises a queued job's effective priority by
	// one for every AgingStep it has waited, so a stream of high-priority
	// interactive jobs can delay but never starve low-priority batch work
	// (the cluster's sweep rows submit below interactive priority and rely
	// on this). Zero disables aging: ordering is then exactly the submitted
	// priorities.
	AgingStep time.Duration
	// Registry receives scheduler counters (jobs by outcome, queue-wait
	// and run-duration histograms); a fresh registry when nil.
	Registry *trace.Registry
}

// Scheduler runs submitted jobs on a bounded worker pool layered on the
// runner's deduplicating cache: identical concurrent jobs coalesce into one
// simulation, and a persistent store (when the runner has one) turns
// repeats across restarts into cache hits.
type Scheduler struct {
	runner  *experiments.Runner
	reg     *trace.Registry
	workers int
	qlimit  int
	defTO   time.Duration
	aging   time.Duration

	mu       sync.Mutex
	cond     *sync.Cond
	queue    jobHeap
	jobs     map[string]*Job
	order    []*Job // submission order, for listing
	nextSeq  int64
	inFlight int
	closed   bool

	wg sync.WaitGroup
}

// NewScheduler starts a scheduler and its worker pool.
func NewScheduler(cfg SchedulerConfig) *Scheduler {
	if cfg.Runner == nil {
		panic("service: SchedulerConfig.Runner is required")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	qlimit := cfg.QueueLimit
	if qlimit <= 0 {
		qlimit = 256
	}
	reg := cfg.Registry
	if reg == nil {
		reg = trace.NewRegistry()
	}
	s := &Scheduler{
		runner:  cfg.Runner,
		reg:     reg,
		workers: workers,
		qlimit:  qlimit,
		defTO:   cfg.DefaultTimeout,
		aging:   cfg.AgingStep,
		jobs:    map[string]*Job{},
	}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Registry returns the scheduler's metrics registry.
func (s *Scheduler) Registry() *trace.Registry { return s.reg }

// Runner returns the underlying experiment runner.
func (s *Scheduler) Runner() *experiments.Runner { return s.runner }

// Submit queues one job. It fails fast with ErrQueueFull when the bounded
// queue is at capacity and ErrShuttingDown after Shutdown has begun.
func (s *Scheduler) Submit(spec JobSpec) (*Job, error) {
	if _, err := workloads.ByName(spec.Workload); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	timeout := spec.Timeout
	if timeout <= 0 {
		timeout = s.defTO
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrShuttingDown
	}
	if s.queue.Len() >= s.qlimit {
		s.mu.Unlock()
		s.reg.Counter("service/jobs-rejected").Inc()
		return nil, ErrQueueFull
	}
	s.nextSeq++
	j := &Job{
		id:        fmt.Sprintf("job-%06d", s.nextSeq),
		hash:      s.runner.ConfigHash(spec.Workload, spec.Config, spec.Sampling),
		spec:      spec,
		seq:       s.nextSeq,
		state:     StateQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
		eff:       spec.Priority,
	}
	ctx := context.Background()
	var cancelTO context.CancelFunc
	if timeout > 0 {
		ctx, cancelTO = context.WithTimeout(ctx, timeout)
	}
	jctx, cancel := context.WithCancelCause(ctx)
	j.ctx = jctx
	j.cancel = cancel
	if cancelTO != nil {
		// Release the timer once the job reaches a terminal state.
		go func() { <-j.done; cancelTO() }()
	}
	if spec.Events {
		j.hub = newEventHub()
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	heap.Push(&s.queue, j)
	s.cond.Signal()
	s.mu.Unlock()

	s.reg.Counter("service/jobs-submitted").Inc()
	if spec.Sampling.Enabled {
		s.reg.Counter("service/jobs-sampled").Inc()
	}
	return j, nil
}

// Job returns the job with the given ID.
func (s *Scheduler) Job(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return nil, ErrUnknownJob
	}
	return j, nil
}

// Jobs returns every known job in submission order.
func (s *Scheduler) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Job{}, s.order...)
}

// Cancel cancels a job: a queued job goes terminal immediately, a running
// one is interrupted at the pipeline's next cancellation check.
func (s *Scheduler) Cancel(id string) error {
	s.mu.Lock()
	j := s.jobs[id]
	if j == nil {
		s.mu.Unlock()
		return ErrUnknownJob
	}
	s.cancelLocked(j, errors.New("cancelled by client"))
	s.mu.Unlock()
	return nil
}

// cancelLocked cancels j's context and, when it is still queued, finishes it
// right away (the worker skips popped-but-cancelled jobs). Callers hold s.mu.
func (s *Scheduler) cancelLocked(j *Job, cause error) {
	j.cancel(cause)
	if j.state == StateQueued {
		s.finishLocked(j, StateCancelled, nil, context.Cause(j.ctx))
	}
}

// finishLocked moves j to a terminal state. Callers hold s.mu.
func (s *Scheduler) finishLocked(j *Job, state JobState, st *pipeline.Stats, err error) {
	if j.state == StateDone || j.state == StateFailed || j.state == StateCancelled {
		return
	}
	j.state = state
	j.result = st
	j.err = err
	j.finished = time.Now()
	if j.hub != nil {
		j.hub.close()
	}
	close(j.done)
	s.reg.Counter("service/jobs-" + string(state)).Inc()
}

// Status returns a consistent snapshot of one job.
func (s *Scheduler) Status(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return JobStatus{}, ErrUnknownJob
	}
	return s.statusLocked(j), nil
}

func (s *Scheduler) statusLocked(j *Job) JobStatus {
	st := JobStatus{
		ID:        j.id,
		Hash:      j.hash,
		Workload:  j.spec.Workload,
		Policy:    j.spec.Config.Policy.String(),
		Core:      j.spec.Config.Name,
		Priority:  j.spec.Priority,
		Sampled:   j.spec.Sampling.Enabled,
		State:     j.state,
		Submitted: j.submitted,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	return st
}

// Result returns a finished job's statistics (nil with the job's error for
// failed or cancelled jobs, ErrUnknownJob for unknown IDs, and a nil,nil
// pair is never returned for terminal jobs).
func (s *Scheduler) Result(id string) (*pipeline.Stats, JobState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return nil, "", ErrUnknownJob
	}
	return j.result, j.state, j.err
}

// Subscribe attaches a live event stream to a job submitted with Events
// set. The returned channel closes when the job finishes; cancel detaches
// early. ok is false when the job does not stream events.
func (s *Scheduler) Subscribe(id string) (ch <-chan trace.Event, cancel func(), ok bool, err error) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return nil, nil, false, ErrUnknownJob
	}
	if j.hub == nil {
		return nil, nil, false, nil
	}
	ch, cancel = j.hub.subscribe()
	return ch, cancel, true, nil
}

// worker pops and runs jobs until shutdown drains the queue.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for s.queue.Len() == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.queue.Len() == 0 && s.closed {
			s.mu.Unlock()
			return
		}
		if s.aging > 0 {
			s.ageLocked(time.Now())
		}
		j := heap.Pop(&s.queue).(*Job)
		if j.state != StateQueued {
			// Cancelled while queued; already terminal.
			s.mu.Unlock()
			continue
		}
		j.state = StateRunning
		j.started = time.Now()
		s.inFlight++
		s.mu.Unlock()

		s.reg.Histogram("service/queue-wait-ms", 1, 10, 100, 1000, 10000).
			Observe(j.started.Sub(j.submitted).Milliseconds())

		cfg := j.spec.Config
		if j.hub != nil {
			cfg.TraceSink = j.hub
		} else {
			cfg.TraceSink = nil
		}
		st, err := s.runner.SimulateSampledContext(j.ctx, j.spec.Workload, cfg, j.spec.Sampling)

		s.mu.Lock()
		s.inFlight--
		switch {
		case err == nil:
			s.finishLocked(j, StateDone, st, nil)
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			s.finishLocked(j, StateCancelled, nil, err)
		default:
			s.finishLocked(j, StateFailed, nil, err)
		}
		dur := j.finished.Sub(j.started)
		s.mu.Unlock()

		s.reg.Histogram("service/run-ms", 10, 100, 1000, 10000, 60000).
			Observe(dur.Milliseconds())
	}
}

// ageLocked refreshes every queued job's effective priority from its wait
// time and restores heap order. It runs at pop time only: queue order is
// observable exactly when a worker frees, so aging needs no background
// timer. Callers hold s.mu.
func (s *Scheduler) ageLocked(now time.Time) {
	changed := false
	for _, j := range s.queue {
		if eff := agedPriority(j.spec.Priority, now.Sub(j.submitted), s.aging); eff != j.eff {
			j.eff = eff
			changed = true
		}
	}
	if changed {
		heap.Init(&s.queue)
	}
}

// agedPriority is the aging rule: base priority plus one for every step
// waited, bounded so a pathological wait cannot overflow the comparison.
func agedPriority(base int, waited, step time.Duration) int {
	if step <= 0 || waited <= 0 {
		return base
	}
	bonus := waited / step
	if bonus > 1<<20 {
		bonus = 1 << 20
	}
	return base + int(bonus)
}

// QueueDepth returns the number of jobs waiting for a worker.
func (s *Scheduler) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queue.Len()
}

// InFlight returns the number of jobs currently executing.
func (s *Scheduler) InFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inFlight
}

// Workers returns the worker-pool size.
func (s *Scheduler) Workers() int { return s.workers }

// QueueLimit returns the bounded queue's capacity.
func (s *Scheduler) QueueLimit() int { return s.qlimit }

// Shutdown drains the scheduler: new submissions are rejected, queued jobs
// are cancelled, and running jobs are given until ctx ends to finish before
// being cancelled themselves. It returns once every worker has exited.
func (s *Scheduler) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		// Queued jobs will never run; fail them now rather than leaving
		// clients polling forever.
		for s.queue.Len() > 0 {
			j := heap.Pop(&s.queue).(*Job)
			if j.state == StateQueued {
				j.cancel(ErrShuttingDown)
				s.finishLocked(j, StateCancelled, nil, ErrShuttingDown)
			}
		}
	}
	s.cond.Broadcast()
	running := make([]*Job, 0, s.inFlight)
	for _, j := range s.order {
		if j.state == StateRunning {
			running = append(running, j)
		}
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Grace period over: interrupt whatever is still running, then
		// wait for the workers to observe the cancellation.
		for _, j := range running {
			j.cancel(ErrShuttingDown)
		}
		<-done
		return ctx.Err()
	}
}

// jobHeap orders queued jobs by descending effective priority (the
// submitted priority plus any aging bonus), then FIFO.
type jobHeap []*Job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, k int) bool {
	if h[i].eff != h[k].eff {
		return h[i].eff > h[k].eff
	}
	return h[i].seq < h[k].seq
}
func (h jobHeap) Swap(i, k int) {
	h[i], h[k] = h[k], h[i]
	h[i].index = i
	h[k].index = k
}
func (h *jobHeap) Push(x any) {
	j := x.(*Job)
	j.index = len(*h)
	*h = append(*h, j)
}
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	j.index = -1
	*h = old[:n-1]
	return j
}

// eventHub fans one job's pipeline event stream out to any number of
// subscribers. Emit is called from the simulating goroutine for every
// pipeline event, so the zero-subscriber path is a single atomic load; a
// slow subscriber loses events (bounded buffer, drop-on-full) rather than
// stalling the simulation.
type eventHub struct {
	nsubs atomic.Int32

	mu     sync.Mutex
	subs   map[chan trace.Event]struct{}
	closed bool
}

func newEventHub() *eventHub {
	return &eventHub{subs: map[chan trace.Event]struct{}{}}
}

// Emit implements trace.Sink.
func (h *eventHub) Emit(e trace.Event) {
	if h.nsubs.Load() == 0 {
		return
	}
	h.mu.Lock()
	for ch := range h.subs {
		select {
		case ch <- e:
		default: // drop for slow consumers
		}
	}
	h.mu.Unlock()
}

// subscribe registers a consumer; the channel closes when the job ends.
func (h *eventHub) subscribe() (<-chan trace.Event, func()) {
	ch := make(chan trace.Event, 4096)
	h.mu.Lock()
	if h.closed {
		close(ch)
		h.mu.Unlock()
		return ch, func() {}
	}
	h.subs[ch] = struct{}{}
	h.nsubs.Add(1)
	h.mu.Unlock()
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			h.mu.Lock()
			if _, ok := h.subs[ch]; ok {
				delete(h.subs, ch)
				h.nsubs.Add(-1)
				close(ch)
			}
			h.mu.Unlock()
		})
	}
	return ch, cancel
}

// close ends the stream for every subscriber.
func (h *eventHub) close() {
	h.mu.Lock()
	h.closed = true
	for ch := range h.subs {
		delete(h.subs, ch)
		h.nsubs.Add(-1)
		close(ch)
	}
	h.mu.Unlock()
}
