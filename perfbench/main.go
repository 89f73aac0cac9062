// Command perfbench is the repository benchmark: it runs one named workload
// of the simulator for a fixed time, checks every output against the
// committed references, and prints one JSON result line.
//
//	perfbench --workload sampled|fleet --seed N --seconds S --trace 0|1
//	perfbench --steady N [--workload W] [--seed FIRST] --seconds S
//
// With --trace 0 it reports the end-to-end metrics from untraced passes.
// With --trace 1 it runs an untraced, a traced and another untraced pass
// plus the layer probes, reports the per-layer metrics, and writes the spans
// they were computed from under .bench_build/spans/. --steady N runs each
// workload N times as child processes (seeds from --seed) and prints every
// end-to-end metric's median, quartiles and spread against its bound in
// BENCHMARK.json. See README.md for the metrics and why each workload exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workload is one named benchmark workload.
type workload struct {
	name string
	// curated are the curated programs the workload runs; the seed's
	// held-out programs join them.
	curated []string
	// setup, when non-nil, is the workload's own set-up once its programs
	// are ready, and returns the time it took. setup_s is the median over
	// setupReps repetitions of preparing the programs plus this set-up.
	setup func(e *env) (time.Duration, error)
	// pass runs the timed phase once; tr is nil on untraced passes.
	pass func(e *env, tr *tracer) (passResult, error)
	// layers derives the workload's own per-layer metrics from a traced
	// pass (its runners' counters, service and cluster figures).
	layers func(e *env, tr *tracer, pr passResult, m metrics) error
}

// passResult is one timed pass.
type passResult struct {
	wall   time.Duration
	jobsMs []float64 // per-operation latencies (job_p50_ms/job_p90_ms)
	rssMB  float64   // peak resident memory during the pass
	state  any       // workload-specific counters for layers
}

// env is one run's shared state.
type env struct {
	root    string // repository root (the working directory)
	seed    uint64
	ref     *references
	chk     *checker
	scratch string // private directory for stores, removed at exit
	progs   *programs
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

const setupReps = 31

// procs is GOMAXPROCS for every workload: the two cores the benchmark was
// tuned on, so a larger host runs the same number of threads. Sampled
// estimates simulate their representatives concurrently, and the fleet
// serves two clients.
const procs = 2

var registry = map[string]*workload{}

func register(w *workload) { registry[w.name] = w }

func main() {
	var (
		name    = flag.String("workload", "", "workload: sampled or fleet")
		seed    = flag.Uint64("seed", 1, "input seed: held-out programs and job order")
		seconds = flag.Float64("seconds", 50, "measured time per run")
		traced  = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		steady  = flag.Int("steady", 0, "run each workload this many times (seeds from --seed) and report spreads")
	)
	flag.Parse()
	if *seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive"))
	}
	root, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	if *steady > 0 {
		if err := steadiness(root, *name, *steady, *seed, *seconds); err != nil {
			fatal(err)
		}
		return
	}
	w, ok := registry[*name]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (want %s)", *name, strings.Join(workloadNames(), ", ")))
	}
	res, err := run(root, w, *seed, *seconds, *traced == 1)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func workloadNames() []string {
	var out []string
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// run executes one workload run and assembles its result.
func run(root string, w *workload, seed uint64, seconds float64, traced bool) (*result, error) {
	runtime.GOMAXPROCS(procs)
	ref, err := loadReferences(root)
	if err != nil {
		return nil, fmt.Errorf("references: %w", err)
	}
	base := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(base, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	e := &env{root: root, seed: seed, ref: ref, chk: &checker{}, scratch: scratch}

	// Drawing the held-out programs generates the benchmark's inputs; it
	// happens once, before set-up is timed.
	held, err := heldOut(seed)
	if err != nil {
		return nil, err
	}
	var setups []float64
	for i := 0; i < setupReps; i++ {
		settle() // every rep starts from the same heap
		start := time.Now()
		if e.progs, err = preparePrograms(w.curated, held); err != nil {
			return nil, err
		}
		d := time.Since(start)
		if w.setup != nil {
			more, err := w.setup(e)
			if err != nil {
				return nil, fmt.Errorf("%s setup: %w", w.name, err)
			}
			d += more
		}
		setups = append(setups, d.Seconds())
	}

	m := metrics{}
	var passes []passResult
	if traced {
		if passes, err = tracedRun(e, w, m); err != nil {
			return nil, err
		}
	} else {
		deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
		for len(passes) == 0 || time.Now().Before(deadline) {
			settle()
			pr, err := w.pass(e, nil)
			if err != nil {
				return nil, fmt.Errorf("%s pass %d: %w", w.name, len(passes)+1, err)
			}
			pr.rssMB = peakRSSMB()
			pr.state = nil // only traced passes keep their runners alive
			passes = append(passes, pr)
		}
		if err := endToEnd(m, passes, setups); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	if !traced {
		m.set("ok_frac", e.chk.okFrac(), "frac")
	}
	provenance(w, seed, len(passes), e.chk)

	e.chk.mu.Lock()
	defer e.chk.mu.Unlock()
	for _, msg := range e.chk.first {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
	return &result{
		Correct:   e.chk.failed == 0 && e.chk.attempted > 0,
		Attempted: e.chk.attempted,
		Failed:    e.chk.failed,
		Metrics:   m,
	}, nil
}

// endToEnd summarises the untraced passes. Each time metric is the median
// over the run's passes: a latency percentile is taken within each pass,
// under the percentile rule, and the run reports the median pass value.
// Other tenants of the host change how fast the same pass runs from one
// minute to the next; a median over many passes of identical work is the
// steadiest estimate a run can make of it.
func endToEnd(m metrics, passes []passResult, setups []float64) error {
	var wall, p50s, p90s, rss []float64
	jobs := 0
	for i, p := range passes {
		p50, err := percentile(p.jobsMs, 0.5)
		if err != nil {
			return fmt.Errorf("pass %d: job_p50_ms: %w", i+1, err)
		}
		p90, err := percentile(p.jobsMs, 0.9)
		if err != nil {
			return fmt.Errorf("pass %d: job_p90_ms: %w", i+1, err)
		}
		p50s, p90s = append(p50s, p50), append(p90s, p90)
		jobs += len(p.jobsMs)
		wall = append(wall, p.wall.Seconds())
		rss = append(rss, p.rssMB)
	}
	m.set("setup_s", median(setups), "s")
	m.set("wall_s", median(wall), "s")
	m.set("job_p50_ms", median(p50s), "ms")
	m.set("job_p90_ms", median(p90s), "ms")
	m.set("max_rss_mb", median(rss), "MB")
	fmt.Fprintf(os.Stderr, "perfbench: %d passes, %d job samples (%d per pass), %d setups; pass wall s %.3f\n",
		len(passes), jobs, jobs/len(passes), len(setups), wall)
	return nil
}

// settle collects garbage, returns freed memory to the OS and restarts the
// kernel's peak-RSS counter, so every pass starts from the same heap and
// its peak is its own.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM (Linux 4.0+). If that fails the
	// peak stays process-wide, which only makes the metric conservative.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the peak resident set size since the last settle.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// provenance records next to every result what the numbers were measured
// on, as the line before the result line.
func provenance(w *workload, seed uint64, passes int, chk *checker) {
	chk.mu.Lock()
	attempted, failed := chk.attempted, chk.failed
	chk.mu.Unlock()
	p := map[string]any{
		"workload":   w.name,
		"seed":       seed,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"passes":     passes,
		"attempted":  attempted,
		"failed":     failed,
	}
	b, _ := json.Marshal(p) // a map of plain values always marshals
	fmt.Printf("{\"provenance\":%s}\n", b)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
