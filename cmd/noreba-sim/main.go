// Command noreba-sim runs one workload (built-in kernel, assembly file,
// generated program or recorded trace) through the cycle-level simulator
// under a chosen commit policy and prints the run's statistics.
//
// Usage:
//
//	noreba-sim -workload mcf -policy noreba
//	noreba-sim -file kernel.s -policy inorder -no-prefetch
//	noreba-sim -gen seed=42,crit=0.8 -policies inorder,noreba
//	noreba-sim -workload mcf -trace-out mcf.nrtf
//	noreba-sim -trace-in mcf.nrtf -policy noreba
//	noreba-sim -list
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"

	noreba "github.com/noreba-sim/noreba"
	"github.com/noreba-sim/noreba/internal/compiler"
	"github.com/noreba-sim/noreba/internal/emulator"
	"github.com/noreba-sim/noreba/internal/pipeline"
	"github.com/noreba-sim/noreba/internal/tracefile"
	"github.com/noreba-sim/noreba/internal/workgen"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// cli carries the output streams so the whole command is testable in
// process: run exercises exactly the code main ships.
type cli struct {
	stdout, stderr io.Writer
}

// errInterrupted marks a run that ended on SIGINT/SIGTERM after reporting
// partial statistics; main translates it to exit code 130.
var errInterrupted = errors.New("interrupted")

// run executes the command with explicit arguments and streams, returning
// the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	c := &cli{stdout: stdout, stderr: stderr}
	err := c.main(args)
	switch {
	case err == nil:
		return 0
	case errors.Is(err, errInterrupted):
		return 130
	case errors.Is(err, flag.ErrHelp):
		return 2
	default:
		fmt.Fprintf(stderr, "noreba-sim: %v\n", err)
		return 1
	}
}

func (c *cli) main(args []string) error {
	fs := flag.NewFlagSet("noreba-sim", flag.ContinueOnError)
	fs.SetOutput(c.stderr)
	var (
		workload   = fs.String("workload", "mcf", "built-in workload name (see -list)")
		file       = fs.String("file", "", "assembly file to run instead of a built-in workload")
		image      = fs.String("image", "", "compiled bundle (.nrb from noreba-compile -o) to run")
		gen        = fs.String("gen", "", "generate the program from a workgen spec (e.g. seed=42,crit=0.8,dep=12,mlp=4,store=0.5,nest=2,iters=300; only seed is required)")
		traceIn    = fs.String("trace-in", "", "replay a recorded trace file instead of emulating a program")
		traceOut   = fs.String("trace-out", "", "record the consumed dynamic instruction stream to this trace file")
		policyName = fs.String("policy", "noreba", "commit policy: inorder|nonspec|noreba|ideal|specbr|spec")
		policySet  = fs.String("policies", "", "comma-separated policy sweep (e.g. inorder,noreba,specbr): run every policy over ONE shared emulation and print a per-policy comparison")
		core       = fs.String("core", "skl", "core model: nhm|hsw|skl")
		scale      = fs.Int("scale", 0, "workload scale (0 = default)")
		maxInsts   = fs.Int64("max-insts", 1<<20, "dynamic instruction budget")
		noPrefetch = fs.Bool("no-prefetch", false, "disable the DCPT prefetcher")
		ecl        = fs.Bool("ecl", false, "enable Early Commit of Loads (§6.1.5)")
		list       = fs.Bool("list", false, "list built-in workloads and exit")
		jsonOut    = fs.Bool("json", false, "emit statistics as JSON")
		sample     = fs.Bool("sample", false, "estimate via SimPoint-style sampled simulation instead of a full run")
		planStore  = fs.String("plan-store", "", "directory caching built sampling plans (with -sample): a warm store skips profiling, clustering and checkpointing entirely")
		sanitize   = fs.Bool("sanitize", false, "run with the pipeline invariant checker (fails fast on violations)")
		traceFile  = fs.String("trace", "", "stream per-stage pipeline events as JSON lines to this file ('-' for stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, w := range noreba.Workloads() {
			fmt.Fprintf(c.stdout, "%-14s %s (default scale %d)\n", w.Name, w.Suite, w.DefaultScale)
		}
		return nil
	}

	policy, err := pipeline.ParsePolicy(*policyName)
	if err != nil {
		return err
	}
	var sweep []noreba.Policy
	if *policySet != "" {
		for _, n := range strings.Split(*policySet, ",") {
			n = strings.TrimSpace(n)
			if n == "" {
				continue
			}
			p, err := pipeline.ParsePolicy(n)
			if err != nil {
				return fmt.Errorf("unknown policy %q in -policies", n)
			}
			sweep = append(sweep, p)
		}
		if len(sweep) == 0 {
			return fmt.Errorf("-policies lists no policies")
		}
		if *sample {
			return fmt.Errorf("-policies runs all policies over one shared emulation; it cannot be combined with -sample")
		}
		if *traceFile != "" {
			return fmt.Errorf("-policies cannot be combined with -trace (one event stream per core would interleave)")
		}
	}
	inputs := 0
	for _, set := range []bool{*file != "", *image != "", *gen != "", *traceIn != ""} {
		if set {
			inputs++
		}
	}
	if inputs > 1 {
		return fmt.Errorf("-file, -image, -gen and -trace-in are mutually exclusive")
	}
	if *sample && (*traceIn != "" || *traceOut != "") {
		return fmt.Errorf("sampled simulation replays checkpoints, not a single stream; it cannot be combined with -trace-in/-trace-out")
	}
	if *planStore != "" && !*sample {
		return fmt.Errorf("-plan-store caches sampling plans; it requires -sample")
	}

	cfg, err := pipeline.CoreConfig(*core, policy)
	if err != nil {
		return err
	}
	cfg.PrefetchEnabled = !*noPrefetch
	cfg.ECL = *ecl
	cfg.Sanitize = *sanitize

	// -trace streams the event log as JSONL and folds a metrics summary
	// printed after the run.
	var metrics *noreba.MetricsRegistry
	var finishTrace func() error
	if *traceFile != "" {
		out := c.stdout
		if *traceFile != "-" {
			f, err := os.Create(*traceFile)
			if err != nil {
				return err
			}
			out = f
		}
		jsonl := noreba.NewJSONLSink(out)
		m := noreba.NewMetricsSink(nil)
		metrics = m.Registry()
		cfg.TraceSink = noreba.TeeSinks(jsonl, m)
		finishTrace = func() error {
			if err := jsonl.Close(); err != nil {
				return fmt.Errorf("trace: %w", err)
			}
			return nil
		}
	}

	// SIGINT/SIGTERM cancel the run cooperatively: the pipeline stops at
	// its next cancellation check and the partial statistics accumulated so
	// far are still reported instead of being lost.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Resolve the input to a trace source (or, for -sample, a compiled
	// result). Exactly one of src/res is used per mode.
	var (
		name string
		src  noreba.TraceSource
		meta *compiler.Meta
		res  *noreba.CompileResult
	)
	switch {
	case *traceIn != "":
		f, err := os.Open(*traceIn)
		if err != nil {
			return err
		}
		defer f.Close()
		rd, err := tracefile.Open(f)
		if err != nil {
			return err
		}
		name, src, meta = rd.Name(), rd, rd.Meta()

	case *image != "":
		data, err := os.ReadFile(*image)
		if err != nil {
			return err
		}
		img, m, err := compiler.LoadBundle(data)
		if err != nil {
			return err
		}
		name, meta = *image, m
		if !*sample {
			src = emulator.NewSource(emulator.New(img), *maxInsts)
		} else {
			res = &noreba.CompileResult{Image: img, Meta: m}
		}

	default:
		var prog *noreba.Program
		switch {
		case *file != "":
			srcText, err := os.ReadFile(*file)
			if err != nil {
				return err
			}
			p, err := noreba.Assemble(*file, string(srcText))
			if err != nil {
				return err
			}
			prog, name = p, *file
		case *gen != "":
			params, err := workgen.ParseSpec(*gen)
			if err != nil {
				return err
			}
			p, ch, err := workgen.Generate(params)
			if err != nil {
				return err
			}
			fmt.Fprintf(c.stderr, "generated %s\n", ch)
			prog, name = p, params.Name()
		default:
			w, err := noreba.WorkloadByName(*workload)
			if err != nil {
				return err
			}
			s := w.DefaultScale
			if *scale > 0 {
				s = *scale
			}
			prog, name = w.Build(s), *workload
		}
		r, err := noreba.Compile(prog)
		if err != nil {
			return fmt.Errorf("compile: %w", err)
		}
		res, meta = r, r.Meta
		if !*sample {
			src = noreba.StreamTrace(r, *maxInsts)
		}
	}

	// -trace-out tees the consumed stream into a trace file: the recorder
	// wraps the source, so recording adds no second emulation.
	var finishRecord func() error
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		rec, err := tracefile.NewRecorder(src, f, meta)
		if err != nil {
			f.Close()
			return err
		}
		src = rec
		finishRecord = func() error {
			if err := rec.Close(); err != nil {
				f.Close()
				return fmt.Errorf("trace-out: %w", err)
			}
			if err := f.Close(); err != nil {
				return fmt.Errorf("trace-out: %w", err)
			}
			return nil
		}
	}

	var runErr error
	if len(sweep) > 0 {
		runErr = c.runPolicySweep(ctx, cfg, sweep, name, src, meta, *jsonOut)
	} else {
		var st *noreba.Stats
		var err error
		if *sample {
			st, err = c.simulateSampled(ctx, cfg, res, *maxInsts, *planStore)
		} else {
			st, err = noreba.SimulateSourceContext(ctx, cfg, src, meta)
		}
		runErr = c.reportMaybePartial(name, cfg, st, *jsonOut, err)
	}
	if runErr != nil && !errors.Is(runErr, errInterrupted) {
		return runErr
	}
	if finishRecord != nil {
		if err := finishRecord(); err != nil {
			return err
		}
	}
	if err := c.finishRun(metrics, finishTrace); err != nil {
		return err
	}
	return runErr
}

// runPolicySweep runs every named policy over ONE shared functional
// emulation — src is fanned out through the broadcast trace bus, each
// policy's core consuming its own lockstep view — and prints a per-policy
// comparison (IPC plus speedup over the first policy listed). It returns
// errInterrupted when the sweep was cut short by a signal.
func (c *cli) runPolicySweep(ctx context.Context, base noreba.Config, sweep []noreba.Policy, name string, src noreba.TraceSource, meta *compiler.Meta, asJSON bool) error {
	cfgs := make([]noreba.Config, len(sweep))
	for i, p := range sweep {
		cfgs[i] = base
		cfgs[i].Policy = p
	}
	stats, err := noreba.SimulateFanoutContext(ctx, cfgs, src, meta)
	interrupted := err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
	if err != nil && !interrupted {
		return fmt.Errorf("simulate: %w", err)
	}
	if interrupted {
		fmt.Fprintln(c.stderr, "noreba-sim: interrupted — partial statistics follow")
	}

	if asJSON {
		var out []map[string]any
		for i, st := range stats {
			if st == nil {
				continue
			}
			out = append(out, map[string]any{
				"workload":     name,
				"core":         cfgs[i].Name,
				"policy":       st.Policy,
				"dynamicInsts": st.TraceInsts,
				"cycles":       st.Cycles,
				"ipc":          st.IPC(),
				"oooFraction":  st.OoOCommitFraction(),
				"speedup":      speedupOverFirst(stats, i),
			})
		}
		enc := json.NewEncoder(c.stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return err
		}
		if interrupted {
			return errInterrupted
		}
		return nil
	}

	fmt.Fprintf(c.stdout, "workload %s  core %s  (one shared emulation, %d policies)\n", name, base.Name, len(cfgs))
	fmt.Fprintf(c.stdout, "%-22s %12s %8s %8s %8s\n", "policy", "cycles", "IPC", "OoO%", "speedup")
	for i, st := range stats {
		if st == nil {
			fmt.Fprintf(c.stdout, "%-22s %12s\n", sweep[i].ShortName(), "-")
			continue
		}
		fmt.Fprintf(c.stdout, "%-22s %12d %8.3f %7.1f%% %7.3fx\n",
			st.Policy, st.Cycles, st.IPC(), 100*st.OoOCommitFraction(), speedupOverFirst(stats, i))
	}
	if interrupted {
		return errInterrupted
	}
	return nil
}

// speedupOverFirst returns stats[i]'s cycle-count speedup over the sweep's
// first finished policy (the comparison baseline).
func speedupOverFirst(stats []*noreba.Stats, i int) float64 {
	for _, st := range stats {
		if st != nil && st.Cycles > 0 && stats[i] != nil && stats[i].Cycles > 0 {
			return float64(st.Cycles) / float64(stats[i].Cycles)
		}
	}
	return 0
}

// simulateSampled estimates the run via a SimPoint-style sampling plan:
// profile, cluster, checkpoint (or a plan-store load of all three), then
// detailed simulation of the representative windows only, fanned over the
// available CPUs.
func (c *cli) simulateSampled(ctx context.Context, cfg noreba.Config, res *noreba.CompileResult, maxInsts int64, storeDir string) (*noreba.Stats, error) {
	pl, err := c.samplingPlan(res, maxInsts, noreba.DefaultSampling(), storeDir)
	if err != nil {
		return nil, err
	}
	return pl.EstimateContextN(ctx, cfg, res.Meta, runtime.GOMAXPROCS(0))
}

// planFileExt suffixes content-addressed plan files in a -plan-store
// directory.
const planFileExt = ".nrpf"

// samplingPlan returns the plan for (res, maxInsts, p): from the plan-store
// directory when it holds a usable file for this exact program, stream bound
// and parameters, otherwise built fresh and written back. Which path was
// taken is reported on stderr (stdout stays clean for -json). A store
// that is missing, stale or unwritable never fails the run — plans are a
// cache, the build is always available.
func (c *cli) samplingPlan(res *noreba.CompileResult, maxInsts int64, p noreba.SamplingParams, storeDir string) (*noreba.SamplingPlan, error) {
	if storeDir == "" {
		return noreba.BuildSamplingPlan(res, maxInsts, p)
	}
	key := noreba.SamplingPlanKey(res, maxInsts, p)
	path := filepath.Join(storeDir, key+planFileExt)
	if data, err := os.ReadFile(path); err == nil {
		pl, err := noreba.LoadSamplingPlan(data, res, maxInsts, p)
		if err == nil {
			fmt.Fprintf(c.stderr, "noreba-sim: sampling plan loaded from store (%s)\n", key[:12])
			return pl, nil
		}
		fmt.Fprintf(c.stderr, "noreba-sim: stored sampling plan unusable, rebuilding: %v\n", err)
	}
	pl, err := noreba.BuildSamplingPlan(res, maxInsts, p)
	if err != nil {
		return nil, err
	}
	if err := writePlanFile(storeDir, path, noreba.EncodeSamplingPlan(pl)); err != nil {
		fmt.Fprintf(c.stderr, "noreba-sim: sampling plan built; store write failed: %v\n", err)
	} else {
		fmt.Fprintf(c.stderr, "noreba-sim: sampling plan built and stored (%s)\n", key[:12])
	}
	return pl, nil
}

// writePlanFile commits a plan file atomically (temp file + rename) so an
// interrupted run never leaves a torn file a later run would have to
// re-detect as corrupt.
func writePlanFile(dir, path string, data []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, "plan-*.tmp")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmpName, path)
	}
	if err != nil {
		os.Remove(tmpName)
	}
	return err
}

// reportMaybePartial prints a finished run's statistics, or — when the run
// was interrupted by SIGINT/SIGTERM — the partial statistics up to the
// cancellation point with a note on stderr (returning errInterrupted). Any
// other simulation error is returned as is.
func (c *cli) reportMaybePartial(name string, cfg noreba.Config, st *noreba.Stats, asJSON bool, err error) error {
	interrupted := err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
	if err != nil && !interrupted {
		return fmt.Errorf("simulate: %w", err)
	}
	if interrupted {
		if st == nil {
			// A cancelled sampled estimate has no partial statistics to show.
			fmt.Fprintln(c.stderr, "noreba-sim: interrupted")
			return errInterrupted
		}
		fmt.Fprintf(c.stderr, "noreba-sim: interrupted — partial statistics up to cycle %d:\n", st.Cycles)
	}
	if err := c.report(name, cfg, st, asJSON); err != nil {
		return err
	}
	if interrupted {
		return errInterrupted
	}
	return nil
}

// finishRun flushes the JSONL event stream and prints the folded metrics
// summary to stderr (keeping stdout clean for -json and -trace -).
func (c *cli) finishRun(metrics *noreba.MetricsRegistry, finishTrace func() error) error {
	if finishTrace != nil {
		if err := finishTrace(); err != nil {
			return err
		}
	}
	if metrics != nil {
		fmt.Fprintln(c.stderr, "event metrics:")
		metrics.WriteSummary(c.stderr)
	}
	return nil
}

// report prints a run's statistics, as text or JSON.
func (c *cli) report(name string, cfg noreba.Config, st *noreba.Stats, asJSON bool) error {
	breakdown := noreba.EstimatePower(cfg, st)
	if asJSON {
		out := map[string]any{
			"workload":        name,
			"core":            cfg.Name,
			"policy":          st.Policy,
			"prefetch":        cfg.PrefetchEnabled,
			"ecl":             cfg.ECL,
			"dynamicInsts":    st.TraceInsts,
			"cycles":          st.Cycles,
			"ipc":             st.IPC(),
			"oooCommitted":    st.OoOCommitted,
			"oooFraction":     st.OoOCommitFraction(),
			"branches":        st.Branches,
			"mispredicts":     st.Mispredicts,
			"mispredictRate":  st.MispredictRate(),
			"l1dAccesses":     st.L1DAccesses,
			"l1dMisses":       st.L1DMisses,
			"prefetchIssued":  st.PrefetchIssued,
			"prefetchUseful":  st.PrefetchUseful,
			"fetchedSetup":    st.FetchedSetup,
			"citDrops":        st.CITDrops,
			"citAllocations":  st.CITAllocs,
			"stallROB":        st.StallROB,
			"stallIQ":         st.StallIQ,
			"stallLQ":         st.StallLQ,
			"stallSQ":         st.StallSQ,
			"stallRegs":       st.StallRegs,
			"modelPower":      breakdown.TotalPower(),
			"modelArea":       breakdown.TotalArea(),
			"fencesCommitted": st.FencesCommitted,
		}
		if st.Sampled {
			out["sampled"] = true
			out["sampledIntervals"] = st.SampledIntervals
			out["sampledDetailInsts"] = st.SampledDetailInsts
		}
		enc := json.NewEncoder(c.stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}

	fmt.Fprintf(c.stdout, "workload        %s (%d dynamic instructions)\n", name, st.TraceInsts)
	fmt.Fprintf(c.stdout, "core            %s  policy %s  prefetch %v  ECL %v\n", cfg.Name, st.Policy, cfg.PrefetchEnabled, cfg.ECL)
	if st.Sampled {
		fmt.Fprintf(c.stdout, "sampled         %d representative intervals, %d detailed insts (estimates)\n",
			st.SampledIntervals, st.SampledDetailInsts)
	}
	fmt.Fprintf(c.stdout, "cycles          %d\n", st.Cycles)
	fmt.Fprintf(c.stdout, "IPC             %.3f\n", st.IPC())
	fmt.Fprintf(c.stdout, "OoO committed   %d (%.1f%% of commits)\n", st.OoOCommitted, 100*st.OoOCommitFraction())
	fmt.Fprintf(c.stdout, "branches        %d (%.2f%% mispredicted)\n", st.Branches, 100*st.MispredictRate())
	fmt.Fprintf(c.stdout, "L1D             %d accesses, %d misses\n", st.L1DAccesses, st.L1DMisses)
	fmt.Fprintf(c.stdout, "prefetches      %d issued, %d useful\n", st.PrefetchIssued, st.PrefetchUseful)
	fmt.Fprintf(c.stdout, "setup insts     %d fetched, CIT drops %d\n", st.FetchedSetup, st.CITDrops)
	fmt.Fprintf(c.stdout, "dispatch stalls ROB %d  IQ %d  LQ %d  SQ %d  regs %d\n",
		st.StallROB, st.StallIQ, st.StallLQ, st.StallSQ, st.StallRegs)
	fmt.Fprintf(c.stdout, "power (model)   %.3f  area %.3f\n", breakdown.TotalPower(), breakdown.TotalArea())

	// Figure-7-style criticality: the five worst branches.
	type crit struct {
		pc                 int
		stall, deps, occur int64
	}
	var crits []crit
	for pc, bs := range st.BranchStalls {
		if bs.StallCycles > 0 {
			crits = append(crits, crit{pc, bs.StallCycles, bs.Dependents, bs.Occurrences})
		}
	}
	sort.Slice(crits, func(i, j int) bool { return crits[i].stall > crits[j].stall })
	if len(crits) > 5 {
		crits = crits[:5]
	}
	if len(crits) > 0 {
		fmt.Fprintln(c.stdout, "critical branches (pc, stall cycles, dynamic dependents, occurrences):")
		for _, c2 := range crits {
			fmt.Fprintf(c.stdout, "  pc %-6d stall %-8d deps %-8d occ %d\n", c2.pc, c2.stall, c2.deps, c2.occur)
		}
	}
	return nil
}
