// Package noreba is the public API of the NOREBA reproduction: a compiler
// pass and cycle-level processor simulator for compiler-informed,
// non-speculative out-of-order commit (Hajiabadi, Diavastos, Carlson —
// ASPLOS 2021).
//
// The typical flow mirrors the paper's toolchain:
//
//	prog, _ := noreba.Assemble("kernel", src) // or build with a Builder
//	res, _ := noreba.Compile(prog)            // branch-dependent code detection pass
//	trace, _ := noreba.Trace(res, 1<<20)      // functional execution
//	cfg := noreba.Skylake(noreba.PolicyNoreba)
//	stats, _ := noreba.Simulate(cfg, trace, res.Meta)
//	fmt.Println(stats.IPC())
//
// The experiment harness behind the Figures (see cmd/noreba-bench and the
// root benchmarks) is exposed through NewRunner.
package noreba

import (
	"cmp"
	"context"
	"io"

	"github.com/noreba-sim/noreba/internal/compiler"
	"github.com/noreba-sim/noreba/internal/emulator"
	"github.com/noreba-sim/noreba/internal/experiments"
	"github.com/noreba-sim/noreba/internal/isa"
	"github.com/noreba-sim/noreba/internal/multicore"
	"github.com/noreba-sim/noreba/internal/pipeline"
	"github.com/noreba-sim/noreba/internal/power"
	"github.com/noreba-sim/noreba/internal/program"
	"github.com/noreba-sim/noreba/internal/sampling"
	"github.com/noreba-sim/noreba/internal/sanity"
	"github.com/noreba-sim/noreba/internal/trace"
	"github.com/noreba-sim/noreba/internal/tracefile"
	"github.com/noreba-sim/noreba/internal/workgen"
	"github.com/noreba-sim/noreba/internal/workloads"
)

// Program construction.
type (
	// Program is a mutable program: labelled basic blocks plus data.
	Program = program.Program
	// Builder constructs programs block by block.
	Builder = program.Builder
	// Image is a laid-out program with resolved branch targets.
	Image = program.Image
)

// NewBuilder returns a program builder.
func NewBuilder(name string) *Builder { return program.NewBuilder(name) }

// Assemble parses textual assembly into a Program.
func Assemble(name, src string) (*Program, error) { return program.Assemble(name, src) }

// Compiler pass.
type (
	// CompileOptions configures the branch-dependent code detection pass.
	CompileOptions = compiler.Options
	// CompileResult holds the annotated program, image, branch metadata
	// and pass statistics.
	CompileResult = compiler.Result
	// BranchMeta describes one conditional branch in the final image.
	BranchMeta = compiler.BranchMeta
)

// DefaultCompileOptions mirrors the paper's hardware configuration (8 BIT
// entries, 31-instruction regions).
func DefaultCompileOptions() CompileOptions { return compiler.DefaultOptions() }

// Compile runs the NOREBA compiler pass with default options.
func Compile(p *Program) (*CompileResult, error) {
	return compiler.Compile(p, compiler.DefaultOptions())
}

// CompileWith runs the pass with explicit options.
func CompileWith(p *Program, opt CompileOptions) (*CompileResult, error) {
	return compiler.Compile(p, opt)
}

// Functional execution.
type (
	// Machine is the functional (architectural) emulator.
	Machine = emulator.Machine
	// DynTrace is a materialized correct-path dynamic instruction trace.
	DynTrace = emulator.Trace
	// TraceSource is a pull-based dynamic instruction stream: the simulator
	// consumes it through a bounded sliding window, so a live emulator
	// source runs in O(window) memory instead of O(trace).
	TraceSource = emulator.TraceSource
)

// NewMachine returns an emulator for the image.
func NewMachine(img *Image) *Machine { return emulator.New(img) }

// Trace functionally executes a compiled program for at most maxInsts
// dynamic instructions and returns the materialized trace. Prefer
// StreamTrace when the stream is consumed once by a single simulation.
func Trace(res *CompileResult, maxInsts int64) (*DynTrace, error) {
	return emulator.New(res.Image).Run(maxInsts)
}

// StreamTrace returns a live-emulator source executing a compiled program
// for at most maxInsts dynamic instructions. Sources are single-consumer:
// build one per simulation.
func StreamTrace(res *CompileResult, maxInsts int64) TraceSource {
	return emulator.NewSource(emulator.New(res.Image), maxInsts)
}

// Materialize drains a source into a trace (plus any terminal execution
// error), for callers that need random access or multiple replays.
func Materialize(src TraceSource) (*DynTrace, error) { return emulator.Materialize(src) }

// Cycle-level simulation.
type (
	// Config describes a simulated core.
	Config = pipeline.Config
	// Stats is the result of one simulation.
	Stats = pipeline.Stats
	// Policy selects the commit policy.
	Policy = pipeline.PolicyKind
)

// Commit policies (the rows of the paper's figures).
const (
	PolicyInOrder     = pipeline.InOrder
	PolicyNonSpecOoO  = pipeline.NonSpecOoO
	PolicyNoreba      = pipeline.Noreba
	PolicyIdealReconv = pipeline.IdealReconv
	PolicySpecBR      = pipeline.SpecBR
	PolicySpec        = pipeline.Spec
)

// Skylake returns the paper's Skylake-like core (Table 3) with the given
// commit policy.
func Skylake(p Policy) Config {
	cfg := pipeline.SkylakeConfig()
	cfg.Policy = p
	return cfg
}

// Haswell returns the Haswell-like core with the given policy.
func Haswell(p Policy) Config {
	cfg := pipeline.HaswellConfig()
	cfg.Policy = p
	return cfg
}

// Nehalem returns the Nehalem-like core with the given policy.
func Nehalem(p Policy) Config {
	cfg := pipeline.NehalemConfig()
	cfg.Policy = p
	return cfg
}

// Simulate replays a materialized trace through the cycle-level model. meta
// may be nil for unannotated programs (NOREBA then degenerates safely to
// in-order commit).
func Simulate(cfg Config, tr *DynTrace, meta *compiler.Meta) (*Stats, error) {
	return pipeline.NewCore(cfg, tr, meta).Run()
}

// SimulateSource runs the cycle-level model over a pull-based stream —
// typically StreamTrace's live emulator — holding only the sliding window in
// memory. meta may be nil for unannotated programs.
func SimulateSource(cfg Config, src TraceSource, meta *compiler.Meta) (*Stats, error) {
	return pipeline.NewCoreFromSource(cfg, src, meta).Run()
}

// SimulateSourceContext is SimulateSource with cooperative cancellation:
// when ctx ends mid-run the partial statistics accumulated so far are
// returned alongside an error wrapping the context's cause, so an
// interrupted caller (noreba-sim under SIGINT, a service job past its
// deadline) can still report what it saw.
func SimulateSourceContext(ctx context.Context, cfg Config, src TraceSource, meta *compiler.Meta) (*Stats, error) {
	return pipeline.NewCoreFromSource(cfg, src, meta).RunContext(ctx)
}

// TraceBus fans one TraceSource out to N lockstep consumers over a shared
// bounded ring buffer, so one functional emulation can feed many pipeline
// cores (see SimulateFanoutContext). skew bounds how far the fastest
// consumer may run ahead of the slowest (0 means the default bound); all
// views must be taken before consumption starts.
type TraceBus = emulator.Broadcast

// NewTraceBus wraps src in a broadcast trace bus. The source must not be
// consumed by anyone else once the bus owns it.
func NewTraceBus(src TraceSource, skew int) *TraceBus { return emulator.NewBroadcast(src, skew) }

// SimulateFanoutContext runs every configuration over ONE shared functional
// stream: src is wrapped in a broadcast trace bus and each config's core
// consumes its own lockstep view (emulator.Fanout), paying the emulation
// cost once instead of len(cfgs) times. Results are bit-identical to
// independent SimulateSourceContext runs and are returned aligned with cfgs
// alongside the first error (a failed core's slot holds its partial stats,
// and the survivors still finish — an early-exiting core detaches from the
// bus rather than wedging its siblings).
func SimulateFanoutContext(ctx context.Context, cfgs []Config, src TraceSource, meta *compiler.Meta) ([]*Stats, error) {
	stats := make([]*Stats, len(cfgs))
	errs := make([]error, len(cfgs))
	cores := make([]func(*emulator.BusView), len(cfgs))
	for i, cfg := range cfgs {
		cores[i] = func(v *emulator.BusView) {
			stats[i], errs[i] = pipeline.NewCoreFromSource(cfg, v, meta).RunContext(ctx)
		}
	}
	emulator.Fanout(src, cores...)
	return stats, cmp.Or(errs...)
}

// Sampled simulation (SimPoint-style).
type (
	// SamplingParams configures sampled simulation: interval length, cluster
	// bound, warmup, cooldown and clustering determinism. The zero value
	// means disabled; DefaultSampling returns the tuned defaults.
	SamplingParams = sampling.Params
	// SamplingPlan is a compiled sampling schedule for one program:
	// representative intervals with checkpoints, reusable across every core
	// configuration estimated from it.
	SamplingPlan = sampling.Plan
	// SamplingFormatError is the typed diagnostic for corrupt, truncated or
	// mismatched plan files, naming the byte offset.
	SamplingFormatError = sampling.FormatError
)

// DefaultSampling returns the enabled sampling configuration with the tuned
// defaults (see internal/sampling).
func DefaultSampling() SamplingParams { return sampling.Default() }

// BuildSamplingPlan profiles a compiled program's dynamic stream (bounded by
// maxInsts), clusters its intervals SimPoint-style and captures
// representative checkpoints. The plan's Estimate then approximates any
// configuration's full-run Stats from detailed simulation of the
// representatives alone — the differential accuracy suite in
// internal/experiments bounds the IPC error empirically.
func BuildSamplingPlan(res *CompileResult, maxInsts int64, p SamplingParams) (*SamplingPlan, error) {
	return sampling.BuildPlan(res.Image, res.Meta, maxInsts, p)
}

// SamplingPlanKey returns the content-store key under which a plan for
// (res, maxInsts, p) is persisted: sha256 over the plan-file format version,
// the compiled image's content hash, the stream bound and the normalized
// parameters. Recompiling the program or changing any input yields a new key.
func SamplingPlanKey(res *CompileResult, maxInsts int64, p SamplingParams) string {
	return sampling.PlanKey(res.ImageHash(), maxInsts, p)
}

// EncodeSamplingPlan serialises a plan into the versioned binary plan-file
// format, suitable for a persistent store or a file. Equal plans encode to
// identical bytes.
func EncodeSamplingPlan(pl *SamplingPlan) []byte { return sampling.EncodePlan(pl) }

// LoadSamplingPlan decodes plan-file bytes and binds the plan to the program
// it will estimate, verifying that the file was built for exactly this
// image, stream bound and sampling configuration. Corrupt, stale or
// mismatched bytes fail with a *SamplingFormatError — callers treat that as
// a cache miss and rebuild with BuildSamplingPlan.
func LoadSamplingPlan(data []byte, res *CompileResult, maxInsts int64, p SamplingParams) (*SamplingPlan, error) {
	return sampling.LoadPlanHashed(data, res.Image, res.ImageHash(), maxInsts, p)
}

// Observability and invariant checking.
type (
	// TraceEvent is one cycle-stamped pipeline event (fetch, dispatch,
	// issue, writeback, commit, squash, mispredict, cache miss, early
	// reclaim). Attach a sink via Config.TraceSink to receive them.
	TraceEvent = trace.Event
	// TraceSink consumes pipeline events; a nil sink costs one branch per
	// event site.
	TraceSink = trace.Sink
	// TraceKind identifies a pipeline event type.
	TraceKind = trace.Kind
	// TraceCollector buffers events in memory (optionally bounded by a
	// commit-event limit).
	TraceCollector = trace.Collector
	// MetricsRegistry names and owns counters and histograms folded from
	// the event stream.
	MetricsRegistry = trace.Registry
	// SanityError is the typed diagnostic a sanitized run fails with: the
	// violated invariant name plus the cycle, PC and sequence number.
	SanityError = sanity.Error
)

// NewJSONLSink returns a sink streaming events as JSON lines to w. Call its
// Close (or Flush) before reading the output.
func NewJSONLSink(w io.Writer) *trace.JSONL { return trace.NewJSONL(w) }

// NewMetricsSink returns a sink folding events into reg (a fresh registry
// when nil); combine with other sinks via TeeSinks.
func NewMetricsSink(reg *MetricsRegistry) *trace.Metrics { return trace.NewMetrics(reg) }

// TeeSinks fans every event out to each sink.
func TeeSinks(sinks ...TraceSink) TraceSink { return trace.Tee(sinks...) }

// AsSanityError extracts the typed invariant violation from a failed run's
// error, if it is one.
func AsSanityError(err error) (*SanityError, bool) { return sanity.As(err) }

// Power modelling.
type (
	// PowerBreakdown is a per-structure power/area estimate.
	PowerBreakdown = power.Breakdown
)

// EstimatePower runs the McPAT-style activity model over a finished run.
func EstimatePower(cfg Config, st *Stats) PowerBreakdown { return power.Estimate(cfg, st) }

// Workloads and experiments.
type (
	// Workload is one registered benchmark kernel.
	Workload = workloads.Workload
	// Runner regenerates the paper's figures.
	Runner = experiments.Runner
)

// Workloads returns every registered kernel: the curated SPEC-like and
// MiBench-like suite plus the pinned generated workloads.
func Workloads() []Workload { return workloads.All() }

// CuratedWorkloads returns the hand-written figure suite only (generated
// workloads excluded) — what the experiment runner evaluates by default.
func CuratedWorkloads() []Workload { return workloads.Curated() }

// WorkloadByName returns the named kernel.
func WorkloadByName(name string) (Workload, error) { return workloads.ByName(name) }

// Workload generation (internal/workgen): deterministic, seed-parameterized
// programs over the character axes of DESIGN.md §12.
type (
	// GenParams selects one point in the generator's character space.
	GenParams = workgen.Params
	// GenCharacter is the characterization record emitted with each sample.
	GenCharacter = workgen.Character
)

// GenParamsFromSeed derives a full character point from a single seed.
func GenParamsFromSeed(seed uint64) GenParams { return workgen.FromSeed(seed) }

// ParseGenSpec parses a "seed=42,crit=0.8,…" generator spec (noreba-sim's
// -gen flag syntax).
func ParseGenSpec(spec string) (GenParams, error) { return workgen.ParseSpec(spec) }

// GenerateWorkload emits the program at one character point, with its
// characterization record. Identical params yield byte-identical programs.
func GenerateWorkload(p GenParams) (*Program, GenCharacter, error) { return workgen.Generate(p) }

// Trace interchange (internal/tracefile): the versioned on-disk format for
// dynamic instruction traces.
type (
	// TraceReader replays a recorded trace file as a TraceSource.
	TraceReader = tracefile.Reader
	// TraceRecorder tees a TraceSource to a trace file as it is consumed.
	TraceRecorder = tracefile.Recorder
	// TraceFormatError is the typed diagnostic for corrupt or truncated
	// trace files, naming the byte offset.
	TraceFormatError = tracefile.FormatError
)

// WriteTraceFile drains src into w in the versioned trace format; meta (may
// be nil) embeds the compiler's branch metadata for full-fidelity replay.
func WriteTraceFile(w io.Writer, src TraceSource, meta *compiler.Meta) error {
	return tracefile.Write(w, src, meta)
}

// OpenTraceFile parses a recorded trace for replay; the reader is a
// TraceSource and carries the embedded metadata (Reader.Meta).
func OpenTraceFile(r io.Reader) (*TraceReader, error) { return tracefile.Open(r) }

// NewTraceRecorder wraps src so every consumed instruction is also written
// to w; call Close after the run to surface any deferred write error.
func NewTraceRecorder(src TraceSource, w io.Writer, meta *compiler.Meta) (*TraceRecorder, error) {
	return tracefile.NewRecorder(src, w, meta)
}

// NewRunner returns a full-scale experiment runner.
func NewRunner() *Runner { return experiments.NewRunner() }

// QuickRunner returns a reduced-scale runner (used by tests and the root
// benchmarks).
func QuickRunner() *Runner { return experiments.QuickRunner() }

// ConfigTables renders the paper's Table 2 and Table 3.
func ConfigTables() string { return experiments.Tables2And3() }

// Multicore (§4.5).
type (
	// MulticoreConfig describes a multicore system: per-core configuration,
	// shared LLC, barriers and address-space layout.
	MulticoreConfig = multicore.Config
	// CoreInput is one core's instruction stream and branch metadata.
	CoreInput = multicore.CoreInput
	// MulticoreSystem is a set of cores stepping in lockstep.
	MulticoreSystem = multicore.System
)

// NewMulticore builds a lockstep multicore system.
func NewMulticore(cfg MulticoreConfig, inputs []CoreInput) (*MulticoreSystem, error) {
	return multicore.New(cfg, inputs)
}

// Binary distribution of programs.

// EncodeImage packs a laid-out program's instructions into the flat binary
// format (8 bytes per instruction, position-independent branch deltas).
func EncodeImage(img *Image) ([]byte, error) { return isa.EncodeProgram(img.Insts) }

// DecodeImage unpacks instructions from the flat binary format.
func DecodeImage(data []byte) ([]isa.Inst, error) { return isa.DecodeProgram(data) }
