// Package sampling implements SimPoint-style sampled simulation: instead of
// replaying a workload's whole dynamic instruction stream through the
// cycle-level pipeline model, it profiles the stream's phase behaviour with
// basic-block vectors, clusters fixed-length intervals with k-means, and
// simulates only one representative interval per cluster in detail — from a
// checkpointed architectural state, after a detailed pipeline warmup — then
// extrapolates full-run statistics from the weighted representatives.
//
// The methodology follows Sherwood et al.'s SimPoint as adapted by
// gem5-style samplers: functional profiling is cheap (two emulator passes),
// detailed simulation is the cost being amortised, and the error introduced
// is bounded empirically by the differential accuracy suite in
// internal/experiments (sampled vs. full IPC per workload × commit policy,
// with the measured error table recorded in testdata).
package sampling

// Tuned defaults. The suite's kernels run tens to hundreds of thousands of
// dynamic instructions, so intervals are far shorter than SimPoint's
// canonical 10M–1B: the goal is the same ~5–10× detailed-instruction
// reduction at single-digit-percent IPC error, scaled to this repository's
// workloads.
const (
	// DefaultIntervalLen is the profiling interval length in dynamic
	// instructions (setup instructions included).
	DefaultIntervalLen = 512
	// DefaultMaxK bounds the number of k-means clusters, and therefore the
	// number of representative intervals simulated in detail.
	DefaultMaxK = 4
	// DefaultWarmupIntervals is how many whole intervals immediately before
	// a representative are simulated in detail — warming the caches, branch
	// predictor and pipeline — but excluded from the measurement.
	DefaultWarmupIntervals = 1
	// DefaultCooldownInsts extends each representative's stream past the
	// interval end so the measurement window closes in steady state (the
	// interval's last commits overlap successor fetch, exactly as in a full
	// run) instead of measuring a pipeline drain per interval. It must cover
	// the front end's commit-to-fetch run-ahead — roughly the instruction
	// window size — or the window's tail measures a fetch-starved pipeline;
	// the measurement stops at the interval-end commit crossing, so only the
	// cooldown instructions the front end actually fetched by then are ever
	// simulated.
	DefaultCooldownInsts = 512
	// DefaultKMeansIters caps Lloyd iterations.
	DefaultKMeansIters = 32
	// DefaultSeed seeds the deterministic k-means++ initialisation.
	DefaultSeed = 1
)

// Params configures sampled simulation. The zero value means "disabled";
// Default() returns an enabled configuration with the tuned defaults. Params
// is a pure value (comparable, deterministically JSON-marshalable), so the
// experiment runner folds it into its simulation cache key and persistent
// store hash — a sampled result can never alias a full-run result.
type Params struct {
	// Enabled turns sampled simulation on.
	Enabled bool
	// IntervalLen is the profiling interval length in dynamic instructions;
	// 0 means DefaultIntervalLen.
	IntervalLen int64
	// MaxK bounds the cluster count; 0 means DefaultMaxK. The effective k
	// never exceeds the number of profiled intervals.
	MaxK int
	// WarmupIntervals is the detailed-warmup length in whole intervals
	// before each representative; 0 means DefaultWarmupIntervals, negative
	// means no warmup.
	WarmupIntervals int
	// CooldownInsts extends each representative's stream past the interval
	// end; 0 means DefaultCooldownInsts, negative means no cooldown.
	CooldownInsts int64
	// KMeansIters caps Lloyd iterations; 0 means DefaultKMeansIters.
	KMeansIters int
	// Seed seeds the deterministic k-means++ initialisation; 0 means
	// DefaultSeed.
	Seed uint64
}

// Default returns the enabled configuration with every knob at its tuned
// default.
func Default() Params { return Params{Enabled: true}.Normalize() }

// Normalize resolves defaults into explicit values so that two Params
// meaning the same sampling schedule compare (and hash) equal: a disabled
// Params collapses to the zero value, an enabled one has every zero field
// replaced by its default and every "negative means none" field set to -1.
// Normalizing twice changes nothing: "none" stays -1 rather than becoming a
// 0 that a second pass would read as "default".
func (p Params) Normalize() Params {
	if !p.Enabled {
		return Params{}
	}
	if p.IntervalLen <= 0 {
		p.IntervalLen = DefaultIntervalLen
	}
	if p.MaxK <= 0 {
		p.MaxK = DefaultMaxK
	}
	switch {
	case p.WarmupIntervals == 0:
		p.WarmupIntervals = DefaultWarmupIntervals
	case p.WarmupIntervals < 0:
		p.WarmupIntervals = -1
	}
	switch {
	case p.CooldownInsts == 0:
		p.CooldownInsts = DefaultCooldownInsts
	case p.CooldownInsts < 0:
		p.CooldownInsts = -1
	}
	if p.KMeansIters <= 0 {
		p.KMeansIters = DefaultKMeansIters
	}
	if p.Seed == 0 {
		p.Seed = DefaultSeed
	}
	return p
}

// warmupIntervals and cooldownInsts read a normalized Params' detailed
// warmup and cooldown lengths, "none" (-1) as 0.
func (p Params) warmupIntervals() int { return max(p.WarmupIntervals, 0) }
func (p Params) cooldownInsts() int64 { return max(p.CooldownInsts, 0) }
