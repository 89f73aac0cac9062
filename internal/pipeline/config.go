// Package pipeline is the cycle-level timing model of the NOREBA core: a
// superscalar out-of-order pipeline (fetch, decode/rename, dispatch, issue,
// execute, writeback, commit) replaying correct-path dynamic traces from the
// functional emulator. The commit stage is pluggable — the paper's five
// commit policies (in-order, non-speculative OoO, Noreba's Selective ROB,
// ideal reconvergence, and the speculative oracles) all share the same
// pipeline and differ only in how and when they retire instructions and
// reclaim resources.
package pipeline

import (
	"fmt"
	"strings"

	"github.com/noreba-sim/noreba/internal/cache"
	"github.com/noreba-sim/noreba/internal/trace"
)

// PolicyKind selects a commit policy.
type PolicyKind int

const (
	// InOrder is the conventional baseline: instructions commit strictly
	// from the ROB head (InO-C in the paper's figures).
	InOrder PolicyKind = iota
	// NonSpecOoO is Bell & Lipasti's non-speculative out-of-order commit:
	// any completed instruction whose older branches and memory operations
	// have all resolved may commit.
	NonSpecOoO
	// Noreba is the paper's contribution: compiler branch-dependence
	// annotations plus the Selective ROB (ROB′ steering into PR-CQ and
	// BR-CQs, with BIT/DCT/CQT/CIT support structures).
	Noreba
	// IdealReconv commits with the same compiler information as Noreba but
	// with an ideal ROB allowing arbitrary reordering (no queue
	// restrictions).
	IdealReconv
	// SpecBR is the speculative oracle that relaxes only the branch
	// condition: completed instructions commit past unresolved branches
	// with no misspeculation penalty (upper bound for NOREBA).
	SpecBR
	// Spec is the full speculative oracle of Figure 1: completed
	// instructions commit with every condition relaxed.
	Spec
)

// String returns the policy's name as used in the paper's figures.
func (p PolicyKind) String() string {
	switch p {
	case InOrder:
		return "InO-C"
	case NonSpecOoO:
		return "NonSpeculative-OoO-C"
	case Noreba:
		return "NOREBA"
	case IdealReconv:
		return "Reconvergence-OoO-C"
	case SpecBR:
		return "SpeculativeBR-OoO-C"
	case Spec:
		return "Speculative-OoO-C"
	default:
		return "unknown"
	}
}

// policyNames are the policies' short names: the spelling every command-line
// tool and the service API accept (see ParsePolicy).
var policyNames = [...]string{
	InOrder:     "inorder",
	NonSpecOoO:  "nonspec",
	Noreba:      "noreba",
	IdealReconv: "ideal",
	SpecBR:      "specbr",
	Spec:        "spec",
}

// ShortName returns the policy's short name, the inverse of ParsePolicy.
func (p PolicyKind) ShortName() string {
	if p < 0 || int(p) >= len(policyNames) {
		return "unknown"
	}
	return policyNames[p]
}

// ParsePolicy maps a policy's short name, in any letter case, onto its
// PolicyKind.
func ParsePolicy(name string) (PolicyKind, error) {
	for p, n := range policyNames {
		if strings.EqualFold(name, n) {
			return PolicyKind(p), nil
		}
	}
	return 0, fmt.Errorf("unknown policy %q (want %s)", name, strings.Join(policyNames[:], "|"))
}

// PredictorKind selects the branch direction predictor.
type PredictorKind int

const (
	// PredTAGE is the TAGE-SC-L-style predictor (the paper's Table 2).
	PredTAGE PredictorKind = iota
	// PredBimodal is a simple 2-bit-counter predictor.
	PredBimodal
	// PredOracle predicts perfectly (ideal front end).
	PredOracle
)

// SelectiveROBConfig sizes the Noreba-specific structures (Table 2).
type SelectiveROBConfig struct {
	NumBRCQs   int // number of branch commit queues
	BRCQSize   int // entries per BR-CQ
	PRCQSize   int // primary commit queue entries
	BITSize    int // branch ID table entries
	CQTSize    int // commit queue table entries
	CITSize    int // committed instructions table entries
	SteerWidth int // ROB′ → CQ steering bandwidth per cycle
}

// DefaultSelectiveROB returns the paper's chosen configuration: 2 BR-CQs ×
// 8 entries, an 8-entry PR-CQ, 8-entry BIT/CQT, 128-entry CIT.
func DefaultSelectiveROB() SelectiveROBConfig {
	return SelectiveROBConfig{
		NumBRCQs: 2, BRCQSize: 8, PRCQSize: 8,
		BITSize: 8, CQTSize: 8, CITSize: 128,
		SteerWidth: 4,
	}
}

// Config describes one simulated core.
type Config struct {
	Name string

	// Pipeline widths (Table 2: dispatch/issue/commit 4/4/4).
	FetchWidth  int
	IssueWidth  int
	CommitWidth int

	// Window resources (Table 3).
	ROBSize    int
	IQSize     int
	LQSize     int
	SQSize     int
	RenameRegs int // physical registers beyond the architectural 64

	// Functional units.
	IntALUs    int
	IntMulDiv  int
	FPUs       int
	LoadPorts  int
	StorePorts int

	// Front end.
	FrontendDepth     int // fetch-to-dispatch latency in cycles
	MispredictPenalty int // redirect penalty after resolve
	RASEntries        int

	// Memory hierarchy (Table 2 latencies).
	L1ISize, L1DSize, L2Size, L3Size int
	L1Lat, L2Lat, L3Lat, MemLat      int64
	CacheWays                        int

	// Prefetcher (DCPT).
	PrefetchEnabled bool
	PrefetchDegree  int
	PrefetchTable   int

	Predictor PredictorKind
	Policy    PolicyKind
	Selective SelectiveROBConfig

	// ECL enables Early Commit of Loads (§6.1.5): loads become
	// commit-eligible once their translation has succeeded, before data
	// returns.
	ECL bool

	// FreeSetup simulates the "perfect" design of §6.1.2 in which branch
	// dependence information reaches the hardware without occupying fetch
	// slots: setup instructions are elided from the fetch stream.
	FreeSetup bool

	// WindowFetchLimit caps how many post-reconvergence instructions the
	// front end fetches during a misprediction window.
	WindowFetchLimit int

	// PipeTraceLimit, when positive, records stage timestamps for the
	// first N committed instructions into Stats.PipeTrace (the
	// noreba-pipeview input).
	PipeTraceLimit int

	// FenceGate, when set, gates the commit of each synchronisation
	// barrier: the fence whose zero-based ordinal is n may retire only
	// when FenceGate(n) reports true. The multicore system uses this to
	// model inter-core barriers (§4.5). A nil gate lets fences retire
	// freely (single-core semantics). Excluded from JSON, like TraceSink:
	// a function value cannot be encoded, and the experiment runner's
	// request key (a JSON hash of the config) must not depend on hooks.
	FenceGate func(n int64) bool `json:"-"`

	// Sanitize enables the pipeline sanitizer: every cycle the core
	// re-derives the paper's commit-legality rules (§4) plus structural
	// invariants (ROB allocation order, PRF free-list conservation, LSQ
	// age ordering, sliding-window release safety) and fails the run with
	// a *sanity.Error on the first violation. Purely a checking layer —
	// it never changes timing.
	Sanitize bool

	// TraceSink, when non-nil, receives a structured trace.Event at every
	// pipeline stage boundary (fetch, dispatch, issue, writeback, commit),
	// squash, misprediction, L1 miss and early load-queue reclaim. A nil
	// sink costs one branch per event site. Observation never changes
	// timing, so the sink is excluded from JSON (see FenceGate).
	TraceSink trace.Sink `json:"-"`
}

func baseConfig() Config {
	return Config{
		FetchWidth: 4, IssueWidth: 4, CommitWidth: 4,
		IntALUs: 4, IntMulDiv: 1, FPUs: 2, LoadPorts: 2, StorePorts: 1,
		FrontendDepth: 5, MispredictPenalty: 12, RASEntries: 16,
		L1ISize: 32 << 10, L1DSize: 32 << 10, L2Size: 256 << 10, L3Size: 1 << 20,
		L1Lat: 4, L2Lat: 12, L3Lat: 36, MemLat: 300,
		CacheWays:       8,
		PrefetchEnabled: true, PrefetchDegree: 4, PrefetchTable: 128,
		Predictor:        PredTAGE,
		Policy:           InOrder,
		Selective:        DefaultSelectiveROB(),
		WindowFetchLimit: 2048,
	}
}

// SkylakeConfig returns the paper's Skylake-like core (Table 3: ROB 224,
// IQ 68, LQ 72, SQ 56, 168 rename registers).
func SkylakeConfig() Config {
	c := baseConfig()
	c.Name = "SKL"
	c.ROBSize, c.IQSize, c.LQSize, c.SQSize, c.RenameRegs = 224, 68, 72, 56, 168
	return c
}

// HaswellConfig returns the Haswell-like core (ROB 192, IQ 60, LQ 72,
// SQ 42, 128 rename registers).
func HaswellConfig() Config {
	c := baseConfig()
	c.Name = "HSW"
	c.ROBSize, c.IQSize, c.LQSize, c.SQSize, c.RenameRegs = 192, 60, 72, 42, 128
	return c
}

// NehalemConfig returns the Nehalem-like core (ROB 128, IQ 56, LQ 48,
// SQ 36, 64 rename registers).
func NehalemConfig() Config {
	c := baseConfig()
	c.Name = "NHM"
	c.ROBSize, c.IQSize, c.LQSize, c.SQSize, c.RenameRegs = 128, 56, 48, 36, 64
	return c
}

// CoreConfig returns the Table 3 core named nhm, hsw or skl (in any letter
// case) with the given commit policy.
func CoreConfig(name string, policy PolicyKind) (Config, error) {
	var c Config
	switch strings.ToLower(name) {
	case "nhm":
		c = NehalemConfig()
	case "hsw":
		c = HaswellConfig()
	case "skl":
		c = SkylakeConfig()
	default:
		return c, fmt.Errorf("unknown core %q (want nhm|hsw|skl)", name)
	}
	c.Policy = policy
	return c, nil
}

// PhysRegs returns the total physical register count (64 architectural +
// rename registers).
func (c *Config) PhysRegs() int { return 64 + c.RenameRegs }

// Hierarchy builds the data-side cache hierarchy for the config.
func (c *Config) hierarchy() *cache.Hierarchy {
	return cache.NewHierarchy(c.MemLat,
		cache.Config{Name: "L1d", Size: c.L1DSize, Ways: c.CacheWays, Latency: c.L1Lat},
		cache.Config{Name: "L2", Size: c.L2Size, Ways: c.CacheWays, Latency: c.L2Lat},
		cache.Config{Name: "L3", Size: c.L3Size, Ways: 16, Latency: c.L3Lat},
	)
}

func (c *Config) icache() *cache.Hierarchy {
	return cache.NewHierarchy(c.MemLat,
		cache.Config{Name: "L1i", Size: c.L1ISize, Ways: c.CacheWays, Latency: c.L1Lat},
		cache.Config{Name: "L2", Size: c.L2Size, Ways: c.CacheWays, Latency: c.L2Lat},
		cache.Config{Name: "L3", Size: c.L3Size, Ways: 16, Latency: c.L3Lat},
	)
}

// latencyOf returns issue-to-complete latency for non-memory ops.
func (c *Config) latencyOf(class opClass) int64 {
	switch class {
	case opIntALU, opBranch:
		return 1
	case opIntMul:
		return 3
	case opIntDiv:
		return 20
	case opFPALU:
		return 4
	case opFPDiv:
		return 12
	default:
		return 1
	}
}
