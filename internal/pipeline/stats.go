package pipeline

// BranchStall aggregates commit-stall attribution for one static branch
// (Figure 7's criticality scatter).
type BranchStall struct {
	PC          int
	StallCycles int64 // cycles the branch blocked in-order commit progress
	Dependents  int64 // dynamic instructions marked dependent on it
	Occurrences int64
	Mispredicts int64
}

// Stats summarises one simulation run.
type Stats struct {
	Name   string
	Policy string

	Cycles       int64
	Committed    int64 // dynamic instructions committed (excluding setup)
	FetchedSetup int64 // setup instructions that consumed fetch slots
	CITDrops     int64 // refetched instructions dropped at decode via CIT

	OoOCommitted int64 // committed while older instructions remained

	Branches        int64
	Mispredicts     int64
	JalrMispredicts int64

	Loads, Stores   int64
	FencesCommitted int64

	// Resource-stall accounting at dispatch.
	StallROB, StallIQ, StallLQ, StallSQ, StallRegs int64

	// Noreba structure activity.
	Steered       int64
	SteerStalls   int64 // cycles ROB′ head could not steer
	CITAllocs     int64
	CITPeak       int64
	CITFullStalls int64
	CQTFullStalls int64

	// Commit-queue occupancy integrals for power modelling.
	PRCQOcc, BRCQOcc int64

	// Cache statistics (copied from the hierarchy at end of run).
	L1DAccesses, L1DMisses int64
	L2Misses, L3Misses     int64
	ICacheMisses           int64
	MemAccesses            int64
	PrefetchIssued         int64
	PrefetchUseful         int64

	// Phase accounting: cycles (and commits) spent with a pending
	// misprediction window, replaying re-fetches after a recovery, and in
	// normal operation.
	WindowCycles, WindowCommits int64
	ReplayCycles, ReplayCommits int64
	NormalCycles, NormalCommits int64

	// ROB occupancy integral (entry-cycles) for average occupancy.
	ROBOccupancy int64

	// Engine accounting: the sliding window's high-water mark (live
	// instruction records) and the total dynamic instructions pulled from
	// the source, including setup instructions.
	WindowPeak int64
	TraceInsts int64

	// Per-branch criticality (keyed by PC).
	BranchStalls map[int]*BranchStall

	// Sampling provenance: set by internal/sampling when the stats are a
	// weighted extrapolation from representative intervals rather than a
	// full detailed run. SampledDetailInsts is the number of dynamic
	// instructions actually simulated in detail (warmup + measurement +
	// cooldown across all representatives) — the cost the sampler paid,
	// versus TraceInsts it would have paid in a full run.
	Sampled            bool
	SampledIntervals   int
	SampledDetailInsts int64
}

// IPC returns committed instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

// OoOCommitFraction returns the fraction of dynamic instructions committed
// out of order (Figure 8).
func (s *Stats) OoOCommitFraction() float64 {
	if s.Committed == 0 {
		return 0
	}
	return float64(s.OoOCommitted) / float64(s.Committed)
}

// MispredictRate returns mispredictions per conditional branch.
func (s *Stats) MispredictRate() float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Branches)
}

func (s *Stats) branchStall(pc int) *BranchStall {
	if s.BranchStalls == nil {
		s.BranchStalls = map[int]*BranchStall{}
	}
	b := s.BranchStalls[pc]
	if b == nil {
		b = &BranchStall{PC: pc}
		s.BranchStalls[pc] = b
	}
	return b
}
