package sampling

import (
	"context"

	"github.com/noreba-sim/noreba/internal/emulator"
	"github.com/noreba-sim/noreba/internal/pipeline"
)

// fingerprintDims replays the stream from src — typically a view of the
// build-time broadcast bus shared with the pilot run — through the
// reference core's functional model (caches, prefetcher, branch predictor,
// RAS) at one pseudo-cycle per instruction and distils two per-interval
// timing columns: mean data-access latency beyond an L1 hit, and
// control-transfer misprediction rate. These separate the timing-phase families a detailed
// out-of-order pilot run would see — memory-bound regimes shaped by
// prefetcher and fill context, and branch-resolution-bound regimes that
// gate non-speculative commit — at a small fraction of a pilot's cost.
// Columns are normalised to mean 1 so they are commensurate with the
// pilot-CPI dimension; an all-zero column (no misses, or no mispredictions)
// carries no signal and is dropped. The pseudo-clock compresses time
// relative to a real pipeline, so the latencies are a phase signature, not
// a cycle estimate. Cancelling ctx ends the replay early with an error
// wrapping its cause.
func fingerprintDims(ctx context.Context, src emulator.TraceSource, prof *Profile) ([][]float64, error) {
	ws := pipeline.NewWarmState(pipeline.SkylakeConfig())

	n := len(prof.Intervals)
	mem := make([]float64, n)
	mis := make([]float64, n)
	idx := 0
	var pos int64
	clock := func(i int64) int64 { return i + 1 }
	err := ws.Replay(ctx, src, clock, func(memExtra int64, mispred bool) {
		for idx < n && pos >= prof.Intervals[idx].Start+prof.Intervals[idx].Insts {
			idx++
		}
		pos++
		if idx >= n {
			return
		}
		mem[idx] += float64(memExtra)
		if mispred {
			mis[idx]++
		}
	})
	if err != nil {
		return nil, err
	}
	for i := range prof.Intervals {
		if insts := prof.Intervals[i].Insts; insts > 0 {
			mem[i] /= float64(insts)
			mis[i] /= float64(insts)
		}
	}

	var dims [][]float64
	for _, d := range [][]float64{mem, mis} {
		if nd := normalizeMean1(d); nd != nil {
			dims = append(dims, nd)
		}
	}
	return dims, nil
}

// normalizeMean1 rescales a non-negative column to mean 1, or returns nil
// for a column with no mass.
func normalizeMean1(d []float64) []float64 {
	var sum float64
	for _, x := range d {
		sum += x
	}
	if sum <= 0 {
		return nil
	}
	mean := sum / float64(len(d))
	out := make([]float64, len(d))
	for i, x := range d {
		out[i] = x / mean
	}
	return out
}
