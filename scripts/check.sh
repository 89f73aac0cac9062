#!/bin/sh
# check.sh — the repo's CI gate, also runnable as `make check`.
#
# Order matters: cheap static checks first, then the full race-enabled test
# suite with a coverage gate on the core packages, then short fuzz smokes,
# then the engine benchmarks so a regression in figure wall-clock or the
# parallel scheduler shows up in CI output (and refreshes BENCH_engine.json).
set -eu

cd "$(dirname "$0")/.."

fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
	echo "gofmt needed:" >&2
	echo "$fmt" >&2
	exit 1
fi

go vet ./...
go build ./...
# The benchmark harness is a separate module (perfbench/go.mod), so the
# root ./... patterns above never compile it; it calls the emulator and
# pipeline APIs directly, so an API change must keep it vetting and passing.
(cd perfbench && go vet ./... && go test ./...)
# internal/experiments alone runs ~8.5 min of race-instrumented simulation
# (the sanitized whole-suite pass is ~2 min of it); the default 10-minute
# per-package timeout leaves too little headroom on a shared box.
go test -race -timeout 20m ./...

# The service binary must keep building even though nothing above imports it
# (-o /dev/null: compile check only, no artifact in the repo root).
go build -o /dev/null ./cmd/noreba-serve

# End-to-end service smoke: concurrent clients against an httptest server,
# dedup + byte-identical results + warm-store restart, race detector on.
go test -race -run 'TestServiceLoadSmoke' ./internal/service

# Multi-process cluster smoke: a real 3-replica fleet with sharded stores —
# sharded sweep byte-identical to single-process, one emulation per
# workload fleet-wide, SIGTERM drain, warm restart served from shards, and
# degraded completion with a replica killed mid-sweep.
sh scripts/cluster_smoke.sh

# Sampled-simulation determinism: the concurrent representative fan-out in
# EstimateContextN must produce byte-identical results to the serial path for
# every commit policy, under the race detector. Asserted by name so a
# scheduling-order regression can't hide inside the broader suite.
go test -race -run 'TestEstimateConcurrentDeterminism' ./internal/sampling

# Plan reuse determinism: windows on recycled cores, fed by a warm replay
# that publishes each representative's state while later ones still warm,
# must match fresh-core estimates byte for byte — eight concurrent estimates
# over every policy, interleaving cache geometries on one plan.
go test -race -run 'TestRecycledEstimateDeterminism' ./internal/sampling

# Observer and bookkeeping differential: over twenty generated programs ×
# every policy × three core sizes, a sanitized run — whose checker re-derives
# the commit frontiers, the ordered scheduler sets and every other piece of
# incremental state from scratch each cycle — must run clean and match a
# plain run's Stats exactly, per-branch stall records included.
go test -race -run 'TestSanitizeMatchesPlainStats' ./internal/pipeline

# Correctness substrate over the program generator: fifty generated programs
# under every commit policy (sanitized, differential against the emulator)
# already ran under the race detector inside `go test -race ./...` above
# (TestGeneratedDifferentialSuite — rerun it by name when the generator
# changes). The broadcast-bus guarantee for generated batches — one
# functional emulation feeding all policies — is cheap enough to assert by
# name, extending the emulationsRun guard below to the generated suite.
go test -race -run 'TestGeneratedBatchSharesEmulation' ./internal/experiments

# Coverage gate: a hard floor on the packages where a silent regression
# costs the most (the list and the floor live in scripts/cover.sh).
sh scripts/cover.sh

# Fuzz smoke: a short budget per native fuzz target, from an empty fuzz
# cache (the targets and budgets live in scripts/fuzz.sh).
sh scripts/fuzz.sh

# Throughput regression guard: capture the committed engine baseline BEFORE
# the bench run rewrites BENCH_engine.json, then fail if the fresh suite
# wall-clock regressed by more than 20% against it — or if the fresh run
# executed more functional emulations than the committed baseline (the
# broadcast trace bus keeps that at one shared emulation per workload; a
# regression here means fan-out batching silently stopped working).
baseline=$(awk -F'[:,]' '/"suiteWallClockSec"/ { gsub(/[ \t]/, "", $2); print $2 }' BENCH_engine.json)
if [ -z "$baseline" ]; then
	echo "check: no suiteWallClockSec in committed BENCH_engine.json" >&2
	exit 1
fi
emu_baseline=$(awk -F'[:,]' '/"emulationsRun"/ { gsub(/[ \t]/, "", $2); print $2 }' BENCH_engine.json)
if [ -z "$emu_baseline" ]; then
	echo "check: no emulationsRun in committed BENCH_engine.json" >&2
	exit 1
fi

go test -run '^$' -bench 'BenchmarkFigure6$' -benchtime=1x -benchmem .

# The engine suite gets three iterations and records the fastest, like the
# sampled suite below: one iteration on an unchanged tree read anywhere from
# 2.6 to 3.6 s on a shared 2-vCPU host, so a single sample cannot carry a
# +20% guard.
go test -run '^$' -bench 'BenchmarkEngineSuite$' -benchtime=3x -benchmem .

# The sampled suite gets three iterations: its timed loops take min-over-
# iterations, and on a shared box a single iteration is noisy enough to trip
# the speedup floor below without any real regression.
go test -run '^$' -bench 'BenchmarkSampledSuite$' -benchtime=3x -benchmem .

fresh=$(awk -F'[:,]' '/"suiteWallClockSec"/ { gsub(/[ \t]/, "", $2); print $2 }' BENCH_engine.json)
if [ -z "$fresh" ]; then
	echo "check: benchmark did not refresh BENCH_engine.json" >&2
	exit 1
fi

# Benchstat-style old/new comparison against the committed baseline, then two
# gates: a relative one (no >20% regression vs whatever is committed) and an
# absolute ratchet. The ratchet is the point of a perf PR: once a speedup
# lands, the floor is lowered so a later change can't quietly give the win
# back while still passing the relative guard against its own refreshed
# baseline. Lower engine_wall_floor when a perf PR commits a faster baseline;
# never raise it. (Set from the 1-vCPU reference container: the zero-copy
# plumbing PR runs the suite in ~2.1s there; the floor leaves ~40% headroom
# for shared-machine noise but stays well under the ~3.3s it replaced.)
engine_wall_floor=3.0
awk -v old="$baseline" -v new="$fresh" 'BEGIN {
	printf "%-28s %10s %10s %9s\n", "metric", "old", "new", "delta"
	printf "%-28s %9.3fs %9.3fs %+8.1f%%\n", "engine suite wall-clock", old, new, (new - old) / old * 100
}'
if awk "BEGIN { exit !($fresh > $baseline * 1.2) }"; then
	echo "check: engine suite wall-clock regressed >20%: ${fresh}s vs committed ${baseline}s" >&2
	exit 1
fi
if awk "BEGIN { exit !($fresh > $engine_wall_floor) }"; then
	echo "check: engine suite wall-clock ${fresh}s above ratchet floor ${engine_wall_floor}s" >&2
	exit 1
fi
echo "engine suite wall-clock: ${fresh}s (committed ${baseline}s, guard +20%, ratchet ${engine_wall_floor}s)"

emu_fresh=$(awk -F'[:,]' '/"emulationsRun"/ { gsub(/[ \t]/, "", $2); print $2 }' BENCH_engine.json)
if [ -z "$emu_fresh" ]; then
	echo "check: benchmark did not report emulationsRun" >&2
	exit 1
fi
if [ "$emu_fresh" -gt "$emu_baseline" ]; then
	echo "check: emulationsRun regressed: $emu_fresh vs committed $emu_baseline" >&2
	exit 1
fi
echo "engine suite emulations: $emu_fresh (committed baseline $emu_baseline)"

# Sampled-simulation wall-clock floor: the warm-plan path (plan loaded from
# the store, representatives fanned out concurrently) must beat full detailed
# simulation of the sampleable quick-suite workloads by at least 2.5x. The
# committed BENCH_sampling.json records >= 3x; the gate sits below that to
# absorb shared-machine scheduler noise without letting a real regression
# through.
speedup=$(awk -F'[:,]' '/"wallClockSpeedup"/ { gsub(/[ \t]/, "", $2); print $2 }' BENCH_sampling.json)
if [ -z "$speedup" ]; then
	echo "check: benchmark did not refresh wallClockSpeedup in BENCH_sampling.json" >&2
	exit 1
fi
if awk "BEGIN { exit !($speedup < 2.5) }"; then
	echo "check: sampled-suite wall-clock speedup $speedup below floor 2.5" >&2
	exit 1
fi
echo "sampled suite wall-clock speedup: ${speedup}x (floor 2.5x)"

echo "check: OK"
