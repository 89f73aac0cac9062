#!/bin/sh
# fuzz.sh — a short budget per native fuzz target, from an empty fuzz cache.
# Run by scripts/check.sh and `make fuzz`; this is the one list of targets.
#
# Regressions in the encode/decode round trip or the compiler pass tend to
# surface within seconds; longer campaigns run out-of-band. Minimizing a
# newly found input may take up to -fuzzminimizetime (default 60s) and
# executes nothing new meanwhile, so the bound keeps each smoke fuzzing for
# its whole budget. The fuzz cache is cleared first: a target whose cache
# already holds many inputs (FuzzGeneratedDifferential runs ~2 a second)
# spends its whole budget replaying them as baseline coverage and fuzzes
# nothing, yet still passes.
set -eu

cd "$(dirname "$0")/.."

go clean -fuzzcache
go test ./internal/isa -run '^$' -fuzz 'FuzzEncodeDecodeRoundTrip$' -fuzztime 10s -fuzzminimizetime 1s
go test ./internal/compiler -run '^$' -fuzz 'FuzzCompilerPass$' -fuzztime 10s -fuzzminimizetime 1s
go test ./internal/emulator -run '^$' -fuzz 'FuzzBroadcastSkew$' -fuzztime 10s -fuzzminimizetime 1s
go test ./internal/workgen -run '^$' -fuzz 'FuzzGeneratedDifferential$' -fuzztime 10s -fuzzminimizetime 1s
go test ./internal/tracefile -run '^$' -fuzz 'FuzzTraceRoundTrip$' -fuzztime 10s -fuzzminimizetime 1s
go test ./internal/sampling -run '^$' -fuzz 'FuzzPlanFile$' -fuzztime 10s -fuzzminimizetime 1s
