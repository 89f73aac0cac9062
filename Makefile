.PHONY: check test vet bench cover fuzz serve-smoke cluster-smoke profile profile-top

# Full CI gate: gofmt, vet, build, race-enabled tests, coverage floors,
# fuzz smokes, engine benchmarks.
check:
	sh scripts/check.sh

test:
	go test ./...

# Static analysis alone — check runs this too (via scripts/check.sh), but a
# standalone target keeps the concurrency-heavy bus/scheduler code lintable
# without paying for the full gate.
vet:
	go vet ./...

bench:
	go test -run '^$$' -bench . -benchtime=1x -benchmem .

# Profile the quick-scale figure suite: writes cpu.pprof and mem.pprof for
# `go tool pprof`, so hot-loop work starts from a profile instead of a guess.
profile:
	go run ./cmd/noreba-bench -quick -cpuprofile cpu.pprof -memprofile mem.pprof >/dev/null
	@echo "wrote cpu.pprof and mem.pprof; inspect with: go tool pprof cpu.pprof"

# One-shot hot-loop report: profile the quick-scale suite at GOMAXPROCS=1
# (single-threaded flat time is what the EXPERIMENTS.md tables use) and print
# the pprof top-25 so a perf PR's before/after numbers are one command away.
profile-top:
	go build -o noreba-bench.profiling ./cmd/noreba-bench
	GOMAXPROCS=1 ./noreba-bench.profiling -quick -cpuprofile cpu.pprof >/dev/null
	go tool pprof -top -nodecount=25 cpu.pprof
	@rm -f noreba-bench.profiling

# Coverage for the gated packages (the floor itself is enforced by check;
# keep this list identical to the one in scripts/check.sh).
cover:
	go test -cover ./internal/pipeline ./internal/compiler ./internal/service ./internal/sampling ./internal/workgen ./internal/tracefile

# Simulation-service end-to-end smoke: build the server binary, then run the
# load test (concurrent clients, dedup, warm-store restart) under -race.
serve-smoke:
	go build -o /dev/null ./cmd/noreba-serve
	go test -race -v -run 'TestServiceLoadSmoke' ./internal/service

# Multi-process cluster smoke: 3 noreba-serve replicas with sharded stores,
# batch sweep, SIGTERM drain, warm restart, and a mid-sweep replica kill.
cluster-smoke:
	sh scripts/cluster_smoke.sh

# Short fuzz campaigns for the native targets, from an empty fuzz cache so
# each budget fuzzes instead of replaying earlier runs' inputs.
fuzz:
	go clean -fuzzcache
	go test ./internal/isa -run '^$$' -fuzz 'FuzzEncodeDecodeRoundTrip$$' -fuzztime 10s -fuzzminimizetime 1s
	go test ./internal/compiler -run '^$$' -fuzz 'FuzzCompilerPass$$' -fuzztime 10s -fuzzminimizetime 1s
	go test ./internal/emulator -run '^$$' -fuzz 'FuzzBroadcastSkew$$' -fuzztime 10s -fuzzminimizetime 1s
	go test ./internal/workgen -run '^$$' -fuzz 'FuzzGeneratedDifferential$$' -fuzztime 10s -fuzzminimizetime 1s
	go test ./internal/tracefile -run '^$$' -fuzz 'FuzzTraceRoundTrip$$' -fuzztime 10s -fuzzminimizetime 1s
	go test ./internal/sampling -run '^$$' -fuzz 'FuzzPlanFile$$' -fuzztime 10s -fuzzminimizetime 1s
