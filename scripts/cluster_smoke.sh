#!/bin/sh
# cluster_smoke.sh — multi-process cluster end-to-end smoke, also runnable
# as `make cluster-smoke`.
#
# Brings up a real 3-replica noreba-serve fleet (separate processes, shards
# on disk, static -peers lists) and checks the PR's acceptance properties
# from the outside:
#
#   1. a 24-point, 2-workload sweep streams 24 rows with no errors and the
#      fleet runs exactly one functional emulation per workload;
#   2. a sampled 2-point sweep builds exactly one sampling plan fleet-wide;
#   3. both sweeps' rows are byte-identical to a single-process server's;
#   4. SIGTERM drains every replica cleanly (exit 0, "drained cleanly");
#   5. restarted on the same shards, a repeat sweep is served entirely from
#      the sharded store — zero emulations, shard hit-ratio > 0 — and is
#      byte-identical to the cold run, and the sampled grid on another core
#      (results not stored yet) reuses the stored plan instead of building
#      one;
#   6. with one replica killed mid-sweep, the sweep still settles all rows
#      (degraded local execution).
set -eu

cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
PIDS=""
cleanup() {
	for pid in $PIDS; do
		kill "$pid" 2>/dev/null || true
	done
	wait 2>/dev/null || true
	rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

fail() {
	echo "cluster-smoke: FAIL: $*" >&2
	for log in "$WORK"/replica-*.log; do
		[ -f "$log" ] || continue
		echo "---- $log ----" >&2
		tail -20 "$log" >&2
	done
	exit 1
}

echo "cluster-smoke: building noreba-serve"
go build -o "$WORK/noreba-serve" ./cmd/noreba-serve

set -- $(go run scripts/freeport.go 4)
P1=$1 P2=$2 P3=$3 P4=$4
U1="http://127.0.0.1:$P1" U2="http://127.0.0.1:$P2" U3="http://127.0.0.1:$P3"

# start_replica <index> <port> <peer-urls-csv>
start_replica() {
	"$WORK/noreba-serve" -addr "127.0.0.1:$2" -node "http://127.0.0.1:$2" \
		-peers "$3" -store "$WORK/shard-$1" -max-insts 4096 -scale-div 8 \
		-workers 2 -peer-timeout 2s -drain-timeout 20s \
		>"$WORK/replica-$1.log" 2>&1 &
	eval "PID$1=$!"
	PIDS="$PIDS $!"
}

wait_healthy() {
	for i in $(seq 1 100); do
		if curl -fsS "$1/healthz" >/dev/null 2>&1; then
			return 0
		fi
		sleep 0.1
	done
	fail "replica at $1 never became healthy"
}

GRID='{"workloads":["mcf","sha"],"cores":["skl","hsw"],"policies":["inorder","nonspec","noreba"],"windows":[128,224],"timeoutSec":300}'
# sgrid <core>: a sampled 2-point grid; one sampling plan serves both points
# on every core.
sgrid() {
	echo '{"workloads":["mcf"],"cores":["'"$1"'"],"policies":["inorder","noreba"],"sample":true,"timeoutSec":300}'
}

# sweep <base-url> <out-file> [<grid> <points>] (default: $GRID, 24 points)
sweep() {
	curl -fsSN -X POST "$1/sweep" -H 'Content-Type: application/json' \
		-d "${3:-$GRID}" >"$2" || fail "sweep against $1 failed"
	rows=$(grep -c '"type":"row"' "$2") || true
	[ "$rows" = "${4:-24}" ] || fail "sweep at $1 settled $rows rows, want ${4:-24}"
	grep -q '"type":"done"' "$2" || fail "sweep at $1 ended without done line"
	grep '"type":"done"' "$2" | grep -q '"errors":0' || fail "sweep at $1 reported row errors"
}

# rows <stream-file>: the row lines in index order, for byte comparison.
rows() {
	grep '"type":"row"' "$1" | sort
}

# metric <base-url> <name>: one integer counter from the (indented)
# /metrics JSON.
metric() {
	curl -fsS "$1/metrics" | grep -o "\"$2\": *[0-9]*" | head -1 | grep -o '[0-9]*$'
}

# fleet_metric <name>: the counter summed over replicas 1-3.
fleet_metric() {
	sum=0
	for u in "$U1" "$U2" "$U3"; do
		sum=$((sum + $(metric "$u" "$1")))
	done
	echo "$sum"
}

# same_rows <a> <b> <what>: fail unless two streams' rows are byte-identical.
same_rows() {
	rows "$1" >"$1.rows"
	rows "$2" >"$2.rows"
	cmp -s "$1.rows" "$2.rows" || {
		diff "$1.rows" "$2.rows" | head -5 >&2
		fail "$3"
	}
}

echo "cluster-smoke: starting 3-replica cluster on ports $P1 $P2 $P3"
start_replica 1 "$P1" "$U2,$U3"
start_replica 2 "$P2" "$U1,$U3"
start_replica 3 "$P3" "$U1,$U2"
wait_healthy "$U1"; wait_healthy "$U2"; wait_healthy "$U3"

echo "cluster-smoke: cold 24-point sweep through replica 1"
sweep "$U1" "$WORK/cold.jsonl"

emus=$(fleet_metric emulationsRun)
[ "$emus" = 2 ] || fail "fleet ran $emus emulations for 2 workloads, want 2"
echo "cluster-smoke: fleet emulations = 2 (one per workload)"

echo "cluster-smoke: cold sampled sweep through replica 1"
sweep "$U1" "$WORK/scold.jsonl" "$(sgrid skl)" 2
plans=$(fleet_metric plansBuilt)
[ "$plans" = 1 ] || fail "fleet built $plans sampling plans for 1 workload, want 1"
echo "cluster-smoke: fleet plans built = 1"

echo "cluster-smoke: single-process sweeps for byte comparison"
start_replica 4 "$P4" ""
wait_healthy "http://127.0.0.1:$P4"
sweep "http://127.0.0.1:$P4" "$WORK/solo.jsonl"
sweep "http://127.0.0.1:$P4" "$WORK/ssolo.jsonl" "$(sgrid skl)" 2
same_rows "$WORK/cold.jsonl" "$WORK/solo.jsonl" "cluster rows differ from single-process rows"
same_rows "$WORK/scold.jsonl" "$WORK/ssolo.jsonl" "cluster sampled rows differ from single-process rows"
echo "cluster-smoke: cluster sweeps are byte-identical to single-process"

echo "cluster-smoke: SIGTERM drain of all replicas"
for i in 1 2 3 4; do
	eval "kill -TERM \$PID$i"
done
for i in 1 2 3 4; do
	eval "pid=\$PID$i"
	wait "$pid" || fail "replica $i exited non-zero after SIGTERM"
	grep -q "drained cleanly" "$WORK/replica-$i.log" || fail "replica $i did not drain cleanly"
done
PIDS=""
echo "cluster-smoke: all replicas drained cleanly on SIGTERM"

echo "cluster-smoke: restarting the cluster on the same shards"
start_replica 1 "$P1" "$U2,$U3"
start_replica 2 "$P2" "$U1,$U3"
start_replica 3 "$P3" "$U1,$U2"
wait_healthy "$U1"; wait_healthy "$U2"; wait_healthy "$U3"

echo "cluster-smoke: warm sweep through replica 2"
sweep "$U2" "$WORK/warm.jsonl"
same_rows "$WORK/warm.jsonl" "$WORK/cold.jsonl" "warm rows differ from cold rows"

emus=$(fleet_metric emulationsRun)
hits=$(($(fleet_metric shardHits) + $(fleet_metric peerHits)))
[ "$emus" = 0 ] || fail "warm sweep ran $emus emulations, want 0"
[ "$hits" -gt 0 ] || fail "warm sweep hit no shard (shardHits+peerHits = 0)"
echo "cluster-smoke: warm sweep served from shards (hits=$hits, emulations=0)"

echo "cluster-smoke: warm sampled sweep on hsw through replica 2"
sweep "$U2" "$WORK/swarm.jsonl" "$(sgrid hsw)" 2
plans=$(fleet_metric plansBuilt)
planhits=$(fleet_metric planStoreHits)
[ "$plans" = 0 ] || fail "warm sampled sweep built $plans plans, want 0"
[ "$planhits" -gt 0 ] || fail "warm sampled sweep loaded no stored plan (planStoreHits = 0)"
echo "cluster-smoke: warm sampled sweep reused the stored plan (planStoreHits=$planhits, plansBuilt=0)"

echo "cluster-smoke: killing replica 3 mid-sweep"
rm -rf "$WORK/shard-1" "$WORK/shard-2"  # force real re-simulation on survivors
for i in 1 2; do
	eval "kill -TERM \$PID$i"
	eval "wait \$PID$i" || true
done
start_replica 1 "$P1" "$U2,$U3"
start_replica 2 "$P2" "$U1,$U3"
wait_healthy "$U1"; wait_healthy "$U2"
curl -fsSN -X POST "$U1/sweep" -H 'Content-Type: application/json' \
	-d "$GRID" >"$WORK/degraded.jsonl" &
CURL=$!
sleep 0.15
eval "kill -9 \$PID3"
wait "$CURL" || fail "degraded sweep connection failed"
rows_degraded=$(grep -c '"type":"row"' "$WORK/degraded.jsonl") || true
[ "$rows_degraded" = 24 ] || fail "degraded sweep settled $rows_degraded rows, want 24"
grep '"type":"done"' "$WORK/degraded.jsonl" | grep -q '"errors":0' || fail "degraded sweep reported row errors"
same_rows "$WORK/degraded.jsonl" "$WORK/cold.jsonl" "degraded rows differ from cold rows"
echo "cluster-smoke: sweep survived a killed replica with identical rows"

echo "cluster-smoke: OK"
