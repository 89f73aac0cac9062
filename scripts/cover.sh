#!/bin/sh
# cover.sh — statement coverage of the gated packages, failing if any drops
# below the floor. Run by scripts/check.sh and `make cover`; this is the one
# list of gated packages.
#
# The cycle model, the compiler pass, the service layer, the sampling
# planner, the program generator and the trace codec are where a silent
# regression costs the most, so they carry a hard floor.
set -eu

cd "$(dirname "$0")/.."

COVER_FLOOR=75

for pkg in ./internal/pipeline ./internal/compiler ./internal/service ./internal/sampling ./internal/workgen ./internal/tracefile; do
	pct=$(go test -cover "$pkg" | awk '/coverage:/ { sub("%", "", $(NF-2)); print $(NF-2) }')
	if [ -z "$pct" ]; then
		echo "cover: no coverage reported for $pkg" >&2
		exit 1
	fi
	if awk "BEGIN { exit !($pct < $COVER_FLOOR) }"; then
		echo "cover: $pkg coverage $pct% below floor $COVER_FLOOR%" >&2
		exit 1
	fi
	echo "coverage $pkg: $pct% (floor $COVER_FLOOR%)"
done
