#!/bin/sh
# coverage.sh — the CI coverage gate with a ratcheted floor.
#
# Runs the full test suite with cross-package statement coverage and
# fails when the total drops below the floor recorded in
# scripts/coverage_floor.txt. The floor only moves UP: when a PR raises
# coverage meaningfully, raise the floor in the same PR (leave a few
# points of headroom — the total moves slightly as code is added) so the
# gain cannot silently erode later. Never lower it to make a PR pass;
# that is the one thing the ratchet exists to prevent.
#
# Usage: scripts/coverage.sh [outfile]   (default coverage.out)
set -eu
cd "$(dirname "$0")/.."
out=${1:-coverage.out}
floor=$(cat scripts/coverage_floor.txt)

# An explicit timeout: a hung test fails in minutes with a goroutine dump.
go test -count=1 -timeout 8m -coverprofile="$out" -coverpkg=./... ./...

total=$(go tool cover -func="$out" | awk '/^total:/ { sub(/%/, "", $3); print $3 }')
echo "total statement coverage: ${total}% (floor: ${floor}%)"
if ! awk -v t="$total" -v f="$floor" 'BEGIN { exit !(t+0 >= f+0) }'; then
    echo "coverage.sh: ${total}% is below the ratcheted floor of ${floor}%" >&2
    echo "coverage.sh: add tests for what this change left uncovered (go tool cover -html=$out shows where)" >&2
    exit 1
fi
