#!/usr/bin/env bash
# progcover.sh — the functions no program run executes.
#
# Builds htiersim, htiersimd, tracegen and the three examples with coverage
# instrumentation over the whole module, repeats the runs a user makes of
# them, and prints every function those runs never entered (0.0%). The runs:
# every paper experiment at tiny scale; one run per registered policy and
# per tracker; a sweep; recording a trace, converting it to v2 with
# tracegen, inspecting and replaying both; a tracegen dump; the three
# examples; and a coordinator plus one worker daemon serving -submit
# sweeps, one of them a trace upload, until SIGTERM drains them.
#
# A function on the list is reached only by tests, or by nothing: a
# candidate for deletion, or for a program run this script lacks. The list
# is information, not a gate; the script fails only when a run fails.
#
# Usage: scripts/progcover.sh [workdir]   (default: a temp dir, removed at exit)
set -euo pipefail
cd "$(dirname "$0")/.."

work=${1:-}
if [ -z "$work" ]; then
	work=$(mktemp -d)
	trap 'rm -rf "$work"' EXIT
fi
bin=$work/bin
mkdir -p "$bin" "$work/cov" "$work/run"
export GOCOVERDIR=$work/cov

for p in cmd/htiersim cmd/htiersimd cmd/tracegen examples/quickstart examples/cachelib examples/graphtier; do
	go build -cover -coverpkg=./... -o "$bin/$(basename "$p")" "./$p"
done

sim() { "$bin/htiersim" "$@" >/dev/null; }
run=$work/run

sim -scale tiny -experiment all
# The -list sections hold one entry per line, its name first.
section() { "$bin/htiersim" -list | awk -v s="$1:" '/^[a-z]/ { on = ($1 == s) } on && /^  / { print $1 }'; }
for p in $(section policies); do
	sim -workload cdn -scale tiny -ops 30000 -policy "$p"
done
for k in $(section trackers); do
	sim -workload cdn -scale tiny -ops 300000 -policy HybridTier -tracker "$k"
done
sim -workload zipf -scale tiny -ops 50000 -policy HybridTier,Memtis,TPP -ratio 8,16 -seed 1,2 -json

sim -workload 'mix:0.7*zipf,0.3*silo' -scale tiny -ops 20000 -record "$run/cap.htrc" -json
"$bin/tracegen" -convert "$run/cap.htrc" -o "$run/cap.v2.htrc" -format bin2 >/dev/null
for f in "$run/cap.htrc" "$run/cap.v2.htrc"; do
	sim -trace-info "$f"
	sim -replay "$f" -json
done
"$bin/tracegen" -workload pr-kron -ops 2000 -format csv -o "$run/pr.csv" >/dev/null

for e in quickstart cachelib graphtier; do
	"$bin/$e" >/dev/null
done

# A daemon prints its bound address on its "serving on" log line.
addr() {
	for _ in $(seq 100); do
		a=$(sed -n 's/.*serving on \([^ ]*\).*/\1/p' "$1")
		if [ -n "$a" ]; then
			echo "$a"
			return
		fi
		sleep 0.1
	done
	echo "progcover.sh: no daemon address in $1" >&2
	return 1
}
"$bin/htiersimd" -addr 127.0.0.1:0 -cache-dir "$run/coord" -corpus-dir "$run/corpus" 2>"$run/coord.log" &
coord=$!
url=http://$(addr "$run/coord.log")
"$bin/htiersimd" -worker -join "$url" -addr 127.0.0.1:0 -cache-dir "$run/worker" 2>"$run/worker.log" &
worker=$!
addr "$run/worker.log" >/dev/null
sim -submit "$url" -workload zipf -policy HybridTier,Memtis -scale tiny -ops 20000 -json
sim -submit "$url" -workload zipf -policy HybridTier,Memtis -scale tiny -ops 20000
sim -submit "$url" -workload "trace:$run/cap.htrc" -json
kill -TERM "$worker" "$coord"
wait "$worker" "$coord"

# A function with an empty one-line body ({}) has no statement to enter.
go tool covdata func -i="$work/cov" | awk '$NF == "0.0%" {
	split($1, at, ":"); file = at[1]; sub(/^repro\//, "", file)
	for (i = 1; i <= at[2] && (getline src < file) > 0; i++) {}
	close(file)
	if (src !~ /\{ *\}$/) print
}' | tee "$work/unrun.txt"
echo "progcover.sh: $(wc -l <"$work/unrun.txt") functions no program run entered" >&2
