#!/bin/sh
# pgo.sh — capture a CPU profile from a live htiersimd daemon under a
# representative sweep load and install it as cmd/htiersimd/default.pgo,
# the profile `go build ./...` picks up automatically (-pgo=auto is the
# Go toolchain default, keyed on default.pgo in the main package
# directory). docs/PERFORMANCE.md describes the methodology, records the
# measured effect of the checked-in profile, and says when to re-run this
# script (any edit to sim.Run or a policy hot path).
#
#   ./scripts/pgo.sh                 # 30 s capture on port 18923
#   PGO_SECONDS=60 ./scripts/pgo.sh  # longer capture window
#   PGO_PORT=9999 ./scripts/pgo.sh   # alternate port
#
# The load is the sweep grid the repo's benchmarks and the paper's figures
# lean on: Zipf, silo (B+tree), and a mix composition, each across the
# HybridTier/Memtis/TPP policy set, with fresh seeds per round so the
# daemon's result cache cannot short-circuit the work.
set -eu
cd "$(dirname "$0")/.."

port="${PGO_PORT:-18923}"
seconds="${PGO_SECONDS:-30}"
out="cmd/htiersimd/default.pgo"

bin=$(mktemp -d)
trap 'rm -rf "$bin"; [ -n "${daemon:-}" ] && kill "$daemon" 2>/dev/null || true' EXIT

echo "pgo.sh: building instrumented binaries" >&2
go build -o "$bin/htiersimd" ./cmd/htiersimd
go build -o "$bin/htiersim" ./cmd/htiersim

"$bin/htiersimd" -addr "127.0.0.1:$port" -pprof -jobs 2 2>"$bin/daemon.log" &
daemon=$!

ok=0
for _ in $(seq 1 50); do
    if curl -fsS "http://127.0.0.1:$port/healthz" >/dev/null 2>&1; then ok=1; break; fi
    sleep 0.2
done
if [ "$ok" != 1 ]; then
    echo "pgo.sh: daemon never became healthy on port $port:" >&2
    cat "$bin/daemon.log" >&2
    exit 1
fi

echo "pgo.sh: capturing $seconds s CPU profile while driving sweeps" >&2
curl -fsS -o "$bin/cpu.prof" \
    "http://127.0.0.1:$port/debug/pprof/profile?seconds=$seconds" &
capture=$!
sleep 1

# Drive representative sweeps until the capture window closes. Seeds
# advance every round so every submission computes rather than hitting
# the result cache.
seed=101
while kill -0 "$capture" 2>/dev/null; do
    for wl in zipf silo "mix:0.7*zipf,0.3*silo"; do
        "$bin/htiersim" -submit "http://127.0.0.1:$port" \
            -workload "$wl" -policy HybridTier,Memtis,TPP \
            -seed "$seed,$((seed + 1))" -ops 300000 \
            >/dev/null 2>&1 || true
        kill -0 "$capture" 2>/dev/null || break
    done
    seed=$((seed + 2))
done
wait "$capture" || {
    echo "pgo.sh: profile capture failed" >&2
    exit 1
}

kill "$daemon" 2>/dev/null || true
wait "$daemon" 2>/dev/null || true
daemon=""

cp "$bin/cpu.prof" "$out"
echo "pgo.sh: wrote $out ($(wc -c <"$out") bytes)" >&2
echo "pgo.sh: measure it against a -pgo=off build, in alternating pairs, with:" >&2
echo "  go build -o /tmp/htiersimd.pgo ./cmd/htiersimd && go build -pgo=off -o /tmp/htiersimd.nopgo ./cmd/htiersimd" >&2
echo "  bash bench/run.sh --workload daemon_cold --trace 0 -daemon <binary>" >&2
