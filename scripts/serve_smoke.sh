#!/usr/bin/env bash
# Serve smoke test (DESIGN.md §15).
#
# A served answer must be byte-identical to `smtsim run --json` for
# the same config — including when the server is killed with `kill -9`
# (no drain, no fsync) and a fresh server replays the answer from the
# surviving cache journal. This is the cross-process half of the
# robustness suite: no in-process test can kill the real binary.
#
# Usage: scripts/serve_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=target/release/smtsim
if [[ ! -x "$BIN" ]]; then
    cargo build --release --offline -q -p mflush --bin smtsim
fi

TMP=$(mktemp -d "${TMPDIR:-/tmp}/smtsim-serve-smoke.XXXXXX")
S1=""
S2=""
cleanup() {
    [[ -n "$S1" ]] && kill -9 "$S1" 2>/dev/null || true
    [[ -n "$S2" ]] && kill -9 "$S2" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

BODY='{"workload":"2W2","policy":"mflush","cycles":30000}'
BENCH_BODY='{"benchmarks":["mcf","gzip","swim","crafty"],"policy":"flush-s30","cycles":20000,"seed":7}'
SLOW_BODY='{"workload":"2W2","policy":"icount","cycles":2000000}'

# The address a `serve --addr 127.0.0.1:0` instance actually bound.
bound_addr() {
    local log=$1 addr=""
    for _ in $(seq 1 200); do
        addr=$(grep -m1 -oE 'listening on [0-9.:]+' "$log" | awk '{print $3}' || true)
        [[ -n "$addr" ]] && break
        sleep 0.05
    done
    [[ -n "$addr" ]] || { echo "server never announced its address" >&2; exit 1; }
    echo "$addr"
}

# Goldens: what the CLI answers for the same configs, no server
# involved — one per way of naming the machine (workload or benchmarks).
"$BIN" run --workload 2W2 --policy mflush --cycles 30000 --json > "$TMP/golden.json"
"$BIN" run --benchmarks mcf,gzip,swim,crafty --policy flush-s30 --cycles 20000 --seed 7 \
    --json > "$TMP/golden_bench.json"

# Server 1: answer once (populating the cache journal), then die hard
# mid-way through a second, long-running job.
"$BIN" serve --addr 127.0.0.1:0 --cache "$TMP/cache" > "$TMP/server1.log" 2>&1 &
S1=$!
disown "$S1"
ADDR=$(bound_addr "$TMP/server1.log")

"$BIN" request --addr "$ADDR" --body "$BODY" > "$TMP/first.json"
cmp "$TMP/golden.json" "$TMP/first.json"
echo "serve smoke: fresh served answer matches smtsim run --json"

"$BIN" request --addr "$ADDR" --body "$BENCH_BODY" > "$TMP/bench.json"
cmp "$TMP/golden_bench.json" "$TMP/bench.json"
echo "serve smoke: seeded benchmark-list answer matches smtsim run --json"

"$BIN" request --addr "$ADDR" --body "$SLOW_BODY" --timeout 60000 \
    > /dev/null 2>&1 &
REQ=$!
sleep 0.3
kill -9 "$S1" 2>/dev/null || true
wait "$S1" 2>/dev/null || true
S1=""
wait "$REQ" 2>/dev/null || true

# Server 2, same journal: the first config must replay byte-identically
# without re-simulating anything the journal already holds.
"$BIN" serve --addr 127.0.0.1:0 --cache "$TMP/cache" > "$TMP/server2.log" 2>&1 &
S2=$!
disown "$S2"
ADDR2=$(bound_addr "$TMP/server2.log")

"$BIN" request --addr "$ADDR2" --body "$BODY" > "$TMP/replayed.json"
cmp "$TMP/golden.json" "$TMP/replayed.json"
echo "serve smoke: cache replay after kill -9 is byte-identical"
