#!/usr/bin/env bash
# Kill-resume smoke test (DESIGN.md §11).
#
# A journaled sweep killed mid-flight (`kill -9`, no cleanup) must
# resume to final output byte-identical to an uninterrupted run: the
# journal replays recorded jobs, the rest run fresh, and because every
# raw field in the JSON output is an integer/bool/string, replayed and
# fresh results cannot diverge in formatting. Between the kill and the
# resume one digit of a recorded result is flipped, as a bad disk
# would: the resume must re-simulate that job, never replay it.
#
# Usage: scripts/kill_resume_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=target/release/smtsim
if [[ ! -x "$BIN" ]]; then
    cargo build --release --offline -q -p mflush --bin smtsim
fi

WORKLOAD=4W1
CYCLES=40000
TMP=$(mktemp -d "${TMPDIR:-/tmp}/smtsim-kill-resume.XXXXXX")
trap 'rm -rf "$TMP"' EXIT

# Golden: one uninterrupted, journal-free sweep.
"$BIN" sweep --workload "$WORKLOAD" --cycles "$CYCLES" --json > "$TMP/golden.json"

# Victim: the same sweep with a journal, killed without cleanup as soon
# as the journal records its first completed job.
"$BIN" sweep --workload "$WORKLOAD" --cycles "$CYCLES" \
    --journal "$TMP/sweep.jsonl" --json > "$TMP/victim.json" &
VICTIM=$!
for _ in $(seq 1 200); do
    [[ -s "$TMP/sweep.jsonl" ]] && break
    sleep 0.05
done
kill -9 "$VICTIM" 2>/dev/null || true
wait "$VICTIM" 2>/dev/null || true

LINES=$(wc -l < "$TMP/sweep.jsonl" 2>/dev/null || echo 0)
echo "journal held $LINES job line(s) at kill time"

# Bit-flip: bump the first `committed` count of the first recorded
# result (9 becomes 1, so the number stays valid). The JSON still
# parses and the field still decodes, so only the line's checksum can
# tell the entry is damaged. Were it replayed, the resumed output would
# carry the wrong count and the final cmp would fail. Every later byte,
# a torn tail included, is kept as the kill left it.
head -n 1 "$TMP/sweep.jsonl" | awk 'match($0, /"committed":[0-9]/) {
    pos = RSTART + RLENGTH - 1
    d = substr($0, pos, 1)
    $0 = substr($0, 1, pos - 1) (d == "9" ? 1 : d + 1) substr($0, pos + 1)
} { print }' > "$TMP/flipped.jsonl"
tail -n +2 "$TMP/sweep.jsonl" >> "$TMP/flipped.jsonl"
if [[ "$LINES" -lt 1 ]] || cmp -s "$TMP/sweep.jsonl" "$TMP/flipped.jsonl"; then
    echo "kill-resume smoke: no recorded result to flip" >&2
    exit 1
fi
mv "$TMP/flipped.jsonl" "$TMP/sweep.jsonl"

# Resume: recorded jobs replay from the journal; the rest run fresh.
"$BIN" sweep --workload "$WORKLOAD" --cycles "$CYCLES" \
    --journal "$TMP/sweep.jsonl" --json > "$TMP/resumed.json"

cmp "$TMP/golden.json" "$TMP/resumed.json"
echo "kill-resume smoke: resumed sweep output is byte-identical"
