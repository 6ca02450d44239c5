#!/usr/bin/env bash
# Validity table for a reduced-fidelity model: per Fig-1 workload,
# detailed vs reduced throughput for the four Fig. 8 policies, and
# whether the reduced model keeps detailed's pairwise policy ranking.
# Prints the markdown table and summary kept in EXPERIMENTS.md
# ("Fidelity validity").
#
# Usage: scripts/fidelity_table.sh [FIDELITY] [CYCLES] [SMTSIM]
#   FIDELITY  --fidelity value of the reduced model (default mem=fast)
#   CYCLES    cycles per run (default 150000)
#   SMTSIM    smtsim binary (default target/release/smtsim; build it
#             first with `cargo build --release --offline`)
set -euo pipefail
cd "$(dirname "$0")/.."

fidelity=${1:-mem=fast}
cycles=${2:-150000}
smtsim=${3:-target/release/smtsim}
# Two policies count as separated when detailed's throughputs differ
# by more than this fraction of the smaller one.
gap=0.02

# One line per (workload, policy): "wl policy detailed reduced".
rows() {
    for wl in $("$smtsim" workloads | awk '$1 ~ /^[0-9]+W[0-9]+$/ { print $1 }'); do
        paste -d, \
            <("$smtsim" sweep --workload "$wl" --cycles "$cycles" --csv) \
            <("$smtsim" sweep --workload "$wl" --cycles "$cycles" --csv --fidelity "$fidelity") |
            awk -F, -v wl="$wl" '$2 ~ /^(ICOUNT|FLUSH-S30|FLUSH-S100|MFLUSH)$/ { print wl, $2, $5, $14 }'
    done
}

rows | awk -v fid="$fidelity" -v cycles="$cycles" -v gap="$gap" '
function sgn(x) { return x > 0 ? 1 : (x < 0 ? -1 : 0) }
function abs(x) { return x < 0 ? -x : x }
{
    if (!($1 in seen)) { seen[$1] = 1; order[++nw] = $1 }
    n = ++np[$1]; pol[$1, n] = $2; det[$1, n] = $3; red[$1, n] = $4
}
END {
    printf "%s vs detailed, %d cycles, default seed. Cells are detailed / reduced throughput (IPC).\n\n", fid, cycles
    printf "| wl | ICOUNT | FLUSH-S30 | FLUSH-S100 | MFLUSH | pairs agreeing (all) | (separated >%d%%) | Kendall tau | same best |\n", gap * 100
    printf "|----|--:|--:|--:|--:|--:|--:|--:|:-:|\n"
    for (w = 1; w <= nw; w++) {
        wl = order[w]; line = "| " wl
        bd = 1; br = 1; agree = 0; pairs = 0; sa = 0; sp = 0; conc = 0
        for (i = 1; i <= np[wl]; i++) {
            line = line sprintf(" | %.3f / %.3f", det[wl, i], red[wl, i])
            err += abs(red[wl, i] - det[wl, i]) / det[wl, i]; nerr++
            if (det[wl, i] > det[wl, bd]) bd = i
            if (red[wl, i] > red[wl, br]) br = i
            for (j = i + 1; j <= np[wl]; j++) {
                dd = det[wl, i] - det[wl, j]; dr = red[wl, i] - red[wl, j]
                same = sgn(dd) == sgn(dr)
                pairs++; agree += same; conc += sgn(dd) * sgn(dr)
                lo = det[wl, i] < det[wl, j] ? det[wl, i] : det[wl, j]
                if (abs(dd) > gap * lo) { sp++; sa += same }
                if (!same && abs(dd) / lo > worst) worst = abs(dd) / lo
            }
        }
        tot_a += agree; tot_p += pairs; tot_sa += sa; tot_sp += sp; best += bd == br
        tau += conc / pairs
        printf "%s | %d/%d | %d/%d | %+.2f | %s |\n", line, agree, pairs, sa, sp, conc / pairs, bd == br ? "yes" : "no"
    }
    printf "\nSummary: %d/%d pairs agree; %d/%d of the pairs detailed separates by >%d%%; ", tot_a, tot_p, tot_sa, tot_sp, gap * 100
    printf "largest detailed gap of a disagreeing pair %.1f%%; ", worst * 100
    printf "same best policy on %d/%d workloads; mean Kendall tau %+.2f; ", best, nw, tau / nw
    printf "mean |IPC error| %.1f%%.\n", 100 * err / nerr
}'
