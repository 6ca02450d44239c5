#!/usr/bin/env bash
# Non-test Rust lines per crate and in total.
#
# Counts every tracked `.rs` file outside `tests/` and `fixtures/`
# directories, up to (not including) its first `#[cfg(test)]` line, or
# the whole file when it has none. Lines are grouped by crate
# (`crates/<name>`) or, for the root package, by top-level directory
# (`src`, `examples`). Informational: nothing gates on the numbers.
#
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

git ls-files -- '*.rs' | grep -Ev '(^|/)(tests|fixtures)/' | tr '\n' '\0' | xargs -0 awk '
    FNR == 1 {
        in_tests = 0
        split(FILENAME, part, "/")
        group = part[1] == "crates" ? part[1] "/" part[2] : part[1]
    }
    in_tests { next }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1; next }
    { lines[group]++; total++ }
    END {
        for (g in lines) printf "%7d  %s\n", lines[g], g | "sort -k2"
        close("sort -k2")
        printf "%7d  total\n", total
    }
'
