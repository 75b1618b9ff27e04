#!/usr/bin/env bash
# Per-crate size and public surface, as a markdown table: lines under src/
# (wc -l, tests in src/ included, tests/ and benches/ not) and the number of
# `pub fn|struct|enum|trait|type|const|static|mod|use` lines.  ROADMAP asks
# every PR to report these in CHANGES.md; CI writes the table to the job
# summary.  Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "| crate | src LOC | pub items |"
echo "|---|---:|---:|"
for dir in crates/*/; do
    crate=$(basename "$dir")
    [ -d "$dir/src" ] || continue
    loc=$(find "$dir/src" -name '*.rs' -print0 | xargs -0 cat | wc -l)
    pubs=$(find "$dir/src" -name '*.rs' -print0 |
        xargs -0 grep -hE '^\s*pub (fn|struct|enum|trait|type|const|static|mod|use) ' | wc -l)
    echo "| $crate | $loc | $pubs |"
done
