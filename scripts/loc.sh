#!/usr/bin/env bash
# loc.sh [<git-ref>]
#
# Non-test source lines (.go and .s) per package of internal/, cmd/,
# scripts/ (its Go tools, testdata excluded) and the root: raw, and code
# (non-blank, not starting with //). With a ref, the same
# count at that ref beside the working tree's, and the delta of each.
# Every PR reports this (ROADMAP aim 2): scripts/loc.sh HEAD~1
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
ref="${1:-}"
count() { # <ref or ""> -> "package raw code", one line per package
    if [ -n "$1" ]; then git ls-tree -r --name-only "$1"; else git ls-files -co --exclude-standard; fi |
        grep -E '^((internal|cmd|scripts)/.+/)?[^/]+\.(go|s)$' | grep -v -e '_test\.go$' -e '/testdata/' | sort -u |
        while read -r f; do
            if [ -n "$1" ]; then git show "$1:$f"; elif [ -f "$f" ]; then cat "$f"; fi |
                awk -v pkg="$(dirname "$f")" '{ raw++ } !/^[ \t]*($|\/\/)/ { code++ } END { print pkg, raw + 0, code + 0 }'
        done | awk '{ raw[$1] += $2; code[$1] += $3 } END { for (p in raw) print p, raw[p], code[p] }' | sort
}
if [ -z "$ref" ]; then
    count "" | awk '
        BEGIN { printf "%-26s %7s %7s\n", "package", "raw", "code" }
        { printf "%-26s %7d %7d\n", $1, $2, $3; raw += $2; code += $3 }
        END { printf "%-26s %7d %7d\n", "total", raw, code }'
else
    join -a1 -a2 -e0 -o 0,1.2,1.3,2.2,2.3 <(count "$ref") <(count "") | awk -v ref="$ref" '
        function row(p, r0, c0, r1, c1) { printf "%-26s %7d %7d %7d %7d %+7d %+7d\n", p, r0, c0, r1, c1, r1 - r0, c1 - c0 }
        BEGIN { printf "%-26s %7s %7s %7s %7s %7s %7s\n", "package", "raw@" ref, "code@" ref, "raw", "code", "d.raw", "d.code" }
        { row($1, $2, $3, $4, $5); r0 += $2; c0 += $3; r1 += $4; c1 += $5 }
        END { row("total", r0, c0, r1, c1) }'
fi
