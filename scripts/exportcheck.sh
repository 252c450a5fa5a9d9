#!/usr/bin/env bash
# exportcheck.sh: lists each exported func, method, type and one-line const
# or var declared in a non-test .go file of internal/ or cmd/ that no
# non-test .go file of the module, bench/ or examples/ names outside its
# declaration, and exits 1 if one is not on the allow-list below (name, then
# reason). The root env2vec package is the public API and is exempt, and
# methods named after a standard interface's method are skipped. A name is
# referenced when it occurs more often than it is declared, so methods of
# one name share their uses.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
allow='tensor.Mat.RandNormal          the fixture generator of 14 test files in 10 packages; a test-helper package would only move it
pipeline.EarlyTerminationStep  with TerminationPolicy, ROADMAP item 3: Lab.RunEarlyTermination calls it on the alarm sources'
iface='String|Error|Unwrap|ServeHTTP|MarshalJSON|UnmarshalJSON|Len|Less|Swap|Push|Pop|Read|Write|Close|Handle|Enabled|WithAttrs|WithGroup'
files=$(git ls-files -co --exclude-standard '*.go' | grep -v '_test\.go$')
decls=$(for f in $(grep -E '^(internal|cmd)/' <<<"$files"); do # "pkg[.Type].Name Name"
    sed -nE -e 's/^func ([A-Z][A-Za-z0-9_]*)[[(].*/\1 \1/p' \
        -e 's/^func \([a-z_]* ?\*?([A-Za-z0-9_]+)(\[[^]]*\])?\) ([A-Z][A-Za-z0-9_]*)[[(].*/\1.\3 \3/p' \
        -e 's/^(type|const|var) ([A-Z][A-Za-z0-9_]*).*/\2 \2/p' "$f" | sed "s|^|$(basename "$(dirname "$f")").|"
done | grep -Ev "\.($iface) ($iface)$" || true)
uses=$(grep -hv '^[[:space:]]*//' $files | sed -E 's/^func \([^)]*\)//' | grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort | uniq -c)
dead=$(awk 'NR == FNR { n[$2] = $1; next } { d[$2]++; q[$1] = $2 }
    END { for (s in q) if (n[q[s]] <= d[q[s]]) print s }' <(echo "$uses") <(echo "$decls") |
    sort | grep -vxFf <(cut -d' ' -f1 <<<"$allow") || true)
[ -z "$dead" ] && exit 0
echo "exported but named only by tests (give each a caller, unexport or delete it, or allow-list it with its reason):" >&2
echo "$dead" >&2
exit 1
