#!/bin/sh
# aligncheck.sh <parent-binary> <change-binary>
#
# Go aligns functions to 32 bytes and the linker lays packages out in
# dependency order, so a change to anything linked early shifts everything
# after it. Until PR 21 the float64 tape's hot loops were Go-compiled code in
# internal/tensor, autodiff and nn, and lost or gained ~12 % when their
# address modulo 64 flipped (docs/performance.md, "A measurement trap").
# The hottest of them — every float64 product, training and scoring — now
# lives in tensor.gemm4x8f64, whose loop head sits behind PCALIGN $32
# whatever precedes it; what a phase flip still moves is the elementwise Go
# loops around it — about 3 % of training time, and nothing the closed-loop
# rate resolves (docs/performance.md, "The alignment trap, revisited", is the
# one measurement made). This compares the two binaries' symbol tables and
# reports the shared symbols of those packages whose address mod 64 differs.
# Print its verdict next to any setup_s / retrain_cycle delta: a small move
# there with shifted symbols and no float64 code in the diff is alignment,
# not a regression (and not a gain).
#
#   bash bench/run.sh ...            # builds .bench_build/e2vbench
#   scripts/aligncheck.sh /root/scratch/parent/.bench_build/e2vbench .bench_build/e2vbench
set -eu
if [ $# -ne 2 ]; then
    echo "usage: $0 <parent-binary> <change-binary>" >&2
    exit 2
fi
syms() {
    # address size type name  ->  name phase   (text symbols of the hot packages)
    # The last two hex digits of an address decide it modulo 64.
    go tool nm -size "$1" | awk '
        function hexdigit(s, i) { return index("0123456789abcdef", substr(s, i, 1)) - 1 }
        ($3 == "T" || $3 == "t") && $4 ~ /internal\/(tensor|autodiff|nn)\./ {
            n = length($1)
            printf "%s %d\n", $4, (hexdigit($1, n - 1) * 16 + hexdigit($1, n)) % 64
        }' | sort
}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
syms "$1" > "$tmp/parent"
syms "$2" > "$tmp/change"
join "$tmp/parent" "$tmp/change" > "$tmp/shared"
shared=$(wc -l < "$tmp/shared")
awk '$2 != $3 { printf "  %-72s %2d -> %2d\n", $1, $2, $3 }' "$tmp/shared" > "$tmp/moved"
moved=$(wc -l < "$tmp/moved")
if [ "$shared" -eq 0 ]; then
    echo "aligncheck: no shared internal/tensor|autodiff|nn symbols (stripped binaries?)" >&2
    exit 2
fi
if [ "$moved" -eq 0 ]; then
    echo "aligncheck: SAME PHASE — all $shared shared tensor/autodiff/nn symbols keep their address mod 64"
else
    echo "aligncheck: SHIFTED — $moved of $shared shared tensor/autodiff/nn symbols changed address mod 64:"
    head -20 "$tmp/moved"
    [ "$moved" -le 20 ] || echo "  ... and $((moved - 20)) more"
fi
