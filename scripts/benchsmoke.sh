#!/usr/bin/env bash
# benchsmoke.sh
#
# "The benchmark runs on this tree", as a command. bench/ is a nested module
# that tier 1 does not compile, and a PR whose tree the harness cannot build
# or run is rejected with no numbers at all: vet and short-test the harness,
# then run each workload for two seconds and require exit 0, "correct":true
# and "failed":0 on the last line it prints. Numbers from a two-second run
# mean nothing; this only proves the run.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
(cd bench && go vet . && go test -short .)
for w in fleet_json_open stream_wire_open batch_wire_closed retrain_cycle; do
    last=$(bash bench/run.sh --workload "$w" --seed 1 --seconds 2 --trace 0 2>/dev/null | tail -n 1)
    case "$last" in
        *'"correct":true'*'"failed":0'*) echo "benchsmoke: $w ok" ;;
        *) echo "benchsmoke: $w FAILED: ${last:-no output}" >&2; exit 1 ;;
    esac
done
