#!/usr/bin/env bash
# Runs a test command k times beside two busy loops: the check that a test
# holds on a machine whose processors are taken away from it.
#
#   scripts/loaded.sh <k> go test -count=50 -run TestFooterGolden ./internal/server/
#
# The busy loops are this script's own processes, started before the first
# run and killed when it exits, however it exits; no setting of the machine
# is changed. A failed run's output is printed, and the exit status is
# non-zero if any run failed.
set -euo pipefail

k=${1:?usage: scripts/loaded.sh <k> <command> [args...]}
shift
if [ $# -eq 0 ]; then
    echo "usage: scripts/loaded.sh <k> <command> [args...]" >&2
    exit 2
fi

busy=()
stop() {
    if [ ${#busy[@]} -gt 0 ]; then
        kill "${busy[@]}" 2>/dev/null || true
    fi
}
trap stop EXIT
trap 'exit 130' INT TERM
for _ in 1 2; do
    (while :; do :; done) &
    busy+=($!)
done

failed=0
for i in $(seq 1 "$k"); do
    if ! out=$("$@" 2>&1); then
        failed=$((failed + 1))
        echo "run $i of $k failed:" >&2
        printf '%s\n' "$out" >&2
    fi
done
echo "$((k - failed)) of $k runs passed beside two busy loops" >&2
[ "$failed" -eq 0 ]
