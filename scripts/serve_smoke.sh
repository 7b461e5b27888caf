#!/usr/bin/env bash
# Smoke test for `dbs3 serve`: build the binary, dump the Wisconsin relation
# as typed CSV, serve it back over HTTP, and drive a scripted curl session —
# ad-hoc placeholder query, prepare/exec/exec/close, stats. Fails on any
# non-zero exit, a missing stream message, or an empty result.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR=127.0.0.1:18080
workdir=$(mktemp -d)
server_pid=""
trap '[ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null; rm -rf "$workdir"' EXIT

go build -o "$workdir/dbs3" ./cmd/dbs3

# The Wisconsin CSVs the server loads.
"$workdir/dbs3" dump -rel wisc -wisc 5000 -degree 8 -o "$workdir/wisc.csv"
test -s "$workdir/wisc.csv"

"$workdir/dbs3" serve -addr "$ADDR" -demo=false \
  -csv "$workdir/wisc.csv" -csvkey unique2 -degree 8 -budget 4 &
server_pid=$!

for _ in $(seq 1 50); do
  curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done
curl -fsS "http://$ADDR/healthz" >/dev/null

# Ad-hoc query with a `?` placeholder: the NDJSON stream must carry a
# header, at least one row chunk, and a done footer with the right count.
out=$(curl -fsS -X POST "http://$ADDR/query" \
  -d '{"sql":"SELECT unique2 FROM wisc WHERE unique1 < ?","args":[25]}')
echo "$out" | grep -q '"header"' || { echo "missing header: $out"; exit 1; }
echo "$out" | grep -q '"rows"' || { echo "missing (empty?) rows: $out"; exit 1; }
echo "$out" | grep -q '"done":{"rowCount":25,' || { echo "bad footer: $out"; exit 1; }
# The done line carries what the manager decided when it admitted the query.
echo "$out" | tail -n 1 | grep -q '"admission":{' || { echo "footer has no admission record: $out"; exit 1; }

# Compile once, execute twice with different bindings.
stmt=$(curl -fsS -X POST "http://$ADDR/prepare" \
  -d '{"sql":"SELECT two, COUNT(*) FROM wisc WHERE unique1 < ? GROUP BY two"}')
id=$(echo "$stmt" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$id" ] || { echo "prepare returned no id: $stmt"; exit 1; }
curl -fsS -X POST "http://$ADDR/stmt/$id/exec" -d '{"args":[100]}' \
  | grep -q '"done"' || { echo "exec 1 did not complete"; exit 1; }
curl -fsS -X POST "http://$ADDR/stmt/$id/exec" -d '{"args":[2000]}' \
  | grep -q '"done":{"rowCount":2,' || { echo "exec 2 bad result"; exit 1; }
curl -fsS -X DELETE "http://$ADDR/stmt/$id" -o /dev/null

# The ledger balances: 3 completed queries, nothing failed, stuck or shed.
stats=$(curl -fsS "http://$ADDR/stats")
for want in '"completed":3' '"failed":0' '"activeThreads":0' '"rejected":0'; do
  echo "$stats" | grep -q "$want" || { echo "stats missing $want: $stats"; exit 1; }
done

kill "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""
echo "serve smoke OK"
