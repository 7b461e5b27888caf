#!/usr/bin/env bash
# Smoke test for the scatter-gather tier: build the binary, start three
# sharded worker nodes plus a coordinator (all behind bearer-token auth),
# and drive a scripted curl session against the coordinator — ad-hoc
# placeholder query, aggregate merge, prepare/exec/exec/close, the 401 path,
# and the cluster stats ledger. Fails on any non-zero exit, a missing stream
# message, or a wrong merged result.
set -euo pipefail
cd "$(dirname "$0")/.."

TOKEN=smoke-secret
AUTH="Authorization: Bearer $TOKEN"
COORD=127.0.0.1:18090
SHARDS=3
WISC=6000
workdir=$(mktemp -d)
pids=()
trap 'for p in "${pids[@]:-}"; do kill "$p" 2>/dev/null || true; done; rm -rf "$workdir"' EXIT

go build -o "$workdir/dbs3" ./cmd/dbs3

# Three workers, each holding one hash shard of the same demo relations.
nodes=""
for i in 0 1 2; do
  addr="127.0.0.1:1808$i"
  "$workdir/dbs3" serve -addr "$addr" -token "$TOKEN" \
    -shards "$SHARDS" -shard "$i" -wisc "$WISC" -acard 2000 -bcard 2000 -degree 8 -budget 4 &
  pids+=($!)
  nodes="$nodes${nodes:+,}http://$addr"
done

for i in 0 1 2; do
  for _ in $(seq 1 50); do
    curl -fsS -H "$AUTH" "http://127.0.0.1:1808$i/healthz" >/dev/null 2>&1 && break
    sleep 0.2
  done
  curl -fsS -H "$AUTH" "http://127.0.0.1:1808$i/healthz" >/dev/null
done

# A worker rejects tokenless requests before anything else runs.
code=$(curl -s -o /dev/null -w '%{http_code}' "http://127.0.0.1:18080/healthz")
[ "$code" = "401" ] || { echo "worker served a tokenless request ($code)"; exit 1; }

"$workdir/dbs3" coord -addr "$COORD" -nodes "$nodes" -token "$TOKEN" &
pids+=($!)
for _ in $(seq 1 50); do
  curl -fsS -H "$AUTH" "http://$COORD/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done
curl -fsS -H "$AUTH" "http://$COORD/healthz" >/dev/null

# The coordinator enforces the same token on its own front end.
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$COORD/healthz")
[ "$code" = "401" ] || { echo "coordinator served a tokenless request ($code)"; exit 1; }

# Ad-hoc placeholder query: the union of the three shards must return
# exactly the 25 selected tuples, streamed with header and footer.
out=$(curl -fsS -H "$AUTH" -X POST "http://$COORD/query" \
  -d '{"sql":"SELECT unique2 FROM wisc WHERE unique1 < ?","args":[25]}')
echo "$out" | grep -q '"header"' || { echo "missing header: $out"; exit 1; }
echo "$out" | grep -q '"rows"' || { echo "missing rows: $out"; exit 1; }
echo "$out" | grep -q '"done":{"rowCount":25,' || { echo "bad scatter union footer: $out"; exit 1; }
# The coordinator's footer nests each shard's record, operators included.
shards=$(echo "$out" | tail -n 1 | awk -F'"node":' '{ok = NF - 1; for (i = 2; i <= NF; i++) if (!index($i, "\"operators\":[")) ok = -1; print ok}')
[ "$shards" = "3" ] || { echo "union footer does not nest 3 shard records with operators: $out"; exit 1; }

# Grouped aggregate: COUNT partials from three shards merge to the global
# counts — ten groups, and the sum of the per-group counts is the full
# relation.
agg=$(curl -fsS -H "$AUTH" -X POST "http://$COORD/query" \
  -d '{"sql":"SELECT ten, COUNT(*) FROM wisc GROUP BY ten"}')
echo "$agg" | grep -q '"done":{"rowCount":10,' || { echo "bad merged aggregate: $agg"; exit 1; }
total=$(echo "$agg" | sed -n 's/.*"rows":\[\(.*\)\].*/\1/p' \
  | tr '[]' '\n' | awk -F, 'NF==2 {s+=$2} END {print s}')
[ "$total" = "$WISC" ] || { echo "merged COUNTs sum to $total, want $WISC"; exit 1; }

# Compile once at the coordinator, execute twice with different bindings.
stmt=$(curl -fsS -H "$AUTH" -X POST "http://$COORD/prepare" \
  -d '{"sql":"SELECT two, COUNT(*) FROM wisc WHERE unique1 < ? GROUP BY two"}')
id=$(echo "$stmt" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$id" ] || { echo "prepare returned no id: $stmt"; exit 1; }
curl -fsS -H "$AUTH" -X POST "http://$COORD/stmt/$id/exec" -d '{"args":[100]}' \
  | grep -q '"done"' || { echo "exec 1 did not complete"; exit 1; }
curl -fsS -H "$AUTH" -X POST "http://$COORD/stmt/$id/exec" -d '{"args":[3000]}' \
  | grep -q '"done":{"rowCount":2,' || { echo "exec 2 bad merged result"; exit 1; }
curl -fsS -H "$AUTH" -X DELETE "http://$COORD/stmt/$id" -o /dev/null

# Cluster ledger: every node healthy, queries counted, none failed.
cstats=$(curl -fsS -H "$AUTH" "http://$COORD/stats")
for want in '"healthy":3' '"failures":0' '"statements":0'; do
  echo "$cstats" | grep -q "$want" || { echo "cluster stats missing $want: $cstats"; exit 1; }
done

# Worker ledgers balance too: subqueries completed, no threads stuck.
for i in 0 1 2; do
  wstats=$(curl -fsS -H "$AUTH" "http://127.0.0.1:1808$i/stats")
  for want in '"failed":0' '"activeThreads":0' '"rejected":0'; do
    echo "$wstats" | grep -q "$want" || { echo "worker $i stats missing $want: $wstats"; exit 1; }
  done
done

# --- Replica failover: a 2-shard x 2-replica cluster keeps answering while
# one replica is killed mid-run. The kill must show up as transparent
# failovers and an opened breaker on /stats, never as a client-visible
# failure. Polling is off so the breaker opens purely from query traffic.
COORD2=127.0.0.1:18091
WISC2=3000
rnodes=""
rpids=()
for i in 0 1; do
  pair=""
  for r in 0 1; do
    addr="127.0.0.1:1808$((4 + 2*i + r))"
    "$workdir/dbs3" serve -addr "$addr" -token "$TOKEN" \
      -shards 2 -shard "$i" -wisc "$WISC2" -acard 1000 -bcard 1000 -degree 8 -budget 4 &
    pids+=($!)
    rpids+=($!)
    pair="$pair${pair:+|}http://$addr"
  done
  rnodes="$rnodes${rnodes:+,}$pair"
done
for p in 4 5 6 7; do
  for _ in $(seq 1 50); do
    curl -fsS -H "$AUTH" "http://127.0.0.1:1808$p/healthz" >/dev/null 2>&1 && break
    sleep 0.2
  done
  curl -fsS -H "$AUTH" "http://127.0.0.1:1808$p/healthz" >/dev/null
done

"$workdir/dbs3" coord -addr "$COORD2" -nodes "$rnodes" -token "$TOKEN" \
  -poll -1s -retries -1 -retry-whole-query &
pids+=($!)
for _ in $(seq 1 50); do
  curl -fsS -H "$AUTH" "http://$COORD2/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done
curl -fsS -H "$AUTH" "http://$COORD2/healthz" >/dev/null

# A healthy replicated run first…
out=$(curl -fsS -H "$AUTH" -X POST "http://$COORD2/query" \
  -d '{"sql":"SELECT unique2 FROM wisc WHERE unique1 < ?","args":[25]}')
echo "$out" | grep -q '"done":{"rowCount":25,' || { echo "replicated cluster bad result: $out"; exit 1; }

# …then kill shard 0's second replica and keep querying. Placement rotates
# between equally loaded siblings, so several of these land on the dead
# replica first and must fail over to its surviving sibling transparently.
kill "${rpids[1]}"
wait "${rpids[1]}" 2>/dev/null || true
for _ in $(seq 1 8); do
  out=$(curl -fsS -H "$AUTH" -X POST "http://$COORD2/query" \
    -d '{"sql":"SELECT unique2 FROM wisc WHERE unique1 < ?","args":[25]}')
  echo "$out" | grep -q '"done":{"rowCount":25,' || { echo "query failed after replica kill: $out"; exit 1; }
done

# The ledger: transparent failovers happened, the dead replica's breaker
# opened from its consecutive query-path failures, and no client ever saw
# an error.
fstats=$(curl -fsS -H "$AUTH" "http://$COORD2/stats")
echo "$fstats" | grep -q '"failures":0' || { echo "replica kill surfaced failures: $fstats"; exit 1; }
echo "$fstats" | grep -q '"breaker":"open"' || { echo "dead replica breaker never opened: $fstats"; exit 1; }
failovers=$(echo "$fstats" | sed -n 's/.*"failovers":\([0-9]*\).*/\1/p')
[ "${failovers:-0}" -ge 1 ] || { echo "no failovers recorded after replica kill: $fstats"; exit 1; }

echo "cluster smoke OK (incl. replica failover)"
