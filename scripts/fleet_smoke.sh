#!/usr/bin/env bash
# fleet_smoke.sh — end-to-end smoke of the sharded alexd fleet.
#
# Boots 3 alexd shards (journal-backed, synthetic profile) plus an
# alexrouter, then asserts the failover contract from DESIGN.md:
#
#   1. the router serves queries and accepts feedback while healthy;
#   2. right before one shard is SIGKILLed, the router acks (202) a
#      rejection that spans every owner, the killed shard included;
#   3. with the shard dead the router reports degraded but keeps
#      answering queries with the same rows as before the kill;
#   4. the restarted shard recovers from its journal, catches up from
#      its peers, and the fleet returns to full health with answers
#      unchanged and the acked rejection served by no shard and not
#      by the router.
#
# Used by `make fleet-smoke` and the CI fleet-smoke job. Requires only
# bash, curl and the go toolchain.
set -euo pipefail

cd "$(dirname "$0")/.."

PROFILE=dbpedia-drugbank
SCALE=0.15
BASE=$((20000 + RANDOM % 20000))
S0="127.0.0.1:$((BASE + 1))"
S1="127.0.0.1:$((BASE + 2))"
S2="127.0.0.1:$((BASE + 3))"
ROUTER="127.0.0.1:$((BASE + 4))"
FLEET="$S0,$S1,$S2"
DATA="$(mktemp -d)"
BIN="$DATA/bin"
mkdir -p "$BIN"
declare -a PIDS=()

# Cleanup runs exactly once, on normal exit OR on INT/TERM — a ^C'd
# smoke run must not strand alexd processes or temp data. After
# cleaning, re-raise the signal so the caller sees the right exit code.
CLEANED=0
cleanup() {
  [ "$CLEANED" = 1 ] && return
  CLEANED=1
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$DATA"
}
trap cleanup EXIT
trap 'cleanup; trap - INT; kill -INT $$' INT
trap 'cleanup; trap - TERM; kill -TERM $$' TERM

fail() { echo "fleet-smoke: FAIL: $*" >&2; exit 1; }

# wait_until <deadline-secs> <desc> <cmd...>: poll cmd until success.
wait_until() {
  local deadline=$1 desc=$2; shift 2
  local t=0
  until "$@" >/dev/null 2>&1; do
    sleep 0.5
    t=$((t + 1))
    [ "$t" -lt $((deadline * 2)) ] || fail "timed out waiting for $desc"
  done
}

router_routable() { # router_routable <n>: healthz reports n routable shards
  curl -fsS "http://$ROUTER/healthz" | grep -q "\"routable\":$1"
}

start_shard() { # start_shard <id> <addr>
  "$BIN/alexd" -profile "$PROFILE" -scale "$SCALE" -addr "$2" \
    -shard-id "$1" -fleet "$FLEET" -replicate-every 200ms \
    -flush 100ms -data "$DATA/shard-$1" \
    >"$DATA/shard-$1.log" 2>&1 &
  PIDS+=($!)
  eval "PID_SHARD$1=$!"
}

echo "== building binaries"
go build -o "$BIN/alexd" ./cmd/alexd
go build -o "$BIN/alexrouter" ./cmd/alexrouter
go build -o "$BIN/alexload" ./cmd/alexload

echo "== starting 3 shards + router (base port $BASE, data in $DATA)"
start_shard 0 "$S0"
start_shard 1 "$S1"
start_shard 2 "$S2"
"$BIN/alexrouter" -addr "$ROUTER" -shards "$FLEET" -health-interval 200ms \
  >"$DATA/router.log" 2>&1 &
PIDS+=($!)

# Shard startup includes synth generation + PARIS; give it a while.
wait_until 120 "fleet healthy" router_routable 3
echo "== fleet healthy: $(curl -fsS "http://$ROUTER/healthz")"

# Pick a query target entity off the router's full link view.
E1=$(curl -fsS "http://$ROUTER/links" | grep -o '"e1":"[^"]*"' | head -1 | cut -d'"' -f4)
[ -n "$E1" ] || fail "router /links returned no links"
QUERY="SELECT ?n WHERE { <$E1> <http://ds2.example.org/prop/name> ?n . }"
query_rows() {
  curl -fsS -X POST "http://$ROUTER/query" \
    -H 'Content-Type: application/json' \
    -d "{\"query\":\"$(echo "$QUERY" | sed 's/"/\\"/g')\"}" |
    grep -o '"rows":\[.*\]'
}

echo "== load through the router (queries + feedback)"
# alexload's verdicts are random. At its default feedback fraction they
# reject a shard's whole partition within seconds, and the rejection
# below needs a link on every owner.
"$BIN/alexload" -server "http://$ROUTER" -duration 3s -concurrency 4 -seed 7 -feedback-frac 0.02
sleep 1 # let the last feedback publish (-flush) + replicate before baselining
BASELINE=$(query_rows)
[ -n "$BASELINE" ] || fail "baseline query returned no rows payload"

# One link per owner, off each shard's own partition and never the probe
# entity's, so the baseline rows stay what they are. LinkJSON marshals
# as {"e1":"...","e2":"..."} without spaces, so each acked.txt line is
# greppable verbatim in any /links payload.
for s in "$S0" "$S1" "$S2"; do
  curl -fsS "http://$s/replica/snapshot" | grep -o '"e1":"[^"]*","e2":"[^"]*"' |
    grep -vF "\"e1\":\"$E1\"" | sed -n 1p || true
done >"$DATA/acked.txt"
[ "$(grep -c . "$DATA/acked.txt")" = 3 ] || fail "a shard owns no link to reject: $(cat "$DATA/acked.txt")"
CODE=$(curl -s -o "$DATA/fb.out" -w '%{http_code}' -X POST "http://$ROUTER/feedback" \
  -H 'Content-Type: application/json' \
  -d "{\"approve\":false,\"links\":[$(sed 's/.*/{&}/' "$DATA/acked.txt" | paste -sd,)]}")
[ "$CODE" = 202 ] || fail "rejection spanning every owner not acked: $CODE $(cat "$DATA/fb.out")"
echo "== acked a rejection spanning all 3 owners"

echo "== killing shard 1 (SIGKILL, mid-fleet, right after the ack)"
kill -9 "$PID_SHARD1"
wait_until 30 "router to route around the dead shard" router_routable 2
curl -fsS "http://$ROUTER/healthz" | grep -q '"status":"degraded"' ||
  fail "router healthz not degraded with a dead shard"

DEGRADED=$(query_rows)
[ "$DEGRADED" = "$BASELINE" ] ||
  fail "degraded answer diverged from baseline:
  baseline: $BASELINE
  degraded: $DEGRADED"
echo "== degraded-but-correct: rows unchanged with shard 1 down"

echo "== restarting shard 1 from its journal"
start_shard 1 "$S1"
wait_until 120 "fleet to heal" router_routable 3
curl -fsS "http://$ROUTER/healthz" | grep -q '"status":"ok"' ||
  fail "router healthz not ok after shard restart"
grep -q "durability on" "$DATA/shard-1.log" ||
  fail "restarted shard did not report journal recovery"

# The restarted shard answers too; poll until its view converges.
recovered_matches() { [ "$(query_rows)" = "$BASELINE" ]; }
wait_until 30 "recovered fleet to answer like the baseline" recovered_matches

# serves_none <url>: the /links payload at url holds no acked link (a
# fetch failure is not clean).
serves_none() {
  curl -fsS "$1" >"$DATA/links.json" || return 1
  ! grep -qFf "$DATA/acked.txt" "$DATA/links.json"
}
for url in "http://$ROUTER/links" "http://$S0/links" "http://$S1/links" "http://$S2/links"; do
  wait_until 30 "$url to stop serving the acked rejection" serves_none "$url"
done
echo "== recovery: fleet healthy, answers unchanged, acked rejection served nowhere"
echo "fleet-smoke: PASS"
