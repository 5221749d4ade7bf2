#!/usr/bin/env bash
# fleet_chaos.sh — seeded chaos drill for the sharded alexd fleet.
#
# Boots 3 alexd shards behind 3 faultnetd chaos proxies plus an
# alexrouter that reaches the shards only through the proxies, then
# runs the hard failure cocktail from ISSUE/DESIGN:
#
#   1. arm seeded latency + jitter + connection drops + 5xx bursts on
#      every router->shard path;
#   2. reject cross-shard feedback batches through the router, retrying
#      until each batch is acked (202) — every ack is a durability
#      promise;
#   3. SIGKILL one shard right after an ack (no drain, no checkpoint)
#      and restart it from its journal;
#   4. partition another shard from the router (asymmetrically — the
#      shard still reaches its peers), then heal;
#   5. audit: no acked rejection is served by any shard or the router
#      (zero acked-feedback loss), the batches really spanned shard
#      owners, and the fleet's answers are canonically identical
#      (via rowcanon) to a single-node alexd given the same verdicts.
#
# Deterministic per seed: synth data, PARIS and faultnetd all derive
# from fixed seeds. Used by `make fleet-chaos` and the CI fleet-chaos
# job. Requires only bash, curl and the go toolchain.
set -euo pipefail

cd "$(dirname "$0")/.."

PROFILE=dbpedia-drugbank
SCALE=0.15
SEED=20260808
BASE=$((20000 + RANDOM % 20000))
S0="127.0.0.1:$((BASE + 1))"
S1="127.0.0.1:$((BASE + 2))"
S2="127.0.0.1:$((BASE + 3))"
P0="127.0.0.1:$((BASE + 4))"
P1="127.0.0.1:$((BASE + 5))"
P2="127.0.0.1:$((BASE + 6))"
ROUTER="127.0.0.1:$((BASE + 7))"
SINGLE="127.0.0.1:$((BASE + 8))"
FLEET="$S0,$S1,$S2"     # shard-to-shard replication runs direct
PROXIED="$P0,$P1,$P2"   # the router only sees the chaos proxies
DATA="$(mktemp -d)"
BIN="$DATA/bin"
mkdir -p "$BIN"
declare -a PIDS=()

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

fail() { echo "fleet-chaos: FAIL: $*" >&2; exit 1; }

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
    -routers "$ROUTER" \
    -flush 100ms -data "$DATA/shard-$1" \
    >"$DATA/shard-$1.log" 2>&1 &
  PIDS+=($!)
  eval "PID_SHARD$1=$!"
}

start_proxy() { # start_proxy <id> <listen> <target>
  "$BIN/faultnetd" -listen "$2" -target "$3" -seed $((SEED + $1)) \
    >"$DATA/proxy-$1.log" 2>&1 &
  PIDS+=($!)
}

set_faults() { # set_faults <proxy-addr> <json>
  curl -fsS -X POST "http://$1/_faultnet/set" -d "$2" >/dev/null
}

echo "== building binaries"
go build -o "$BIN/alexd" ./cmd/alexd
go build -o "$BIN/alexrouter" ./cmd/alexrouter
go build -o "$BIN/faultnetd" ./cmd/faultnetd
go build -o "$BIN/rowcanon" ./cmd/rowcanon

echo "== starting 3 shards + 3 chaos proxies + router (base port $BASE, data in $DATA)"
start_shard 0 "$S0"
start_shard 1 "$S1"
start_shard 2 "$S2"
start_proxy 0 "$P0" "$S0"
start_proxy 1 "$P1" "$S1"
start_proxy 2 "$P2" "$S2"
"$BIN/alexrouter" -addr "$ROUTER" -shards "$PROXIED" -health-interval 200ms \
  -breaker-failures 1 -breaker-cooldown 500ms -breaker-successes 1 \
  >"$DATA/router.log" 2>&1 &
PIDS+=($!)

# Shard startup includes synth generation + PARIS; give it a while.
wait_until 120 "fleet healthy" router_routable 3
echo "== fleet healthy through the proxies"

# Snapshot the link set while calm; pick probe queries (links 1..5)
# and 36 rejection victims spread across the rest of the list — the
# spread makes each 12-link batch span shard owners with near
# certainty, so every ack is several owners' acks.
curl -fsS "http://$ROUTER/links" |
  grep -o '"e1":"[^"]*","e2":"[^"]*"' |
  sed 's/"e1":"\([^"]*\)","e2":"\([^"]*\)"/\1 \2/' >"$DATA/links.txt"
TOTAL=$(wc -l <"$DATA/links.txt")
[ "$TOTAL" -ge 60 ] || fail "too few links for the drill: $TOTAL"
mapfile -t PROBES < <(head -5 "$DATA/links.txt" | cut -d' ' -f1)
STEP=$(((TOTAL - 10) / 36))
[ "$STEP" -ge 1 ] || STEP=1

# batch_json <batch>: a 12-link reject-feedback body from links.txt,
# batches 0..2 disjoint by construction. Each batch STRIDES across the
# whole list (indices b, b+3·STEP, b+6·STEP, ...) because a shard's
# full view groups links by owner — a contiguous block would land on a
# single shard and the router would have nothing to split.
batch_json() {
  local batch=$1 out="" i line e1 e2
  for ((i = 0; i < 12; i++)); do
    line=$(sed -n "$((10 + (i * 3 + batch) * STEP))p" "$DATA/links.txt")
    [ -n "$line" ] || fail "links.txt index out of range (batch $batch item $i)"
    e1=${line%% *}; e2=${line##* }
    [ -n "$out" ] && out+=","
    out+="{\"e1\":\"$e1\",\"e2\":\"$e2\"}"
  done
  echo "{\"approve\":false,\"links\":[$out]}"
}

# send_batch <json>: retry through the chaos until the router acks 202.
# Only an ack adds the batch to the must-survive set.
send_batch() {
  local body=$1 t=0 code
  while :; do
    code=$(curl -s -o "$DATA/fb.out" -w '%{http_code}' -X POST \
      "http://$ROUTER/feedback" -H 'Content-Type: application/json' \
      -d "$body" || true)
    [ "$code" = 202 ] && return 0
    t=$((t + 1))
    [ "$t" -lt 120 ] || fail "batch never acked (last status $code: $(cat "$DATA/fb.out"))"
    sleep 0.5
  done
}

CHAOS='{"latency":5000000,"jitter":20000000,"drop_prob":0.10,"err_prob":0.05}'
echo "== arming chaos on every router->shard path: $CHAOS"
set_faults "$P0" "$CHAOS"
set_faults "$P1" "$CHAOS"
set_faults "$P2" "$CHAOS"

echo "== rejecting batch 1 (12 links) through the chaos"
send_batch "$(batch_json 0)"

echo "== SIGKILL shard 1 right after the ack, restart from its journal"
kill -9 "$PID_SHARD1"
wait_until 30 "router to notice the dead shard" router_routable 2
start_shard 1 "$S1"
wait_until 120 "restarted shard to recover its journal" \
  grep -q "durability on" "$DATA/shard-1.log"
wait_until 120 "killed shard to rejoin" router_routable 3

echo "== rejecting batch 2 (12 links) with the restarted shard in rotation"
send_batch "$(batch_json 1)"

echo "== partitioning shard 2 from the router (asymmetric), healing in background"
set_faults "$P2" '{"partition":true}'
( sleep 3; set_faults "$P2" "$CHAOS" ) &
PIDS+=($!)
echo "== rejecting batch 3 (12 links) across the partition + heal"
send_batch "$(batch_json 2)"

echo "== calming the network"
set_faults "$P0" '{}'
set_faults "$P1" '{}'
set_faults "$P2" '{}'
wait_until 60 "fleet to heal after the drill" router_routable 3

{ batch_json 0; batch_json 1; batch_json 2; } |
  grep -o '{"e1":"[^"]*","e2":"[^"]*"}' >"$DATA/acked.txt"
ACKED=$(wc -l <"$DATA/acked.txt")
[ "$ACKED" = 36 ] || fail "expected 36 acked rejections, built $ACKED"

echo "== auditing: no acked rejection may be served anywhere"
# LinkJSON marshals as {"e1":"...","e2":"..."} with no spaces, so each
# acked.txt line is greppable verbatim in any /links payload.
audit_links() { # audit_links <name> <url>
  curl -fsS "$2" >"$DATA/audit.json"
  while read -r pair; do
    if grep -qF "$pair" "$DATA/audit.json"; then
      fail "$1 still serves acked rejection $pair"
    fi
  done <"$DATA/acked.txt"
}
# Convergence: poll until the router stops serving any acked rejection
# (a fetch failure is NOT clean — it must not end the wait early).
links_clean() { # links_clean <url>
  curl -fsS "$1" >"$DATA/clean.json" || return 1
  ! grep -qFf "$DATA/acked.txt" "$DATA/clean.json"
}
wait_until 60 "acked rejections to drain fleet-wide" links_clean "http://$ROUTER/links"
audit_links "router" "http://$ROUTER/links"
audit_links "shard 0" "http://$S0/links"
audit_links "shard 1" "http://$S1/links"
audit_links "shard 2" "http://$S2/links"
echo "== zero acked-feedback loss confirmed"

# Requests that split over more than one owner: all of them minus the
# histogram's le="1" bucket. The three hand-built batches must be there.
curl -fsS "http://$ROUTER/metrics" >"$DATA/router.metrics"
SPLIT_ALL=$(awk '$1 == "alexrouter_feedback_split_count" {print $2}' "$DATA/router.metrics")
SPLIT_ONE=$(awk '$1 == "alexrouter_feedback_split_bucket{le=\"1\"}" {print $2}' "$DATA/router.metrics")
MULTI=$((${SPLIT_ALL:-0} - ${SPLIT_ONE:-0}))
[ "$MULTI" -ge 3 ] || fail "the batches did not span owners (feedback_split: $SPLIT_ALL requests, $SPLIT_ONE of them single-owner)"
echo "== multi-owner feedback requests routed: $MULTI"
echo "== proxy stats (seeded, deterministic per seed $SEED):"
for p in "$P0" "$P1" "$P2"; do
  echo "  $p: $(curl -fsS "http://$p/_faultnet/stats")"
done

echo "== answer identity: single-node alexd with the same verdicts"
"$BIN/alexd" -profile "$PROFILE" -scale "$SCALE" -addr "$SINGLE" -flush 100ms \
  >"$DATA/single.log" 2>&1 &
PIDS+=($!)
single_healthy() { curl -fsS "http://$SINGLE/healthz" | grep -q '"status":"ok"'; }
wait_until 120 "single node healthy" single_healthy
curl -fsS -X POST "http://$SINGLE/feedback" -H 'Content-Type: application/json' \
  -d "{\"approve\":false,\"links\":[$(paste -sd, "$DATA/acked.txt")]}" >/dev/null
wait_until 60 "single node to apply the verdicts" links_clean "http://$SINGLE/links"

query_canon() { # query_canon <addr> <entity>
  curl -fsS -X POST "http://$1/query" -H 'Content-Type: application/json' \
    -d "{\"query\":\"SELECT ?n WHERE { <$2> <http://ds2.example.org/prop/name> ?n . }\"}" |
    "$BIN/rowcanon"
}
for e in "${PROBES[@]}"; do
  query_canon "$ROUTER" "$e" >"$DATA/canon-router.txt"
  query_canon "$SINGLE" "$e" >"$DATA/canon-single.txt"
  diff -u "$DATA/canon-single.txt" "$DATA/canon-router.txt" ||
    fail "post-drill answer for <$e> diverges from single node"
done
echo "== answers canonically identical to single node on ${#PROBES[@]} probes"
echo "fleet-chaos: PASS"
