#!/usr/bin/env bash
# cluster-smoke: end-to-end differential check of the sharded cluster.
#
# Builds the CLI, synthesizes a corpus, loads it into (a) one node and
# (b) a 3-shard loopback cluster of `esidb serve` processes, and asserts
# id-level parity between the two for range, compound and k-NN queries.
# Exits nonzero on any mismatch. This is the script the CI cluster-smoke
# job runs; it needs nothing beyond a Go toolchain and a POSIX userland.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/cluster-smoke.XXXXXX")"
BIN="$WORK/bin"
PIDS=()

cleanup() {
  for pid in "${PIDS[@]:-}"; do
    kill "$pid" 2>/dev/null || true
  done
  for pid in "${PIDS[@]:-}"; do
    wait "$pid" 2>/dev/null || true
  done
  rm -rf "$WORK"
}
trap cleanup EXIT

cd "$ROOT"
echo "== build"
go build -o "$BIN/" ./cmd/esidb ./cmd/datagen

ESIDB="$BIN/esidb"
P0=8801 P1=8802 P2=8803

echo "== corpus"
"$BIN/datagen" -kind flag -n 12 -w 32 -h 24 -seed 7 -out "$WORK/imgs" >/dev/null
"$ESIDB" create -db "$WORK/seed.esidb" >/dev/null
for img in "$WORK"/imgs/*.ppm; do
  "$ESIDB" insert -db "$WORK/seed.esidb" "$img" >/dev/null
done
for id in $(seq 1 12); do
  "$ESIDB" augment -db "$WORK/seed.esidb" -id "$id" -per 3 -ops 4 \
    -nonwidening 0.3 -seed "$id" >/dev/null
done
"$ESIDB" dump -db "$WORK/seed.esidb" -out "$WORK/dump" >/dev/null

echo "== single node"
"$ESIDB" create -db "$WORK/single.esidb" >/dev/null
"$ESIDB" load -db "$WORK/single.esidb" -in "$WORK/dump" >/dev/null

echo "== cluster (3 shards)"
cat > "$WORK/map.json" <<EOF
{"shards": [
  {"id": "s0", "addr": "http://127.0.0.1:$P0"},
  {"id": "s1", "addr": "http://127.0.0.1:$P1"},
  {"id": "s2", "addr": "http://127.0.0.1:$P2"}
]}
EOF
for i in 0 1 2; do
  port=$((8801 + i))
  "$ESIDB" create -db "$WORK/s$i.esidb" >/dev/null
  "$ESIDB" serve -db "$WORK/s$i.esidb" -addr "127.0.0.1:$port" \
    -shard-id "s$i" -shard-map "$WORK/map.json" >"$WORK/s$i.log" 2>&1 &
  PIDS+=($!)
done

for attempt in $(seq 1 50); do
  if "$ESIDB" cluster health -map "$WORK/map.json" >/dev/null 2>&1; then
    break
  fi
  if [ "$attempt" -eq 50 ]; then
    echo "FAIL: shards never came up" >&2
    cat "$WORK"/s*.log >&2
    exit 1
  fi
  sleep 0.2
done
"$ESIDB" cluster health -map "$WORK/map.json"

"$ESIDB" cluster load -map "$WORK/map.json" -in "$WORK/dump"
"$ESIDB" cluster stats -map "$WORK/map.json"

echo "== differential queries"
QUERIES=(
  "at least 25% blue"
  "at most 40% red"
  "between 10% and 60% green"
  "at least 20% red and at least 10% blue"
  "at least 60% yellow or at least 20% white"
)
fail=0
for q in "${QUERIES[@]}"; do
  # "" is the default: no mode is sent, and each node resolves it (an
  # unpaged read runs from the S-tree).
  for mode in bwm rbm indexed ""; do
    "$ESIDB" query -db "$WORK/single.esidb" -mode "$mode" -ids "$q" \
      | sort -n > "$WORK/want.txt"
    "$ESIDB" cluster query -map "$WORK/map.json" -mode "$mode" -ids "$q" \
      | sort -n > "$WORK/got.txt"
    if ! diff -u "$WORK/want.txt" "$WORK/got.txt"; then
      echo "FAIL: [${mode:-default}] \"$q\" diverged" >&2
      fail=1
    else
      echo "ok [${mode:-default}] \"$q\" ($(wc -l < "$WORK/want.txt") ids)"
    fi
  done
done

echo "== differential k-NN"
probe="$(ls "$WORK"/imgs/*.ppm | head -1)"
for metric in l1 l2; do
  "$ESIDB" similar -db "$WORK/single.esidb" -k 5 -metric "$metric" "$probe" \
    | awk 'NF>1 && $1+0==$1 {print $1}' > "$WORK/want.txt"
  "$ESIDB" cluster similar -map "$WORK/map.json" -k 5 -metric "$metric" "$probe" \
    | awk 'NF>1 && $1+0==$1 {print $1}' > "$WORK/got.txt"
  if ! diff -u "$WORK/want.txt" "$WORK/got.txt"; then
    echo "FAIL: k-NN ($metric) diverged" >&2
    fail=1
  else
    echo "ok k-NN $metric ($(wc -l < "$WORK/want.txt") neighbors)"
  fi
done

echo "== distributed trace"
# A traced scatter-gather query must come back as ONE merged span tree:
# a single trace id shared by the coordinator and every shard subtree
# (propagated via the traceparent header), a shard:<id> span per shard,
# and — since the shard stores are WAL-backed — each shard's
# wal.commit-barrier span adopted into the tree.
"$ESIDB" cluster query -map "$WORK/map.json" -trace-json \
  "at least 25% blue" > "$WORK/trace.json"
# The trace document also carries a legacy flat "phases" view that repeats
# span names; count spans only inside the "spans" tree.
sed -n '/"spans":/,$p' "$WORK/trace.json" > "$WORK/spans.json"
trace_ids=$(grep -o '"trace_id": *"[0-9a-f]*"' "$WORK/trace.json" | sort -u | wc -l)
shard_spans=$(grep -c '"name": *"shard:' "$WORK/spans.json" || true)
wal_spans=$(grep -c '"name": *"wal.commit-barrier"' "$WORK/spans.json" || true)
if [ "$trace_ids" -ne 1 ]; then
  echo "FAIL: merged trace carries $trace_ids distinct trace ids, want 1" >&2
  fail=1
elif [ "$shard_spans" -ne 3 ]; then
  echo "FAIL: merged trace has $shard_spans shard spans, want 3" >&2
  fail=1
elif [ "$wal_spans" -lt 3 ]; then
  echo "FAIL: merged trace has $wal_spans wal.commit-barrier spans, want >= 3" >&2
  fail=1
else
  echo "ok trace: 1 trace id, $shard_spans shard spans, $wal_spans WAL-commit spans"
fi

echo "== slow-query log"
# Always-on wide events: after the workload above, the serving shards'
# /debug/querylog must hold recorded query events.
# Capture first: grep -q closing the pipe early would SIGPIPE the CLI and
# trip pipefail even on a match.
qlog=$("$ESIDB" querylog -addr "http://127.0.0.1:$P0")
if ! echo "$qlog" | grep -q "query"; then
  echo "FAIL: shard s0 query log is empty after the workload" >&2
  echo "$qlog" >&2
  fail=1
else
  echo "ok querylog: shard s0 recorded query events"
fi
# The log names the mode that ran: the default differential reads above
# resolved to the S-tree on every shard, and the shard's event says so
# rather than recording the empty mode parameter it was sent.
qjson=$("$ESIDB" querylog -json -addr "http://127.0.0.1:$P0")
if ! echo "$qjson" | grep -Eq '"strategy": *"indexed"'; then
  echo "FAIL: shard s0 query log has no event with strategy indexed" >&2
  echo "$qjson" >&2
  fail=1
elif echo "$qjson" | grep -Eq '"strategy": *""'; then
  echo "FAIL: shard s0 query log has an event with no strategy" >&2
  echo "$qjson" >&2
  fail=1
else
  echo "ok querylog: shard s0 logged the resolved default (strategy indexed)"
fi

if [ "$fail" -ne 0 ]; then
  echo "cluster-smoke: FAILED" >&2
  exit 1
fi
echo "cluster-smoke: OK"
