#!/usr/bin/env bash
# End-to-end smoke of the kokod HTTP surface: boot the server on the demo
# corpora (sharded, so streaming and jobs exercise the fan-out path), run
# one buffered query, one streamed NDJSON query, and one async job to
# completion, failing on any non-2xx response (curl -f) or missing payload.
set -euo pipefail

ADDR="127.0.0.1:7333"
BASE="http://$ADDR/v1"

go build -o /tmp/kokod ./cmd/kokod
/tmp/kokod -demo -shards 3 -addr "$ADDR" &
KOKOD_PID=$!
trap 'kill $KOKOD_PID 2>/dev/null || true' EXIT

for i in $(seq 1 100); do
  if curl -sf "$BASE/healthz" >/dev/null 2>&1; then break; fi
  if [ "$i" = 100 ]; then echo "kokod never became healthy" >&2; exit 1; fi
  sleep 0.1
done
# Guard against a stale listener answering for us: the kokod we spawned
# must be the process that is alive and serving.
if ! kill -0 "$KOKOD_PID" 2>/dev/null; then
  echo "spawned kokod died (port already in use?); refusing to smoke a stale server" >&2
  exit 1
fi

QUERY_TEXT='extract x:Entity from \"blogs\" if () satisfying x (str(x) contains \"Cafe\" {1.0}) with threshold 0.5'

echo "== buffered query"
curl -sf "$BASE/query" -d "{\"corpus\":\"demo-cafes\",\"query\":\"$QUERY_TEXT\"}" | grep -q '"Cafe Vita"'

echo "== query planner: plan block + metrics"
# An extract query with real conditions carries the planner's chosen order.
PLAN_QUERY='extract a:Str from \"blogs\" if (/ROOT:{ a = ^[min=1,max=2], v = //verb, w = \"Cafe Vita\" } (w) in (a))'
PLANRESP=$(curl -sf "$BASE/query" -d "{\"corpus\":\"demo-cafes\",\"query\":\"$PLAN_QUERY\"}")
echo "$PLANRESP" | grep -q '"plan":{'
echo "$PLANRESP" | grep -q '"steps":\['
# Older clients may still send the retired "plan" and "workers" fields:
# they are ignored, so the request is the same query and hits its entry.
OLDRESP=$(curl -sf "$BASE/query" -d "{\"corpus\":\"demo-cafes\",\"query\":\"$PLAN_QUERY\",\"plan\":\"off\",\"workers\":8}")
echo "$OLDRESP" | grep -q '"cached":true'
echo "$OLDRESP" | grep -q '"plan":{'
curl -sf "$BASE/metrics" | grep -q '"plans_reordered"'
curl -sf "$BASE/metrics" | grep -q '"plan_time_us"'

echo "== streamed NDJSON query"
STREAM=$(curl -sf "$BASE/query?stream=1" -d "{\"corpus\":\"demo-cafes\",\"query\":\"$QUERY_TEXT\",\"no_cache\":true}")
echo "$STREAM" | grep -q '"tuple"'
echo "$STREAM" | grep -q '"shard"'
echo "$STREAM" | tail -n 1 | grep -q '"done"'

echo "== async job"
JOB_ID=$(curl -sf -X POST "$BASE/jobs" -d "{\"corpus\":\"demo-cafes\",\"queries\":[\"$QUERY_TEXT\"]}" \
  | sed -E 's/.*"id":"([^"]+)".*/\1/')
if [ -z "$JOB_ID" ]; then echo "job submit returned no id" >&2; exit 1; fi
for i in $(seq 1 100); do
  STATE=$(curl -sf "$BASE/jobs/$JOB_ID" | sed -E 's/.*"state":"([^"]+)".*/\1/')
  case "$STATE" in
    done) break ;;
    failed|cancelled) echo "job ended $STATE" >&2; exit 1 ;;
  esac
  if [ "$i" = 100 ]; then echo "job never finished (state $STATE)" >&2; exit 1; fi
  sleep 0.1
done
curl -sf "$BASE/jobs/$JOB_ID/results" | grep -q '"Cafe Vita"'
curl -sf -X DELETE "$BASE/jobs/$JOB_ID" >/dev/null
curl -sf "$BASE/metrics" | grep -q '"jobs"'

echo "== live ingestion (delta index)"
INGEST=$(curl -sf -X POST "$BASE/corpora/demo-cafes/documents" \
  -d '{"name":"ladro.txt","text":"Cafe Ladro opened a new roastery downtown."}')
echo "$INGEST" | grep -q '"delta_docs":1'
# The ingested document is queryable immediately, at a new generation.
curl -sf "$BASE/query" -d "{\"corpus\":\"demo-cafes\",\"query\":\"$QUERY_TEXT\"}" | grep -q '"Cafe Ladro"'
curl -sf "$BASE/corpora/demo-cafes/stats" | grep -q '"delta":true'

echo "== compaction (delta folded into base shards)"
COMPACT=$(curl -sf -X POST "$BASE/corpora/demo-cafes/compact")
echo "$COMPACT" | grep -q '"compacted_docs":1'
echo "$COMPACT" | grep -q '"delta_docs":0'
# Identical results after the fold.
curl -sf "$BASE/query" -d "{\"corpus\":\"demo-cafes\",\"query\":\"$QUERY_TEXT\"}" | grep -q '"Cafe Ladro"'
curl -sf "$BASE/corpora/demo-cafes/stats" | grep -q '"compactions":1'

echo "== corpus deletion"
curl -sf -X DELETE "$BASE/corpora/demo-food" | grep -q '"deleted":"demo-food"'
STATUS=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/query" \
  -d '{"corpus":"demo-food","query":"extract x:Entity from \"reviews\" if ()"}')
if [ "$STATUS" != 404 ]; then echo "deleted corpus answered $STATUS, want 404" >&2; exit 1; fi
curl -sf "$BASE/metrics" | grep -q '"ingests_total":1'

echo "== error envelope: stable machine-readable codes"
# Every /v1 failure answers {"error":{"code":"...","message":"..."}} with a
# stable code (the README's table). Unknown corpus -> not_found.
ERR=$(curl -s "$BASE/query" -d '{"corpus":"no-such-corpus","query":"extract x:Entity from \"blogs\" if ()"}')
echo "$ERR" | grep -q '"error":{"code":"not_found"'
# Unparsable query -> bad_query.
ERR=$(curl -s "$BASE/query" -d '{"corpus":"demo-cafes","query":"extract nonsense"}')
echo "$ERR" | grep -q '"error":{"code":"bad_query"'
# Undecodable body -> bad_request.
ERR=$(curl -s "$BASE/query" -d '{not json')
echo "$ERR" | grep -q '"error":{"code":"bad_request"'
# Unknown job -> not_found through the jobs surface too.
ERR=$(curl -s "$BASE/jobs/nonexistent")
echo "$ERR" | grep -q '"error":{"code":"not_found"'

echo "== durability: ingest + delete -> kill -9 -> restart -> replayed state"
ADDR2="127.0.0.1:7334"
BASE2="http://$ADDR2/v1"
DATA_DIR=$(mktemp -d)
# -wal-sync always: every ack is on disk before it reaches the client, so
# kill -9 at any point after the responses below must lose nothing.
/tmp/kokod -demo -shards 3 -addr "$ADDR2" -data-dir "$DATA_DIR" -wal-sync always &
KOKOD2_PID=$!
trap 'kill $KOKOD_PID 2>/dev/null || true; kill -9 $KOKOD2_PID 2>/dev/null || true; rm -rf "$DATA_DIR"' EXIT

wait_healthy() {
  for i in $(seq 1 100); do
    if curl -sf "$1/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "kokod at $1 never became healthy" >&2
  return 1
}
wait_healthy "$BASE2"

curl -sf -X POST "$BASE2/corpora/demo-cafes/documents" \
  -d '{"name":"ladro.txt","text":"Cafe Ladro opened a new roastery downtown."}' >/dev/null
curl -sf "$BASE2/query" -d "{\"corpus\":\"demo-cafes\",\"query\":\"$QUERY_TEXT\"}" | grep -q '"Cafe Ladro"'
curl -sf "$BASE2/query" -d "{\"corpus\":\"demo-cafes\",\"query\":\"$QUERY_TEXT\",\"no_cache\":true}" | grep -q '"Cafe Umbria"'
curl -sf -X DELETE "$BASE2/corpora/demo-cafes/documents/portland.txt" | grep -q '"deleted":1'
# The deleted document's tuples are masked immediately.
if curl -sf "$BASE2/query" -d "{\"corpus\":\"demo-cafes\",\"query\":\"$QUERY_TEXT\",\"no_cache\":true}" | grep -q '"Cafe Umbria"'; then
  echo "deleted document still visible before crash" >&2; exit 1
fi

kill -9 "$KOKOD2_PID"
wait "$KOKOD2_PID" 2>/dev/null || true
/tmp/kokod -demo -shards 3 -addr "$ADDR2" -data-dir "$DATA_DIR" -wal-sync always &
KOKOD2_PID=$!
wait_healthy "$BASE2"

# The ingested document survived the crash; the deleted one stayed deleted.
POST=$(curl -sf "$BASE2/query" -d "{\"corpus\":\"demo-cafes\",\"query\":\"$QUERY_TEXT\"}")
echo "$POST" | grep -q '"Cafe Ladro"'
echo "$POST" | grep -q '"Cafe Vita"'
if echo "$POST" | grep -q '"Cafe Umbria"'; then
  echo "deleted document resurrected by restart" >&2; exit 1
fi
curl -sf "$BASE2/metrics" | grep -q '"wal_replayed_docs":[1-9]'
kill "$KOKOD2_PID" 2>/dev/null || true

echo "== background compaction: the -max-delta-docs flag reaches the corpus"
ADDR3="127.0.0.1:7338"
BASE3="http://$ADDR3/v1"
/tmp/kokod -demo -max-delta-docs 2 -addr "$ADDR3" &
KOKOD3_PID=$!
trap 'kill $KOKOD_PID $KOKOD3_PID 2>/dev/null || true; kill -9 $KOKOD2_PID 2>/dev/null || true; rm -rf "$DATA_DIR"' EXIT
wait_healthy "$BASE3"
for doc in Ladro Allegro; do
  curl -sf -X POST "$BASE3/corpora/demo-cafes/documents" \
    -d "{\"name\":\"$doc.txt\",\"text\":\"Cafe $doc brews a dark roast.\"}" >/dev/null
done
# No compact call: the second ingest fills the delta and the corpus folds it.
for i in $(seq 1 100); do
  STATS=$(curl -sf "$BASE3/corpora/demo-cafes/stats")
  if echo "$STATS" | grep -q '"compactions":1' && echo "$STATS" | grep -q '"delta_docs":0'; then break; fi
  if [ "$i" = 100 ]; then echo "no background compaction after two ingests: $STATS" >&2; exit 1; fi
  sleep 0.1
done
curl -sf "$BASE3/metrics" | grep -q '"compaction_errors":0'
kill "$KOKOD3_PID" 2>/dev/null || true

echo "== chaos drill: coordinator + 2 workers, kill -9 one mid-query"
W1_ADDR="127.0.0.1:7335"; W1_BASE="http://$W1_ADDR/v1"
W2_ADDR="127.0.0.1:7336"; W2_BASE="http://$W2_ADDR/v1"
CO_ADDR="127.0.0.1:7337"; CO_BASE="http://$CO_ADDR/v1"

/tmp/kokod -demo -shards 3 -addr "$W1_ADDR" &
W1_PID=$!
/tmp/kokod -demo -shards 3 -addr "$W2_ADDR" &
W2_PID=$!
trap 'kill $KOKOD_PID $W1_PID $CO_PID 2>/dev/null || true; kill -9 $KOKOD2_PID $W2_PID 2>/dev/null || true; rm -rf "$DATA_DIR"' EXIT
wait_healthy "$W1_BASE"
wait_healthy "$W2_BASE"

/tmp/kokod -role coordinator -worker "http://$W1_ADDR" -worker "http://$W2_ADDR" \
  -replicas 2 -addr "$CO_ADDR" &
CO_PID=$!
wait_healthy "$CO_BASE"
curl -sf "$CO_BASE/corpora" | grep -q '"demo-cafes"'

# Reference tuple set from a worker evaluated locally; the coordinator's
# distributed answer must match it byte-for-byte, before and after the kill.
# (Field order is fixed, so the sed slice is the exact tuples array.)
tuples_of() { sed -n 's/.*"tuples":\(\[.*\]\),"candidates":.*/\1/p'; }
REF=$(curl -sf "$W1_BASE/query" -d "{\"corpus\":\"demo-cafes\",\"query\":\"$QUERY_TEXT\"}" | tuples_of)
if [ -z "$REF" ]; then echo "reference query produced no tuples" >&2; exit 1; fi
DIST=$(curl -sf "$CO_BASE/query" -d "{\"corpus\":\"demo-cafes\",\"query\":\"$QUERY_TEXT\",\"no_cache\":true}" | tuples_of)
if [ "$DIST" != "$REF" ]; then
  echo "distributed tuples diverge from single-node before kill:" >&2
  echo " ref:  $REF" >&2; echo " dist: $DIST" >&2; exit 1
fi

# Kill one worker with a distributed query in flight: the query must still
# come back, and with exactly the single-node tuples (replicas absorb it).
curl -sf "$CO_BASE/query" -d "{\"corpus\":\"demo-cafes\",\"query\":\"$QUERY_TEXT\",\"no_cache\":true}" > /tmp/chaos_inflight.json &
CURL_PID=$!
kill -9 "$W2_PID"
wait "$W2_PID" 2>/dev/null || true
if ! wait "$CURL_PID"; then echo "in-flight query failed during worker kill" >&2; exit 1; fi
INFLIGHT=$(tuples_of < /tmp/chaos_inflight.json)
if [ "$INFLIGHT" != "$REF" ]; then
  echo "in-flight query lost tuples when the worker died:" >&2
  echo " ref:  $REF" >&2; echo " got:  $INFLIGHT" >&2; exit 1
fi
AFTER=$(curl -sf "$CO_BASE/query" -d "{\"corpus\":\"demo-cafes\",\"query\":\"$QUERY_TEXT\",\"no_cache\":true}" | tuples_of)
if [ "$AFTER" != "$REF" ]; then
  echo "post-kill query diverges from single-node:" >&2
  echo " ref:  $REF" >&2; echo " got:  $AFTER" >&2; exit 1
fi

# The fault tolerance left fingerprints: attempts and retries in metrics.
METRICS=$(curl -sf "$CO_BASE/metrics")
echo "$METRICS" | grep -q '"remote_attempts":[1-9]'
echo "$METRICS" | grep -q '"remote_retries":[1-9]'

# Kill the last worker: every shard is now unavailable, and the buffered
# and streamed modes must classify it alike (502 shard_unavailable).
kill "$W1_PID"
wait "$W1_PID" 2>/dev/null || true
for MODE in "" "?stream=1"; do
  OUT=$(curl -s -w '\n%{http_code}' "$CO_BASE/query$MODE" -d "{\"corpus\":\"demo-cafes\",\"query\":\"$QUERY_TEXT\",\"no_cache\":true}")
  STATUS=${OUT##*$'\n'}
  BODY=${OUT%$'\n'*}
  if [ "$STATUS" != 502 ] || ! echo "$BODY" | grep -q '"code":"shard_unavailable"'; then
    echo "query$MODE with every worker down answered $STATUS, want 502 shard_unavailable: $BODY" >&2
    exit 1
  fi
done
kill "$CO_PID" 2>/dev/null || true

echo "api smoke OK"
