#!/usr/bin/env bash
# Serve smoke test — the CI gate for the on-the-fly row service.
#
# Starts `pdgf serve` on a small model, then proves the determinism
# contract end-to-end over real sockets:
#   * concurrent `pdgf fetch` clients pull complementary shards whose
#     concatenation must be byte-equal to `pdgf generate` output, for
#     all four formats;
#   * the same range fetched twice returns identical bytes;
#   * a point lookup equals the matching line of the generated file;
#   * --info/--stats/--ping answer;
#   * the HTTP/1.1 front end (`--http-port`) serves the same bytes for
#     all four formats, plus /metrics and per-model info;
#   * a two-model registry (`--model NAME=PATH ...`) with a small
#     --max-request-rows serves whole tables through chained resume
#     cursors, byte-equal to generate, over both protocols — and the
#     9-tile TCP chain finishes within 150 ms (no delayed-ACK stall).
# Run from the repository root: ./scripts/serve_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build release pdgf"
cargo build --release -q -p pdgf --bins
PDGF=target/release/pdgf

WORK="$(mktemp -d)"
SERVE_PID=""
cleanup() {
  [[ -n "$SERVE_PID" ]] && kill "$SERVE_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

SIZE=5000
cat > "$WORK/model.xml" <<XML
<schema name="smoke">
  <seed>424243</seed>
  <rng name="PdgfDefaultRandom"/>
  <table name="t">
    <size>$SIZE</size>
    <field name="id" type="BIGINT" primary="true"><gen_IdGenerator/></field>
    <field name="v" type="INTEGER">
      <gen_LongGenerator><min>0</min><max>999999</max></gen_LongGenerator>
    </field>
    <field name="w" type="VARCHAR(12)">
      <gen_RandomStringGenerator min="2" max="12"/>
    </field>
  </table>
</schema>
XML

FORMATS=(csv json xml sql)
echo "== reference output via pdgf generate"
for fmt in "${FORMATS[@]}"; do
  "$PDGF" generate --model "$WORK/model.xml" --out "$WORK/ref_$fmt" --format "$fmt"
done

echo "== start pdgf serve on OS-assigned ports (TCP + HTTP)"
"$PDGF" serve --model "$WORK/model.xml" --addr 127.0.0.1:0 --http-port 0 \
    --workers 2 --package-rows 97 > "$WORK/serve.log" &
SERVE_PID=$!
ADDR=""
HTTP_ADDR=""
for _ in $(seq 1 100); do
  ADDR="$(sed -n 's/^listening on //p' "$WORK/serve.log")"
  HTTP_ADDR="$(sed -n 's/^http on //p' "$WORK/serve.log")"
  [[ -n "$ADDR" && -n "$HTTP_ADDR" ]] && break
  kill -0 "$SERVE_PID" 2>/dev/null || { cat "$WORK/serve.log" >&2; exit 1; }
  sleep 0.1
done
[[ -n "$ADDR" && -n "$HTTP_ADDR" ]] \
    || { echo "FAIL: server never printed its addresses" >&2; exit 1; }
echo "  serving at $ADDR (tcp), $HTTP_ADDR (http)"

SPLIT=1733
for fmt in "${FORMATS[@]}"; do
  # Two concurrent clients, complementary shards.
  "$PDGF" fetch --addr "$ADDR" --table t --start 0 --end "$SPLIT" \
      --format "$fmt" --out "$WORK/a.$fmt" &
  A=$!
  "$PDGF" fetch --addr "$ADDR" --table t --start "$SPLIT" --end "$SIZE" \
      --format "$fmt" --out "$WORK/b.$fmt" &
  B=$!
  wait "$A" "$B"
  cat "$WORK/a.$fmt" "$WORK/b.$fmt" > "$WORK/concat.$fmt"
  cmp "$WORK/concat.$fmt" "$WORK/ref_$fmt/t.$fmt" \
      || { echo "FAIL: $fmt concat != generate output" >&2; exit 1; }
  # Same range twice -> identical bytes.
  "$PDGF" fetch --addr "$ADDR" --table t --start 0 --end "$SPLIT" \
      --format "$fmt" --out "$WORK/a2.$fmt"
  cmp "$WORK/a.$fmt" "$WORK/a2.$fmt" \
      || { echo "FAIL: $fmt repeated range differs" >&2; exit 1; }
  echo "  ok   $fmt: 2-client concat == generate, repeat identical"
done

echo "== point lookup vs generated file"
"$PDGF" fetch --addr "$ADDR" --table t --row 7 --format csv > "$WORK/row7"
sed -n '8p' "$WORK/ref_csv/t.csv" > "$WORK/line7"
cmp "$WORK/row7" "$WORK/line7" || { echo "FAIL: point lookup != file line" >&2; exit 1; }
echo "  ok   row 7 == line 8 of t.csv"

echo "== JSON endpoints"
"$PDGF" fetch --addr "$ADDR" --info  | grep -q '"schema":"smoke"'
"$PDGF" fetch --addr "$ADDR" --stats | grep -q '"completed":'
"$PDGF" fetch --addr "$ADDR" --ping  | grep -q pong
echo "  ok   info/stats/ping"

echo "== HTTP front end: all formats byte-equal to generate"
for fmt in "${FORMATS[@]}"; do
  "$PDGF" fetch --http --addr "$HTTP_ADDR" --table t --start 0 --end "$SIZE" \
      --format "$fmt" --out "$WORK/http.$fmt"
  cmp "$WORK/http.$fmt" "$WORK/ref_$fmt/t.$fmt" \
      || { echo "FAIL: http $fmt != generate output" >&2; exit 1; }
  echo "  ok   http $fmt == generate"
done
"$PDGF" fetch --http --addr "$HTTP_ADDR" --table t --row 7 --format csv > "$WORK/http_row7"
cmp "$WORK/http_row7" "$WORK/line7" \
    || { echo "FAIL: http point lookup != file line" >&2; exit 1; }
"$PDGF" fetch --http --addr "$HTTP_ADDR" --info  | grep -q '"schema":"smoke"'
"$PDGF" fetch --http --addr "$HTTP_ADDR" --stats | grep -q '"server":'
echo "  ok   http row lookup, /v1/default/info, /metrics"

kill "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""

echo "== two-model registry with forced cursor chains"
sed 's/name="smoke"/name="smoke2"/; s/<seed>424243</<seed>424244</' \
    "$WORK/model.xml" > "$WORK/model2.xml"
# 611-row cap on a 5000-row table: a whole-table fetch chains 9 tiles.
"$PDGF" serve --model "a=$WORK/model.xml" --model "b=$WORK/model2.xml" \
    --addr 127.0.0.1:0 --http-port 0 --workers 2 --package-rows 97 \
    --max-request-rows 611 > "$WORK/serve2.log" &
SERVE_PID=$!
ADDR=""
HTTP_ADDR=""
for _ in $(seq 1 100); do
  ADDR="$(sed -n 's/^listening on //p' "$WORK/serve2.log")"
  HTTP_ADDR="$(sed -n 's/^http on //p' "$WORK/serve2.log")"
  [[ -n "$ADDR" && -n "$HTTP_ADDR" ]] && break
  kill -0 "$SERVE_PID" 2>/dev/null || { cat "$WORK/serve2.log" >&2; exit 1; }
  sleep 0.1
done
[[ -n "$ADDR" && -n "$HTTP_ADDR" ]] \
    || { echo "FAIL: registry server never printed its addresses" >&2; exit 1; }
echo "  registry at $ADDR (tcp), $HTTP_ADDR (http)"
for fmt in csv json; do
  T0="$(date +%s%N)"
  "$PDGF" fetch --addr "$ADDR" --model a --table t --start 0 --end "$SIZE" \
      --format "$fmt" --out "$WORK/chain_tcp.$fmt"
  CHAIN_MS=$(( ($(date +%s%N) - T0) / 1000000 ))
  echo "  tcp cursor chain $fmt: ${CHAIN_MS} ms (9 tiles)"
  # A reply whose terminator waits on the client's delayed ACK costs
  # ~44 ms per tile (~350 ms here); a few ms is the healthy figure.
  (( CHAIN_MS <= 150 )) \
      || { echo "FAIL: tcp cursor chain $fmt took ${CHAIN_MS} ms (> 150 ms)" >&2; exit 1; }
  cmp "$WORK/chain_tcp.$fmt" "$WORK/ref_$fmt/t.$fmt" \
      || { echo "FAIL: tcp cursor chain $fmt != generate output" >&2; exit 1; }
  "$PDGF" fetch --http --addr "$HTTP_ADDR" --model a --table t --start 0 --end "$SIZE" \
      --format "$fmt" --out "$WORK/chain_http.$fmt"
  cmp "$WORK/chain_http.$fmt" "$WORK/ref_$fmt/t.$fmt" \
      || { echo "FAIL: http cursor chain $fmt != generate output" >&2; exit 1; }
  echo "  ok   $fmt: chained cursor fetch == generate (tcp + http)"
done
"$PDGF" fetch --addr "$ADDR" --model b --info | grep -q '"schema":"smoke2"'
"$PDGF" fetch --http --addr "$HTTP_ADDR" --model b --info | grep -q '"schema":"smoke2"'
echo "  ok   model-addressed info on both protocols"

kill "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
echo "Serve smoke passed."
