#!/usr/bin/env bash
# Tier-1 gate: formatting, lints, and the full test suite.
# Run from the repository root: ./scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo xtask audit"
cargo xtask audit

echo "== cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc: no warnings (every intra-doc link resolves and is public)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== cargo test --workspace"
cargo test --workspace -q

echo "== the capped Markov kernel cuts like TruncateGenerator, at 2000 cases"
PROPTEST_CASES=2000 cargo test -q --test proptests capped_markov_cuts_like_truncate

echo "== examples that assert: update stream and query workload"
cargo run -q --example streaming_updates >/dev/null
cargo run -q --example benchmark_workload >/dev/null

echo "== benchmark package: declared-metric and statistics tests"
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "== model corpus: shipped models validate clean, bad models report codes"
cargo build -q -p pdgf --bins
PDGF=target/debug/pdgf
for model in models/*.xml; do
  out="$("$PDGF" validate --model "$model" --format json)" || true
  if [[ "$out" != *'"errors":0'* || "$out" != *'"warnings":0'* ]]; then
    echo "FAIL: $model should validate clean, got:" >&2
    echo "$out" >&2
    exit 1
  fi
  echo "  ok   $model"
done
for model in models/bad/*.xml; do
  # Warning-class fixtures exit 0; every fixture must report a code.
  out="$("$PDGF" validate --model "$model" --format json)" || true
  if [[ "$out" != *'"code":"'* ]]; then
    echo "FAIL: $model should report a diagnostic code, got:" >&2
    echo "$out" >&2
    exit 1
  fi
  echo "  diag $model"
done

echo "== shard smoke: 32 node processes and an inline run equal the whole run"
# TPC-H at SF 0.0001 gives tables of 5 to 600 rows, so many shards own no
# rows or part of a package; every node must still write every part,
# framing (XML) owned by position, and every format's lane writers must
# match the whole run byte for byte. The inline run (--workers 0, the
# reader renders every package) must match the pooled whole as well.
# SSB at SF 0.001 (its smallest table, supplier, has 2 rows) runs as CSV:
# models/ssb.xml is SSB's only definition, so this is its CLI byte check.
SHARDS="$(mktemp -d)"
trap 'rm -rf "$SHARDS"' EXIT
shard_smoke() {
  local model="$1" sf="$2" format="$3"
  local name dir
  name="$(basename "$model" .xml)"
  dir="$SHARDS/$name/$format"
  "$PDGF" generate --model "$model" -p SF="$sf" --format "$format" \
    --out "$dir/whole" >/dev/null
  "$PDGF" generate --model "$model" -p SF="$sf" --format "$format" \
    --workers 0 --out "$dir/inline" >/dev/null
  for node in $(seq 0 31); do
    "$PDGF" generate --model "$model" -p SF="$sf" --format "$format" \
      --node "$node" --nodes 32 --out "$dir/parts" >/dev/null
  done
  for whole in "$dir"/whole/*."$format"; do
    table="$(basename "$whole" ."$format")"
    parts=()
    for node in $(seq 0 31); do parts+=("$dir/parts/$table.part$node.$format"); done
    if ! cat "${parts[@]}" | cmp -s - "$whole"; then
      echo "FAIL: $name $format $table part files do not concatenate to the whole table" >&2
      exit 1
    fi
    if ! cmp -s "$dir/inline/$table.$format" "$whole"; then
      echo "FAIL: $name $format $table inline run differs from the pooled whole" >&2
      exit 1
    fi
    echo "  ok   $name $format $table"
  done
}
for format in csv json xml sql; do
  shard_smoke models/tpch.xml 0.0001 "$format"
done
shard_smoke models/ssb.xml 0.001 csv

echo "All checks passed."
