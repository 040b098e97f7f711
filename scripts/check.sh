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

echo "== cargo doc: every intra-doc link resolves"
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --workspace --no-deps --offline

echo "== cargo test --workspace"
cargo test --workspace -q

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
# SF 0.0001 gives tables of 5 to 600 rows, so many shards own no rows or
# part of a package; every node must still write every part, framing
# (XML) owned by position, and every format's lane writers must match
# the whole run byte for byte. The inline run (--workers 0, the reader
# renders every package) must match the pooled whole as well.
SHARDS="$(mktemp -d)"
trap 'rm -rf "$SHARDS"' EXIT
for format in csv json xml sql; do
  "$PDGF" generate --model models/tpch.xml -p SF=0.0001 --format "$format" \
    --out "$SHARDS/$format/whole" >/dev/null
  "$PDGF" generate --model models/tpch.xml -p SF=0.0001 --format "$format" \
    --workers 0 --out "$SHARDS/$format/inline" >/dev/null
  for node in $(seq 0 31); do
    "$PDGF" generate --model models/tpch.xml -p SF=0.0001 --format "$format" \
      --node "$node" --nodes 32 --out "$SHARDS/$format/parts" >/dev/null
  done
  for whole in "$SHARDS/$format"/whole/*."$format"; do
    table="$(basename "$whole" ."$format")"
    parts=()
    for node in $(seq 0 31); do parts+=("$SHARDS/$format/parts/$table.part$node.$format"); done
    if ! cat "${parts[@]}" | cmp -s - "$whole"; then
      echo "FAIL: $format $table part files do not concatenate to the whole table" >&2
      exit 1
    fi
    if ! cmp -s "$SHARDS/$format/inline/$table.$format" "$whole"; then
      echo "FAIL: $format $table inline run differs from the pooled whole" >&2
      exit 1
    fi
    echo "  ok   $format $table"
  done
done

echo "All checks passed."
