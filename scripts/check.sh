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

echo "== seed-lineage proof: shipped models prove clean (both engines, serve)"
for model in models/*.xml; do
  if ! out="$("$PDGF" prove --model "$model" --format json)"; then
    echo "FAIL: $model should prove clean, got:" >&2
    echo "$out" >&2
    exit 1
  fi
  if [[ "$out" != *'"errors":0'* || "$out" != *'"warnings":0'* ||
        "$out" != *'"engines_equivalent":true'* ||
        "$out" != *'"serve_consistent":true'* ]]; then
    echo "FAIL: $model proof incomplete, got:" >&2
    echo "$out" >&2
    exit 1
  fi
  echo "  qed  $model"
done

echo "All checks passed."
