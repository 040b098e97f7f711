#!/usr/bin/env bash
# Concurrency model checks — NOT part of the tier-1 gate (they rebuild the
# workspace under --cfg loom and, when available, run Miri).
# Run from the repository root: ./scripts/concurrency.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Loom models of the execution core (ticket queue, worker loop, reorder →
# ready delivery, shutdown wake-up) and of BufferPool/ReorderBuffer. The
# in-tree loom shim explores interleavings by reseeding a deterministic
# yield schedule per iteration; raise LOOM_MAX_ITERS for a deeper search.
echo "== loom models (LOOM_MAX_ITERS=${LOOM_MAX_ITERS:-64})"
RUSTFLAGS="--cfg loom" cargo test -p pdgf-output -p pdgf-runtime --test loom

# The static half of the story: the lock-order acyclicity proof and
# blocking-section diagnostics (`cargo xtask locks`). E-codes are a hard
# failure here just as in check.sh.
echo "== cargo xtask locks"
cargo xtask locks

# Miri catches undefined behaviour and unsynchronized accesses that loom's
# schedule exploration cannot. It needs a nightly toolchain, which offline
# build environments may not have — skip gracefully rather than fail.
if cargo +nightly miri --version >/dev/null 2>&1; then
    echo "== cargo miri (pdgf-prng, pdgf-output, pdgf-runtime engine/events)"
    cargo +nightly miri test -p pdgf-prng
    cargo +nightly miri test -p pdgf-output --lib
    # The runtime's hand-rolled blocking primitives are exactly where
    # Miri's data-race detector earns its keep; scope to those modules so
    # the run stays minutes, not hours.
    cargo +nightly miri test -p pdgf-runtime --lib engine
    cargo +nightly miri test -p pdgf-runtime --lib events
else
    echo "== cargo miri: nightly toolchain with miri not installed; skipping"
fi

# ThreadSanitizer sees the real std primitives (no shim, no model): data
# races in the serve/runtime/output test subset under actual OS
# scheduling. Needs nightly + rust-src for -Zbuild-std; skip gracefully.
if cargo +nightly --version >/dev/null 2>&1 \
    && rustup component list --toolchain nightly 2>/dev/null | grep -q "rust-src (installed)"; then
    host="$(rustc -vV | sed -n 's/^host: //p')"
    echo "== ThreadSanitizer (pdgf-runtime, pdgf-output) on ${host}"
    RUSTFLAGS="-Zsanitizer=thread" \
        cargo +nightly test -Zbuild-std --target "$host" \
        -p pdgf-runtime -p pdgf-output --lib
    RUSTFLAGS="-Zsanitizer=thread" \
        cargo +nightly test -Zbuild-std --target "$host" \
        -p pdgf-runtime --test telemetry
else
    echo "== ThreadSanitizer: nightly toolchain with rust-src not installed; skipping"
fi

echo "Concurrency checks passed."
