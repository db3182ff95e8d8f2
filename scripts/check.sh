#!/usr/bin/env bash
# Offline CI gate: everything here must pass before a commit lands.
# Mirrors .github/workflows/ci.yml so the same script runs locally and
# in CI without network access (all dependencies are vendored).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, all targets, -D warnings)"
cargo clippy --locked --workspace --all-targets -- -D warnings

echo "==> xlint (workspace invariants: D/P/F/K/L/S/A, see DESIGN.md §6)"
# Prints the waiver and grandfathered counts in its summary line.
# Exit 1 = violations; exit 2 = linter/config error — both fail the gate.
cargo run --locked -q -p xlint

echo "==> xlint --check-wire-pin (wire-format drift vs committed xlint.wire)"
# A layout change in crates/net/src/wire.rs must bump wire::VERSION and
# regenerate the pin (cargo run -p xlint -- --write-wire-pin) to pass.
cargo run --locked -q -p xlint -- --check-wire-pin

echo "==> cargo build --release"
cargo build --locked --release

echo "==> cargo test (workspace)"
cargo test --locked -q --workspace

echo "==> net loopback tests (wire protocol, staging service, remote stager)"
# Already covered by the workspace run above; re-run as a named step so a
# networking regression is visible at a glance, same pattern as xlint.
cargo test --locked -q -p xlayer-net
cargo test --locked -q --test remote_staging

echo "==> multi-shard loopback cluster (routing, scatter/gather, shard faults)"
# Also inside the -p xlayer-net run above; named so a sharding regression
# is distinguishable from a single-server transport one.
cargo test --locked -q -p xlayer-net --test cluster

echo "==> disk tier tests (extent log, spill policy, tiered workflows)"
# Also inside the workspace run above; named so a tier regression is
# visible at a glance. Tier tests create their scratch directories under
# $TMPDIR (unique per process + sequence number) and remove them on
# success; sweep any leftovers from earlier failed runs first so disk
# usage cannot accumulate across CI attempts.
rm -rf "${TMPDIR:-/tmp}"/xlayer-tierprop-* "${TMPDIR:-/tmp}"/xlayer-native-* \
       "${TMPDIR:-/tmp}"/xlayer-tier-* "${TMPDIR:-/tmp}"/xlayer-disklog-* \
       "${TMPDIR:-/tmp}"/xlayer-tiered-server-*
cargo test --locked -q -p xlayer-staging
cargo test --locked -q -p xlayer-workflow --lib tiered

echo "==> xbench load-generation tests (spec parser, control protocol, e2e loopback)"
# Also inside the workspace run above; named so a load-harness regression
# is distinguishable from a transport one.
cargo test --locked -q -p xlayer-xbench

echo "==> xbench smoke (2-shard cluster + 2 agents on loopback, 2-step sweep)"
# In-process end to end: validates the saturation sweep's invariants
# (monotone offered load, positive knee and goodput) and prints the
# bench-style JSON. Seconds of wall time, ephemeral ports only.
cargo run --locked --release -q -p xlayer-xbench --bin xbench-ctl -- --smoke

echo "==> bench targets compile"
cargo build --locked --release -p xlayer-bench --benches --bins

echo "==> bench summary schema (BENCH_native_hotpath.json)"
cargo run --locked --release -q -p xlayer-bench --bin bench_schema_check -- BENCH_native_hotpath.json

echo "==> perfbench build and unit tests (end-to-end benchmark package)"
# perfbench/ is its own package outside the workspace (own lockfile and
# [workspace]), so the workspace runs above never compile it; a library
# change that breaks the benchmark's build or its tests fails here.
cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "All checks passed."
