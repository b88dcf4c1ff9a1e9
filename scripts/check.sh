#!/usr/bin/env bash
# Repo-wide gate: formatting, lints, and the tier-1 build + tests.
# Run from anywhere; everything executes at the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

# The pairs protocol is a seven-minute series per workload: it does not
# belong in the gate, but a script nobody can parse does not either.
echo "==> bash -n scripts/pairs.sh"
bash -n scripts/pairs.sh

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --all-targets --workspace -- -D warnings"
cargo clippy --all-targets --workspace -- -D warnings

# The telemetry-off feature must keep lint-clean, not just building: the
# cfg'd-out trace, clock and histogram paths are code only this pass ever
# lints.
echo "==> cargo clippy -p hotcalls --features telemetry-off --all-targets -- -D warnings"
cargo clippy -p hotcalls --features telemetry-off --all-targets -- -D warnings

# Rustdoc over the first-party packages (the vendored stand-ins are not
# ours to lint): a doc link to a deleted or private item fails the gate.
echo "==> cargo doc --no-deps (first-party packages) with -D warnings"
RUSTDOCFLAGS='-D warnings' cargo doc --offline --no-deps -q \
    -p hotcalls-repro -p sgx-sim -p sgx-sdk -p hotcalls -p apps -p workloads -p bench

# Telemetry-off compiles out instrumentation, not decisions: the router
# decides from what its callers hand it, so the ctl property tests must
# see the same flips and convergence in this build.
# The two lib suites run the instrumentation-free paths of every plane
# (and `apps::env`'s stage-histogram guard), which clippy only lints.
echo "==> cargo test -p hotcalls --test prop_ctl --features telemetry-off"
cargo test -p hotcalls --test prop_ctl --features telemetry-off -q
echo "==> cargo test -p hotcalls --lib --features telemetry-off"
cargo test -q -p hotcalls --lib --features telemetry-off
echo "==> cargo test -p apps --lib --features hotcalls/telemetry-off"
cargo test -q -p apps --lib --features hotcalls/telemetry-off

# Tier-1 is the root package (`cargo build --release && cargo test -q`,
# which runs every `paper` experiment's claims at smoke scale through
# tests/paper_claims.rs); the gate runs every crate's suites.
echo "==> cargo build --release && cargo test -q --workspace (+ the benchmark package's own tests)"
cargo build --release
cargo test -q --workspace
cargo test --release -q -p sgx-sim crypto
cargo test --offline -q --manifest-path benchmark/Cargo.toml

# The simulator's differential proptests again under optimisation: the
# tag store's recency-order moves and the reciprocal remainder of the MEE
# cache's victim draw only take their final form there. The filter matches the four
# structure tests in `reference` and the two whole-`Machine` streams; a
# filter that matches nothing passes silently, so the count is checked.
echo "==> sgx-sim reference proptests (release)"
out=$(cargo test --release -q -p sgx-sim --lib reference 2>&1) || { echo "$out"; exit 1; }
grep -q "test result: ok. 6 passed" <<<"$out" \
    || { echo "expected 6 sgx-sim reference tests to run:"; echo "$out"; exit 1; }

# The mailbox end to end as a user drives it: round trips, a second call
# id, `call_with_fallback` and the stats. Clippy only compiles examples.
echo "==> cargo run --release --example switchless_rt"
cargo run --release -q --example switchless_rt

# The simulated side as a user drives it: build an enclave, time one SDK
# ocall and one HotCall on the machine model.
echo "==> cargo run --release --example quickstart"
cargo run --release -q --example quickstart

# The live data plane again under optimisation: the slot `debug_assert!`s
# only exist in debug (the pass above), the race windows only open in
# release. Then the tests that used to fail on scheduling luck, 20 times
# over, so a regression in any is a red check here and not folklore
# (`ticket_drop` abandons tickets on a one-responder ring: the
# dropped-ticket wedge; `prop_ctl` pipelines a window as
# deep as its ring: the `wait_any` oldest-first race;
# `wait_any_redeems_oldest_...` laps an 8-slot ring with 4 in flight: the
# `wait_any` wedge; `api_call_batch_laps_the_ring_...` pipelines three
# laps of `apps::env`'s ring in one batch: the lap rule of a window).
echo "==> hotcalls lib + integration suites (release); de-flaked tests x20"
cargo test --release -q -p hotcalls --lib --tests
# A filter that matches no test passes silently, so the named lib tests
# are addressed by full path and the run must report exactly that many
# passes.
deflaked=(
    rt::ring::tests::wait_any_redeems_oldest_and_never_wedges_on_wrap
)
deflaked_apps=(
    env::tests::api_call_batch_laps_the_ring_without_wedging
)
for _ in $(seq 20); do
    out=$(cargo test --release -q -p hotcalls --lib -- --exact "${deflaked[@]}" 2>&1) \
        || { echo "$out"; exit 1; }
    grep -q "test result: ok. ${#deflaked[@]} passed" <<<"$out" \
        || { echo "expected ${#deflaked[@]} de-flaked tests to run:"; echo "$out"; exit 1; }
    out=$(cargo test --release -q -p apps --lib -- --exact "${deflaked_apps[@]}" 2>&1) \
        || { echo "$out"; exit 1; }
    grep -q "test result: ok. ${#deflaked_apps[@]} passed" <<<"$out" \
        || { echo "expected ${#deflaked_apps[@]} de-flaked apps tests to run:"; echo "$out"; exit 1; }
    cargo test --release -q -p hotcalls --test ticket_drop
    cargo test --release -q -p hotcalls --test prop_ctl
done

echo "==> all checks passed"
