#!/usr/bin/env bash
# The full local CI gate; run from the repository root.
#
# The plan cache is one exact map keyed by the full matrix identity and
# the precision. Its bitwise behaviour is checked by `fuzz --smoke` (the
# `cache/` axis compares cold, near-duplicate and warm lookups with a
# direct plan build) and by `cargo test`; that a one-field identity
# difference misses is pinned by `material_differing_in_one_field_misses`
# in dtc-core.
#
# The serving layer is gated by a short traced perfbench `serve_hot` run,
# the replacement for the retired serving smoke bin: perfbench checks
# every response against a direct `prepare(..).execute(..)` and exits 1
# on a mismatch, exits 2 on a metric that is not finite or not measured,
# and the awk filter fails the step when `serve.pool.hit_ratio` is
# missing or below 0.9, when `serve.admit.us` is missing or above 20
# (admission reads each matrix's memoised checksums, so keying a request
# must not rehash its matrix), or when `core.prepare.ms` is missing or
# above 0.5 (a DTC prepare builds only the execute plan; ME-TCF, the
# Selector and the kernel lowering wait until the simulator asks).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release"
cargo build --release --workspace

echo "== cargo test"
cargo test -q --workspace

echo "== cargo test (perfbench driver)"
cargo test --offline -q --manifest-path perfbench/Cargo.toml

echo "== cargo test (sim compression equivalence)"
cargo test -q --test sim_compression

echo "== cargo test --release (dtc-core kernel bitwise oracle under the optimiser)"
cargo test --release -q -p dtc-core kernel::

echo "== cargo bench --no-run"
cargo bench --no-run --workspace

echo "== sim_throughput --smoke"
cargo run --release -q -p dtc-bench --bin sim_throughput -- --smoke

echo "== tracelint --smoke"
cargo run --release -q -p dtc-bench --bin tracelint -- --smoke

echo "== fuzz --smoke"
cargo run --release -q -p dtc-bench --bin fuzz -- --smoke

echo "== perfbench serve_hot --trace 1 (served-vs-direct bitwise gate; pool hit-ratio floor 0.9; admit at most 20 us; prepare at most 0.5 ms)"
cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
    --workload serve_hot --seed 1 --seconds 2 --trace 1 \
    | awk '{ print }
           $1 == "metric" && $2 == "serve.pool.hit_ratio" { r = $3 }
           $1 == "metric" && $2 == "serve.admit.us" { a = $3 }
           $1 == "metric" && $2 == "core.prepare.ms" { p = $3 }
           END { if (r !~ /^[0-9.]+$/ || r + 0 < 0.9) {
                     print "serve.pool.hit_ratio is " (r == "" ? "missing" : r) "; floor 0.9"
                     exit 1 }
                 if (a !~ /^[0-9.]+$/ || a + 0 > 20) {
                     print "serve.admit.us is " (a == "" ? "missing" : a) "; bound 20"
                     exit 1 }
                 if (p !~ /^[0-9.]+$/ || p + 0 > 0.5) {
                     print "core.prepare.ms is " (p == "" ? "missing" : p) "; bound 0.5"
                     exit 1 } }'

echo "== schedcheck --smoke (schedule-space model check; lock-order audit)"
cargo run --release -q -p dtc-bench --bin schedcheck -- --smoke

echo "== streaming_bench --smoke (delta bitwise identity; 5x single-window ME-TCF patch gate)"
cargo run --release -q -p dtc-bench --bin streaming_bench -- --smoke

echo "== parallel_scaling --smoke (threads 1 and 4; critical-path gate 1.5x)"
cargo run --release -q -p dtc-bench --bin parallel_scaling -- --smoke

echo "== cargo fmt --check"
cargo fmt --all -- --check

# significant_drop_in_scrutinee: a lock guard in an `if let`/`match`
# scrutinee lives through the whole body, so anything that body locks
# becomes an acquired-while-holding edge the lock graph must list.
echo "== cargo clippy -D warnings -D clippy::significant_drop_in_scrutinee"
cargo clippy --workspace --all-targets --all-features -- -D warnings \
    -D clippy::significant_drop_in_scrutinee

echo "== cargo doc -D warnings (rustdoc lints, intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "CI gate passed."
