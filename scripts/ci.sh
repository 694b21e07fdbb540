#!/usr/bin/env bash
# The full local CI gate; run from the repository root.
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

echo "== cargo bench --no-run"
cargo bench --no-run --workspace

echo "== sim_throughput --smoke"
cargo run --release -q -p dtc-bench --bin sim_throughput -- --smoke

echo "== tracelint --smoke"
cargo run --release -q -p dtc-bench --bin tracelint -- --smoke

echo "== fuzz --smoke"
cargo run --release -q -p dtc-bench --bin fuzz -- --smoke

echo "== serve_bench --smoke (bitwise conformance; pool hit-rate gate 90%)"
cargo run --release -q -p dtc-bench --bin serve_bench -- --smoke

echo "== cache_bench --smoke (two-tier <= exact-only steady state; collision verify-reject)"
cargo run --release -q -p dtc-bench --bin cache_bench -- --smoke

echo "== schedcheck --smoke (schedule-space model check; lock-order audit)"
cargo run --release -q -p dtc-bench --bin schedcheck -- --smoke

echo "== streaming_bench --smoke (delta bitwise identity; 5x single-window gate)"
cargo run --release -q -p dtc-bench --bin streaming_bench -- --smoke

echo "== parallel_scaling --smoke (threads 1 and 4; critical-path gate 1.5x)"
cargo run --release -q -p dtc-bench --bin parallel_scaling -- --smoke

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets --all-features -- -D warnings

echo "== cargo doc -D warnings (rustdoc lints, intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "CI gate passed."
