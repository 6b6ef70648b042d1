#!/usr/bin/env bash
# The local pre-merge gate. A clean run of this script is the bar every
# change must meet (see README.md "Tests and benches").
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release"
cargo build --release

echo "== cargo test -q (root integration tests — tier-1)"
cargo test -q

echo "== cargo test -q --workspace"
cargo test -q --workspace

echo "== cargo test --doc --workspace"
cargo test -q --doc --workspace

echo "== cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps

echo "== cargo clippy --workspace (warnings are errors)"
cargo clippy -q --workspace --all-targets -- -D warnings

echo "== robustness_soak --quick (fault-matrix smoke: every impairment and mode transition, fixed seeds)"
cargo run -q --release -p cos-experiments --bin robustness_soak -- --quick

echo "== alloc gate (workspace rx ≥10x leaner than the owned path or ≥1.5x faster; streaming rx, tx+embed and lockstep decode 0 allocs; resilient and adaptive session paths < 0.1 allocs/frame with the ARQ queue loaded; a session added to a warmed engine allocates ≤128 KiB at 54 and 6 Mbps)"
cargo run -q --release -p cos-bench --bin alloc_gate

echo "== golden vectors (frozen waveforms + decodes for all 8 rates; any bit/sample drift fails)"
cargo test -q --release --test golden_vectors

echo "== golden vectors under COS_KERNELS=scalar (the lane/scalar bit-identity contract, end to end)"
COS_KERNELS=scalar cargo test -q --release --test golden_vectors

echo "== golden vectors on baseline x86-64 codegen (no host CPU features: bit identity must not rest on -C target-cpu=native; own target dir keeps the main cache)"
RUSTFLAGS="-C target-cpu=x86-64" CARGO_TARGET_DIR=target/x86-64 cargo test -q --release --test golden_vectors

echo "== channel kernel differential under both COS_KERNELS (lane AWGN/conv/overlap bit-identical to scalar)"
COS_KERNELS=scalar cargo test -q --release -p cos-channel --test kernel_differential
COS_KERNELS=lanes cargo test -q --release -p cos-channel --test kernel_differential

echo "== session_storm --smoke --kernels both (1000+ pooled sessions: engine outcome digests identical at 1/4/8 threads AND across scalar/lane kernels; 0 allocs/frame at pool steady state per kernel)"
cargo run -q --release -p cos-bench --bin session_storm -- --smoke --kernels both

echo "== adaptation_storm --smoke --kernels both (drifting adaptive sessions: outcome digests identical at 1/4/8 threads AND across kernels; drift duel: adaptive ≥ best fixed goodput with 100% control delivery and no backlog)"
cargo run -q --release -p cos-bench --bin adaptation_storm -- --smoke --kernels both

echo "== service_storm --smoke (async service chaos: zero lost or duplicated tickets, balanced ledger, every fault/rejection path exercised, bounded queues, digests identical at 1/4/8 threads, scripted and live journals replay byte-exactly)"
cargo run -q --release -p cos-bench --bin service_storm -- --smoke

echo "== mesh_storm --smoke (1024+ churning mesh stations: digests identical at 1/4/8 threads; coordination duel: coordinated goodput > CSMA with ≥99% control delivery)"
cargo run -q --release -p cos-bench --bin mesh_storm -- --smoke

echo "== docs link check (relative links and backticked *.md references must resolve)"
scripts/linkcheck.sh

echo "== CSV determinism (buffer reuse must not change a single byte of the committed results)"
cargo run -q --release -p cos-experiments --bin fig02_snr_gap > /dev/null
cargo run -q --release -p cos-experiments --bin fig05_evm_positions > /dev/null
git diff --exit-code -- results/

echo "== fig07_adaptation + robustness_soak CSV byte-identity (the adaptive and resilient send paths, end to end)"
cargo run -q --release -p cos-experiments --bin fig07_adaptation > /dev/null
cargo run -q --release -p cos-experiments --bin robustness_soak > /dev/null
git diff --exit-code -- results/

echo "== fig08_mesh CSV byte-identity at COS_THREADS=1/4/8 (the mesh determinism contract, end to end)"
for t in 1 4 8; do
    COS_THREADS=$t cargo run -q --release -p cos-experiments --bin fig08_mesh > /dev/null
    git diff --exit-code -- results/
done

echo "ALL CHECKS PASSED"
