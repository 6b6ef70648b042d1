#!/usr/bin/env bash
# The local pre-merge gate. A clean run of this script is the bar every
# change must meet (see README.md "Tests and benches").
set -euo pipefail
cd "$(dirname "$0")/.."

# Storm logs, kept so the baseline-codegen leg can diff its digests
# against the native build's.
logs=$(mktemp -d)
trap 'rm -rf "$logs"' EXIT
# The behavioural digest lines of a storm log: every `digest` line except
# service_storm's `live:` one, which depends on pump timing.
storm_digests() { grep digest "$1" | grep -v '^  live:'; }

echo "== cargo build --release"
cargo build --release

echo "== cargo test -q (root integration tests — tier-1)"
cargo test -q

echo "== cargo test -q --workspace"
cargo test -q --workspace

echo "== every kernel differential in release on the native build (the intrinsic bodies this host compiles: the i16 Viterbi, the TX interleave and RX staging permutes, the soft demap and the lane FFT, each against its scalar reference or oracle, with the optimiser's codegen; the x86-64 leg below runs the portable bodies)"
cargo test -q --release -p cos-dsp --test kernel_differential
cargo test -q --release -p cos-channel --test kernel_differential
cargo test -q --release -p cos-fec --test kernel_differential
cargo test -q --release -p cos-phy --test tx_differential --test rx_staging_differential --test rx_tail_differential --test demap_differential

echo "== cargo test --doc --workspace"
cargo test -q --doc --workspace

echo "== cargo doc --no-deps --workspace (warnings are errors, every member crate)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace

echo "== cargo clippy --workspace (warnings are errors)"
cargo clippy -q --workspace --all-targets -- -D warnings

echo "== examples (quickstart, mobile_walkthrough, access_coordination: each asserts its own claim, and cargo test only compiles examples)"
for example in quickstart mobile_walkthrough access_coordination; do
    cargo run -q --release --example "$example" > /dev/null
done

echo "== robustness_soak --quick (fault-matrix smoke: every impairment and mode transition, fixed seeds)"
cargo run -q --release -p cos-experiments --bin robustness_soak -- --quick

echo "== alloc gate (workspace rx ≥10x leaner than the owned path or ≥1.5x faster; streaming rx and tx+embed 0 allocs/frame; resilient and adaptive session paths < 0.1 allocs/frame with the ARQ queue loaded; a session added to a warmed engine allocates ≤128 KiB at 54 and 6 Mbps)"
cargo run -q --release -p cos-bench --bin alloc_gate

echo "== cosbench self-test (the benchmark's own package builds against the workspace's public API; every workload briefly, every metric present)"
cargo test --release -q --manifest-path cosbench/Cargo.toml

echo "== golden vectors (frozen waveforms + decodes for all 8 rates; any bit/sample drift fails)"
cargo test -q --release --test golden_vectors

echo "== session_storm --smoke (1000+ pooled sessions: engine outcome digests identical at 1/4/8 threads AND equal to the pinned smoke digest; at pool steady state a drain of plain, resilient and adaptive jobs allocates nothing on 1 thread and at most one scoped thread spawn's 4 allocations on 2)"
cargo run -q --release -p cos-bench --bin session_storm -- --smoke 2>&1 | tee "$logs/session_storm"

echo "== adaptation_storm --smoke (drifting adaptive sessions: outcome digests identical at 1/4/8 threads AND equal to the pinned smoke digest; drift duel: adaptive ≥ best fixed goodput with 100% control delivery and no backlog)"
cargo run -q --release -p cos-bench --bin adaptation_storm -- --smoke 2>&1 | tee "$logs/adaptation_storm"

echo "== service_storm --smoke (async service chaos: zero lost or duplicated tickets, balanced ledger, every fault/rejection path exercised, bounded queues, digests identical at 1/4/8 threads and the scripted one equal to its pin, scripted and live journals replay byte-exactly)"
cargo run -q --release -p cos-bench --bin service_storm -- --smoke 2>&1 | tee "$logs/service_storm"

echo "== mesh_storm --smoke (1024+ churning mesh stations: digests identical at 1/4/8 threads and equal to the pinned smoke digest; coordination duel: coordinated goodput > CSMA with ≥99% control delivery)"
cargo run -q --release -p cos-bench --bin mesh_storm -- --smoke 2>&1 | tee "$logs/mesh_storm"

echo "== golden vectors + channel digest + the session send-kind x feedback-fault pin + every kernel differential + storm digests on baseline x86-64 codegen (no host CPU features: bit identity, noise included, must not rest on -C target-cpu=native; the build compiles no AVX-512 body, so the lane FFT, the i16 Viterbi, the TX interleave and RX staging permutes and the soft demap run their portable bodies, each against its scalar reference or oracle; every storm smoke digest, service_storm's scripted one, equal to the native build's and to its pin; own target dir keeps the main cache)"
baseline() { RUSTFLAGS="-C target-cpu=x86-64" CARGO_TARGET_DIR=target/x86-64 "$@"; }
baseline cargo test -q --release --test golden_vectors --test channel_digest --test session_behaviour
baseline cargo test -q --release -p cos-dsp --test kernel_differential
baseline cargo test -q --release -p cos-channel --test kernel_differential
baseline cargo test -q --release -p cos-fec --test kernel_differential
baseline cargo test -q --release -p cos-phy --test tx_differential --test rx_staging_differential --test rx_tail_differential --test demap_differential
for storm in session_storm adaptation_storm service_storm mesh_storm; do
    baseline cargo run -q --release -p cos-bench --bin "$storm" -- --smoke 2>&1 | tee "$logs/$storm.x86-64"
    diff <(storm_digests "$logs/$storm") <(storm_digests "$logs/$storm.x86-64")
    lines=$(storm_digests "$logs/$storm.x86-64" | wc -l)
    echo "$storm: $lines digest lines equal to the native build's"
done

echo "== docs link check (relative links and backticked *.md references must resolve)"
scripts/linkcheck.sh

echo "== committed results byte-identity (run_all: every figure, adaptation, the mesh and the three ablations; robustness_soak and the BENCH_pr2.json it rewrites; every CSV under results/ must be rewritten by these two runs)"
touch "$logs/results.stamp"
cargo run -q --release -p cos-experiments --bin run_all > /dev/null
cargo run -q --release -p cos-experiments --bin robustness_soak > /dev/null
git diff --exit-code -- results/ BENCH_pr2.json
stale=$(find results -name '*.csv' ! -newer "$logs/results.stamp")
if [ -n "$stale" ]; then
    echo "CSVs under results/ that run_all and robustness_soak did not rewrite:"
    echo "$stale"
    exit 1
fi

echo "== fig08_mesh CSV byte-identity at COS_THREADS=1/4/8 (the mesh determinism contract, end to end)"
for t in 1 4 8; do
    COS_THREADS=$t cargo run -q --release -p cos-experiments --bin run_all -- fig08_mesh > /dev/null
    git diff --exit-code -- results/
done

echo "ALL CHECKS PASSED"
