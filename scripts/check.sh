#!/usr/bin/env bash
# The local pre-merge gate. A clean run of this script is the bar every
# change must meet (see README.md "Tests and benches").
set -euo pipefail
cd "$(dirname "$0")/.."

# The gate log, kept so the baseline-codegen leg can diff its digests
# against the native build's.
logs=$(mktemp -d)
trap 'rm -rf "$logs"' EXIT
# The behavioural digest lines of a gate log: every `digest` line except
# the service entry's `live:` one, which depends on pump timing.
storm_digests() { grep digest "$1" | grep -v '^  live:'; }

# The tree as this run found it: `git status --porcelain` plus a hash of
# `git diff HEAD`. The last step fails if any step rewrote a tracked file
# or left an untracked one, not only under results/. cosbench/Cargo.lock
# is left out: the cosbench self-test still rewrites it to drop a crate
# the workspace no longer has, and committing the refreshed file waits
# for the next benchmark change (ROADMAP direction 1).
tree_state() {
    git status --porcelain -- . ':!cosbench/Cargo.lock'
    git diff HEAD -- . ':!cosbench/Cargo.lock' | sha256sum
}
tree_before=$(tree_state)

echo "== Cargo.lock lists exactly the workspace members, the root package and crates/* (no vendored or external crate comes in undeclared)"
diff <(grep '^name = ' Cargo.lock | cut -d'"' -f2 | sort) \
    <(cargo metadata -q --no-deps --offline --format-version 1 | jq -r --arg root "$PWD/" \
        '.packages[] | select(.manifest_path | ltrimstr($root) | test("^(crates/[^/]+/)?Cargo.toml$")) | .name' | sort)

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

echo "== cosbench self-test (the benchmark's own package builds against the workspace's public API; every workload briefly, every metric present)"
cargo test --release -q --manifest-path cosbench/Cargo.toml

echo "== golden vectors (frozen waveforms + decodes for all 8 rates; any bit/sample drift fails)"
cargo test -q --release --test golden_vectors

echo "== gate --smoke (alloc: workspace rx, streaming rx and tx+embed 0 allocs/frame with every measured frame through, resilient and adaptive session paths < 0.1 allocs/frame with the ARQ queue loaded and data delivered, a session added to a warmed engine ≤4 KiB at 54 and 6 Mbps, a warmed drain of plain, resilient and adaptive jobs plus a faulted fleet (256 resilient sessions on a FeedbackLoss 0.6 reverse path, whose guards must change mode in the measured drains, cycling between ERROR and BASE) 0 allocations on 1 thread and at most one scoped thread spawn's 4 on 2; session: 1000+ pooled sessions; adaptation: drifting adaptive sessions, one in 24 on a link too weak for any rate, failing unless some frame enters ERROR, and the drift duel (adaptive ≥ best fixed goodput with 100% control delivery and no backlog); service: async chaos with zero lost or duplicated tickets, a balanced ledger, every fault/rejection path exercised, bounded queues, scripted and live journals replaying byte-exactly; mesh: 1024+ churning stations, and the coordination duel (coordinated goodput > CSMA with ≥99% control delivery); every storm's digests identical at 1/4/8 threads AND equal to its pinned smoke digest)"
cargo run -q --release -p cos-bench --bin gate -- --smoke 2>&1 | tee "$logs/gate"

echo "== golden vectors + channel digest + the session send-kind x feedback-fault pin + the engine differential (batched, shared-plane and thread-hopping sessions equal to sequential ones) + workspace reuse (dirty-workspace receives, erasure decodes and demaps equal to fresh ones, so through the portable demap, staging and Viterbi bodies) + every kernel differential + storm digests on baseline x86-64 codegen (no host CPU features: bit identity, noise included, must not rest on -C target-cpu=native; the build compiles no AVX-512 body, so the lane FFT, the i16 Viterbi, the TX interleave and RX staging permutes and the soft demap run their portable bodies, each against its scalar reference or oracle; all of gate --smoke, so the alloc entry's gates, the warmed drain's 0 allocations on 1 thread with the faulted fleet included, hold with the portable bodies too, and every storm digest line (the service entry's scripted one, not its live one) equals the native build's and its pin; own target dir keeps the main cache)"
baseline() { RUSTFLAGS="-C target-cpu=x86-64" CARGO_TARGET_DIR=target/x86-64 "$@"; }
baseline cargo test -q --release --test golden_vectors --test channel_digest --test session_behaviour --test engine_differential --test workspace_reuse
baseline cargo test -q --release -p cos-dsp --test kernel_differential
baseline cargo test -q --release -p cos-channel --test kernel_differential
baseline cargo test -q --release -p cos-fec --test kernel_differential
baseline cargo test -q --release -p cos-phy --test tx_differential --test rx_staging_differential --test rx_tail_differential --test demap_differential
baseline cargo run -q --release -p cos-bench --bin gate -- --smoke 2>&1 | tee "$logs/gate.x86-64"
diff <(storm_digests "$logs/gate") <(storm_digests "$logs/gate.x86-64")
echo "gate: $(storm_digests "$logs/gate.x86-64" | wc -l) digest lines equal to the native build's"

echo "== docs link check (relative links and backticked *.md references must resolve)"
scripts/linkcheck.sh

echo "== committed results byte-identity (run_all: every figure, adaptation, the mesh and the three ablations; robustness_soak, the full fault matrix, which exits 1 on any failed scenario, and the BENCH_pr2.json it rewrites; every CSV under results/ must be rewritten by these two runs)"
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

echo "== run_all into a closed stdout (run_all fig05_evm_positions fig10a_fft_snapshot | head -1, in a scratch directory: exits 0 and writes both CSVs)"
cargo build -q --release -p cos-experiments --bin run_all
run_all="$(cd "${CARGO_TARGET_DIR:-target}" && pwd)/release/run_all"
mkdir "$logs/pipe"
(cd "$logs/pipe" && "$run_all" fig05_evm_positions fig10a_fft_snapshot | head -1 > /dev/null)
test -s "$logs/pipe/results/fig05_evm_positions.csv"
test -s "$logs/pipe/results/fig10a_fft_snapshot.csv"

echo "== fig08_mesh CSV byte-identity at COS_THREADS=1/4/8 (the mesh determinism contract, end to end)"
for t in 1 4 8; do
    COS_THREADS=$t cargo run -q --release -p cos-experiments --bin run_all -- fig08_mesh > /dev/null
    git diff --exit-code -- results/
done

echo "== the run left the tree as it found it (git status and git diff HEAD, cosbench/Cargo.lock aside)"
if ! diff <(echo "$tree_before") <(tree_state); then
    echo "this run changed the working tree (above: before <, after >)"
    exit 1
fi

echo "ALL CHECKS PASSED"
