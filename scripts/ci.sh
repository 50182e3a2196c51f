#!/usr/bin/env bash
# CI gate: build, test, lint, and perf-regression check, all offline.
#
# The repo vendors every dependency (see .cargo/config.toml), so the
# whole gate must pass with no network access; --offline --locked makes
# an accidental registry fetch or lockfile drift a hard failure instead
# of a silent download.
#
# Usage: scripts/ci.sh [--no-bench]
#   --no-bench   skip the bench-engine / bench-dp perf checks (useful on
#                loaded/shared machines where timing is unreliable)

set -euo pipefail
cd "$(dirname "$0")/.."

run_bench_check=1
for arg in "$@"; do
    case "$arg" in
        --no-bench) run_bench_check=0 ;;
        *) echo "unknown flag: $arg" >&2; exit 2 ;;
    esac
done

echo "== build (release, offline, locked) =="
cargo build --release --offline --locked --workspace

echo "== tests =="
cargo test --offline --locked --workspace --quiet

echo "== benchmark harness tests (its own workspace) =="
# The root workspace never compiles benchmark/, so an API change in the
# program crates could break the benchmark while everything above stays
# green. Output goes to the gitignored benchmark/target/.
cargo test --offline --locked --manifest-path benchmark/Cargo.toml

echo "== golden trace fixture =="
# Byte-for-byte pin of the Figure 2 JSONL trace. Drift here means the
# trace taxonomy or serialization changed: if that was intentional,
# rerun with \`ELASTISCHED_BLESS=1 cargo test -p elastisched --test
# golden_trace\` and commit the refreshed fixture.
if ! cargo test --offline --locked --quiet -p elastisched --test golden_trace; then
    echo "golden trace fixture drifted; rerun with \`ELASTISCHED_BLESS=1\` to re-bless (see above)" >&2
    exit 1
fi

echo "== golden timeline fixture =="
# Same discipline for the telemetry sampler's JSONL export (decimation
# arithmetic included); re-bless with \`ELASTISCHED_BLESS=1 cargo test
# -p elastisched --test golden_timeline\` after an intentional change.
if ! cargo test --offline --locked --quiet -p elastisched --test golden_timeline; then
    echo "golden timeline fixture drifted; rerun with \`ELASTISCHED_BLESS=1\` to re-bless (see above)" >&2
    exit 1
fi

echo "== golden attribution fixture =="
# Byte-for-byte pin of the wait-attribution profile (charging
# arithmetic, blocker ranking, serde layout); re-bless with
# \`ELASTISCHED_BLESS=1 cargo test -p elastisched --test
# golden_attribution\` after an intentional change.
if ! cargo test --offline --locked --quiet -p elastisched --test golden_attribution; then
    echo "golden attribution fixture drifted; rerun with \`ELASTISCHED_BLESS=1\` to re-bless (see above)" >&2
    exit 1
fi

echo "== divergence-explain smoke (escli diff on the headline workload) =="
# The headline acceptance for the attribution plane: diffing EASY vs
# Delayed-LOS on the built-in 500-job workload must report a nonzero
# attribution shift and a concrete first divergent decision.
diff_out=$(./target/release/escli diff easy delayed-los)
echo "$diff_out" | grep -q "wait attribution" || { echo "escli diff lost its attribution table" >&2; exit 1; }
echo "$diff_out" | grep -q "first divergence" || { echo "escli diff lost its divergence section" >&2; exit 1; }
if echo "$diff_out" | grep -q "both runs made the same"; then
    echo "escli diff easy delayed-los found no divergence — lockstep replay broken?" >&2
    exit 1
fi

echo "== metrics endpoint smoke (scrape /metrics + /status + /timeline over TCP) =="
cargo test --offline --locked --quiet -p elastisched --test metrics_endpoint

echo "== audit layer (always-on schedule checks + postmortem dump) =="
# The audit feature promotes the engine's debug_asserts to hard
# per-cycle checks; this step proves a clean run stays clean and an
# injected capacity skew yields a recoverable violation plus a
# parseable flight-recorder postmortem.
cargo test --offline --locked --quiet -p elastisched-sim --features audit

echo "== differential oracles (reference DP kernels + legacy schedulers) =="
# The policy stack must be metric-identical to the pre-stack scheduler
# implementations (kept verbatim behind the legacy-schedulers feature),
# and the bitset DP kernels to the scalar reference kernels. Feature
# unification already enables both features for every sched test target
# (self dev-dependency), so these are plain test invocations — named
# here so a failure is attributed to an oracle, not a unit test.
cargo test --offline --locked --quiet -p elastisched-sched --test legacy_differential
cargo test --offline --locked --quiet -p elastisched-sched --test registry_properties
cargo test --offline --locked --quiet -p elastisched-sched --test dp_properties

echo "== malleable degeneracy oracle (+m ≡ base on rigid workloads) =="
# The +m layer must be bit-identical to its base stack whenever no job
# is malleable (every registry core, dedicated layer included, plus a
# proptest across loads/seeds) and must actually resize when jobs are.
cargo test --offline --locked --quiet -p elastisched-sched --test malleable_degeneracy

echo "== clippy (deny warnings) =="
cargo clippy --offline --locked --workspace --all-targets -- -D warnings

echo "== soak smoke (50k-job streamed Lublin replay, bounded RSS) =="
# A bounded end-to-end pass through the streaming pipeline: source ->
# lazy admission -> reclaim -> folded metrics. Fails if throughput
# collapses or the run's peak-RSS growth exceeds a fixed budget, so a
# wait-view/slab leak shows up here long before the full soak would.
./target/release/repro soak --smoke

if [ "$run_bench_check" = 1 ]; then
    # All checks normalize by the snapshot's calibration score, so a
    # slow shared host is separated from a genuine code regression. The
    # engine check also prints a per-case ev/s delta table.
    echo "== bench-engine regression check (2% budget, calibration-normalized) =="
    ./target/release/repro bench-engine --check
    echo "== bench-dp kernel regression check (25% budget, calibration-normalized) =="
    ./target/release/repro bench-dp --check
    echo "== soak regression check (10% budget, calibration-normalized) =="
    ./target/release/repro soak --check
else
    echo "== bench perf regression checks skipped (--no-bench) =="
fi

echo "CI gate passed."
