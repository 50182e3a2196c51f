#!/usr/bin/env bash
# CI gate: build, test, lint, and the perf gate, all offline.
#
# The repo vendors every dependency (see .cargo/config.toml), so the
# whole gate must pass with no network access; --offline --locked makes
# an accidental registry fetch or lockfile drift a hard failure instead
# of a silent download.
#
# Usage: scripts/ci.sh [--no-bench]
#   --no-bench   skip the one timing step, `repro perf-gate` (about four
#                minutes: three rounds of the repository benchmark)

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

echo "== golden plane fixture =="
# Per-run attribution profiles plus digests of every job's wait
# attribution and of the timeline JSONL, for every registry algorithm
# and two composed stacks on seeded 300-job workloads with queued
# processor ECCs; re-bless with \`ELASTISCHED_BLESS=1 cargo test -p
# elastisched --test golden_planes\` after an intentional change.
if ! cargo test --offline --locked --quiet -p elastisched --test golden_planes; then
    echo "golden plane fixture drifted; rerun with \`ELASTISCHED_BLESS=1\` to re-bless (see above)" >&2
    exit 1
fi

echo "== golden metrics exposition fixture =="
# Byte-for-byte pin of the standard metric set's /metrics text and
# /status snapshot JSON (every name, help text, kind and order);
# re-bless with \`ELASTISCHED_BLESS=1 cargo test -p elastisched --test
# golden_exposition\` after an intentional change to the set.
if ! cargo test --offline --locked --quiet -p elastisched --test golden_exposition; then
    echo "golden metrics exposition drifted; rerun with \`ELASTISCHED_BLESS=1\` to re-bless (see above)" >&2
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
# The plane suites and the engine-mode parity proptest under the same
# feature: the audit's cross-checks of the engine's running-set
# aggregates and of each waiting job's wait-view identity then cover all
# 19 registry algorithms and both resizing stacks (hybrid-los+m+e,
# easy+d+m+e), on random workloads too.
cargo test --offline --locked --quiet -p elastisched --features elastisched-sim/audit \
    --test golden_planes --test attribution_properties --test streaming_differential

echo "== scheduler oracles (pinned stack schedules, reference DP kernels, resource profile, fresh Conservative and ordered cores) =="
# legacy_differential pins the metrics and per-job schedule of every
# registry algorithm on the six fixed cases of the retired pre-stack
# scheduler oracle, frozen from its answers; re-bless with
# \`ELASTISCHED_BLESS=1 cargo test -p elastisched-sched --test
# legacy_differential\` only after an intentional schedule change. It is also the fixed-case check of
# Conservative's early exit (the walk stops at the last job that could
# start now) and the ordered backfills' exit at a full machine: its
# load-1.0 backlog case reaches both often. The bitset DP kernels must match the
# scalar reference kernels; feature unification already enables
# reference-kernels for every sched test target (self dev-dependency),
# so these are plain test invocations, named here so a failure is
# attributed to an oracle, not a unit test.
# Conservative's random-input oracle is conservative_fresh_oracle: a
# core built anew every cycle (so it always rebuilds its profile and
# walks from the head) must schedule exactly like the one that keeps its
# profile across cycles, on the -D and +m stacks and with ECCs too.
# The ordered cores' random-input oracle is ordered_fresh_oracle: a
# core that sorts the whole queue every cycle must schedule exactly like
# the one that keeps its policy order across cycles, for SJF,
# Smallest-First and Largest-First with and without backfilling, on the
# same stacks and workloads.
# profile_oracle checks ResourceProfile itself against a per-second
# brute force. The dp:: unit
# tests pin the kernels' layout boundaries (the packed one-word layer at
# 121 and exactly 128 bits, word rows past it, a retained table growing
# across the boundary) against the reference kernels.
cargo test --offline --locked --quiet -p elastisched-sched --lib dp::
cargo test --offline --locked --quiet -p elastisched-sched --test legacy_differential
cargo test --offline --locked --quiet -p elastisched-sched --test registry_properties
cargo test --offline --locked --quiet -p elastisched-sched --test dp_properties
cargo test --offline --locked --quiet -p elastisched-sched --test profile_oracle
cargo test --offline --locked --quiet -p elastisched-sched --test conservative_fresh_oracle
cargo test --offline --locked --quiet -p elastisched-sched --test ordered_fresh_oracle

echo "== engine mode parity (load + run ≡ a folded stream) =="
# Engine::run streams the slices load sorted and collects the outcomes;
# a folded run over the same slices must give the same RunMetrics and
# per-job schedule: on the fixed workloads and, in the proptest, for
# every registry algorithm and both resizing stacks on random workloads
# with dedicated jobs, malleable ranges and time and processor ECCs.
cargo test --offline --locked --quiet -p elastisched --test streaming_differential

echo "== malleable degeneracy oracle (+m ≡ base on rigid workloads) =="
# The +m layer must be bit-identical to its base stack whenever no job
# is malleable (every registry core, dedicated layer included, plus a
# proptest across loads/seeds) and must actually resize when jobs are.
cargo test --offline --locked --quiet -p elastisched-sched --test malleable_degeneracy

echo "== trace-format parser oracle =="
# Every SWF/CWF reader goes through one byte tokenizer. It must agree
# with a reference built on the str rules (split_whitespace,
# i64::from_str) on generated text, and both streaming readers must
# yield what the file parsers materialize, or stop with the same error.
# source_stream pins the readers' stream contract around their parse
# worker: where an error ends the stream, an early drop, a reader panic,
# and streams around the batch size. Both suites run a second time on
# one core, where the worker and the consuming thread take turns.
cargo test --offline --locked --quiet -p elastisched-workload \
    --test format_properties --test source_stream
if command -v taskset >/dev/null; then
    taskset -c 0 cargo test --offline --locked --quiet -p elastisched-workload \
        --test format_properties --test source_stream
else
    echo "taskset not found: skipping the one-core run of the parser oracle"
fi

echo "== clippy (deny warnings) =="
cargo clippy --offline --locked --workspace --all-targets -- -D warnings

echo "== rustfmt (check only) =="
# Covers every workspace member; benchmark/ is its own workspace.
cargo fmt --all -- --check

echo "== rustdoc (deny warnings) =="
# Broken intra-doc links, citation brackets such as [8] read as links,
# and public docs linking private items fail here. The step also checks
# the docs the standard metric table generates for each metrics key.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --locked --workspace --no-deps

echo "== examples (each runs once) =="
# clippy --all-targets compiles the examples; this runs them, so an
# example that panics fails the gate. schedule_analysis asserts that its
# schedules are feasible.
for example in elastic_commands heterogeneous_mix quickstart schedule_analysis \
    trace_tools tune_skip_count; do
    cargo run --release --offline --locked --quiet -p elastisched --example "$example" >/dev/null
done

echo "== soak smoke (50k-job streamed Lublin replay, bounded RSS) =="
# A bounded end-to-end pass through the streaming pipeline: source ->
# lazy admission -> reclaim -> folded metrics. Fails if the run's
# peak-RSS growth exceeds a fixed budget or its telemetry timeline is
# empty or over its point budget, so a wait-view/slab leak shows up
# here. It prints events/s but checks no timing: that is the perf gate's.
./target/release/repro soak --smoke

if [ "$run_bench_check" = 1 ]; then
    # The repository benchmark (BENCHMARK.json) against the fixed
    # baseline in scripts/perf_baseline.jsonl: as many rounds as the
    # baseline has lines, and a failure when any end-to-end metric's
    # median is worse than the baseline's by more than its bound.
    echo "== perf gate (benchmark vs the committed baseline) =="
    ./target/release/repro perf-gate
else
    echo "== perf gate skipped (--no-bench) =="
fi

echo "CI gate passed."
