#!/usr/bin/env bash
# CI for the ASAP reproduction. Run from the repo root:
#
#   ./ci.sh              # full pass: fmt, clippy, release build, tests,
#                        # doc, end-to-end smoke scenarios via the asap CLI
#   ./ci.sh --quick      # only the CLI dispatch + smoke scenarios
#                        # (fast driver-regression check, ~seconds)
#   ASAP_QUICK=1 ./ci.sh # full gates, reduced simulation windows
#
# The build+test steps are the repository's tier-1 verification command
# (`cargo build --release && cargo test -q`); the script adds the style
# and invariant gates in front and the end-to-end smoke pass behind, so a
# green ./ci.sh implies a clean PR.
set -euo pipefail
cd "$(dirname "$0")"

run() {
    echo
    echo "==> $*"
    "$@"
}

ASAP="cargo run --release -q -p asap-bench --bin asap --"

invariant_gate() {
    # The radix page-table model in asap-pt-test-util is a test oracle for
    # the flat page table, not a second store: only tests, benches and
    # examples (dev-dependencies) may use it. Inverting the normal-edge
    # dependency tree on it must name nothing but the oracle itself.
    echo
    echo "==> cargo tree --workspace -e normal -i asap-pt-test-util"
    oracle_users="$(cargo tree --offline --workspace -e normal -i asap-pt-test-util --prefix none)"
    echo "$oracle_users"
    if echo "$oracle_users" | grep -qv '^asap-pt-test-util '; then
        echo "oracle gate FAILED: a library or binary crate depends on asap-pt-test-util"
        exit 1
    fi
    # Invariant gate: clippy over the library and binary targets of the
    # first-party crates (the vendored shims are excluded), warnings denied.
    # - Determinism: clippy.toml's disallowed-types (std HashMap/HashSet,
    #   SystemTime) and disallowed-methods (Instant::now, SystemTime::now).
    # - Panic-freedom: the workspace unwrap_used/expect_used/panic lints.
    # A site that is the point (the FastMap alias, the self-profile clock)
    # or a documented invariant carries #[expect(clippy::..., reason)];
    # once it is fixed the expectation goes unfulfilled and fails here too,
    # so the count of annotated sites can only fall. Test code is outside
    # these targets, so it may hash, time and unwrap freely.
    run cargo clippy --workspace --exclude rand --exclude proptest --exclude criterion \
        --lib --bins -- -D warnings
    # `asap metrics-manifest --check` diffs live runs against the committed
    # manifest; losing it from git would silently disable that check.
    if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
        if ! git ls-files --error-unmatch METRICS.json >/dev/null 2>&1; then
            echo "METRICS.json must be git-tracked (metrics-manifest --check diffs against it)"
            exit 1
        fi
    fi
}

smoke() {
    # The whole experiment surface is one CLI now; sanity-check its
    # dispatch first (`list` must resolve the registry and name the smoke
    # scenarios) so a broken binary fails loudly before the long part.
    echo
    echo "==> asap list"
    list_output="$($ASAP list)"
    echo "$list_output"
    echo "$list_output" | grep -q "^smoke " \
        || { echo "asap list does not name the smoke scenario"; exit 1; }
    # The multi-core smoke scenario must stay in the drift-gated set: its
    # per-core + aggregate rows in BENCH_results.json are what pin the
    # shared-fabric timing model.
    echo "$list_output" | grep -q "^smp_smoke " \
        || { echo "asap list does not name the smp_smoke scenario"; exit 1; }
    # Likewise the NUMA smoke scenario: its rows pin the split-fabric
    # interconnect-hop model (window homing, per-core node assignment).
    echo "$list_output" | grep -q "^numa_smoke " \
        || { echo "asap list does not name the numa_smoke scenario"; exit 1; }
    # The full-tier results file is scratch output, never a baseline: it
    # must stay git-ignored and untracked (PR 2 declared it ignored, PR 7
    # enforces it).
    if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
        if git ls-files --error-unmatch BENCH_results_full.json >/dev/null 2>&1; then
            echo "BENCH_results_full.json is tracked; it must stay git-ignored scratch"
            exit 1
        fi
    fi
    # The registry's smoke scenarios through the real generic driver loop
    # — catches driver regressions unit tests miss. Deterministic: it
    # regenerates BENCH_results.json, and the gate below fails on any
    # drift from the committed copy (the perf-trajectory check). A PR
    # that intentionally changes behaviour commits the regenerated file.
    #
    # The run is also a perf smoke: the batched hot path finishes the
    # smoke set in well under a second, so a pass that blows through the
    # (deliberately generous) ceiling means the inner loop regressed by
    # an order of magnitude, not that the machine was busy.
    smoke_t0=$(date +%s)
    run $ASAP smoke
    smoke_elapsed=$(( $(date +%s) - smoke_t0 ))
    smoke_ceiling="${ASAP_SMOKE_CEILING_S:-30}"
    if (( smoke_elapsed > smoke_ceiling )); then
        echo "perf smoke FAILED: asap smoke took ${smoke_elapsed}s (ceiling ${smoke_ceiling}s)"
        exit 1
    fi
    echo "perf smoke: asap smoke finished in ${smoke_elapsed}s (ceiling ${smoke_ceiling}s)"
    # Compare against HEAD (not the index) so staged-but-uncommitted drift
    # still fails the gate. `asap smoke` runs with telemetry disabled
    # (the CLI rejects --trace/--metrics/--profile on smoke), so this is
    # also the zero-observer-effect assertion: the telemetry layer being
    # compiled in must reproduce BENCH_results.json byte-identically.
    if git rev-parse --is-inside-work-tree >/dev/null 2>&1 \
        && git cat-file -e HEAD:BENCH_results.json 2>/dev/null; then
        run git diff --exit-code HEAD -- BENCH_results.json
        echo "observer-effect gate: telemetry-off smoke reproduced BENCH_results.json byte-identically"
    else
        echo
        echo "WARNING: trajectory check skipped (BENCH_results.json not in HEAD)"
    fi
    # Trace-schema round-trip gate: a traced run must emit Chrome
    # trace-event JSON that parses under the canonical grammar and
    # re-emits byte-identically (`asap trace-check`), so the --trace
    # output Perfetto consumes can never silently drift from the parser.
    trace_tmp="$(mktemp -t asap-trace.XXXXXX.json)"
    trap 'rm -f "$trace_tmp"' EXIT
    run $ASAP run numa_smoke --trace "$trace_tmp"
    run $ASAP trace-check "$trace_tmp"
    rm -f "$trace_tmp"
}

if [[ "${1:-}" == "--quick" ]]; then
    invariant_gate
    smoke
    echo
    echo "ci.sh --quick: invariant gate + CLI dispatch + smoke scenarios passed"
    exit 0
fi

run cargo fmt --check
invariant_gate
# Every target, tests, benches and the vendored shims included. The
# invariant lints are the invariant gate's job and cover library and
# binary code only: test helpers unwrap, test modules may use std hash
# containers, and benches and the criterion shim read the wall clock.
run cargo clippy --workspace --all-targets -- -D warnings \
    -A clippy::unwrap-used -A clippy::expect-used \
    -A clippy::disallowed-types -A clippy::disallowed-methods
run cargo build --release
# The simulator-throughput benchmark (perfbench/) is a package of its own
# that links the crates by path through their public API only; building
# it here makes a crate API change that breaks the benchmark fail CI.
run env CARGO_TARGET_DIR=.bench_build \
    cargo build --release --offline --manifest-path perfbench/Cargo.toml
# perfbench/src/assemble.rs mirrors RunSpec::run_split's machine assembly
# from public constructors, and every traced run compares its rows with
# run_split's byte for byte (a mismatch prints TRACED RUN DIVERGED and
# fails the run). A one-second traced run per workload makes an assembly
# change that breaks the mirror fail here rather than in the benchmark.
#
# The same run pins the simulation itself: the `rows ... digest=` line
# hashes every spec's result rows, and must equal the digest recorded
# below, at the default seed 42 and at the held-out seed 9001. A
# host-speed change keeps these digests; a deliberate SIM_SEMVER bump
# updates them in its own commit.
#
# Traced runs drive the engines through perfbench's timing decorator,
# which keeps the coupled driver order (no OS run-ahead), and compare
# their rows with run_split's, which runs ahead. So this gate also checks
# that OS run-ahead reproduces the coupled order at both seeds.
declare -A perfbench_digest=(
    [native_1c/42]=aa71c7dbba2a5940
    [coloc_smt/42]=5acdf8531001c42c
    [virt_2d/42]=2cd82e1d22d0ae32
    [smp_64c/42]=c8585429a31efe6f
    [native_1c/9001]=1bbb4e06876b9185
    [coloc_smt/9001]=f52d4f2c0233de9c
    [virt_2d/9001]=8aaad0f5d9220664
    [smp_64c/9001]=7e23cc6f4fb0cca6
)
for seed in 42 9001; do
    for w in native_1c coloc_smt virt_2d smp_64c; do
        echo
        echo "==> python3 perfbench/run.py --workload $w --seed $seed --seconds 1 --trace 1"
        if ! out="$(python3 perfbench/run.py --workload "$w" --seed "$seed" --seconds 1 --trace 1)" \
            || ! last="$(echo "$out" | tail -n 1)" \
            || ! python3 -c 'import json, sys; r = json.loads(sys.argv[1]); sys.exit(not (r["correct"] is True and r["failed"] == 0))' "$last"; then
            echo "perfbench mirror gate FAILED on $w at seed $seed: ${last:-no result line}"
            exit 1
        fi
        echo "$last" | cut -c1-80
        rows="$(echo "$out" | grep '^rows ' || true)"
        echo "$rows"
        expected="${perfbench_digest[$w/$seed]}"
        if [[ "$rows" != *" digest=$expected" ]]; then
            echo "perfbench digest gate FAILED on $w at seed $seed: expected digest=$expected"
            exit 1
        fi
    done
done
run cargo test -q
# Doc warnings (a broken intra-doc link, an output filename collision)
# fail here rather than accumulate.
run env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet
# The committed metric-name manifest must match a live regeneration from
# every backend: a metric added to or renamed in any Collect impl fails
# here until the regenerated METRICS.json is committed.
run $ASAP metrics-manifest --check
smoke

# Scale-out gate: the quick-tier smp_scaling sweep covers every backend
# at 1..=64 cores. The event-queue scheduler keeps arbitration O(log n),
# so the whole sweep — 32- and 64-core rows included — must fit a fixed
# wall-clock ceiling; blowing it means scheduling cost started growing
# with core count again (the `components/arbitration` criterion group
# has the per-epoch microbench view of the same property). No --json:
# quick-tier numbers must never touch the committed smoke baseline.
scale_t0=$(date +%s)
run $ASAP run smp_scaling --quick
scale_elapsed=$(( $(date +%s) - scale_t0 ))
scale_ceiling="${ASAP_SMP_SCALING_CEILING_S:-600}"
if (( scale_elapsed > scale_ceiling )); then
    echo "scale-out gate FAILED: smp_scaling --quick took ${scale_elapsed}s (ceiling ${scale_ceiling}s)"
    exit 1
fi
echo "scale-out gate: smp_scaling --quick finished in ${scale_elapsed}s (ceiling ${scale_ceiling}s)"

echo
echo "ci.sh: all gates passed"
