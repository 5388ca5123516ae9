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
# and lint gates in front and the end-to-end smoke pass behind, so a
# green ./ci.sh implies a clean PR.
set -euo pipefail
cd "$(dirname "$0")"

run() {
    echo
    echo "==> $*"
    "$@"
}

ASAP="cargo run --release -q -p asap-bench --bin asap --"

lint_gate() {
    # Invariant gate: the ratcheted static-analysis pass (crates/lint).
    # Exceeding a committed per-rule budget fails, and so does unclaimed
    # headroom below it — fixes must ratchet lint-baseline.toml down.
    run cargo run --release -q -p asap-lint
    # The gate diffs against committed artifacts; losing either from git
    # would silently weaken the ratchet.
    if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
        for f in lint-baseline.toml METRICS.json; do
            if ! git ls-files --error-unmatch "$f" >/dev/null 2>&1; then
                echo "$f must be git-tracked (the asap-lint gate diffs against it)"
                exit 1
            fi
        done
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
    # The default result-cache directory must stay git-ignored scratch:
    # cached simulation payloads are host artifacts, and a tracked cache
    # would let stale results masquerade as a committed baseline.
    if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
        if ! git check-ignore -q target/asap-cache; then
            echo "target/asap-cache is not git-ignored; the result cache must stay untracked scratch"
            exit 1
        fi
    fi
    # The registry's smoke scenarios through the real generic driver loop
    # — catches driver regressions unit tests miss. Deterministic: it
    # regenerates BENCH_results.json, and the gate below fails on any
    # drift from the committed copy (the perf-trajectory check). A PR
    # that intentionally changes behaviour commits the regenerated file.
    #
    # The pass runs against a FRESH result-cache directory, so the drift
    # gate always exercises the real simulator — a pre-warmed cache must
    # never be able to mask a behaviour regression.
    #
    # The run is also a perf smoke: the batched hot path finishes the
    # smoke set in well under a second, so a pass that blows through the
    # (deliberately generous) ceiling means the inner loop regressed by
    # an order of magnitude, not that the machine was busy.
    cache_tmp="$(mktemp -d -t asap-cache.XXXXXX)"
    trap 'rm -rf "$cache_tmp"' EXIT
    smoke_t0=$(date +%s)
    run $ASAP smoke --cache-dir "$cache_tmp" --cache-stats
    smoke_elapsed=$(( $(date +%s) - smoke_t0 ))
    smoke_ceiling="${ASAP_SMOKE_CEILING_S:-30}"
    if (( smoke_elapsed > smoke_ceiling )); then
        echo "perf smoke FAILED: asap smoke took ${smoke_elapsed}s (ceiling ${smoke_ceiling}s)"
        exit 1
    fi
    echo "perf smoke: asap smoke finished in ${smoke_elapsed}s (ceiling ${smoke_ceiling}s)"
    # Result-cache consistency gate: a second smoke pass over the cache
    # the first one just populated must serve EVERY run from the store
    # (100% hit rate, nothing new written) and still reproduce
    # BENCH_results.json byte-identically — the warm re-run is free AND
    # indistinguishable from simulating.
    warm_json="$(mktemp -t asap-warm.XXXXXX.json)"
    echo
    echo "==> $ASAP smoke --json $warm_json --cache-dir $cache_tmp --cache-stats (warm)"
    warm_output="$($ASAP smoke --json "$warm_json" --cache-dir "$cache_tmp" --cache-stats)"
    echo "$warm_output" | tail -n 1
    echo "$warm_output" | grep -q " 0 misses (100% hit rate), 0 bytes stored" \
        || { echo "cache gate FAILED: warm smoke pass was not served 100% from the cache"; exit 1; }
    cmp -s BENCH_results.json "$warm_json" \
        || { echo "cache gate FAILED: warm smoke results differ from the cold pass"; exit 1; }
    rm -f "$warm_json"
    echo "cache gate: warm smoke pass served 100% from the cache, byte-identical results"
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
    trap 'rm -f "$trace_tmp"; rm -rf "$cache_tmp"' EXIT
    run $ASAP run numa_smoke --trace "$trace_tmp"
    run $ASAP trace-check "$trace_tmp"
    rm -f "$trace_tmp"
}

if [[ "${1:-}" == "--quick" ]]; then
    lint_gate
    smoke
    echo
    echo "ci.sh --quick: lint gate + CLI dispatch + smoke scenarios passed"
    exit 0
fi

run cargo fmt --check
# unwrap_used/expect_used are warn-level workspace lints (editor signal);
# they are allowed here because -D warnings would otherwise hard-fail on
# the whole legacy count at once — the asap-lint panic-freedom ratchet is
# the hard gate that only lets that count fall.
run cargo clippy --workspace --all-targets -- -D warnings \
    -A clippy::unwrap-used -A clippy::expect-used
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
for w in native_1c coloc_smt virt_2d smp_64c; do
    echo
    echo "==> python3 perfbench/run.py --workload $w --seconds 1 --trace 1"
    if ! last="$(python3 perfbench/run.py --workload "$w" --seconds 1 --trace 1 | tail -n 1)" \
        || ! python3 -c 'import json, sys; r = json.loads(sys.argv[1]); sys.exit(not (r["correct"] is True and r["failed"] == 0))' "$last"; then
        echo "perfbench mirror gate FAILED on $w: ${last:-no result line}"
        exit 1
    fi
    echo "$last" | cut -c1-80
done
run cargo test -q
run cargo doc --no-deps --quiet
lint_gate
# The committed metric-name manifest must match a live regeneration from
# every backend (the asap-lint metric-names rule checks code <-> manifest
# statically; this checks manifest <-> runtime).
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
