#!/usr/bin/env sh
# The full local gate: everything CI runs, in the same order.
set -eu

cd "$(dirname "$0")/.."
REPO="$(pwd)"

# The smokes below must leave the committed results/ as they found it;
# the last step compares. Outside a git checkout there is nothing to
# compare against.
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    CCC_RESULTS_BEFORE="$(git status --porcelain -- results/)"
fi

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --workspace"
# Every member crate's tests, not only the root package's.
cargo test -q --workspace

echo "==> benchmark harness build + tests"
# perfbench/ is a workspace of its own, so the two steps above never
# compile it; building it here catches a library API change that would
# break the benchmark before the benchmark runs.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test -q --offline --manifest-path perfbench/Cargo.toml

echo "==> warm-cache bench smoke"
# Cold run populates a scratch cache and must reproduce the committed
# result file byte for byte (the documented regeneration recipe); the
# warm rerun must be served entirely from the cache (--assert-warm
# exits non-zero on any cache miss).
CCC_SMOKE_DIR="${TMPDIR:-/tmp}/ccc-bench-smoke-$$"
rm -rf "$CCC_SMOKE_DIR"
./target/release/tepic-cc bench --figures fig05 --cache-dir "$CCC_SMOKE_DIR" |
    cmp - results/fig05_compression.txt
./target/release/tepic-cc bench --figures fig05 --cache-dir "$CCC_SMOKE_DIR" --assert-warm >/dev/null
rm -rf "$CCC_SMOKE_DIR"
echo "cold run reproduces results/fig05_compression.txt; warm rerun fully cache-served"

echo "==> tailored decoder Verilog golden"
# The Verilog is printed from the tailored placement table that the
# decoder interprets, so any change to either shows up here.
./target/release/tepic-cc verilog crates/workloads/src/programs/li.tink |
    cmp - results/tailored_decoder_li.v
echo "tepic-cc verilog reproduces results/tailored_decoder_li.v"

echo "==> trace/metrics reconciliation smoke (base + all five schemes)"
# CCC_TRACE_SMOKE=1 implies --check: each emitted Chrome trace must be
# well-formed JSON with every required pipeline-stage span present for
# that scheme (span-coverage gaps fail), causally well-formed span
# ids/parents, zero dropped events, and per-kind event totals that
# reconcile exactly with the metrics snapshot
# (results/METRICS_<scheme>.json). The traces stay in
# target/tmp/trace-<scheme>.json (uploaded by CI).
mkdir -p target/tmp
for scheme in base byte stream stream_1 full tailored; do
    CCC_TRACE_SMOKE=1 ./target/release/tepic-cc trace --workload li --scheme "$scheme" \
        --out "target/tmp/trace-$scheme.json" >/dev/null
    [ -s "results/METRICS_$scheme.json" ] || {
        echo "missing results/METRICS_$scheme.json" >&2
        exit 1
    }
done
echo "base and all five schemes reconcile with their metrics snapshots"

echo "==> chaos self-healing smoke"
# CCC_CHAOS_SMOKE=1 runs one reduced chaos campaign: the full figure
# pipeline under injected cache/pool/stage/decode faults must emit
# byte-identical figures, reconcile every injected fault against a
# recovery action, and cover every site class. The verdict goes to
# target/tmp/CHAOS_report.json (uploaded by CI): the report records the
# host's job count, so writing it over the committed
# results/CHAOS_report.json would dirty the tree.
CCC_CHAOS_SMOKE=1 ./target/release/tepic-cc chaos --seed 42 \
    --out target/tmp/CHAOS_report.json >/dev/null
echo "figures byte-identical under fault injection; recovery reconciled"

echo "==> synthetic workload generation smoke"
# CCC_GEN_SMOKE=1 implies --campaign: generate the 10x tier (80 seeded
# programs), push it through the prepared-workload engine (compile,
# emulate, all five scheme encodings), run a fault campaign on the
# first program, and fail unless every op-mix category lands within
# 5 pp of the flavor target. The verdict lands in
# results/GEN_report.json (uploaded by CI).
CCC_GEN_DIR="${TMPDIR:-/tmp}/ccc-gen-smoke-$$"
CCC_GEN_SMOKE=1 ./target/release/tepic-cc gen --seed 42 --tier 10x \
    --out "$CCC_GEN_DIR" >/dev/null
rm -rf "$CCC_GEN_DIR"
echo "generated 10x tier calibrated within 5 pp; pipeline + campaign clean"

echo "==> decode throughput smoke"
# Short measurement; exits non-zero on either decode gate: LUT slower
# than the bit-serial reference on the byte scheme, or a scheme's
# whole-image per-block (batch) throughput under its ledger-derived
# floor (best earlier smoke run on this host and build / 2.5; no
# history, no floor). Writes its decode_throughput.txt and
# BENCH_decode.json to target/tmp (a full `cargo bench` run refreshes
# the results/ copies).
CCC_DECODE_SMOKE=1 cargo bench -p ccc-bench --bench decode_throughput >/dev/null
echo "decode gates held (LUT >= reference on byte, batch >= ledger-derived floor per scheme)"

echo "==> perf history + regression sentinel smoke"
# DESIGN.md §16 end-to-end (CCC_PERF_SMOKE=0 skips on very slow hosts):
# two genuine back-to-back runs into a scratch ledger must pass
# `perf --check`, an injected 2x slowdown must fail it, and
# `perf --attr` must reconstruct a span forest whose per-stage rollups
# reconcile exactly with the engine's stage timers.
if [ "${CCC_PERF_SMOKE:-1}" = "1" ]; then
CCC_PERF_DIR="${TMPDIR:-/tmp}/ccc-perf-smoke-$$"
mkdir -p "$CCC_PERF_DIR"
# Warm the artifact cache off the ledger so both measured runs have the
# same (warm) shape — a cold+warm pair is bimodal and would make the
# baselines meaningless.
CCC_NO_LEDGER=1 ./target/release/tepic-cc bench --figures fig05 \
    --cache-dir "$CCC_PERF_DIR/cache" >/dev/null
CCC_LEDGER="$CCC_PERF_DIR/ledger.jsonl" ./target/release/tepic-cc bench \
    --figures fig05 --cache-dir "$CCC_PERF_DIR/cache" >/dev/null
CCC_LEDGER="$CCC_PERF_DIR/ledger.jsonl" ./target/release/tepic-cc bench \
    --figures fig05 --cache-dir "$CCC_PERF_DIR/cache" >/dev/null
./target/release/tepic-cc perf --check --ledger "$CCC_PERF_DIR/ledger.jsonl"
echo "two genuine back-to-back runs pass the sentinel"
./target/release/tepic-cc perf --inject-slowdown 2.0 \
    --ledger "$CCC_PERF_DIR/ledger.jsonl" >/dev/null
if ./target/release/tepic-cc perf --check \
    --ledger "$CCC_PERF_DIR/ledger.jsonl" >/dev/null 2>&1; then
    echo "sentinel MISSED an injected 2x slowdown" >&2
    exit 1
fi
echo "injected 2x slowdown caught (non-zero exit)"
# --attr writes results/PERF_attr.txt relative to its working
# directory; run it from the scratch directory so the committed copy
# stays as it is, and keep the report in target/tmp/PERF_attr.txt
# (uploaded by CI).
(cd "$CCC_PERF_DIR" && CCC_NO_LEDGER=1 "$REPO/target/release/tepic-cc" perf --attr >/dev/null)
[ -s "$CCC_PERF_DIR/results/PERF_attr.txt" ] || {
    echo "missing $CCC_PERF_DIR/results/PERF_attr.txt" >&2
    exit 1
}
cp "$CCC_PERF_DIR/results/PERF_attr.txt" target/tmp/PERF_attr.txt
rm -rf "$CCC_PERF_DIR"
echo "span attribution reconciles with the engine stage timers"
else
echo "skipped (CCC_PERF_SMOKE=0)"
fi

echo "==> serve daemon smoke (tepic-ccd + loadgen)"
# CCC_SERVE_SMOKE=0 skips on very slow hosts. Boots the daemon on an
# ephemeral port, fires a seeded mixed hot/cold loadgen burst at it
# (--verify re-fetches every hot combo and asserts the daemon's bytes
# are identical to the warmup responses AND to the locally recomputed
# one-shot pipeline artifacts), enforces floors (>= 100 req/s, hot p99
# <= 50 ms, zero errors; one run on a 2-vCPU VM measured 1,684 req/s and
# a hot p99 of 4.0 ms),
# then --shutdown drains the daemon gracefully: the
# drain ack must arrive, post-drain jobs must be refused, and the
# daemon process must exit 0. The results land in
# target/tmp/BENCH_serve.json (uploaded by CI), not over the committed
# results/BENCH_serve.json.
if [ "${CCC_SERVE_SMOKE:-1}" = "1" ]; then
CCC_SERVE_DIR="${TMPDIR:-/tmp}/ccc-serve-smoke-$$"
mkdir -p "$CCC_SERVE_DIR"
./target/release/tepic-ccd --cache-dir "$CCC_SERVE_DIR/cache" \
    --port-file "$CCC_SERVE_DIR/port" >/dev/null &
CCC_SERVE_PID=$!
i=0
while [ ! -s "$CCC_SERVE_DIR/port" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "tepic-ccd never wrote its port file" >&2
        kill "$CCC_SERVE_PID" 2>/dev/null || true
        exit 1
    fi
    sleep 0.1
done
CCC_LEDGER="$CCC_SERVE_DIR/ledger.jsonl" ./target/release/tepic-cc loadgen \
    --addr "$(cat "$CCC_SERVE_DIR/port")" --requests 200 --conns 4 --seed 42 \
    --verify --shutdown --min-rps 100 --max-hot-p99-ns 50000000 \
    --out target/tmp/BENCH_serve.json
wait "$CCC_SERVE_PID" || {
    echo "tepic-ccd exited non-zero after drain" >&2
    exit 1
}
[ -s "target/tmp/BENCH_serve.json" ] || {
    echo "missing target/tmp/BENCH_serve.json" >&2
    exit 1
}
rm -rf "$CCC_SERVE_DIR"
echo "daemon served the burst warm-byte-identical and drained cleanly (exit 0)"
else
echo "skipped (CCC_SERVE_SMOKE=0)"
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc -D warnings"
# Broken, ambiguous or private intra-doc links fail the gate.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> committed results/ unchanged"
if [ "${CCC_RESULTS_BEFORE+set}" = "set" ]; then
    if [ "$(git status --porcelain -- results/)" != "$CCC_RESULTS_BEFORE" ]; then
        echo "the smokes changed committed files under results/:" >&2
        git status --porcelain -- results/ >&2
        exit 1
    fi
    echo "results/ as it was at the start"
else
    echo "skipped (not a git checkout)"
fi

echo "All checks passed."
