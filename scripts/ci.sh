#!/usr/bin/env bash
# The full CI gate, runnable locally. Everything here must pass before merge.
#
#   ./scripts/ci.sh
#
# The vendored crates under vendor/ are excluded from the workspace, so
# fmt/clippy/test only touch first-party code.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check ==" >&2
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) ==" >&2
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (deny warnings) ==" >&2
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== cargo test ==" >&2
cargo test -q --workspace

echo "== rank-body race guard: supervisor/runtime/distrib unit tests x50, 8 threads ==" >&2
# Every execution surface runs the one rank body (crates/datampi/src/rank.rs),
# so a race or a timing-dependent assertion there shows in these three
# modules first, and oversubscribed test threads are what expose it
# (~0.4 s per pass, debug build). The first failing pass fails the build.
for pass in $(seq 50); do
    cargo test -q -p datampi --lib -- --test-threads 8 supervisor runtime distrib \
        > target/race-guard.log 2>&1 \
        || { echo "race guard: pass $pass failed" >&2; cat target/race-guard.log >&2; exit 1; }
done

echo "== benchmark package: build, unit tests, six-workload smoke ==" >&2
# benchmark/ is a workspace of its own, so nothing above builds it: a
# change to a public item it calls, or to output its integrity check
# reads, shows only here. Each workload prints one driver line, and a
# mismatched or failed job sets "correct":false without a non-zero exit.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test -q --offline --manifest-path benchmark/Cargo.toml
# The smoke takes ~2 s; under `timeout` a hang in the rank body (a rank
# waiting for an EOF that never comes) fails CI instead of stalling it.
mkdir -p target/ci
timeout 120 cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    run --workload all --smoke --out target/ci/benchmark-smoke.json \
    | tee target/ci/benchmark-smoke.log
[ "$(grep -c '"correct":true' target/ci/benchmark-smoke.log)" -eq 6 ]

echo "== examples: sort_pipeline, quickstart ==" >&2
# The examples drive the library through `JobConfig::new` defaults, which
# no test or smoke above does: sort_pipeline runs Text Sort and Normal
# Sort (binary, compressed splits) on all three engines and cross-checks
# their outputs; it panicked for a whole PR while CI ran only the
# `profile` example.
timeout 300 cargo run -q --release --example sort_pipeline
timeout 300 cargo run -q --release --example quickstart

echo "== dmpirun multi-process smoke ==" >&2
# Four real worker processes over TCP must reproduce the in-proc
# runtime's output byte-for-byte.
cargo run -q --release --bin dmpirun -- \
    --ranks 4 --tasks 8 --verify-inproc wordcount

echo "== dmpirun compressed-wire smoke ==" >&2
# The same byte-identity gate with per-batch LZ4 wire compression on:
# compression must change what crosses the sockets, never the output.
cargo run -q --release --bin dmpirun -- \
    --ranks 4 --tasks 8 --compress lz4 --verify-inproc wordcount

echo "== dmpirun parallel-O smoke ==" >&2
# Same gate with the intra-rank parallel O executor on: workers fan
# each task out over 4 threads and must still match the *sequential*
# in-proc reference byte-for-byte.
cargo run -q --release --bin dmpirun -- \
    --ranks 2 --tasks 4 --o-parallelism 4 --verify-inproc wordcount

echo "== dmpirun elastic rank-death smoke ==" >&2
# Rank 1 dies on attempt 0; the coordinator must relaunch the job one
# rank narrower (table v1) and the survivors' output must still match
# the in-proc reference at the final width.
cargo run -q --release --bin dmpirun -- \
    --ranks 3 --tasks 6 --fail-rank 1 --elastic --verify-inproc wordcount

echo "== dmpirun seeded-straggler smoke ==" >&2
# Rank 1 is paced by a seeded SlowRank injection; the run must complete
# and stay byte-identical to the in-proc reference.
cargo run -q --release --bin dmpirun -- \
    --ranks 3 --tasks 6 --slow-rank 1 --slow-ms 50 --verify-inproc wordcount

echo "== dmpirun telemetry smoke ==" >&2
# The distributed telemetry plane: 4 TCP workers clock-sync with the
# coordinator and ship counters/histograms/spans; the run must produce a
# merged Chrome trace with all 4 rank processes on one offset-corrected
# timeline and a job-report.json whose aggregate wire-byte totals equal
# the per-rank sum (the coordinator enforces both before exiting 0).
# Artifacts land under target/ci/, never in the repo root.
mkdir -p target/ci
cargo run -q --release --bin dmpirun -- \
    --backend tcp -n 4 --tasks 8 \
    --trace-out target/ci/trace.json --report-out target/ci/job-report.json wordcount
grep -q '"name":"rank 3"' target/ci/trace.json
grep -q '"schema": "dmpi-job-report/v1"' target/ci/job-report.json

echo "== transport bench smoke ==" >&2
# {inproc, tcp, tcp+lz4} workload grid plus the raw 2-rank stream; the
# stream's uncompressed throughput is gated against the committed floor
# (STREAM_GATE_MB_S) so transport regressions fail the build. The smoke
# artifact lands under target/ci/; the committed BENCH_transport.json
# baseline is regenerated only by a full (non-smoke) run.
cargo run -q --release -p dmpi-bench --bin figures -- \
    transport-bench --smoke --write target/ci/BENCH_transport_smoke.json

echo "== spillfmt bench smoke ==" >&2
# Indexed spill-run format: {memory,disk} x {raw,lz4} byte-identity grid
# plus the indexed-skip gate — a range-restricted merge must read < 50%
# of the runs' stored bytes or the build fails. The smoke artifact lands
# under target/ci/; the committed BENCH_spillfmt.json baseline is
# regenerated only by a full (non-smoke) run.
cargo run -q --release -p dmpi-bench --bin figures -- \
    spillfmt-bench --smoke --write target/ci/BENCH_spillfmt_smoke.json

echo "== straggler bench smoke ==" >&2
# {slow-rank, rank-leave} x {defense off, on} grid: asserts per-cell
# byte identity, writes BENCH_straggler.json, and fails unless defended
# slow-rank completion is <= 0.5x the undefended time.
cargo run -q --release -p dmpi-bench --bin figures -- straggler-bench --smoke

echo "== hotpath bench smoke ==" >&2
# Runs the workload x backend x parallelism x sort-kernel grid at smoke
# size, asserts parallel output identity in every cell, writes
# BENCH_hotpath.json, and (on hosts with >= 4 cores) fails if WordCount
# at --o-parallelism 4 is below 1.3x the sequential throughput.
cargo run -q --release -p dmpi-bench --bin figures -- hotpath-bench --smoke

echo "== observe bench smoke ==" >&2
# Telemetry-overhead pair: the same job bare vs under the full observer;
# asserts byte identity, writes BENCH_observe.json, and fails if the
# observed run costs more than 1.05x the bare wall-clock.
cargo run -q --release -p dmpi-bench --bin figures -- observe-bench --smoke

echo "== resident service smoke ==" >&2
# A 2-rank resident mesh (dmpid coordinator + self-hosted workers) must
# accept two tenants' jobs concurrently, write one dmpi-job-report/v1
# document per job, and drain gracefully.
SMOKE=target/ci/service-smoke
rm -rf "$SMOKE" && mkdir -p "$SMOKE/reports"
cargo build -q --release --bin dmpid --bin dmpi
target/release/dmpid --coordinator --ranks 2 --spawn-workers \
    --port-file "$SMOKE/addr" --report-dir "$SMOKE/reports" &
DMPID_PID=$!
trap 'kill "$DMPID_PID" 2>/dev/null || true' EXIT
for _ in $(seq 100); do [ -s "$SMOKE/addr" ] && break; sleep 0.1; done
ADDR=$(cat "$SMOKE/addr")
target/release/dmpi submit --coord "$ADDR" --tenant alice --tasks 4 \
    --bytes-per-task 2000 --seed 71 --out "$SMOKE/alice" wordcount &
SUBMIT_A=$!
target/release/dmpi submit --coord "$ADDR" --tenant bob --tasks 4 \
    --bytes-per-task 2000 --seed 72 --out "$SMOKE/bob" sort &
SUBMIT_B=$!
wait "$SUBMIT_A"
wait "$SUBMIT_B"
target/release/dmpi drain --coord "$ADDR" | grep -q drained
wait "$DMPID_PID"
grep -q '"schema": "dmpi-job-report/v1"' "$SMOKE/reports/job-0.json"
grep -q '"schema": "dmpi-job-report/v1"' "$SMOKE/reports/job-1.json"
grep -q '"tenant": "alice"' "$SMOKE"/reports/*.json
grep -q '"tenant": "bob"' "$SMOKE"/reports/*.json
rm -rf "$SMOKE"

echo "== service bench smoke ==" >&2
# Resident mesh vs one-shot launch over a seeded two-tenant open-loop
# stream; fails unless resident p50 submit->done latency beats the
# one-shot (real dmpirun process) launch p50. Writes BENCH_service.json.
cargo run -q --release -p dmpi-bench --bin figures -- service-bench --smoke

echo "== tracing overhead smoke check ==" >&2
# Times a real WordCount with tracing on vs off; fails above +25%.
cargo run -q --release --example profile -- --overhead-check

echo "CI OK" >&2
