#!/usr/bin/env bash
# The full CI gate, runnable locally. Everything here must pass before merge.
#
#   ./scripts/ci.sh
#
# The vendored crates under vendor/ are excluded from the workspace, so
# fmt/clippy/test only touch first-party code; vendor/bytes, the one with
# `unsafe`, gets its own test and clippy step. Performance is not gated
# here: it is judged by `benchmark compare` (benchmark/README.md).
# Artifacts land under target/ci/, never in the repo root, and the last
# step fails a run that dirtied a tracked file.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p target/ci

echo "== cargo fmt --check ==" >&2
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) ==" >&2
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (deny warnings) ==" >&2
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== shell scripts parse ==" >&2
bash -n scripts/pairs.sh

echo "== engine boundary: the simulator's model lives in dmpi-workloads ==" >&2
# The executing engines hold only code that executes; what the simulator
# assumes about them is `workloads::model`. datampi keeps dmpi-dcsim for
# its profiler's resource series and admission's fair-share solver.
if grep -rnE 'dmpi_dcsim|dmpi_dfs' crates/mapred/src crates/rddsim/src \
    || grep -rn dmpi_dfs crates/datampi/src; then
    echo "an engine crate uses the simulator or the simulated DFS" >&2
    exit 1
fi

echo "== size figures (ROADMAP aim 2) ==" >&2
./scripts/size.sh | tee target/ci/size.txt

echo "== cargo test --workspace x10 ==" >&2
# "Green" is the whole workspace, every time: a test that fails one run
# in ten (a timing-dependent assertion, a hang) fails here. `timeout`
# bounds the ten passes together (~15 s a pass on 2 vCPUs, debug build).
cargo test -q --workspace --no-run
timeout 1200 bash -c 'for pass in $(seq 10); do
    cargo test -q --workspace > target/ci/workspace-tests.log 2>&1 \
        || { echo "workspace tests: pass $pass failed" >&2; cat target/ci/workspace-tests.log >&2; exit 1; }
done'

echo "== library tests in release mode: dmpi-common, datampi, dmpi-datagen, dmpi-workloads ==" >&2
# dmpi-common and datampi hold `unsafe` blocks (the SSE4.2 CRC, the
# prefetch hint, poll(2)), each behind a `// SAFETY:` comment clippy
# insists on. The optimised build is where a wrong assumption behind one
# shows, and it runs without the overflow checks and `debug_assert!`s of
# the debug runs above. dmpi-workloads holds the release-only test that
# pins every byte of the benchmark's generated input (64 MiB).
cargo test -q --release -p dmpi-common -p datampi -p dmpi-datagen -p dmpi-workloads --lib

echo "== vendored bytes: tests and clippy ==" >&2
# vendor/ is outside the workspace, so nothing above compiles this crate's
# tests; every key, value and frame is its `Bytes`, whose views rest on
# `unsafe` pointer reads.
cargo test -q --offline --manifest-path vendor/bytes/Cargo.toml
cargo clippy --offline --manifest-path vendor/bytes/Cargo.toml --all-targets -- -D warnings

echo "== rank-body race guard: supervisor/runtime/distrib unit tests x50, 8 threads ==" >&2
# Every execution surface runs the one rank body (crates/datampi/src/rank.rs),
# so a race or a timing-dependent assertion there shows in these three
# modules first, and oversubscribed test threads are what expose it
# (~0.4 s per pass, debug build). The first failing pass fails the build.
for pass in $(seq 50); do
    cargo test -q -p datampi --lib -- --test-threads 8 supervisor runtime distrib \
        > target/ci/race-guard.log 2>&1 \
        || { echo "race guard: pass $pass failed" >&2; cat target/ci/race-guard.log >&2; exit 1; }
done

echo "== control-plane hang guard: tests/service_drain.rs x10 (200 start -> drain cycles each) ==" >&2
# A resident session that does not end (a rank waited for after it left,
# a listener dropped under a peer's dial, a seated rank hanging up without
# `bye`) shows as a hang, one in a thousand-odd cycles when it was last
# seen: every scenario runs under its own watchdog, `timeout` bounds the
# ten repeats together.
cargo test -q -p datampi --test service_drain --no-run
timeout 600 bash -c 'for pass in $(seq 10); do
    cargo test -q -p datampi --test service_drain > target/ci/drain-guard.log 2>&1 \
        || { echo "drain guard: pass $pass failed" >&2; cat target/ci/drain-guard.log >&2; exit 1; }
done'

echo "== benchmark package: build, unit tests, six-workload smoke ==" >&2
# benchmark/ is a workspace of its own, so nothing above builds it: a
# change to a public item it calls, or to output its integrity check
# reads, shows only here. Each workload prints one driver line, and a
# mismatched or failed job sets "correct":false without a non-zero exit.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test -q --offline --manifest-path benchmark/Cargo.toml
# The smoke takes ~2 s; under `timeout` a hang in the rank body (a rank
# waiting for an EOF that never comes) fails CI instead of stalling it.
timeout 120 cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    run --workload all --smoke --out target/ci/benchmark-smoke.json \
    | tee target/ci/benchmark-smoke.log
[ "$(grep -c '"correct":true' target/ci/benchmark-smoke.log)" -eq 6 ]
# At --smoke scale a WordCount task stages ~100 KiB per destination, under
# the 1 MiB flush threshold, so the smoke never closes a combiner window
# before `finish`. At full scale the combiner closes four early, and this
# run checks their output end to end.
timeout 120 cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    run --workload wordcount-combine-tcp --seconds 1 --out target/ci/benchmark-combine.json \
    | tee target/ci/benchmark-combine.log
grep -q '"correct":true' target/ci/benchmark-combine.log
# Grep's whole partition is one key. At --smoke scale its run holds ~46 k
# values; at full scale ~741 k, which drives the index sort's value step
# over a production-sized run end to end.
timeout 120 cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    run --workload grep-inproc --seconds 1 --out target/ci/benchmark-grep.json \
    | tee target/ci/benchmark-grep.log
grep -q '"correct":true' target/ci/benchmark-grep.log
# Sort's A function keeps the group's own handles as its output records,
# so each output record pins the buffer it slices: a received frame (up
# to 1 MiB) or a decoded 64 KiB spill block. The smoke's 1/16-scale jobs
# never fill a frame and seal runs of only a few blocks; these two
# full-scale runs share full frames and merge runs of ~32 blocks.
for workload in sort-tcp sort-spill; do
    timeout 120 cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        run --workload "$workload" --seconds 1 --out "target/ci/benchmark-$workload.json" \
        | tee "target/ci/benchmark-$workload.log"
    grep -q '"correct":true' "target/ci/benchmark-$workload.log"
done

echo "== examples: sort_pipeline, quickstart, profile, fault_tolerance ==" >&2
# The examples drive the library through `JobConfig::new` defaults, which
# no test or smoke above does: sort_pipeline runs Text Sort and Normal
# Sort (binary, compressed splits) on all three engines and cross-checks
# their outputs; profile runs a job under the observer and the sampling
# profiler and writes target/profile_trace.json; fault_tolerance is the
# one example that drives `supervise_job` with a `CheckpointStore`
# through a multi-fault plan, then the simulator's node-failure recovery.
timeout 300 cargo run -q --release --example sort_pipeline
timeout 300 cargo run -q --release --example quickstart
timeout 300 cargo run -q --release --example profile
timeout 300 cargo run -q --release --example fault_tolerance

echo "== EXPERIMENTS.md is what \`figures all --write\` produces ==" >&2
# Every entry is simulator output, so the committed file must be
# reproduced byte for byte.
cargo run -q --release -p dmpi-bench --bin figures -- all --write target/ci/EXPERIMENTS.md
diff target/ci/EXPERIMENTS.md EXPERIMENTS.md

echo "== dmpirun smokes: three match the in-proc reference byte for byte, a dead rank fails ==" >&2
# Everything from here on starts processes that talk to each other, so
# every step runs under `timeout`: a control-plane hang fails the run
# instead of stalling it.
cargo build -q --release --bin dmpirun --bin dmpid --bin dmpi
dmpirun() { timeout 120 target/release/dmpirun "$@"; }
# Four real worker processes over TCP.
dmpirun --ranks 4 --tasks 8 --verify-inproc wordcount
# Sort's output records are slices of the frames each worker received.
dmpirun --ranks 2 --tasks 8 --verify-inproc sort
# Grep on an uneven width: rank 0 runs three of the seven tasks and
# derives only their splits, ranks 1 and 2 two each.
dmpirun --ranks 3 --tasks 7 --verify-inproc grep
# About 80 MiB per rank, more than a worker's 64 MiB default budget: each
# worker seals a run into its spill dir and streams its output through
# its part sink, over a thousand chunks, into its part file. The smokes
# above write less than one chunk and never spill. The job report's
# aggregate must count at least 2 spills, one per rank at this size.
rm -rf target/ci/sink-smoke
dmpirun --ranks 2 --tasks 80 --bytes-per-task 2097152 --spill-dir target/ci/sink-smoke/spill \
    --out target/ci/sink-smoke/out --report-out target/ci/sink-smoke/report.json --verify-inproc sort
spills=$(grep '"aggregate"' target/ci/sink-smoke/report.json | grep -oE '"spills": [0-9]+' | grep -oE '[0-9]+$')
[ "${spills:-0}" -ge 2 ] || { echo "sink smoke: ${spills:-no} spills, want >= 2" >&2; exit 1; }
rm -rf target/ci/sink-smoke
# The same job with no spill dir: nothing may seal, however far past its
# budget a worker's partition grows, and the output must still verify.
dmpirun --ranks 2 --tasks 80 --bytes-per-task 2097152 \
    --out target/ci/sink-smoke/out --report-out target/ci/sink-smoke/report.json --verify-inproc sort
spills=$(grep '"aggregate"' target/ci/sink-smoke/report.json | grep -oE '"spills": [0-9]+' | grep -oE '[0-9]+$')
[ "${spills:-}" = 0 ] || { echo "no-dir smoke: ${spills:-no} spills, want 0" >&2; exit 1; }
rm -rf target/ci/sink-smoke
# Rank 1 dies once the mesh is up: the launch must fail with status 1,
# neither succeed nor hang into timeout's 124.
status=0
dmpirun --ranks 3 --tasks 6 --fail-rank 1 wordcount > target/ci/fail-rank.log 2>&1 || status=$?
[ "$status" -eq 1 ] || { echo "fail-rank smoke: exit $status, want 1" >&2; cat target/ci/fail-rank.log >&2; exit 1; }

echo "== dmpirun one-shot repeat guard: 50 launches, 5 passes of tests/dmpirun.rs ==" >&2
# A launch is a one-job session: start, join, submit, drain, `bye`. A
# hang anywhere in that sequence fails here instead of stalling CI.
for pass in $(seq 50); do
    dmpirun --ranks 2 --tasks 2 wordcount > target/ci/oneshot-guard.log 2>&1 \
        || { echo "one-shot guard: launch $pass failed" >&2; cat target/ci/oneshot-guard.log >&2; exit 1; }
done
cargo test -q --release --test dmpirun --no-run
timeout 600 bash -c 'for pass in $(seq 5); do
    cargo test -q --release --test dmpirun > target/ci/dmpirun-guard.log 2>&1 \
        || { echo "dmpirun guard: pass $pass failed" >&2; cat target/ci/dmpirun-guard.log >&2; exit 1; }
done'

echo "== dmpirun telemetry smoke ==" >&2
# 4 TCP workers clock-sync with the coordinator as they join and ship
# counters, histograms and spans with their job's outcome; the run must
# produce a merged Chrome trace with all 4 rank processes and the
# coordinator's own row on one timeline, and a job report whose aggregate
# wire bytes (its last `wire_bytes_sent`) equal the `wire_sent` the ranks'
# `jobdone` lines summed, which the summary line prints.
dmpirun -n 4 --tasks 8 \
    --trace-out target/ci/trace.json --report-out target/ci/job-report.json wordcount \
    | tee target/ci/telemetry-smoke.log
grep -q '"name":"rank 3"' target/ci/trace.json
grep -q '"name":"coordinator"' target/ci/trace.json
grep -q '"schema": "dmpi-job-report/v1"' target/ci/job-report.json
WIRE_SENT=$(grep -o ' wire_sent=[0-9]*' target/ci/telemetry-smoke.log | cut -d= -f2)
WIRE_AGG=$(grep -o '"wire_bytes_sent": [0-9]*' target/ci/job-report.json | tail -1 | cut -d' ' -f2)
[ -n "$WIRE_SENT" ] && [ "$WIRE_SENT" = "$WIRE_AGG" ]

echo "== resident service smoke ==" >&2
# A 2-rank resident mesh (dmpid coordinator + self-hosted workers) must
# accept two tenants' jobs concurrently, write one dmpi-job-report/v1
# document (and one trace) per job, and drain gracefully.
SMOKE=target/ci/service-smoke
rm -rf "$SMOKE" && mkdir -p "$SMOKE/reports"
target/release/dmpid --coordinator --ranks 2 --spawn-workers \
    --port-file "$SMOKE/addr" --report-dir "$SMOKE/reports" &
DMPID_PID=$!
trap 'kill "$DMPID_PID" 2>/dev/null || true' EXIT
for _ in $(seq 100); do [ -s "$SMOKE/addr" ] && break; sleep 0.1; done
ADDR=$(cat "$SMOKE/addr")
timeout 60 target/release/dmpi submit --coord "$ADDR" --tenant alice --tasks 4 \
    --bytes-per-task 2000 --seed 71 --out "$SMOKE/alice" wordcount &
SUBMIT_A=$!
timeout 60 target/release/dmpi submit --coord "$ADDR" --tenant bob --tasks 4 \
    --bytes-per-task 2000 --seed 72 --out "$SMOKE/bob" sort &
SUBMIT_B=$!
wait "$SUBMIT_A"
wait "$SUBMIT_B"
timeout 60 target/release/dmpi drain --coord "$ADDR" | grep -q drained
# The coordinator exits once its workers have left: poll, do not block.
for _ in $(seq 300); do kill -0 "$DMPID_PID" 2>/dev/null || break; sleep 0.1; done
if kill -0 "$DMPID_PID" 2>/dev/null; then
    echo "dmpid still running 30 s after drain" >&2
    exit 1
fi
wait "$DMPID_PID"
grep -q '"schema": "dmpi-job-report/v1"' "$SMOKE/reports/job-0.json"
grep -q '"schema": "dmpi-job-report/v1"' "$SMOKE/reports/job-1.json"
grep -q '"tenant": "alice"' "$SMOKE"/reports/*.json
grep -q '"tenant": "bob"' "$SMOKE"/reports/*.json
rm -rf "$SMOKE"

echo "== the run left no tracked file modified ==" >&2
git diff --exit-code

echo "CI OK" >&2
