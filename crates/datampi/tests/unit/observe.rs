//! Property and integration tests of the observability layer: for
//! arbitrary corpora and rank counts, the span log must be well-nested
//! per lane, the metrics registry must agree with `JobStats`, the
//! bucketed profiler series must integrate back to the counter totals,
//! and a supervised recovery must leave both attempts in the trace.
//! Compiled into `observe`'s unit tests.

use bytes::Bytes;
use proptest::prelude::*;

use super::profiler::{integrate, Sample, SampleSeries};
use super::{Counter, Observer, SpanKind, Trace, JOB_LANE};
use crate::{run_job, supervise_job, CheckpointStore, FaultPlan, JobConfig, RetryPolicy};
use dmpi_common::group::{Collector, GroupedValues};
use dmpi_common::ser::Writable;

fn wc_o(_t: usize, split: &[u8], out: &mut dyn Collector) {
    for w in split.split(|&b| b == b' ').filter(|w| !w.is_empty()) {
        out.collect(w, &1u64.to_bytes());
    }
}

fn wc_a(g: &GroupedValues, out: &mut dyn Collector) {
    let total: u64 = g.values.iter().map(|v| u64::from_bytes(v).unwrap()).sum();
    out.collect(&g.key, &total.to_bytes());
}

fn corpus() -> impl Strategy<Value = Vec<Bytes>> {
    proptest::collection::vec(
        proptest::collection::vec("[a-f]{1,4}", 1..40).prop_map(|ws| Bytes::from(ws.join(" "))),
        1..8,
    )
}

/// Every pair of durational spans in the same (attempt, rank) lane must be
/// disjoint or properly nested — a broken invariant means a span closed in
/// the wrong order and the Chrome rendering would interleave lanes.
fn assert_well_nested(trace: &Trace) {
    let mut lanes: std::collections::BTreeMap<(u32, u32), Vec<(u64, u64)>> = Default::default();
    for ev in trace.events() {
        if !ev.instant {
            lanes
                .entry((ev.attempt, ev.rank))
                .or_default()
                .push((ev.ts_us, ev.end_us()));
        }
    }
    for ((attempt, rank), spans) in lanes {
        for (i, &(s1, e1)) in spans.iter().enumerate() {
            assert!(s1 <= e1, "span with negative duration in lane {rank}");
            for &(s2, e2) in &spans[i + 1..] {
                let disjoint = e1 <= s2 || e2 <= s1;
                let nested = (s1 <= s2 && e2 <= e1) || (s2 <= s1 && e1 <= e2);
                assert!(
                    disjoint || nested,
                    "overlapping spans [{s1},{e1}] vs [{s2},{e2}] \
                     in attempt {attempt} rank {rank}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Spans are well-nested per rank lane for arbitrary jobs.
    #[test]
    fn spans_well_nested_per_rank(inputs in corpus(), ranks in 1usize..4) {
        let observer = Observer::new();
        let config = JobConfig::new(ranks).with_observer(observer.clone());
        run_job(&config, inputs, wc_o, wc_a, None).unwrap();
        let trace = observer.trace();
        prop_assert!(!trace.is_empty());
        assert_well_nested(&trace);
        // Exactly one attempt span, on the job lane.
        let attempts: Vec<_> = trace.of_kind(SpanKind::Attempt).collect();
        prop_assert_eq!(attempts.len(), 1);
        prop_assert_eq!(attempts[0].rank, JOB_LANE);
    }

    /// The registry's counters agree with the runtime's own `JobStats` on
    /// a clean run: same records out, same bytes shipped, and every
    /// record emitted is a record ingested. Observing changes no output
    /// byte: the same job without an observer yields the same partitions.
    #[test]
    fn counters_match_job_stats(inputs in corpus(), ranks in 1usize..4) {
        let observer = Observer::new();
        let config = JobConfig::new(ranks).with_observer(observer.clone());
        let out = run_job(&config, inputs.clone(), wc_o, wc_a, None).unwrap();
        let bare = run_job(&JobConfig::new(ranks), inputs, wc_o, wc_a, None).unwrap();
        prop_assert_eq!(out.partitions.len(), bare.partitions.len());
        for (p, q) in out.partitions.iter().zip(&bare.partitions) {
            prop_assert_eq!(p.records(), q.records());
        }
        let snap = observer.registry().snapshot();
        prop_assert_eq!(snap[Counter::RecordsOut], out.stats.records_emitted);
        prop_assert_eq!(snap[Counter::RecordsIn], out.stats.records_emitted);
        prop_assert_eq!(snap[Counter::BytesSent], out.stats.bytes_emitted);
        prop_assert_eq!(snap[Counter::BytesReceived], snap[Counter::BytesSent]);
        // The peer matrices are just a finer-grained view of the totals.
        let matrix_total: u64 = observer
            .registry()
            .sent_matrix()
            .iter()
            .flatten()
            .sum();
        prop_assert_eq!(matrix_total, snap[Counter::BytesSent]);
    }

    /// A bucketed series built from the job's counters integrates back to
    /// exactly the counter totals — the flow-conservation invariant the
    /// live profiler relies on.
    #[test]
    fn profiler_series_integrates_to_counter_totals(
        inputs in corpus(),
        ranks in 1usize..4,
        cuts in proptest::collection::vec(0.01f64..1.0, 1..6),
    ) {
        let observer = Observer::new();
        let config = JobConfig::new(ranks).with_observer(observer.clone());
        run_job(&config, inputs, wc_o, wc_a, None).unwrap();
        let snap = observer.registry().snapshot();

        // Replay the finished counters as a monotone sample walk with
        // arbitrary intermediate fractions (sorted cut points).
        let mut fractions: Vec<f64> = cuts;
        fractions.sort_by(f64::total_cmp);
        fractions.push(1.0);
        let mut series = SampleSeries::new(ranks, 0.05);
        series.push(Sample {
            wall_secs: 0.0,
            cpu_secs: 0.0,
            rss_bytes: 0.0,
            net_bytes: 0.0,
            spill_bytes: 0.0,
        });
        for (i, f) in fractions.iter().enumerate() {
            series.push(Sample {
                wall_secs: 0.1 * (i + 1) as f64,
                cpu_secs: 0.0,
                rss_bytes: 0.0,
                net_bytes: snap[Counter::BytesSent] as f64 * f,
                spill_bytes: snap[Counter::SpillBytes] as f64 * f,
            });
        }
        let profile = series.finish();
        let mb = 1024.0 * 1024.0;
        let net_total = integrate(&profile.net_mb_s, profile.bucket_secs) * mb;
        prop_assert!(
            (net_total - snap[Counter::BytesSent] as f64).abs() < 1.0,
            "net integrates to {net_total}, counters say {}",
            snap[Counter::BytesSent]
        );
        let spill_total = integrate(&profile.disk_write_mb_s, profile.bucket_secs) * mb;
        prop_assert!((spill_total - snap[Counter::SpillBytes] as f64).abs() < 1.0);
    }
}

/// Satellite regression: a supervised run that loses attempt 0 to an
/// injected fault must leave BOTH attempts in the merged trace, with the
/// fault, the retry decision, and the checkpoint recovery all visible.
#[test]
fn recovered_run_trace_contains_both_attempts() {
    let observer = Observer::new();
    let plan = FaultPlan::new(7).fail_o_task(1, 0);
    let config = JobConfig::new(2)
        .with_faults(plan)
        .with_observer(observer.clone());
    let policy = RetryPolicy::new(3).with_backoff(std::time::Duration::ZERO);
    let inputs: Vec<Bytes> = (0..4)
        .map(|i| Bytes::from(format!("k{i} shared key")))
        .collect();
    let cp = CheckpointStore::new();
    let out = supervise_job(&config, &policy, inputs, wc_o, wc_a, Some(&cp)).unwrap();
    assert_eq!(out.stats.attempts, 2);

    let trace = observer.trace();
    assert_eq!(trace.attempts(), vec![0, 1], "both attempts in the trace");
    assert_well_nested(&trace);

    // Attempt 0 carries the injected fault; the supervisor records the
    // retry decision; attempt 1 replays checkpointed tasks.
    let faults: Vec<_> = trace.of_kind(SpanKind::Fault).collect();
    assert!(
        faults.iter().any(|e| e.attempt == 0),
        "fault instant on attempt 0"
    );
    let retries: Vec<_> = trace.of_kind(SpanKind::Retry).collect();
    assert_eq!(retries.len(), 1, "one retry decision");
    assert_eq!(retries[0].rank, JOB_LANE);
    let recovered: Vec<_> = trace.of_kind(SpanKind::Recovered).collect();
    assert!(
        recovered.iter().any(|e| e.attempt == 1),
        "checkpoint replay on attempt 1"
    );
    // Per-attempt Attempt spans bracket everything.
    assert_eq!(trace.of_kind(SpanKind::Attempt).count(), 2);

    let snap = observer.registry().snapshot();
    assert_eq!(snap[Counter::Retries], 1);
    assert!(snap[Counter::RecoveredTasks] > 0);

    // The exported Chrome JSON carries every event of both attempts, plus
    // one `process_name` row per rank lane (the job lane included).
    let json = trace.to_chrome_json();
    let lanes: std::collections::BTreeSet<u32> = trace.events().iter().map(|e| e.rank).collect();
    assert_eq!(json.matches("\"pid\":").count(), trace.len() + lanes.len());
    assert_eq!(json.matches("\"process_name\"").count(), lanes.len());
}
