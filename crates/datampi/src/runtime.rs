//! The in-proc job runner: ranks as threads, really moving data.
//!
//! `run_job` realizes the bipartite O/A model. This module is the **job
//! level** only: it opens the configured [`crate::transport`] (the
//! in-proc channel fabric or a real TCP mesh), builds what the ranks of
//! one process can share — one task queue that a free rank takes the
//! next task index from, the caller's [`CheckpointStore`], one failed
//! flag — and runs `run_rank` on one thread per rank. The runtime hands
//! out task indices only; each surface's O function gets its own split
//! from the index. What a rank does (ingest
//! thread, O loop, EOFs, A loop) lives in `rank.rs` and is the same code
//! `dmpirun` workers and the resident service execute; see DESIGN.md §5.
//!
//! Failures: an O task error, rank death, or corrupt frame marks the job
//! failed; every surviving rank still sends its EOFs so the job tears down
//! cleanly rather than deadlocking, and the job returns the first error
//! with a structured [`FaultCause`]. The optional [`CheckpointStore`] is
//! the one restart switch: a job run against a store banks its completed
//! O tasks there, and running it again against the same store is the
//! next attempt, which recovers them without re-running user code
//! ([`crate::checkpoint`]); [`crate::supervisor::supervise_job`] repeats
//! that run under a bounded-retry policy. Faults are injected
//! deterministically from the config's
//! [`FaultPlan`](crate::fault::FaultPlan), keyed on the attempt number
//! the store hands out.

use bytes::Bytes;

use dmpi_common::kv::RecordBatch;
use dmpi_common::{Error, FaultCause, FaultKind, Result};

use crate::checkpoint::CheckpointStore;
use crate::config::JobConfig;
use crate::observe::{HistKind, PhaseTotals, SpanKind};
use crate::rank::{run_rank, JobFailure, RankContext, TaskQueues};
use crate::task::{BatchCollector, Collector, GroupedValues};
use crate::transport;

/// Aggregate counters of a finished job.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JobStats {
    /// O tasks executed by user code this run.
    pub o_tasks_run: u64,
    /// O tasks recovered from checkpoint (user code skipped).
    pub o_tasks_recovered: u64,
    /// Key-value pairs emitted.
    pub records_emitted: u64,
    /// Framed intermediate bytes emitted.
    pub bytes_emitted: u64,
    /// Frames shipped over the interconnect.
    pub frames: u64,
    /// Frames shipped before task completion (pipelined flushes).
    pub early_flushes: u64,
    /// A-store spill events.
    pub spills: u64,
    /// A-store raw (uncompressed) bytes sealed into spill runs.
    pub spilled_bytes: u64,
    /// Stored bytes the sealed runs actually occupy — block bodies after
    /// compression plus each run's footer index. With spill compression
    /// off this slightly exceeds `spilled_bytes` (framing + index); with
    /// it on, `spilled_wire_bytes / spilled_bytes` is the achieved
    /// spill compression ratio.
    pub spilled_wire_bytes: u64,
    /// Spill-run blocks read and decoded by A-side merges and lookups.
    pub spill_blocks_read: u64,
    /// Spill-run blocks skipped whole via the run footer index for a key
    /// range. Jobs open every run whole, so this reads 0.
    pub spill_blocks_skipped: u64,
    /// Non-sequential spill-run block loads (disk seeks).
    pub spill_seeks: u64,
    /// Key groups processed by A tasks.
    pub groups: u64,
    /// Job attempts consumed: 1 for an unsupervised clean run; the
    /// supervisor sets the total (failed + successful) attempt count.
    pub attempts: u32,
    /// Bytes emitted by failed attempts that were *not* banked in a
    /// checkpoint and therefore had to be re-emitted — the re-execution
    /// cost a checkpointing run avoids.
    pub wasted_bytes: u64,
    /// Data frames rejected by the receiver-side CRC-32C check.
    pub corrupt_frames: u64,
    /// Largest number of decoded records any single A partition's
    /// forming run held at once (max across ranks). Under spill
    /// pressure this stays far below `records_emitted` — the evidence
    /// that grouping streams via external merge instead of
    /// materializing the dataset.
    pub peak_resident_records: u64,
    /// Records fed into the O-side combiner (pre-aggregation input).
    /// Zero unless [`JobConfig::with_combiner`](crate::JobConfig) is set.
    pub combiner_records_in: u64,
    /// Records the combiner actually shipped (pre-aggregation output);
    /// `combiner_records_in - combiner_records_out` pairs never touched
    /// the wire.
    pub combiner_records_out: u64,
    /// Per-phase wall-time totals, summed across ranks, derived from the
    /// span log. All zero unless the config installs an
    /// [`Observer`](crate::observe::Observer).
    pub phase_us: PhaseTotals,
}

impl JobStats {
    /// Adds every counter of `other` into `self` (attempts included —
    /// per-rank and per-window stats carry 0 until a whole job succeeds).
    pub fn merge(&mut self, other: &JobStats) {
        self.o_tasks_run += other.o_tasks_run;
        self.o_tasks_recovered += other.o_tasks_recovered;
        self.records_emitted += other.records_emitted;
        self.bytes_emitted += other.bytes_emitted;
        self.frames += other.frames;
        self.early_flushes += other.early_flushes;
        self.spills += other.spills;
        self.spilled_bytes += other.spilled_bytes;
        self.spilled_wire_bytes += other.spilled_wire_bytes;
        self.spill_blocks_read += other.spill_blocks_read;
        self.spill_blocks_skipped += other.spill_blocks_skipped;
        self.spill_seeks += other.spill_seeks;
        self.groups += other.groups;
        self.attempts += other.attempts;
        self.wasted_bytes += other.wasted_bytes;
        self.corrupt_frames += other.corrupt_frames;
        self.peak_resident_records = self.peak_resident_records.max(other.peak_resident_records);
        self.combiner_records_in += other.combiner_records_in;
        self.combiner_records_out += other.combiner_records_out;
        self.phase_us.merge(&other.phase_us);
    }
}

/// Result of a successful job: per-partition outputs plus counters.
#[derive(Clone, Debug)]
pub struct JobOutput {
    /// A-task output per partition (index = rank).
    pub partitions: Vec<RecordBatch>,
    /// Aggregate counters.
    pub stats: JobStats,
}

impl JobOutput {
    /// Flattens all partition outputs into one batch (partition order).
    pub fn into_single_batch(self) -> RecordBatch {
        let mut out = RecordBatch::new();
        for mut p in self.partitions {
            out.append(&mut p);
        }
        out
    }
}

/// Runs a DataMPI job. `inputs[i]` is the raw content of O task `i`'s
/// split.
///
/// Without a `checkpoint` every call is attempt 0. With one, the call is
/// the store's next attempt (0 on a fresh store, then counting up): it
/// replays the O tasks earlier attempts banked there, runs the rest, and
/// banks what it completes for the attempt after it. A store is pinned to
/// the width of its first attempt: a run at another width fails with
/// [`Error::Config`] before any task runs.
///
/// # Examples
/// ```
/// use datampi::{run_job, JobConfig};
/// use dmpi_common::group::{Collector, GroupedValues};
/// use dmpi_common::ser::Writable;
///
/// // O: emit (word, 1); A: sum the counts per word.
/// let o = |_t: usize, split: &[u8], out: &mut dyn Collector| {
///     for w in split.split(|b| *b == b' ') {
///         out.collect(w, &1u64.to_bytes());
///     }
/// };
/// let a = |g: &GroupedValues, out: &mut dyn Collector| {
///     let n: u64 = g.values.iter().map(|v| u64::from_bytes(v).unwrap()).sum();
///     out.collect(&g.key, &n.to_bytes());
/// };
/// let out = run_job(&JobConfig::new(2), vec!["b a b".into()], o, a, None).unwrap();
/// assert_eq!(out.stats.records_emitted, 3);
/// assert_eq!(out.stats.groups, 2);
/// ```
pub fn run_job<O, A>(
    config: &JobConfig,
    inputs: Vec<Bytes>,
    o_fn: O,
    a_fn: A,
    checkpoint: Option<&CheckpointStore>,
) -> Result<JobOutput>
where
    O: Fn(usize, &[u8], &mut dyn Collector) + Send + Sync,
    A: Fn(&GroupedValues, &mut dyn Collector) + Send + Sync,
{
    let attempt = checkpoint.map_or(Ok(0), |cp| cp.begin_attempt(config.ranks))?;
    let o_fn = |t: usize, out: &mut dyn Collector| o_fn(t, &inputs[t], out);
    run_job_core(config, inputs.len(), &o_fn, &a_fn, checkpoint, attempt).map_err(|e| e.0)
}

/// The runner behind the byte-split surface ([`run_job`]), Iteration mode
/// and the supervisor: it schedules O tasks `0..tasks`, and `o_fn` gets
/// its own split from the task index. On failure it also returns the
/// partial stats of the attempt, so the supervisor can account wasted
/// work across retries.
pub(crate) fn run_job_core<O, A>(
    config: &JobConfig,
    tasks: usize,
    o_fn: &O,
    a_fn: &A,
    checkpoint: Option<&CheckpointStore>,
    attempt: u32,
) -> std::result::Result<JobOutput, Box<(Error, JobStats)>>
where
    O: Fn(usize, &mut dyn Collector) + Send + Sync,
    A: Fn(&GroupedValues, &mut dyn Collector) + Send + Sync,
{
    if let Err(e) = config.validate() {
        return Err(Box::new((e, JobStats::default())));
    }
    let ranks = config.ranks;
    let observer = config.observer.as_ref();
    if let Some(obs) = observer {
        obs.begin_job(ranks);
    }
    let attempt_start = observer.map(|o| o.now_micros());
    let mut endpoints = match transport::for_config(config).open() {
        Ok(endpoints) => endpoints,
        Err(e) => return Err(Box::new((e, JobStats::default()))),
    };
    if let Some(obs) = observer {
        // Full-window blocking time flows into the WindowWait channel.
        let wait_hist = obs.registry().histograms().handle(HistKind::WindowWait);
        for endpoint in &mut endpoints {
            endpoint.attach_window_wait(std::sync::Arc::clone(&wait_hist));
        }
    }

    let queues = TaskQueues::shared(tasks);
    let failure = JobFailure::default();

    let mut rank_results: Vec<Option<(RecordBatch, JobStats)>> = Vec::new();
    rank_results.resize_with(ranks, || None);

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(ranks);
        for (rank, mut endpoint) in endpoints.into_iter().enumerate() {
            let cx = RankContext {
                config,
                rank,
                ranks,
                attempt,
                queues: &queues,
                checkpoint,
                failure: &failure,
            };
            handles.push(scope.spawn(move || {
                // A record reserved per record in spares an identity A (Sort)
                // the output's doublings; `into_batch` frees the rest.
                let result = run_rank(
                    &cx,
                    o_fn,
                    a_fn,
                    endpoint.senders(),
                    endpoint.take_receiver(),
                    |records| BatchCollector::with_capacity(records as usize),
                )
                .map(|(sink, stats)| (sink.into_batch(), stats));
                // Tear the endpoint down (every sender clone died with
                // `run_rank`, so TCP writers see disconnect and flush all
                // queued frames to the sockets) and record the wire-level
                // traffic the sockets actually carried.
                let wire = endpoint.close();
                if let Some(obs) = observer {
                    obs.registry().add_wire_stats(&wire);
                }
                result
            }));
        }
        for (rank, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok(Ok(result)) => rank_results[rank] = Some(result),
                Ok(Err(e)) => failure.fail_with(e),
                Err(_) => failure.fail_with(Error::fault(
                    FaultCause::new(FaultKind::RankDeath, "worker rank panicked")
                        .rank(rank)
                        .attempt(attempt),
                )),
            }
        }
    });

    // Aggregate whatever the ranks managed to do — on failure these are
    // the attempt's partial counters, which the supervisor turns into
    // wasted-work accounting.
    let mut stats = JobStats::default();
    for result in rank_results.iter().flatten() {
        stats.merge(&result.1);
    }

    // The attempt span is recorded for failed attempts too, so a
    // supervised run's trace shows every attempt as its own thread row
    // (`tid` = attempt) of the job lane's process.
    if let Some(obs) = observer {
        let jt = obs.job_tracer(attempt);
        jt.span(
            SpanKind::Attempt,
            attempt_start.unwrap_or(0),
            vec![("ranks", ranks.to_string())],
        );
        obs.absorb(&jt);
    }

    if let Some(err) = failure.take() {
        return Err(Box::new((err, stats)));
    }

    let mut partitions = Vec::with_capacity(ranks);
    for result in rank_results {
        let (batch, _) = result.expect("non-failed rank must produce output");
        partitions.push(batch);
    }
    stats.attempts = 1;
    Ok(JobOutput { partitions, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::observe::Observer;
    use dmpi_common::ser::Writable;

    /// WordCount: O splits lines into words, A sums counts.
    fn wordcount_o(_task: usize, split: &[u8], out: &mut dyn Collector) {
        for line in split.split(|&b| b == b'\n') {
            for word in line.split(|&b| b == b' ').filter(|w| !w.is_empty()) {
                out.collect(word, &1u64.to_bytes());
            }
        }
    }

    fn wordcount_a(group: &GroupedValues, out: &mut dyn Collector) {
        let total: u64 = group
            .values
            .iter()
            .map(|v| u64::from_bytes(v).unwrap())
            .sum();
        out.collect(&group.key, &total.to_bytes());
    }

    fn counts_of(output: JobOutput) -> std::collections::BTreeMap<String, u64> {
        output
            .into_single_batch()
            .into_records()
            .into_iter()
            .map(|r| (r.key_utf8(), u64::from_bytes(&r.value).unwrap()))
            .collect()
    }

    #[test]
    fn wordcount_end_to_end() {
        let config = JobConfig::new(4);
        let inputs = vec![
            Bytes::from_static(b"apple pear apple\nfig"),
            Bytes::from_static(b"pear apple"),
            Bytes::from_static(b""),
        ];
        let out = run_job(&config, inputs, wordcount_o, wordcount_a, None).unwrap();
        assert_eq!(out.stats.o_tasks_run, 3);
        assert_eq!(out.stats.records_emitted, 6);
        let counts = counts_of(out);
        assert_eq!(counts["apple"], 3);
        assert_eq!(counts["pear"], 2);
        assert_eq!(counts["fig"], 1);
    }

    #[test]
    fn combiner_cuts_shuffle_bytes_at_identical_output() {
        let combiner = crate::task::Combiner::new(wordcount_a);
        let inputs = || {
            (0..8)
                .map(|i| Bytes::from(format!("w{} w{} shared shared w{}", i % 3, i % 5, i % 3)))
                .collect::<Vec<_>>()
        };
        let plain = JobConfig::new(3);
        let combined = JobConfig::new(3).with_combiner(combiner);
        let a = run_job(&plain, inputs(), wordcount_o, wordcount_a, None).unwrap();
        let b = run_job(&combined, inputs(), wordcount_o, wordcount_a, None).unwrap();
        // Byte-identical output per partition...
        for (pa, pb) in a.partitions.iter().zip(&b.partitions) {
            assert_eq!(pa.records(), pb.records());
        }
        // ...with fewer shuffled bytes and a real fold.
        assert!(b.stats.bytes_emitted < a.stats.bytes_emitted);
        assert_eq!(b.stats.records_emitted, a.stats.records_emitted);
        assert_eq!(b.stats.combiner_records_in, b.stats.records_emitted);
        assert!(b.stats.combiner_records_out < b.stats.combiner_records_in);
        assert_eq!(a.stats.combiner_records_in, 0, "no combiner, no counters");
    }

    #[test]
    fn spilled_job_streams_instead_of_materializing() {
        // A tiny A-side budget forces many spill runs; the streamed merge
        // must bound the forming run far below the total record count.
        let dir = crate::ScratchDir::new();
        let config = JobConfig::new(2)
            .with_memory_budget(128)
            .with_spill_dir(&dir.0);
        let inputs: Vec<Bytes> = (0..40)
            .map(|i| Bytes::from(format!("a{i} b{i} c{i} d{i} e{i} f{i} g{i} h{i}")))
            .collect();
        let out = run_job(&config, inputs, wordcount_o, wordcount_a, None).unwrap();
        assert!(out.stats.spills > 0);
        assert_eq!(out.stats.records_emitted, 320);
        assert!(
            out.stats.peak_resident_records * 4 < out.stats.records_emitted,
            "peak {} vs total {}",
            out.stats.peak_resident_records,
            out.stats.records_emitted
        );
    }

    #[test]
    fn output_is_deterministic_across_runs_in_sorted_mode() {
        let config = JobConfig::new(3);
        let make_inputs = || {
            (0..10)
                .map(|i| Bytes::from(format!("w{} w{} shared", i, (i * 7) % 10)))
                .collect::<Vec<_>>()
        };
        let a = run_job(&config, make_inputs(), wordcount_o, wordcount_a, None).unwrap();
        let b = run_job(&config, make_inputs(), wordcount_o, wordcount_a, None).unwrap();
        for (pa, pb) in a.partitions.iter().zip(&b.partitions) {
            assert_eq!(pa.records(), pb.records());
        }
    }

    #[test]
    fn identity_job_sorts_globally_within_partition() {
        // Sort mode: identity O and A; partition-local outputs must be
        // key-sorted (the per-partition half of a TeraSort-style job).
        let config = JobConfig::new(2);
        let inputs = vec![Bytes::from_static(b"delta\nalpha\ncharlie\nbravo")];
        let o = |_t: usize, split: &[u8], out: &mut dyn Collector| {
            for line in split.split(|&b| b == b'\n') {
                out.collect(line, line);
            }
        };
        let a = |g: &GroupedValues, out: &mut dyn Collector| {
            for v in &g.values {
                out.collect_shared(&g.key, v);
            }
        };
        let result = run_job(&config, inputs, o, a, None).unwrap();
        for p in &result.partitions {
            let keys: Vec<_> = p.iter().map(|r| r.key.clone()).collect();
            let mut sorted = keys.clone();
            sorted.sort();
            assert_eq!(keys, sorted, "partition must be key-sorted");
        }
    }

    #[test]
    fn pipelining_ablation_preserves_results() {
        let inputs: Vec<Bytes> = (0..6)
            .map(|i| Bytes::from(format!("word{} word{} word{}", i, i % 3, i % 2)))
            .collect();
        let piped = run_job(
            &JobConfig::new(3).with_flush_threshold(16),
            inputs.clone(),
            wordcount_o,
            wordcount_a,
            None,
        )
        .unwrap();
        let staged = run_job(
            &JobConfig::new(3).with_pipelined(false),
            inputs,
            wordcount_o,
            wordcount_a,
            None,
        )
        .unwrap();
        assert!(piped.stats.early_flushes > 0);
        assert_eq!(staged.stats.early_flushes, 0);
        assert_eq!(counts_of(piped), counts_of(staged));
    }

    #[test]
    fn tiny_memory_budget_spills_but_stays_correct() {
        let dir = crate::ScratchDir::new();
        let config = JobConfig::new(2)
            .with_memory_budget(64)
            .with_spill_dir(&dir.0);
        let inputs: Vec<Bytes> = (0..20)
            .map(|i| Bytes::from(format!("k{} k{} k{}", i % 5, i % 7, i)))
            .collect();
        let out = run_job(&config, inputs, wordcount_o, wordcount_a, None).unwrap();
        assert!(out.stats.spills > 0, "64-byte budget must spill");
        let counts = counts_of(out);
        assert_eq!(counts["k0"], 8); // i%5==0 -> 4, i%7==0 -> 3, i==0 -> 1
    }

    #[test]
    fn injected_fault_fails_the_job_cleanly() {
        let config = JobConfig::new(2).with_faults(FaultPlan::new(0).fail_o_task(1, 0));
        let inputs = vec![
            Bytes::from_static(b"a b"),
            Bytes::from_static(b"c d"),
            Bytes::from_static(b"e f"),
        ];
        let err = run_job(&config, inputs, wordcount_o, wordcount_a, None).unwrap_err();
        let cause = err.fault_cause().expect("structured cause");
        assert_eq!(cause.kind, dmpi_common::FaultKind::InjectedError);
        assert_eq!(cause.task, Some(1));
        assert_eq!(cause.attempt, Some(0));
    }

    #[test]
    fn injected_rank_death_fails_cleanly_without_hanging() {
        let config = JobConfig::new(3).with_faults(FaultPlan::new(0).rank_panic(1, 0));
        let inputs: Vec<Bytes> = (0..6).map(|i| Bytes::from(format!("w{i}"))).collect();
        let cp = CheckpointStore::new();
        let err =
            run_job(&config, inputs.clone(), wordcount_o, wordcount_a, Some(&cp)).unwrap_err();
        let cause = err.fault_cause().expect("structured cause");
        assert_eq!(cause.kind, dmpi_common::FaultKind::RankDeath);
        assert_eq!(cause.rank, Some(1));
        // The death was scheduled for attempt 0 only: attempt 1 is clean,
        // replays exactly what the surviving ranks banked and runs the rest.
        let banked = cp.completed_count() as u64;
        let out = run_job(&config, inputs, wordcount_o, wordcount_a, Some(&cp)).unwrap();
        assert_eq!(out.stats.o_tasks_recovered, banked);
        assert_eq!(out.stats.o_tasks_run, 6 - banked);
    }

    #[test]
    fn corrupted_frame_is_detected_not_silently_wrong() {
        let config = JobConfig::new(2).with_faults(FaultPlan::new(17).corrupt_frame(0, 0));
        let inputs = vec![
            Bytes::from_static(b"alpha beta gamma"),
            Bytes::from_static(b"delta"),
        ];
        let cp = CheckpointStore::new();
        let err =
            run_job(&config, inputs.clone(), wordcount_o, wordcount_a, Some(&cp)).unwrap_err();
        let cause = err.fault_cause().expect("structured cause");
        assert_eq!(cause.kind, dmpi_common::FaultKind::CorruptFrame);
        assert_eq!(cause.task, Some(0));
        // Corruption was wire-only and scheduled for attempt 0: retrying
        // as attempt 1 produces the right answer.
        let out = run_job(&config, inputs, wordcount_o, wordcount_a, Some(&cp)).unwrap();
        assert_eq!(counts_of(out)["alpha"], 1);
    }

    #[test]
    fn restart_against_the_same_store_is_the_next_attempt() {
        // The plan fails task k on attempt 0 only; one rank runs tasks in
        // order, so tasks 0..k complete first. Nobody passes an attempt
        // number: the second call against the store is attempt 1, which
        // replays the k banked tasks and runs the rest, and a third call
        // is attempt 2 and replays all of them.
        let inputs: Vec<Bytes> = (0..8)
            .map(|i| Bytes::from(format!("w{i} shared")))
            .collect();
        let clean = run_job(
            &JobConfig::new(1),
            inputs.clone(),
            wordcount_o,
            wordcount_a,
            None,
        );
        let clean = counts_of(clean.unwrap());
        for k in 0..inputs.len() {
            let config = JobConfig::new(1).with_faults(FaultPlan::new(0).fail_o_task(k, 0));
            let cp = CheckpointStore::new();
            let run = || run_job(&config, inputs.clone(), wordcount_o, wordcount_a, Some(&cp));
            let err = run().unwrap_err();
            let cause = err.fault_cause().expect("structured cause");
            assert!(cause.is_injected());
            assert_eq!(cause.attempt, Some(0));
            assert_eq!(cp.completed_count(), k, "tasks before {k} checkpointed");

            let out = run().unwrap();
            assert_eq!(out.stats.o_tasks_recovered, k as u64);
            assert_eq!(out.stats.o_tasks_run, (inputs.len() - k) as u64);
            assert_eq!(counts_of(out), clean, "output equals a clean run");

            let again = run().unwrap();
            assert_eq!(again.stats.o_tasks_recovered, inputs.len() as u64);
            assert_eq!(cp.begin_attempt(1).unwrap(), 3);
        }
    }

    #[test]
    fn a_store_refuses_a_run_at_another_width() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Frames banked at width 3 are partitioned for 3 ranks; replaying
        // them into 2 would misplace records, so the run never starts.
        let cp = CheckpointStore::new();
        cp.begin_attempt(3).unwrap();
        let calls = AtomicUsize::new(0);
        let o = |t: usize, split: &[u8], out: &mut dyn Collector| {
            calls.fetch_add(1, Ordering::Relaxed);
            wordcount_o(t, split, out);
        };
        let inputs = vec![Bytes::from_static(b"a b"), Bytes::from_static(b"c")];
        let err = run_job(&JobConfig::new(2), inputs, o, wordcount_a, Some(&cp)).unwrap_err();
        assert!(matches!(err, Error::Config(_)), "{err}");
        assert_eq!(calls.load(Ordering::Relaxed), 0, "no O task ran");
    }

    #[test]
    fn panicking_a_function_reports_a_task_panic_naming_the_rank() {
        use dmpi_common::partition::{HashPartitioner, Partitioner};
        // The A function panics on one key; the rank that owns that key
        // fails the job with a structured task panic instead of dying.
        let config = JobConfig::new(2);
        let inputs = vec![Bytes::from_static(b"boom ok fine")];
        let a = |g: &GroupedValues, out: &mut dyn Collector| {
            if &g.key[..] == b"boom" {
                panic!("A user code exploded");
            }
            wordcount_a(g, out);
        };
        let err = run_job(&config, inputs, wordcount_o, a, None).unwrap_err();
        let cause = err.fault_cause().expect("structured cause");
        assert_eq!(cause.kind, dmpi_common::FaultKind::TaskPanic);
        assert_eq!(cause.rank, Some(HashPartitioner::new(2).partition(b"boom")));
        assert_eq!(cause.attempt, Some(0));
    }

    #[test]
    fn panicking_o_task_reports_fault_not_hang() {
        let config = JobConfig::new(2);
        let inputs = vec![Bytes::from_static(b"boom"), Bytes::from_static(b"ok")];
        let o = |task: usize, _split: &[u8], _out: &mut dyn Collector| {
            if task == 0 {
                panic!("user code exploded");
            }
        };
        let a = |_g: &GroupedValues, _out: &mut dyn Collector| {};
        let err = run_job(&config, inputs, o, a, None).unwrap_err();
        assert_eq!(
            err.fault_cause().expect("structured cause").kind,
            dmpi_common::FaultKind::TaskPanic
        );
    }

    fn lined_inputs(tasks: usize, lines: usize) -> Vec<Bytes> {
        (0..tasks)
            .map(|i| {
                let mut s = String::new();
                for j in 0..lines {
                    s.push_str(&format!("w{} shared line{}\n", (i * 13 + j) % 11, j % 7));
                }
                Bytes::from(s)
            })
            .collect()
    }

    #[test]
    fn phase_totals_stay_consistent_under_spill_pressure() {
        // stats.phase_us must equal the span log's totals when seals
        // record phase time on tracers of their own.
        let obs = Observer::new();
        let dir = crate::ScratchDir::new();
        let config = JobConfig::new(2)
            .with_memory_budget(256)
            .with_spill_dir(&dir.0)
            .with_observer(obs.clone());
        let out = run_job(&config, lined_inputs(4, 50), wordcount_o, wordcount_a, None).unwrap();
        assert!(out.stats.spills > 0, "budget forces spills");
        assert_eq!(out.stats.phase_us, obs.trace().phase_totals());
    }

    #[test]
    fn more_tasks_than_ranks_all_execute() {
        let config = JobConfig::new(2);
        let inputs: Vec<Bytes> = (0..50).map(|i| Bytes::from(format!("t{i}"))).collect();
        let out = run_job(&config, inputs, wordcount_o, wordcount_a, None).unwrap();
        assert_eq!(out.stats.o_tasks_run, 50);
        assert_eq!(out.stats.groups, 50, "fifty distinct words");
    }

    #[test]
    fn empty_job_produces_empty_output() {
        let config = JobConfig::new(3);
        let out = run_job(&config, vec![], wordcount_o, wordcount_a, None).unwrap();
        assert_eq!(out.stats.o_tasks_run, 0);
        assert!(out.partitions.iter().all(|p| p.is_empty()));
    }
}
