//! The in-proc job runner: ranks as threads, really moving data.
//!
//! `run_job` realizes the bipartite O/A model. This module is the **job
//! level** only: it opens the configured [`crate::transport`] (the
//! in-proc channel fabric or a real TCP mesh), builds what the ranks of
//! one process can share — the split dispenser ([`TaskQueues`], dynamic
//! by default), the speculation [`ProgressBoard`] when enabled, the
//! caller's [`CheckpointStore`], one failed flag — and runs `run_rank`
//! on one thread per rank. What a rank does (ingest thread, O loop,
//! EOFs, A loop) lives in `rank.rs` and is the same code `dmpirun`
//! workers and the resident service execute; see DESIGN.md "Execution
//! core".
//!
//! Failures: an O task error, rank death, or corrupt frame marks the job
//! failed; every surviving rank still sends its EOFs so the job tears down
//! cleanly rather than deadlocking, and the job returns the first error
//! with a structured [`FaultCause`]. With checkpointing enabled, completed
//! O tasks are recovered on restart without re-running user code
//! ([`crate::checkpoint`]); [`crate::supervisor::supervise_job`] drives
//! those restarts automatically under a bounded-retry policy. Faults are
//! injected deterministically from the config's
//! [`FaultPlan`](crate::fault::FaultPlan).

use bytes::Bytes;

use dmpi_common::kv::RecordBatch;
use dmpi_common::{Error, FaultCause, FaultKind, Result};

use crate::checkpoint::CheckpointStore;
use crate::config::JobConfig;
use crate::observe::{HistKind, PhaseTotals, SpanKind};
use crate::rank::{run_rank, JobFailure, RankContext};
use crate::speculate::{ProgressBoard, TaskQueues};
use crate::task::{Collector, GroupedValues};
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
    /// Spill-run blocks skipped whole via the run footer index (range
    /// restriction or checkpoint resume).
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
    /// Injected straggler delays served by O tasks.
    pub straggler_delays: u64,
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
    /// Speculative duplicate attempts launched by idle ranks.
    pub speculative_attempts: u64,
    /// Speculative duplicates that won their task's first-writer-wins
    /// commit (the task's output came from the duplicate, not the slow
    /// primary).
    pub speculative_commits: u64,
    /// Attempts (primary or speculative) that lost a commit race or were
    /// aborted pre-execution; their emissions are charged to
    /// `wasted_bytes`.
    pub speculative_aborts: u64,
    /// O splits stolen from another rank's queue under static scheduling
    /// with work stealing.
    pub tasks_stolen: u64,
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
        self.straggler_delays += other.straggler_delays;
        self.peak_resident_records = self.peak_resident_records.max(other.peak_resident_records);
        self.combiner_records_in += other.combiner_records_in;
        self.combiner_records_out += other.combiner_records_out;
        self.speculative_attempts += other.speculative_attempts;
        self.speculative_commits += other.speculative_commits;
        self.speculative_aborts += other.speculative_aborts;
        self.tasks_stolen += other.tasks_stolen;
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

/// Runs a DataMPI job (first attempt). See [`run_job_attempt`].
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
    run_job_attempt(config, inputs, o_fn, a_fn, checkpoint, 0)
}

/// Runs a DataMPI job, identifying the `attempt` number for fault-injection
/// and recovery accounting. `inputs[i]` is the raw content of O task `i`'s
/// split.
pub fn run_job_attempt<O, A>(
    config: &JobConfig,
    inputs: Vec<Bytes>,
    o_fn: O,
    a_fn: A,
    checkpoint: Option<&CheckpointStore>,
    attempt: u32,
) -> Result<JobOutput>
where
    O: Fn(usize, &[u8], &mut dyn Collector) + Send + Sync,
    A: Fn(&GroupedValues, &mut dyn Collector) + Send + Sync,
{
    let o_fn = move |task: usize, split: &Bytes, out: &mut dyn Collector| o_fn(task, split, out);
    run_job_core(config, &inputs, &o_fn, &a_fn, checkpoint, attempt).map_err(|e| e.0)
}

/// The runner behind the byte-split surface ([`run_job`]), Iteration mode
/// (O tasks consume an arbitrary resident split type `I`) and the
/// supervisor. On failure it also returns the partial stats of the
/// attempt, so the supervisor can account wasted work across retries.
pub(crate) fn run_job_core<I, O, A>(
    config: &JobConfig,
    inputs: &[I],
    o_fn: &O,
    a_fn: &A,
    checkpoint: Option<&CheckpointStore>,
    attempt: u32,
) -> std::result::Result<JobOutput, Box<(Error, JobStats)>>
where
    I: Sync,
    O: Fn(usize, &I, &mut dyn Collector) + Send + Sync,
    A: Fn(&GroupedValues, &mut dyn Collector) + Send + Sync,
{
    if let Err(e) = config.validate() {
        return Err(Box::new((e, JobStats::default())));
    }
    if config.checkpointing && checkpoint.is_none() {
        return Err(Box::new((
            Error::Config("checkpointing enabled but no CheckpointStore supplied".into()),
            JobStats::default(),
        )));
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

    let queues = TaskQueues::new(
        config.scheduling,
        inputs.len(),
        ranks,
        config.speculation.seed,
    );
    // The progress board exists only when speculation is on: the default
    // path keeps its direct-emission hot loop and pays nothing.
    let board = config
        .speculation
        .enabled
        .then(|| ProgressBoard::new(config.speculation, inputs.len()));
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
                inputs,
                queues: &queues,
                board: board.as_ref(),
                checkpoint,
                failure: &failure,
            };
            handles.push(scope.spawn(move || {
                let result = run_rank(
                    &cx,
                    o_fn,
                    a_fn,
                    endpoint.senders(),
                    endpoint.take_receiver(),
                );
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
    // supervised run's trace shows every attempt as its own process row.
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
    use std::time::{Duration, Instant};

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
        let config = JobConfig::new(2).with_memory_budget(128);
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
        let config = JobConfig::new(2).with_memory_budget(64);
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
        let config = JobConfig::new(2).with_o_task_fault(1, 0);
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
        let err = run_job(&config, inputs.clone(), wordcount_o, wordcount_a, None).unwrap_err();
        let cause = err.fault_cause().expect("structured cause");
        assert_eq!(cause.kind, dmpi_common::FaultKind::RankDeath);
        assert_eq!(cause.rank, Some(1));
        // The death was scheduled for attempt 0 only: attempt 1 is clean.
        let out = run_job_attempt(&config, inputs, wordcount_o, wordcount_a, None, 1).unwrap();
        assert_eq!(out.stats.o_tasks_run, 6);
    }

    #[test]
    fn corrupted_frame_is_detected_not_silently_wrong() {
        let config = JobConfig::new(2).with_faults(FaultPlan::new(17).corrupt_frame(0, 0));
        let inputs = vec![
            Bytes::from_static(b"alpha beta gamma"),
            Bytes::from_static(b"delta"),
        ];
        let err = run_job(&config, inputs.clone(), wordcount_o, wordcount_a, None).unwrap_err();
        let cause = err.fault_cause().expect("structured cause");
        assert_eq!(cause.kind, dmpi_common::FaultKind::CorruptFrame);
        assert_eq!(cause.task, Some(0));
        // Corruption was wire-only and scheduled for attempt 0: retrying
        // as attempt 1 produces the right answer.
        let out = run_job_attempt(&config, inputs, wordcount_o, wordcount_a, None, 1).unwrap();
        assert_eq!(counts_of(out)["alpha"], 1);
    }

    #[test]
    fn straggler_delay_slows_but_does_not_fail() {
        let config = JobConfig::new(2).with_faults(FaultPlan::new(0).straggler(0, 0, 30));
        let inputs = vec![Bytes::from_static(b"x y"), Bytes::from_static(b"z")];
        let t0 = std::time::Instant::now();
        let out = run_job(&config, inputs, wordcount_o, wordcount_a, None).unwrap();
        assert!(t0.elapsed() >= std::time::Duration::from_millis(30));
        assert_eq!(out.stats.straggler_delays, 1);
        assert_eq!(out.stats.records_emitted, 3);
    }

    #[test]
    fn checkpoint_restart_recovers_completed_tasks() {
        let cp = CheckpointStore::new();
        let inputs: Vec<Bytes> = (0..8)
            .map(|i| Bytes::from(format!("w{i} shared")))
            .collect();

        // Attempt 0: task 7 fails after others complete (single rank makes
        // completion order deterministic: tasks 0..6 run first).
        let failing = JobConfig::new(1)
            .with_checkpointing(true)
            .with_o_task_fault(7, 0);
        let err = run_job_attempt(
            &failing,
            inputs.clone(),
            wordcount_o,
            wordcount_a,
            Some(&cp),
            0,
        )
        .unwrap_err();
        assert!(err.fault_cause().expect("structured cause").is_injected());
        assert_eq!(cp.completed_count(), 7, "tasks 0-6 checkpointed");

        // Attempt 1: recovery replays 7 tasks, runs only the failed one.
        let retry = JobConfig::new(1).with_checkpointing(true);
        let out = run_job_attempt(
            &retry,
            inputs.clone(),
            wordcount_o,
            wordcount_a,
            Some(&cp),
            1,
        )
        .unwrap();
        assert_eq!(out.stats.o_tasks_recovered, 7);
        assert_eq!(out.stats.o_tasks_run, 1);

        // Output equals a clean run.
        let clean = run_job(&JobConfig::new(1), inputs, wordcount_o, wordcount_a, None).unwrap();
        assert_eq!(counts_of(out), counts_of(clean));
    }

    #[test]
    fn checkpointing_without_store_is_a_config_error() {
        let config = JobConfig::new(1).with_checkpointing(true);
        let err = run_job(&config, vec![], wordcount_o, wordcount_a, None).unwrap_err();
        assert!(matches!(err, Error::Config(_)));
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
    fn phase_totals_stay_consistent_under_background_seals() {
        // stats.phase_us must equal the span log's totals even when
        // background seals record phase time off the rank threads.
        let obs = Observer::new();
        let config = JobConfig::new(2)
            .with_memory_budget(256)
            .with_observer(obs.clone());
        let out = run_job(&config, lined_inputs(4, 50), wordcount_o, wordcount_a, None).unwrap();
        assert!(out.stats.spills > 0, "budget forces spills");
        assert_eq!(out.stats.phase_us, obs.trace().phase_totals());
    }

    #[test]
    fn capture_commit_mode_is_byte_identical_to_direct_emission() {
        // Speculation on means *every* task runs capture-then-commit; the
        // output must match the direct path bit for bit, including with a
        // checkpoint tee and a combiner attached.
        use crate::speculate::SpeculationConfig;
        let inputs = || lined_inputs(5, 25);
        let plain = JobConfig::new(2).with_flush_threshold(64);
        let direct = run_job(&plain, inputs(), wordcount_o, wordcount_a, None).unwrap();

        let cp = CheckpointStore::new();
        let spec = plain
            .clone()
            .with_speculation(SpeculationConfig::enabled())
            .with_checkpointing(true)
            .with_combiner(crate::task::Combiner::new(wordcount_a));
        let speced = run_job(&spec, inputs(), wordcount_o, wordcount_a, Some(&cp)).unwrap();
        for (pa, pb) in direct.partitions.iter().zip(&speced.partitions) {
            assert_eq!(pa.records(), pb.records());
        }
        assert_eq!(direct.stats.records_emitted, speced.stats.records_emitted);
        assert_eq!(speced.stats.o_tasks_run, 5);
        assert_eq!(cp.completed_count(), 5, "tee rides the committed replay");

        // A restart against that checkpoint recovers every task.
        let retry = plain.clone().with_checkpointing(true);
        let rec =
            run_job_attempt(&retry, inputs(), wordcount_o, wordcount_a, Some(&cp), 1).unwrap();
        assert_eq!(rec.stats.o_tasks_recovered, 5);
        for (pa, pb) in direct.partitions.iter().zip(&rec.partitions) {
            assert_eq!(pa.records(), pb.records());
        }
    }

    #[test]
    fn speculation_rescues_a_seeded_slow_rank() {
        use crate::speculate::{Scheduling, SpeculationConfig};
        // Rank 0 is paced 400 ms per task; rank 1 is healthy. With static
        // scheduling rank 0 owns tasks 0 and 2, so without defense the job
        // takes ~800 ms. Speculation lets rank 1 duplicate the stalled
        // tasks; the stalled primary aborts mid-sleep, wasting nothing.
        let spec = SpeculationConfig::enabled()
            .with_min_completed(1)
            .with_min_lag(Duration::from_millis(10))
            .with_poll(Duration::from_millis(1));
        let config = JobConfig::new(2)
            .with_scheduling(Scheduling::Static {
                work_stealing: false,
            })
            .with_speculation(spec)
            .with_faults(FaultPlan::new(3).slow_rank(0, 0, 400));
        let inputs: Vec<Bytes> = (0..4)
            .map(|i| Bytes::from(format!("w{i} shared")))
            .collect();
        let t0 = Instant::now();
        let out = run_job(&config, inputs.clone(), wordcount_o, wordcount_a, None).unwrap();
        let elapsed = t0.elapsed();
        assert!(
            out.stats.speculative_commits >= 1,
            "a duplicate must have rescued a stalled task"
        );
        assert_eq!(
            out.stats.o_tasks_run, 4,
            "every task committed exactly once"
        );
        assert!(
            elapsed < Duration::from_millis(700),
            "rescue must beat the ~800 ms no-defense schedule, took {elapsed:?}"
        );
        // Output identical to an undisturbed run.
        let clean = run_job(&JobConfig::new(2), inputs, wordcount_o, wordcount_a, None).unwrap();
        assert_eq!(counts_of(out), counts_of(clean));
    }

    #[test]
    fn stalled_primary_aborts_with_zero_waste() {
        use crate::speculate::{Scheduling, SpeculationConfig};
        // One long injected stall on rank 0's only task; the duplicate
        // commits long before the 1.5 s sleep ends, so the primary aborts
        // pre-execution and the attempt wastes exactly zero bytes.
        let spec = SpeculationConfig::enabled()
            .with_min_completed(1)
            .with_min_lag(Duration::from_millis(10))
            .with_poll(Duration::from_millis(1));
        let config = JobConfig::new(2)
            .with_scheduling(Scheduling::Static {
                work_stealing: false,
            })
            .with_speculation(spec)
            .with_faults(FaultPlan::new(0).slow_rank(0, 0, 1_500));
        let inputs: Vec<Bytes> = (0..4).map(|i| Bytes::from(format!("w{i}"))).collect();
        let t0 = Instant::now();
        let out = run_job(&config, inputs, wordcount_o, wordcount_a, None).unwrap();
        assert_eq!(out.stats.wasted_bytes, 0, "pre-exec aborts charge nothing");
        assert_eq!(
            out.stats.speculative_commits, 2,
            "both stalled tasks rescued"
        );
        assert!(out.stats.speculative_aborts >= 2, "both primaries aborted");
        assert!(
            t0.elapsed() < Duration::from_millis(1_400),
            "the job must not serve the full injected stalls"
        );
    }

    #[test]
    fn work_stealing_moves_queued_splits_and_keeps_output_identical() {
        use crate::speculate::Scheduling;
        // Rank 0 is paced 40 ms per task and owns a third of 12 tasks;
        // healthy ranks drain their own queues, then steal rank 0's
        // not-yet-started splits from the back.
        let mk = |scheduling| {
            JobConfig::new(3)
                .with_scheduling(scheduling)
                .with_faults(FaultPlan::new(0).slow_rank(0, 0, 40))
        };
        let inputs = || lined_inputs(12, 6);
        let base = run_job(
            &mk(Scheduling::Dynamic),
            inputs(),
            wordcount_o,
            wordcount_a,
            None,
        )
        .unwrap();
        let pinned = run_job(
            &mk(Scheduling::Static {
                work_stealing: false,
            }),
            inputs(),
            wordcount_o,
            wordcount_a,
            None,
        )
        .unwrap();
        let stealing = run_job(
            &mk(Scheduling::Static {
                work_stealing: true,
            }),
            inputs(),
            wordcount_o,
            wordcount_a,
            None,
        )
        .unwrap();
        assert_eq!(pinned.stats.tasks_stolen, 0);
        assert!(
            stealing.stats.tasks_stolen >= 1,
            "healthy ranks must relieve the slow one"
        );
        for (pa, pb) in base.partitions.iter().zip(&pinned.partitions) {
            assert_eq!(pa.records(), pb.records(), "static matches dynamic");
        }
        for (pa, pb) in base.partitions.iter().zip(&stealing.partitions) {
            assert_eq!(pa.records(), pb.records(), "stealing matches dynamic");
        }
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
