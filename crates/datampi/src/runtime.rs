//! The executing DataMPI runtime: ranks as threads, really moving data.
//!
//! `run_job` realizes the bipartite O/A model:
//!
//! 1. **O phase** — worker ranks dynamically pull input splits from a shared
//!    queue (the library's dynamic scheduling), run the user's O function,
//!    and emit key-value pairs through a partitioned [`KvBuffer`]. Buffers
//!    flush asynchronously while the task computes (pipelining). Splits
//!    large enough to cut on line boundaries additionally fan out across
//!    an intra-rank worker pool ([`JobConfig::with_o_parallelism`]); each
//!    worker captures its chunk's emissions and the coordinator replays
//!    them in chunk order, so emitted frames stay byte-identical to the
//!    sequential path (see DESIGN.md §11).
//! 2. **A phase** — each rank owns one A partition: a dedicated ingest
//!    thread drains its mailbox into a [`PartitionStore`] (in-memory,
//!    spilling under pressure) *concurrently with the O phase* — required
//!    for deadlock freedom now that mailboxes are bounded (see `comm.rs`)
//!    and for overlap on the TCP backend. Once every peer's EOF has
//!    arrived the rank groups the records by key (sorted in MapReduce
//!    mode, hashed in Common mode) and runs the user's A function per
//!    group.
//!
//! Frames move over whichever [`crate::transport`] backend the config
//! selects: the in-proc channel fabric or a real TCP mesh. The runtime
//! only ever sees [`FrameSender`]s and a
//! [`FrameReceiver`], so both
//! backends execute exactly the same code path.
//!
//! Failures: an O task error, rank death, or corrupt frame marks the job
//! failed; every surviving rank still sends its EOFs so the job tears down
//! cleanly rather than deadlocking, and the job returns the error with a
//! structured [`FaultCause`]. With checkpointing enabled, completed O
//! tasks are recovered on restart without re-running user code
//! ([`crate::checkpoint`]); [`crate::supervisor::supervise_job`] drives
//! those restarts automatically under a bounded-retry policy. Faults are
//! injected deterministically from the config's
//! [`FaultPlan`](crate::fault::FaultPlan).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use bytes::Bytes;

use dmpi_common::kv::RecordBatch;
use dmpi_common::{ser, Error, FaultCause, FaultKind, Result};

use crate::buffer::KvBuffer;
use crate::checkpoint::CheckpointStore;
use crate::comm::Frame;
use crate::config::JobConfig;
use crate::observe::{HistKind, Observer, PhaseTotals, SpanKind, Tracer};
use crate::speculate::{ProgressBoard, TaskQueues};
use crate::spillfmt::SpillConfig;
use crate::store::PartitionStore;
use crate::task::{BatchCollector, Collector, GroupedValues};
use crate::transport::{self, FrameReceiver, FrameSender};

/// Groups between two A-side merge frontier recordings. Each recording
/// snapshots the cursor frontier plus the framed output so far, so the
/// interval trades checkpoint traffic against re-merged groups on a
/// mid-merge restart.
const MERGE_CP_INTERVAL: u64 = 32;

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
    /// Data frames rejected by the receiver-side CRC32 check.
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
    /// [`Observer`].
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

struct EmitAdapter<'a> {
    buffer: &'a mut KvBuffer,
}

impl Collector for EmitAdapter<'_> {
    fn collect(&mut self, key: &[u8], value: &[u8]) {
        self.buffer.emit_kv(key, value);
    }
}

/// An input split the intra-rank parallel O executor knows how to cut
/// into independently-processable chunks.
///
/// **Contract:** processing the chunks of one split in chunk order must
/// make the O function emit exactly the pairs, in exactly the order, it
/// would emit over the whole split. For the byte-split surface the cut
/// points are `'\n'` boundaries (the separator byte is dropped), so the
/// contract holds for any O function that maps newline-separated
/// segments independently — every catalogue workload does. O functions
/// that carry state *across* lines must run with
/// [`JobConfig::with_o_parallelism`]`(1)`.
///
/// The default implementation never chunks, which is always correct:
/// such splits simply take the sequential path.
pub trait ChunkableSplit: Sync {
    /// Cuts `self` into two or more chunks of roughly `target_bytes`
    /// each, or `None` when the split is too small or offers no safe cut
    /// point.
    fn parallel_chunks(&self, target_bytes: usize) -> Option<Vec<Self>>
    where
        Self: Sized,
    {
        let _ = target_bytes;
        None
    }
}

impl ChunkableSplit for Bytes {
    /// Zero-copy chunking on line boundaries: each chunk is a refcounted
    /// [`Bytes::slice`] of the split; the `'\n'` separating two chunks
    /// belongs to neither, so the concatenation of every chunk's line
    /// list is exactly the whole split's line list.
    fn parallel_chunks(&self, target_bytes: usize) -> Option<Vec<Bytes>> {
        if self.len() <= target_bytes {
            return None;
        }
        let mut chunks = Vec::new();
        let mut start = 0usize;
        while self.len() - start > target_bytes {
            let tentative = start + target_bytes;
            match self[tentative..].iter().position(|&b| b == b'\n') {
                Some(off) => {
                    let cut = tentative + off;
                    chunks.push(self.slice(start..cut));
                    start = cut + 1;
                }
                None => break,
            }
        }
        chunks.push(self.slice(start..));
        if chunks.len() < 2 {
            return None;
        }
        Some(chunks)
    }
}

/// Captures one worker's emissions as `(klen, vlen, key, value)` varint
/// frames — the same layout [`dmpi_common::ser::read_framed_kv`] decodes
/// — for in-order replay into the task's real [`KvBuffer`].
struct CaptureCollector {
    buf: Vec<u8>,
}

impl Collector for CaptureCollector {
    fn collect(&mut self, key: &[u8], value: &[u8]) {
        dmpi_common::varint::write_u64(&mut self.buf, key.len() as u64);
        dmpi_common::varint::write_u64(&mut self.buf, value.len() as u64);
        self.buf.extend_from_slice(key);
        self.buf.extend_from_slice(value);
    }
}

/// Replays a worker's captured emissions through the task's real buffer,
/// borrowing each pair straight out of the capture (no allocation).
fn replay_capture(capture: &[u8], buffer: &mut KvBuffer) {
    let mut off = 0usize;
    while off < capture.len() {
        let (key, value, n) = dmpi_common::ser::read_framed_kv(&capture[off..])
            .expect("worker capture buffers are well-formed by construction");
        buffer.emit_kv(key, value);
        off += n;
    }
}

/// Commits one attempt's captured emissions as the task's real output:
/// builds the task's [`KvBuffer`] (checkpoint tee, tracer, combiner, and
/// injected corruption attached exactly as on the direct path) and
/// replays the capture through it. Because the buffer sees the identical
/// `emit_kv` sequence the direct path would produce, the shipped frames
/// are byte-identical to direct emission — the property that lets
/// speculation run under the first-writer-wins rule without perturbing
/// output. Returns the committed record count.
#[allow(clippy::too_many_arguments)] // internal: mirrors the rank context it runs in
fn commit_capture(
    capture: &[u8],
    senders: &[FrameSender],
    rank: usize,
    task: usize,
    attempt: u32,
    config: &JobConfig,
    checkpoint: Option<&CheckpointStore>,
    tracer: Option<&Tracer>,
    stats: &mut JobStats,
) -> u64 {
    let mut buffer = KvBuffer::new(
        senders.to_vec(),
        rank,
        task,
        config.flush_threshold,
        config.pipelined,
    );
    if let Some(cp) = checkpoint {
        buffer.set_tee(cp.clone());
    }
    if let Some(t) = tracer {
        buffer.set_tracer(t.for_task(task as u64));
    }
    if let Some(c) = &config.combiner {
        buffer.set_combiner(c.clone());
    }
    if let Some(plan) = config.faults.as_ref() {
        if let Some(corruption) = plan.corruption(task, attempt) {
            buffer.set_corruption(corruption);
        }
    }
    replay_capture(capture, &mut buffer);
    let b = buffer.finish();
    stats.o_tasks_run += 1;
    stats.records_emitted += b.records;
    stats.bytes_emitted += b.bytes;
    stats.frames += b.frames;
    stats.early_flushes += b.early_flushes;
    stats.combiner_records_in += b.combiner_records_in;
    stats.combiner_records_out += b.combiner_records_out;
    if let Some(cp) = checkpoint {
        cp.mark_complete_at(task, config.ranks);
    }
    b.records
}

/// Serves an injected straggler/slow-rank delay. Without a progress
/// board this is a plain sleep. With one, the delay is served in
/// poll-sized slices so a primary stuck in an injected stall can abort
/// the moment a speculative duplicate commits its task — returning
/// `true` (task committed elsewhere; the caller must abort without
/// running user code, wasting zero bytes).
fn serve_injected_delay(total: Duration, board: Option<&ProgressBoard>, task: usize) -> bool {
    let Some(board) = board else {
        std::thread::sleep(total);
        return false;
    };
    let slice = board.poll().max(Duration::from_millis(1));
    let deadline = Instant::now() + total;
    loop {
        if board.is_committed(task) {
            return true;
        }
        let now = Instant::now();
        if now >= deadline {
            return false;
        }
        std::thread::sleep(slice.min(deadline - now));
    }
}

/// Runs one O task's chunks on a scoped worker pool, replaying each
/// chunk's captured emissions into `buffer` strictly in chunk order.
///
/// Determinism: the task's single real [`KvBuffer`] sees exactly the
/// emission sequence the sequential path would produce, so framing,
/// combiner windows, checkpoint tees, corruption injection, and stats
/// are all byte-identical at any worker count. Workers overlap with the
/// replay: the coordinator replays chunk `i` while later chunks still
/// compute.
///
/// Returns `false` (after all workers drained) if any chunk's user code
/// panicked — the caller converts that into the same task-panic fault
/// the sequential path raises. The returned [`PhaseTotals`] carry the
/// workers' traced O-task time, attributed via per-worker tracers rather
/// than wall-clock deltas so overlapped workers sum correctly.
#[allow(clippy::too_many_arguments)] // internal: mirrors the rank context it runs in
pub(crate) fn execute_chunks_parallel<I, O>(
    task: usize,
    chunks: Vec<I>,
    o_fn: &O,
    buffer: &mut KvBuffer,
    workers: usize,
    observer: Option<&Observer>,
    rank: usize,
    attempt: u32,
) -> (bool, PhaseTotals)
where
    I: Sync,
    O: Fn(usize, &I, &mut dyn Collector) + Send + Sync,
{
    use std::sync::atomic::AtomicUsize;

    let workers = workers.min(chunks.len()).max(1);
    let aborted = AtomicBool::new(false);
    let next = AtomicUsize::new(0);
    let pool_phase = Mutex::new(PhaseTotals::default());
    let (tx, rx) = std::sync::mpsc::channel::<(usize, std::result::Result<Vec<u8>, ()>)>();
    let chunks = &chunks;
    let aborted = &aborted;
    let next = &next;
    let pool_phase_ref = &pool_phase;
    let mut ok = true;
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            scope.spawn(move || {
                // Tracers are thread-local: each worker builds its own and
                // absorbs it on exit, so overlapped chunk spans accumulate
                // as summed work time, not double-counted wall time.
                let tracer = observer.map(|o| o.rank_tracer(rank as u32, attempt));
                loop {
                    if aborted.load(Ordering::SeqCst) {
                        break;
                    }
                    let idx = next.fetch_add(1, Ordering::SeqCst);
                    if idx >= chunks.len() {
                        break;
                    }
                    let start = tracer.as_ref().map(Tracer::start);
                    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let mut capture = CaptureCollector { buf: Vec::new() };
                        o_fn(task, &chunks[idx], &mut capture);
                        capture.buf
                    }));
                    if let Some(t) = &tracer {
                        t.for_task(task as u64).span(
                            SpanKind::OTask,
                            start.unwrap_or(0),
                            vec![("chunk", idx.to_string())],
                        );
                    }
                    match run {
                        Ok(capture) => {
                            let _ = tx.send((idx, Ok(capture)));
                        }
                        Err(_) => {
                            aborted.store(true, Ordering::SeqCst);
                            let _ = tx.send((idx, Err(())));
                        }
                    }
                }
                if let (Some(obs), Some(t)) = (observer, &tracer) {
                    let mut p = pool_phase_ref.lock().expect("pool phase lock");
                    p.merge(&obs.absorb(t));
                }
            });
        }
        drop(tx);
        // Coordinator: replay completed captures strictly in chunk order,
        // stashing out-of-order arrivals. Runs inside the scope so replay
        // overlaps the still-computing workers.
        let mut stash: std::collections::BTreeMap<usize, Vec<u8>> = Default::default();
        let mut next_replay = 0usize;
        for (idx, result) in rx {
            match result {
                Ok(capture) => {
                    if !ok {
                        continue;
                    }
                    stash.insert(idx, capture);
                    while let Some(capture) = stash.remove(&next_replay) {
                        replay_capture(&capture, buffer);
                        next_replay += 1;
                    }
                }
                Err(()) => ok = false,
            }
        }
        if ok {
            debug_assert_eq!(next_replay, chunks.len(), "all chunks replayed");
        }
    });
    (ok, pool_phase.into_inner().expect("pool phase lock"))
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
    run_job_generic(
        config,
        inputs,
        move |task, split: &Bytes, out: &mut dyn Collector| o_fn(task, split, out),
        a_fn,
        checkpoint,
        attempt,
    )
}

/// The generic runner behind both the byte-split surface ([`run_job`]) and
/// the Iteration-mode surface ([`crate::iteration::run_iteration`]): O
/// tasks consume an arbitrary resident split type `I`.
pub fn run_job_generic<I, O, A>(
    config: &JobConfig,
    inputs: Vec<I>,
    o_fn: O,
    a_fn: A,
    checkpoint: Option<&CheckpointStore>,
    attempt: u32,
) -> Result<JobOutput>
where
    I: ChunkableSplit,
    O: Fn(usize, &I, &mut dyn Collector) + Send + Sync,
    A: Fn(&GroupedValues, &mut dyn Collector) + Send + Sync,
{
    run_job_core(config, &inputs, &o_fn, &a_fn, checkpoint, attempt).map_err(|e| e.0)
}

/// The actual runner. On failure it also returns the partial stats of the
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
    I: ChunkableSplit,
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
    if let Some(obs) = config.observer.as_ref() {
        obs.begin_job(ranks);
    }
    let attempt_start = config.observer.as_ref().map(|o| o.now_micros());
    let mut endpoints = match transport::for_config(config).open() {
        Ok(endpoints) => endpoints,
        Err(e) => return Err(Box::new((e, JobStats::default()))),
    };
    if let Some(obs) = config.observer.as_ref() {
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
    let board: Option<ProgressBoard> = config
        .speculation
        .enabled
        .then(|| ProgressBoard::new(config.speculation, inputs.len()));
    let failed = AtomicBool::new(false);
    let failure: Mutex<Option<Error>> = Mutex::new(None);
    // First failure wins; later ones (often knock-on effects) are dropped.
    let fail_with = |err: Error| {
        let mut f = failure.lock().expect("failure lock");
        if f.is_none() {
            *f = Some(err);
        }
        failed.store(true, Ordering::SeqCst);
    };
    let queues = &queues;
    let board = &board;
    let failed = &failed;
    let fail_with = &fail_with;

    let mut rank_results: Vec<Option<(RecordBatch, JobStats)>> = Vec::new();
    rank_results.resize_with(ranks, || None);

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(ranks);
        for (rank, mut endpoint) in endpoints.into_iter().enumerate() {
            let checkpoint = checkpoint.cloned();
            let handle = scope.spawn(move || -> Result<(RecordBatch, JobStats)> {
                let mut stats = JobStats::default();
                // O-time traced by pool workers (parallel executor), to be
                // merged after this rank's own tracer is absorbed.
                let mut pool_phase = PhaseTotals::default();
                let plan = config.faults.as_ref();
                let senders = endpoint.senders();
                let receiver = endpoint.take_receiver();
                // Thread-local span buffer: recording is lock-free; the
                // buffer merges into the job trace when this rank exits.
                let tracer = config
                    .observer
                    .as_ref()
                    .map(|o| o.rank_tracer(rank as u32, attempt));

                // Injected rank death: this rank does no O work at all —
                // the `failed` flag short-circuits the loop below — but
                // still sends its EOFs so peers tear down cleanly, like a
                // real process whose sockets are closed by the OS.
                if let Some(plan) = plan {
                    if plan.rank_panics(rank, attempt) {
                        if let Some(t) = &tracer {
                            t.instant(
                                SpanKind::Fault,
                                vec![("cause", "injected rank death".into())],
                            );
                        }
                        fail_with(Error::fault(
                            FaultCause::new(FaultKind::RankDeath, "injected rank death")
                                .rank(rank)
                                .attempt(attempt),
                        ));
                    }
                }

                // The A-side ingest runs on its own thread from job start,
                // concurrently with the O phase below. With bounded
                // mailboxes this concurrency is what keeps the job
                // deadlock-free (see the argument in `comm.rs`); on TCP it
                // also drains the sockets while O computes. The ingest
                // thread builds its own tracer internally (tracers are
                // thread-local by design).
                // A mid-merge checkpoint recorded by a previous attempt at
                // this width lets the A phase resume from a block boundary
                // instead of re-merging from the top; the ingest thread then
                // only drains (and CRC-checks) the replayed frames — the
                // sealed runs it would rebuild already live in the
                // checkpoint's run handles.
                let merge_resume = checkpoint
                    .as_ref()
                    .filter(|_| config.sorted_grouping)
                    .and_then(|cp| cp.merge_checkpoint(rank, ranks));
                let ingest = std::thread::scope(|ingest_scope| {
                    let observer = config.observer.as_ref();
                    let budget = config.memory_budget;
                    let sorted = config.sorted_grouping;
                    let spill = config
                        .spill_config()
                        .with_tag(format!("r{rank}-a{attempt}"));
                    let discard = merge_resume.is_some();
                    let recv_start = observer.map(Observer::now_micros);
                    let ingest = ingest_scope.spawn(move || {
                        ingest_partition(
                            receiver,
                            IngestConfig {
                                expected_eofs: ranks,
                                memory_budget: budget,
                                sorted,
                                observer,
                                recv_start,
                                rank,
                                attempt,
                                spill,
                                discard,
                            },
                        )
                    });

                    // ---- O phase: pulls from the split dispenser ----
                    loop {
                        if failed.load(Ordering::SeqCst) {
                            break;
                        }
                        let Some(dispensed) = queues.next(rank) else {
                            // Nothing left to start. Without a progress
                            // board the rank is done; with one it idles
                            // until every task commits, speculating on
                            // detected stragglers meanwhile.
                            let Some(board) = board.as_ref() else { break };
                            if board.all_done() {
                                break;
                            }
                            if let Some(victim) = board.claim_speculation() {
                                stats.speculative_attempts += 1;
                                if let Some(t) = &tracer {
                                    t.registry().add_speculative_attempt();
                                }
                                let spec_start = tracer.as_ref().map(Tracer::start);
                                // The duplicate runs user code into a capture
                                // only — no frames move unless it wins the
                                // commit. Injected task delays are *not*
                                // re-applied: the injected slowness models
                                // the original placement, which is exactly
                                // what the duplicate escapes.
                                let mut capture = CaptureCollector { buf: Vec::new() };
                                let run_ok =
                                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                        o_fn(victim, &inputs[victim], &mut capture);
                                    }))
                                    .is_ok();
                                if !run_ok {
                                    // A panic in the duplicate is the same
                                    // user-code bug the primary would hit.
                                    stats.wasted_bytes += capture.buf.len() as u64;
                                    if let Some(t) = &tracer {
                                        t.for_task(victim as u64).instant(
                                            SpanKind::Fault,
                                            vec![("cause", "O task user code panicked".into())],
                                        );
                                    }
                                    fail_with(Error::fault(
                                        FaultCause::new(
                                            FaultKind::TaskPanic,
                                            "O task user code panicked",
                                        )
                                        .task(victim)
                                        .rank(rank)
                                        .attempt(attempt),
                                    ));
                                    break;
                                }
                                if board.try_commit(victim) {
                                    let records = commit_capture(
                                        &capture.buf,
                                        &senders,
                                        rank,
                                        victim,
                                        attempt,
                                        config,
                                        checkpoint.as_ref(),
                                        tracer.as_ref(),
                                        &mut stats,
                                    );
                                    stats.speculative_commits += 1;
                                    if let Some(t) = &tracer {
                                        t.registry().add_speculative_commit();
                                        t.for_task(victim as u64).span(
                                            SpanKind::OTask,
                                            spec_start.unwrap_or(0),
                                            vec![
                                                ("records", records.to_string()),
                                                ("speculative", "true".into()),
                                            ],
                                        );
                                    }
                                } else {
                                    // The primary finished first: charge
                                    // exactly the duplicate's emissions and
                                    // ship nothing.
                                    stats.wasted_bytes += capture.buf.len() as u64;
                                    stats.speculative_aborts += 1;
                                    if let Some(t) = &tracer {
                                        t.for_task(victim as u64).span(
                                            SpanKind::OTask,
                                            spec_start.unwrap_or(0),
                                            vec![
                                                ("speculative", "true".into()),
                                                ("aborted", "true".into()),
                                            ],
                                        );
                                    }
                                }
                            } else {
                                std::thread::sleep(board.poll());
                            }
                            continue;
                        };
                        let task = dispensed.task;
                        if dispensed.stolen {
                            stats.tasks_stolen += 1;
                            if let Some(t) = &tracer {
                                t.registry().add_task_stolen();
                            }
                        }

                        // Checkpoint recovery path: replay without user code,
                        // re-bucketing frames when the recorded width differs
                        // from this mesh's (the elastic-shrink case).
                        if let Some(cp) = checkpoint.as_ref() {
                            if cp.is_complete(task) {
                                for (partition, payload) in cp.recover_frames_for(task, ranks) {
                                    if let Some(t) = &tracer {
                                        t.registry().add_frame_sent(
                                            rank,
                                            partition,
                                            payload.len() as u64,
                                        );
                                    }
                                    let _ =
                                        senders[partition].send(Frame::data(rank, task, payload));
                                }
                                if let Some(t) = &tracer {
                                    t.for_task(task as u64).instant(SpanKind::Recovered, vec![]);
                                    t.registry().add_recovered_tasks(1);
                                }
                                stats.o_tasks_recovered += 1;
                                if let Some(board) = board.as_ref() {
                                    board.try_commit(task);
                                }
                                continue;
                            }
                        }

                        // Speculation on: run the task in capture-commit mode
                        // under the first-writer-wins rule (DESIGN.md §12).
                        if let Some(board) = board.as_ref() {
                            board.start(task);
                            if let Some(t) = &tracer {
                                t.registry().add_heartbeats(1);
                            }
                            if let Some(plan) = plan {
                                if plan.o_task_error(task, attempt) {
                                    if let Some(cp) = checkpoint.as_ref() {
                                        cp.discard_incomplete(task);
                                    }
                                    board.abort(task);
                                    if let Some(t) = &tracer {
                                        t.for_task(task as u64).instant(
                                            SpanKind::Fault,
                                            vec![("cause", "scheduled O-task failure".into())],
                                        );
                                    }
                                    fail_with(Error::fault(
                                        FaultCause::new(
                                            FaultKind::InjectedError,
                                            "scheduled O-task failure",
                                        )
                                        .task(task)
                                        .rank(rank)
                                        .attempt(attempt),
                                    ));
                                    break;
                                }
                                let mut delay = Duration::ZERO;
                                if let Some(d) = plan.straggler_delay(task, attempt) {
                                    delay += d;
                                    stats.straggler_delays += 1;
                                }
                                if let Some(d) = plan.slow_rank_delay(rank, attempt) {
                                    delay += d;
                                    stats.straggler_delays += 1;
                                }
                                if !delay.is_zero()
                                    && serve_injected_delay(delay, Some(board), task)
                                {
                                    // A duplicate committed while we were
                                    // stalled: abort before user code runs —
                                    // zero bytes wasted.
                                    stats.speculative_aborts += 1;
                                    board.abort(task);
                                    if let Some(t) = &tracer {
                                        t.registry().add_heartbeats(1);
                                    }
                                    continue;
                                }
                            }
                            let task_start = tracer.as_ref().map(Tracer::start);
                            let mut capture = CaptureCollector { buf: Vec::new() };
                            let run_ok =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    o_fn(task, &inputs[task], &mut capture);
                                }))
                                .is_ok();
                            if !run_ok {
                                // The partial capture never reached the wire,
                                // but it is work this attempt threw away.
                                stats.wasted_bytes += capture.buf.len() as u64;
                                board.abort(task);
                                if let Some(cp) = checkpoint.as_ref() {
                                    cp.discard_incomplete(task);
                                }
                                if let Some(t) = &tracer {
                                    t.for_task(task as u64).instant(
                                        SpanKind::Fault,
                                        vec![("cause", "O task user code panicked".into())],
                                    );
                                }
                                fail_with(Error::fault(
                                    FaultCause::new(
                                        FaultKind::TaskPanic,
                                        "O task user code panicked",
                                    )
                                    .task(task)
                                    .rank(rank)
                                    .attempt(attempt),
                                ));
                                break;
                            }
                            if board.try_commit(task) {
                                let records = commit_capture(
                                    &capture.buf,
                                    &senders,
                                    rank,
                                    task,
                                    attempt,
                                    config,
                                    checkpoint.as_ref(),
                                    tracer.as_ref(),
                                    &mut stats,
                                );
                                if let Some(t) = &tracer {
                                    t.for_task(task as u64).span(
                                        SpanKind::OTask,
                                        task_start.unwrap_or(0),
                                        vec![("records", records.to_string())],
                                    );
                                }
                            } else {
                                // A speculative duplicate already committed:
                                // this primary's emissions are pure waste.
                                stats.wasted_bytes += capture.buf.len() as u64;
                                stats.speculative_aborts += 1;
                                if let Some(t) = &tracer {
                                    t.for_task(task as u64).span(
                                        SpanKind::OTask,
                                        task_start.unwrap_or(0),
                                        vec![("aborted", "true".into())],
                                    );
                                }
                            }
                            board.finish(task);
                            if let Some(t) = &tracer {
                                t.registry().add_heartbeats(1);
                            }
                            continue;
                        }

                        // Fresh execution path.
                        let task_start = tracer.as_ref().map(Tracer::start);
                        let mut buffer = KvBuffer::new(
                            senders.clone(),
                            rank,
                            task,
                            config.flush_threshold,
                            config.pipelined,
                        );
                        if let Some(cp) = checkpoint.as_ref() {
                            buffer.set_tee(cp.clone());
                        }
                        if let Some(t) = &tracer {
                            buffer.set_tracer(t.for_task(task as u64));
                        }
                        if let Some(c) = &config.combiner {
                            buffer.set_combiner(c.clone());
                        }

                        if let Some(plan) = plan {
                            // Scheduled O-task error?
                            if plan.o_task_error(task, attempt) {
                                if let Some(cp) = checkpoint.as_ref() {
                                    cp.discard_incomplete(task);
                                }
                                if let Some(t) = &tracer {
                                    t.for_task(task as u64).instant(
                                        SpanKind::Fault,
                                        vec![("cause", "scheduled O-task failure".into())],
                                    );
                                }
                                fail_with(Error::fault(
                                    FaultCause::new(
                                        FaultKind::InjectedError,
                                        "scheduled O-task failure",
                                    )
                                    .task(task)
                                    .rank(rank)
                                    .attempt(attempt),
                                ));
                                break;
                            }
                            // Scheduled straggler delay?
                            if let Some(delay) = plan.straggler_delay(task, attempt) {
                                std::thread::sleep(delay);
                                stats.straggler_delays += 1;
                            }
                            // Scheduled whole-rank slowdown?
                            if let Some(delay) = plan.slow_rank_delay(rank, attempt) {
                                std::thread::sleep(delay);
                                stats.straggler_delays += 1;
                            }
                            // Scheduled wire corruption?
                            if let Some(corruption) = plan.corruption(task, attempt) {
                                buffer.set_corruption(corruption);
                            }
                        }

                        // Large line-decomposable splits fan out across the
                        // intra-rank pool; everything else takes the
                        // sequential path (always correct).
                        let chunks = if config.o_parallelism > 1 {
                            inputs[task].parallel_chunks(config.o_chunk_bytes)
                        } else {
                            None
                        };
                        let ran_parallel = chunks.is_some();
                        // User code may panic; convert that into a clean job
                        // fault so peer ranks still receive our EOFs instead of
                        // deadlocking in their A phase.
                        let run_ok = match chunks {
                            Some(chunks) => {
                                let (ok, phase) = execute_chunks_parallel(
                                    task,
                                    chunks,
                                    o_fn,
                                    &mut buffer,
                                    config.o_parallelism,
                                    config.observer.as_ref(),
                                    rank,
                                    attempt,
                                );
                                pool_phase.merge(&phase);
                                ok
                            }
                            None => std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                let mut adapter = EmitAdapter {
                                    buffer: &mut buffer,
                                };
                                o_fn(task, &inputs[task], &mut adapter);
                            }))
                            .is_ok(),
                        };
                        if !run_ok {
                            // Whatever the half-finished task already flushed
                            // is pure waste — it can never be recovered.
                            stats.wasted_bytes += buffer.stats().bytes;
                            if let Some(cp) = checkpoint.as_ref() {
                                cp.discard_incomplete(task);
                            }
                            if let Some(t) = &tracer {
                                t.for_task(task as u64).instant(
                                    SpanKind::Fault,
                                    vec![("cause", "O task user code panicked".into())],
                                );
                            }
                            fail_with(Error::fault(
                                FaultCause::new(FaultKind::TaskPanic, "O task user code panicked")
                                    .task(task)
                                    .rank(rank)
                                    .attempt(attempt),
                            ));
                            break;
                        }
                        let b = buffer.finish();
                        // In parallel mode the workers' per-chunk OTask spans
                        // already carry this task's O time (summed work, not
                        // wall clock); recording the enclosing wall-clock span
                        // too would double-count the phase.
                        if let Some(t) = tracer.as_ref().filter(|_| !ran_parallel) {
                            t.for_task(task as u64).span(
                                SpanKind::OTask,
                                task_start.unwrap_or(0),
                                vec![("records", b.records.to_string())],
                            );
                        }
                        stats.o_tasks_run += 1;
                        stats.records_emitted += b.records;
                        stats.bytes_emitted += b.bytes;
                        stats.frames += b.frames;
                        stats.early_flushes += b.early_flushes;
                        stats.combiner_records_in += b.combiner_records_in;
                        stats.combiner_records_out += b.combiner_records_out;
                        if let Some(cp) = checkpoint.as_ref() {
                            cp.mark_complete_at(task, ranks);
                        }
                    }

                    // Close the stream to every partition exactly once.
                    for s in senders.iter() {
                        s.send(Frame::Eof { from_rank: rank });
                    }

                    ingest.join().expect("ingest thread panicked")
                });

                // ---- A phase: group and reduce the ingested partition ----
                stats.corrupt_frames += ingest.corrupt_frames;
                if let Some(e) = ingest.first_error {
                    fail_with(e);
                }
                let mut store = ingest.store;
                // Merge checkpointing needs every record in a seekable
                // sealed run — a live in-memory cursor cannot name a block
                // frontier — so the forming run is sealed through the same
                // block format as the spills before the merge opens.
                let merge_cp = checkpoint
                    .as_ref()
                    .filter(|_| config.sorted_grouping && !failed.load(Ordering::SeqCst));
                if let Some(cp) = merge_cp {
                    if merge_resume.is_none() {
                        store.seal_all();
                        cp.register_merge_runs(rank, ranks, store.sealed_run_handles());
                    }
                }
                let st = store.stats();
                stats.spills += st.spills;
                stats.spilled_bytes += st.spilled_bytes;
                stats.spilled_wire_bytes += st.spilled_wire_bytes;
                stats.peak_resident_records =
                    stats.peak_resident_records.max(st.peak_resident_records);
                let read_counters = store.read_counters();

                let mut collector = BatchCollector::default();
                let mut group_result: Result<()> = Ok(());
                if !failed.load(Ordering::SeqCst) {
                    // Ingest already decoded (and, for spilled runs,
                    // sorted) everything overlapped with the O phase; the
                    // Sort span now covers only the final in-memory run's
                    // sort plus merge setup.
                    let sort_start = tracer.as_ref().map(Tracer::start);
                    let runs = st.spills + 1;
                    let merge_panic_at = plan.and_then(|p| p.merge_panic_after(rank, attempt));
                    let mut groups = 0u64;
                    // Resume path: replay the output emitted before the
                    // recorded boundary, then reopen every run at its
                    // frontier block, skipping records at or before the
                    // last emitted group key.
                    let stream_result = match &merge_resume {
                        Some(m) => ser::unframe_batch(&m.partial_output).and_then(|mut done| {
                            groups = m.groups_emitted;
                            collector.batch.append(&mut done);
                            crate::store::resume_group_stream(
                                &m.runs,
                                &m.frontier,
                                m.last_key.clone(),
                                &read_counters,
                                config.observer.as_ref(),
                            )
                        }),
                        None => store.into_group_stream(),
                    };
                    match stream_result {
                        Ok(mut stream) => {
                            if let Some(t) = &tracer {
                                t.registry().add_records_in(st.records);
                                t.span(
                                    SpanKind::Sort,
                                    sort_start.unwrap_or(0),
                                    vec![("runs", runs.to_string())],
                                );
                            }
                            // Pull one key group at a time from the k-way
                            // merge: grouped data is never all resident.
                            let a_start = tracer.as_ref().map(Tracer::start);
                            let streamed = loop {
                                match stream.next_group() {
                                    Ok(Some(g)) => {
                                        groups += 1;
                                        a_fn(&g, &mut collector);
                                        if let Some(cp) = merge_cp {
                                            if groups.is_multiple_of(MERGE_CP_INTERVAL) {
                                                if let Some(frontier) = stream.frontier() {
                                                    cp.record_merge_frontier(
                                                        rank,
                                                        frontier,
                                                        Some(g.key.clone()),
                                                        groups,
                                                        Bytes::from(ser::frame_batch(
                                                            &collector.batch,
                                                        )),
                                                    );
                                                }
                                            }
                                        }
                                        if let Some(after) = merge_panic_at {
                                            if groups >= after {
                                                if let Some(t) = &tracer {
                                                    t.instant(
                                                        SpanKind::Fault,
                                                        vec![(
                                                            "cause",
                                                            "injected merge death".into(),
                                                        )],
                                                    );
                                                }
                                                fail_with(Error::fault(
                                                    FaultCause::new(
                                                        FaultKind::RankDeath,
                                                        "injected merge death",
                                                    )
                                                    .rank(rank)
                                                    .attempt(attempt),
                                                ));
                                                break Ok(());
                                            }
                                        }
                                    }
                                    Ok(None) => break Ok(()),
                                    Err(e) => break Err(e),
                                }
                            };
                            stats.groups += groups;
                            if let Some(t) = &tracer {
                                t.span(
                                    SpanKind::ACompute,
                                    a_start.unwrap_or(0),
                                    vec![("groups", groups.to_string())],
                                );
                            }
                            match streamed {
                                Ok(()) => {
                                    // The merge ran to completion: its
                                    // checkpoint state (and the run files it
                                    // pins) can be reclaimed.
                                    if !failed.load(Ordering::SeqCst) {
                                        if let Some(cp) = merge_cp {
                                            cp.clear_merge(rank);
                                        }
                                    }
                                }
                                Err(e) => group_result = Err(store_decode_fault(e, rank, attempt)),
                            }
                        }
                        Err(e) => group_result = Err(store_decode_fault(e, rank, attempt)),
                    }
                }
                let reads = read_counters.snapshot();
                stats.spill_blocks_read += reads.blocks_read;
                stats.spill_blocks_skipped += reads.blocks_skipped;
                stats.spill_seeks += reads.seeks;
                if let Some(t) = &tracer {
                    t.registry().add_spill_reads(&reads);
                }
                // Merge this rank's span buffer into the job trace before
                // any error propagates, so failed ranks keep their events;
                // the drained spans' phase totals ride back on the stats.
                if let (Some(obs), Some(t)) = (config.observer.as_ref(), &tracer) {
                    stats.phase_us = obs.absorb(t);
                }
                stats.phase_us.merge(&ingest.phase);
                stats.phase_us.merge(&pool_phase);
                // Tear the endpoint down: drop every sender clone first so
                // TCP writer threads see disconnect, then join them so all
                // queued frames reach the sockets; record the wire-level
                // traffic the sockets actually carried.
                drop(senders);
                let wire = endpoint.close();
                if let Some(t) = &tracer {
                    t.registry().add_wire_stats(&wire);
                }
                group_result?;
                Ok((collector.batch, stats))
            });
            handles.push(handle);
        }
        for (rank, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok(Ok(result)) => rank_results[rank] = Some(result),
                Ok(Err(e)) => fail_with(e),
                Err(_) => fail_with(Error::fault(
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
    if let Some(obs) = config.observer.as_ref() {
        let jt = obs.job_tracer(attempt);
        jt.span(
            SpanKind::Attempt,
            attempt_start.unwrap_or(0),
            vec![("ranks", ranks.to_string())],
        );
        obs.absorb(&jt);
    }

    if failed.load(Ordering::SeqCst) {
        let err = failure
            .lock()
            .expect("failure lock")
            .take()
            .unwrap_or_else(|| Error::fault_msg("job failed"));
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

/// Wraps an undecodable A-store record as the structured corruption
/// fault the CRC gate would have raised, with rank/attempt provenance.
pub(crate) fn store_decode_fault(e: Error, rank: usize, attempt: u32) -> Error {
    Error::fault(
        FaultCause::new(
            FaultKind::CorruptFrame,
            format!("A-side store decode failed: {e}"),
        )
        .rank(rank)
        .attempt(attempt),
    )
}

/// What one partition's ingest thread produced. Freely `Send`: the store
/// carries an [`Observer`] (not a thread-local tracer), so no `Rc` ever
/// crosses the thread boundary.
pub(crate) struct IngestOutcome {
    /// The filled A-side store (possibly spilled).
    pub store: PartitionStore,
    /// Data frames rejected by the CRC gate.
    pub corrupt_frames: u64,
    /// First integrity or transport fault seen (later ones are usually
    /// knock-on effects and are dropped, matching the runtime's
    /// first-failure-wins policy).
    pub first_error: Option<Error>,
    /// Phase totals absorbed from the ingest thread's own tracer.
    pub phase: PhaseTotals,
}

/// Parameters of one rank's ingest thread, bundled so the threaded
/// runtime and `dmpirun` workers share one [`ingest_partition`] call
/// shape.
pub(crate) struct IngestConfig<'a> {
    /// EOF frames to wait for (one per sending rank).
    pub expected_eofs: usize,
    /// Per-partition decoded-bytes budget before a spill.
    pub memory_budget: usize,
    /// Sorted (MapReduce-mode) vs hashed (Common-mode) grouping.
    pub sorted: bool,
    /// Tracing observer, when the job carries one.
    pub observer: Option<&'a Observer>,
    /// Recv-span start, stamped by the rank thread *before* spawning
    /// the ingest thread (see the span-nesting note in the body).
    pub recv_start: Option<u64>,
    /// The rank this ingest thread serves.
    pub rank: usize,
    /// The attempt number, for the tracer lane.
    pub attempt: u32,
    /// Sealed-run layout (spill dir, compression, block size) for the
    /// store's spills, pre-tagged with this rank/attempt.
    pub spill: SpillConfig,
    /// Drain and CRC-verify frames without storing them: set on
    /// merge-resume attempts, where the A phase reads the previous
    /// attempt's sealed runs instead of a rebuilt store.
    pub discard: bool,
}

/// Drains one rank's mailbox until `expected_eofs` EOF frames arrived
/// (one per sending rank), the mailbox disconnected, or a transport
/// fault ended the stream. Runs on a dedicated thread, concurrently with
/// the rank's O phase — see the deadlock-freedom argument in `comm.rs`.
///
/// Every data frame passes the [`Frame::verify`] CRC gate before it is
/// ingested; a corrupt frame is counted, reported as the thread's first
/// error (with the producing rank and O task in the cause), and skipped,
/// so a supervised retry sees the fault instead of silently wrong
/// output. Used by both the threaded runtime and `dmpirun` workers.
pub(crate) fn ingest_partition(receiver: FrameReceiver, cfg: IngestConfig<'_>) -> IngestOutcome {
    let IngestConfig {
        expected_eofs,
        memory_budget,
        sorted,
        observer,
        recv_start,
        rank,
        attempt,
        spill,
        discard,
    } = cfg;
    // The tracer must be built on this thread (tracers are thread-local
    // by design); its spans merge into the shared trace on exit.
    let tracer = observer.map(|o| o.rank_tracer(rank as u32, attempt));
    let mut store = PartitionStore::new(memory_budget, sorted);
    store.set_spill_config(spill);
    if let Some(o) = observer {
        // The store gets the Send+Sync observer, not this thread's
        // tracer: its sealing sites (background threads included) build
        // their own tracers from it.
        store.set_observer(o.clone(), rank as u32, attempt);
    }
    // The caller stamps the Recv start *before* spawning this thread:
    // the rank's Recv span must enclose its O-task spans (per-lane spans
    // are either disjoint or nested), and thread scheduling could
    // otherwise delay this thread's first instruction until after the O
    // phase has begun.
    let recv_start = recv_start.or_else(|| tracer.as_ref().map(Tracer::start));
    // Wire-path histograms: how long each mailbox wait took, and how big
    // each arriving payload was. One Instant per frame, only when an
    // observer is installed.
    let recv_hist = observer.map(|o| o.registry().histograms().handle(HistKind::RecvLatency));
    let payload_hist = observer.map(|o| o.registry().histograms().handle(HistKind::FramePayload));
    let mut corrupt_frames = 0u64;
    let mut first_error: Option<Error> = None;
    let mut eofs = 0usize;
    while eofs < expected_eofs {
        let wait_start = recv_hist.as_ref().map(|_| std::time::Instant::now());
        let received = receiver.recv();
        if let (Some(hist), Some(start)) = (&recv_hist, wait_start) {
            hist.record_elapsed_us(start);
        }
        match received {
            Ok(Some(frame @ Frame::Data { .. })) => {
                if let Some(hist) = &payload_hist {
                    hist.record(frame.payload_len() as u64);
                }
                // Integrity gate: a corrupt frame fails the attempt
                // (triggering a supervised retry) instead of flowing
                // into the A store.
                if let Err(e) = frame.verify() {
                    corrupt_frames += 1;
                    if let Some(t) = &tracer {
                        t.instant(SpanKind::Fault, vec![("cause", "corrupt frame".into())]);
                    }
                    first_error.get_or_insert(e);
                    continue;
                }
                if let Some(t) = &tracer {
                    t.registry().add_bytes_received(
                        rank,
                        frame.from_rank(),
                        frame.payload_len() as u64,
                    );
                }
                if discard {
                    // Merge-resume attempt: the replayed frames passed the
                    // CRC gate above; the A phase reads the checkpointed
                    // runs, so storing them again would be pure waste.
                    continue;
                }
                if let Frame::Data { payload, .. } = frame {
                    // Streaming decode happens right here, overlapped
                    // with the senders' O phase. A record that fails to
                    // decode is corruption that slipped past the CRC
                    // gate; report it with the provenance that gate
                    // would have attached.
                    if let Err(e) = store.ingest(payload) {
                        if let Some(t) = &tracer {
                            t.instant(
                                SpanKind::Fault,
                                vec![("cause", "store decode failed".into())],
                            );
                        }
                        first_error.get_or_insert(store_decode_fault(e, rank, attempt));
                    }
                }
            }
            Ok(Some(Frame::Eof { .. })) => eofs += 1,
            Ok(None) => {
                // All senders dropped: only possible after every rank
                // sent its EOFs or the job is tearing down; treat as end.
                break;
            }
            Err(e) => {
                // Transport-level fault (undecodable frame, peer died
                // before its EOF): the stream is not trustworthy beyond
                // this point, so stop ingesting and report.
                if let Some(t) = &tracer {
                    t.instant(SpanKind::Fault, vec![("cause", "transport fault".into())]);
                }
                first_error.get_or_insert(e);
                break;
            }
        }
    }
    // Barrier: join any still-running background seals so the outcome
    // carries fully-materialized spill images, and fold the sealing
    // sites' traced phase time into this thread's totals.
    let sealing_phase = store.finish_ingest();
    let st = store.stats();
    if let Some(t) = &tracer {
        t.span(
            SpanKind::Recv,
            recv_start.unwrap_or(0),
            vec![("frames", st.frames.to_string())],
        );
    }
    let mut phase = match (observer, &tracer) {
        (Some(obs), Some(t)) => obs.absorb(t),
        _ => PhaseTotals::default(),
    };
    phase.merge(&sealing_phase);
    IngestOutcome {
        store,
        corrupt_frames,
        first_error,
        phase,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
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
                out.collect(&g.key, v);
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
    fn hash_grouping_mode_counts_correctly() {
        let config = JobConfig::new(2).with_sorted_grouping(false);
        let inputs = vec![Bytes::from_static(b"x y x y x")];
        let out = run_job(&config, inputs, wordcount_o, wordcount_a, None).unwrap();
        let counts = counts_of(out);
        assert_eq!(counts["x"], 3);
        assert_eq!(counts["y"], 2);
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
    fn byte_splits_chunk_on_line_boundaries() {
        let b = Bytes::from_static(b"aa\nbb\ncc\ndd");
        let chunks = b.parallel_chunks(3).expect("large enough to chunk");
        assert!(chunks.len() >= 2);
        // Concatenating every chunk's line list reproduces the whole
        // split's line list — the contract the parallel executor needs.
        let whole: Vec<Vec<u8>> = b.split(|&x| x == b'\n').map(<[u8]>::to_vec).collect();
        let mut pieces: Vec<Vec<u8>> = Vec::new();
        for c in &chunks {
            pieces.extend(c.split(|&x| x == b'\n').map(<[u8]>::to_vec));
        }
        assert_eq!(whole, pieces);
        // Chunks are zero-copy views of the parent split.
        let base = b.as_ref().as_ptr() as usize;
        for c in &chunks {
            if !c.is_empty() {
                let p = c.as_ref().as_ptr() as usize;
                assert!(p >= base && p < base + b.len(), "chunk not shared");
            }
        }
        assert!(b.parallel_chunks(100).is_none(), "small splits stay whole");
        assert!(
            Bytes::from_static(b"nonewlineatall")
                .parallel_chunks(4)
                .is_none(),
            "no safe cut point means no chunking"
        );
    }

    #[test]
    fn parallel_o_is_byte_identical_to_sequential() {
        for parallelism in [2usize, 8] {
            let seq = JobConfig::new(2).with_o_parallelism(1);
            let par = JobConfig::new(2)
                .with_o_parallelism(parallelism)
                .with_o_chunk_bytes(64);
            let a = run_job(&seq, lined_inputs(4, 40), wordcount_o, wordcount_a, None).unwrap();
            let b = run_job(&par, lined_inputs(4, 40), wordcount_o, wordcount_a, None).unwrap();
            for (pa, pb) in a.partitions.iter().zip(&b.partitions) {
                assert_eq!(pa.records(), pb.records(), "parallelism={parallelism}");
            }
            assert_eq!(a.stats.records_emitted, b.stats.records_emitted);
            assert_eq!(a.stats.bytes_emitted, b.stats.bytes_emitted);
            assert_eq!(a.stats.frames, b.stats.frames);
            assert_eq!(a.stats.o_tasks_run, b.stats.o_tasks_run);
        }
    }

    #[test]
    fn parallel_o_with_combiner_stays_identical() {
        let mk = |parallelism: usize| {
            JobConfig::new(2)
                .with_o_parallelism(parallelism)
                .with_o_chunk_bytes(48)
                .with_flush_threshold(64)
                .with_combiner(crate::task::Combiner::new(wordcount_a))
        };
        let a = run_job(&mk(1), lined_inputs(3, 30), wordcount_o, wordcount_a, None).unwrap();
        let b = run_job(&mk(4), lined_inputs(3, 30), wordcount_o, wordcount_a, None).unwrap();
        for (pa, pb) in a.partitions.iter().zip(&b.partitions) {
            assert_eq!(pa.records(), pb.records());
        }
        assert_eq!(a.stats.bytes_emitted, b.stats.bytes_emitted);
        assert_eq!(a.stats.combiner_records_in, b.stats.combiner_records_in);
        assert_eq!(a.stats.combiner_records_out, b.stats.combiner_records_out);
    }

    #[test]
    fn panicking_parallel_chunk_reports_fault_not_hang() {
        let config = JobConfig::new(2)
            .with_o_parallelism(4)
            .with_o_chunk_bytes(4);
        let inputs = vec![Bytes::from_static(b"aa\nbb\nboom\ncc\ndd\nee")];
        let o = |_t: usize, split: &[u8], out: &mut dyn Collector| {
            for line in split.split(|&b| b == b'\n') {
                if line == b"boom" {
                    panic!("chunk exploded");
                }
                out.collect(line, b"1");
            }
        };
        let a = |_g: &GroupedValues, _out: &mut dyn Collector| {};
        let err = run_job(&config, inputs, o, a, None).unwrap_err();
        assert_eq!(
            err.fault_cause().expect("structured cause").kind,
            dmpi_common::FaultKind::TaskPanic
        );
    }

    #[test]
    fn phase_totals_stay_consistent_under_parallel_workers() {
        // The regression ISSUE 5 guards: stats.phase_us must equal the
        // span log's totals even when pool workers and background seals
        // record phase time off the rank threads.
        let obs = Observer::new();
        let config = JobConfig::new(2)
            .with_o_parallelism(4)
            .with_o_chunk_bytes(32)
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
