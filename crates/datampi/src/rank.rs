//! The per-rank body: the one SPMD program every execution surface runs.
//!
//! A DataMPI job is N identical ranks, and each of them executes
//! [`run_rank`]:
//!
//! 1. **ingest** — a dedicated thread ([`ingest_partition`]) drains the
//!    rank's mailbox into a [`PartitionStore`] from job start,
//!    *concurrently with the O phase*. With bounded mailboxes that
//!    concurrency is what keeps the job deadlock-free (see `comm.rs`); on
//!    TCP it also drains the sockets while O computes.
//! 2. **O phase** — the rank pulls splits from the job's [`TaskQueues`]
//!    and runs each through `run_o_task`: checkpoint replay, injected
//!    faults, user code in one of two emission modes, panic → fault,
//!    stats fold. With a [`ProgressBoard`] an idle rank also speculates on
//!    detected stragglers. Whatever ends the phase — queue drained, failed
//!    flag, user panic, injected death — the rank then sends its EOF to
//!    every partition, so no peer's ingest waits forever.
//! 3. **A phase** — once every peer's EOF arrived the store's groups are
//!    pulled one at a time through the user's A function, with optional
//!    mid-merge checkpoints.
//!
//! The callers differ only in what they hand in (see [`RankContext`]):
//! the in-proc runtime shares one queue, board, checkpoint and
//! [`JobFailure`] among its rank threads; `dmpirun` workers and the
//! resident service run [`crate::distrib::run_mesh_rank`], which supplies
//! the static queue, no board, no checkpoint and a process-private
//! failure cell. Endpoint teardown and wire-stat recording stay with the
//! caller.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;

use dmpi_common::kv::RecordBatch;
use dmpi_common::{ser, Error, FaultCause, FaultKind, Result};

use crate::buffer::{BufferStats, KvBuffer};
use crate::checkpoint::{CheckpointStore, MergeCheckpoint};
use crate::comm::Frame;
use crate::config::JobConfig;
use crate::observe::{Counter, HistKind, Observer, PhaseTotals, SpanKind, Tracer};
use crate::runtime::JobStats;
use crate::speculate::{ProgressBoard, TaskQueues};
use crate::store::{PartitionStore, StoreStats};
use crate::task::{BatchCollector, Collector, GroupedValues};
use crate::transport::{FrameReceiver, FrameSender};

/// Groups between two A-side merge frontier recordings. Each recording
/// snapshots the cursor frontier plus the framed output so far, so the
/// interval trades checkpoint traffic against re-merged groups on a
/// mid-merge restart.
const MERGE_CP_INTERVAL: u64 = 32;

/// A job's failed flag and first-error cell: shared by every rank of an
/// in-proc job, private to the process on a mesh. The first failure
/// wins; later ones (often knock-on effects) are dropped.
#[derive(Default)]
pub(crate) struct JobFailure {
    failed: AtomicBool,
    first: Mutex<Option<Error>>,
}

impl JobFailure {
    /// Marks the job failed, keeping `err` if it is the first.
    pub(crate) fn fail_with(&self, err: Error) {
        let mut first = self.first.lock();
        if first.is_none() {
            *first = Some(err);
        }
        self.failed.store(true, Ordering::SeqCst);
    }

    /// True once any rank failed; every rank polls this between tasks.
    pub(crate) fn is_set(&self) -> bool {
        self.failed.load(Ordering::SeqCst)
    }

    /// The job's error, if it failed.
    pub(crate) fn take(&self) -> Option<Error> {
        self.is_set().then(|| {
            let first = self.first.lock().take();
            first.unwrap_or_else(|| Error::fault_msg("job failed"))
        })
    }
}

/// Everything that differs between the callers of [`run_rank`].
pub(crate) struct RankContext<'a, I> {
    /// The job's configuration.
    pub config: &'a JobConfig,
    /// This rank.
    pub rank: usize,
    /// Mesh width.
    pub ranks: usize,
    /// Attempt number, for fault plans, spans and fault provenance.
    pub attempt: u32,
    /// The full task table; `inputs[t]` is O task `t`'s split.
    pub inputs: &'a [I],
    /// The split dispenser this rank pulls from.
    pub queues: &'a TaskQueues,
    /// Speculation's heartbeat sink and commit ledger. Its presence
    /// switches every task to capture-then-commit emission.
    pub board: Option<&'a ProgressBoard>,
    /// O-task and merge checkpoints, when the job is restartable.
    pub checkpoint: Option<&'a CheckpointStore>,
    /// The job's failed flag.
    pub failure: &'a JobFailure,
}

/// Runs one rank of a job over its mesh attachment and returns its A
/// partition and counters. `Ok` does not mean the job succeeded — a rank
/// that stopped on the failed flag returns its partial counters, which
/// the supervisor turns into wasted-work accounting; the caller reads
/// the verdict from `cx.failure`.
pub(crate) fn run_rank<I, O, A>(
    cx: &RankContext<'_, I>,
    o_fn: &O,
    a_fn: &A,
    senders: Vec<FrameSender>,
    receiver: FrameReceiver,
) -> Result<(RecordBatch, JobStats)>
where
    I: Sync,
    O: Fn(usize, &I, &mut dyn Collector) + Send + Sync,
    A: Fn(&GroupedValues, &mut dyn Collector) + Send + Sync,
{
    let (config, rank, ranks, attempt) = (cx.config, cx.rank, cx.ranks, cx.attempt);
    let observer = config.observer.as_ref();
    let mut me = Rank {
        cx,
        o_fn,
        senders,
        // Thread-local span buffer: recording is lock-free; the buffer
        // merges into the job trace when this rank exits.
        tracer: observer.map(|o| o.rank_tracer(rank as u32, attempt)),
        stats: JobStats::default(),
    };

    // Injected rank death: this rank does no O work at all — the failed
    // flag short-circuits the O loop — but still sends its EOFs so peers
    // tear down cleanly, like a real process whose sockets the OS closes.
    if let Some(plan) = config.faults.as_ref() {
        if plan.rank_panics(rank, attempt) {
            me.fail(FaultKind::RankDeath, "injected rank death", None);
        }
    }

    // A mid-merge checkpoint recorded by a previous attempt at this width
    // lets the A phase resume from a block boundary instead of re-merging
    // from the top; ingest then only drains (and CRC-checks) the replayed
    // frames — the sealed runs it would rebuild already live in the
    // checkpoint's run handles.
    let merge_resume = cx
        .checkpoint
        .and_then(|cp| cp.merge_checkpoint(rank, ranks));
    let discard = merge_resume.is_some();
    // Stamped *before* the ingest thread spawns: the rank's Recv span
    // must enclose its O-task spans (per-lane spans are either disjoint
    // or nested), and thread scheduling could otherwise delay the ingest
    // thread's first instruction until after the O phase has begun.
    let recv_start = observer.map(Observer::now_micros);
    let ingest = std::thread::scope(|scope| {
        let ingest = scope.spawn(move || {
            ingest_partition(receiver, config, rank, ranks, attempt, recv_start, discard)
        });
        me.o_phase();
        // Close the stream to every partition exactly once.
        for s in &me.senders {
            s.send(Frame::Eof { from_rank: rank });
        }
        ingest.join().expect("ingest thread panicked")
    });
    me.a_phase(a_fn, ingest, merge_resume)
}

/// One rank's state across its O and A phases. Lives on the rank's
/// thread only (the tracer is `!Send`).
struct Rank<'a, I, O> {
    cx: &'a RankContext<'a, I>,
    o_fn: &'a O,
    senders: Vec<FrameSender>,
    tracer: Option<Tracer>,
    stats: JobStats,
}

/// How one attempt at an O task ended.
enum Emitted {
    /// The task's output went out through its [`KvBuffer`].
    Shipped(BufferStats),
    /// Another attempt committed first; this many captured bytes are
    /// discarded.
    Lost(u64),
    /// User code panicked after flushing or capturing this many bytes.
    Panicked(u64),
}

impl<I, O> Rank<'_, I, O>
where
    I: Sync,
    O: Fn(usize, &I, &mut dyn Collector) + Send + Sync,
{
    /// Records a fault on this rank's lane and fails the job with it.
    fn fail(&self, kind: FaultKind, cause: &'static str, task: Option<usize>) {
        let mut fault = FaultCause::new(kind, cause)
            .rank(self.cx.rank)
            .attempt(self.cx.attempt);
        if let Some(task) = task {
            fault = fault.task(task);
        }
        if let Some(t) = &self.tracer {
            let args = vec![("cause", cause.to_string())];
            match task {
                Some(task) => t.for_task(task as u64).instant(SpanKind::Fault, args),
                None => t.instant(SpanKind::Fault, args),
            }
        }
        self.cx.failure.fail_with(Error::fault(fault));
    }

    /// Pulls splits until the queue is drained or the job failed.
    fn o_phase(&mut self) {
        let cx = self.cx;
        while !cx.failure.is_set() {
            let Some(dispensed) = cx.queues.next(cx.rank) else {
                // Nothing left to start. Without a progress board the
                // rank is done; with one it idles until every task
                // commits, speculating on detected stragglers meanwhile.
                let Some(board) = cx.board else { break };
                if board.all_done() {
                    break;
                }
                match board.claim_speculation() {
                    Some(victim) => self.run_o_task(victim, true),
                    None => std::thread::sleep(board.poll()),
                }
                continue;
            };
            if dispensed.stolen {
                self.stats.tasks_stolen += 1;
                if let Some(t) = &self.tracer {
                    t.registry().add(Counter::TasksStolen, 1);
                }
            }
            match cx.checkpoint.filter(|cp| cp.is_complete(dispensed.task)) {
                Some(cp) => self.replay_checkpointed(dispensed.task, cp),
                None => self.run_o_task(dispensed.task, false),
            }
        }
    }

    /// Checkpoint recovery: replays a completed task's frames without
    /// user code, re-bucketing them when the recorded width differs from
    /// this mesh's (the elastic-shrink case).
    fn replay_checkpointed(&mut self, task: usize, cp: &CheckpointStore) {
        let cx = self.cx;
        for (partition, payload) in cp.recover_frames_for(task, cx.ranks) {
            if let Some(t) = &self.tracer {
                t.registry()
                    .add_frame_sent(cx.rank, partition, payload.len() as u64);
            }
            let _ = self.senders[partition].send(Frame::data(cx.rank, task, payload));
        }
        if let Some(t) = &self.tracer {
            t.for_task(task as u64).instant(SpanKind::Recovered, vec![]);
            t.registry().add(Counter::RecoveredTasks, 1);
        }
        self.stats.o_tasks_recovered += 1;
        if let Some(board) = cx.board {
            board.try_commit(task);
        }
    }

    /// Builds `task`'s emit buffer with the checkpoint tee, tracer,
    /// combiner and injected corruption attached. Every emission mode
    /// ships through a buffer built here, fed the same `emit_kv`
    /// sequence, which is why their frames are byte-identical.
    fn task_buffer(&self, task: usize) -> KvBuffer {
        let cx = self.cx;
        let mut buffer = KvBuffer::new(
            self.senders.clone(),
            cx.rank,
            task,
            cx.config.flush_threshold,
            cx.config.pipelined,
        );
        if let Some(cp) = cx.checkpoint {
            buffer.set_tee(cp.clone());
        }
        if let Some(t) = &self.tracer {
            buffer.set_tracer(t.for_task(task as u64));
        }
        if let Some(c) = &cx.config.combiner {
            buffer.set_combiner(c.clone());
        }
        if let Some(plan) = cx.config.faults.as_ref() {
            if let Some(corruption) = plan.corruption(task, cx.attempt) {
                buffer.set_corruption(corruption);
            }
        }
        buffer
    }

    /// Drops what an abandoned primary attempt left behind: its partial
    /// checkpoint frames and its board heartbeat.
    fn abandon(&self, task: usize) {
        if let Some(cp) = self.cx.checkpoint {
            cp.discard_incomplete(task);
        }
        if let Some(board) = self.cx.board {
            board.abort(task);
        }
    }

    /// Runs one attempt at O task `task`: the primary one a queue
    /// dispensed, or (`speculative`) a duplicate of another rank's
    /// straggler.
    ///
    /// The emission mode follows from what the rank can observe:
    /// * a progress board ⇒ **whole-task capture**: user code emits into
    ///   a capture only, and the attempt ships (by replaying the capture
    ///   through the task's buffer) only if it wins the board's
    ///   first-writer-wins commit (DESIGN.md §7);
    /// * otherwise **direct emission**: user code writes straight into
    ///   the task's buffer, no copy.
    fn run_o_task(&mut self, task: usize, speculative: bool) {
        let cx = self.cx;
        let tracer = self.tracer.as_ref().map(|t| t.for_task(task as u64));
        let registry = tracer.as_ref().map(Tracer::registry);
        // Only the primary attempt heartbeats: the outlier detector
        // times placements, and a duplicate is not one.
        let heartbeat_board = cx.board.filter(|_| !speculative);
        if speculative {
            self.stats.speculative_attempts += 1;
            if let Some(r) = registry {
                r.add(Counter::SpeculativeAttempts, 1);
            }
        }
        if let Some(board) = heartbeat_board {
            board.start(task);
            if let Some(r) = registry {
                r.add(Counter::Heartbeats, 1);
            }
        }
        let task_start = tracer.as_ref().map(Tracer::start);

        // Injected errors and delays model the task's original
        // placement, which is exactly what a duplicate escapes.
        if let Some(plan) = cx.config.faults.as_ref().filter(|_| !speculative) {
            if plan.o_task_error(task, cx.attempt) {
                self.abandon(task);
                self.fail(
                    FaultKind::InjectedError,
                    "scheduled O-task failure",
                    Some(task),
                );
                return;
            }
            let mut delay = Duration::ZERO;
            let straggler = plan.straggler_delay(task, cx.attempt);
            let slow_rank = plan.slow_rank_delay(cx.rank, cx.attempt);
            for d in [straggler, slow_rank].into_iter().flatten() {
                delay += d;
                self.stats.straggler_delays += 1;
            }
            if !delay.is_zero() && serve_injected_delay(delay, cx.board, task) {
                // A duplicate committed while we were stalled: abort
                // before user code runs — zero bytes wasted. The task's
                // checkpoint frames are now the winner's: leave them.
                self.stats.speculative_aborts += 1;
                if let Some(board) = cx.board {
                    board.abort(task);
                }
                if let Some(r) = registry {
                    r.add(Counter::Heartbeats, 1);
                }
                return;
            }
        }

        let (o_fn, split) = (self.o_fn, &cx.inputs[task]);
        let emitted = if let Some(board) = cx.board {
            let mut capture = CaptureCollector { buf: Vec::new() };
            let ran = catch_unwind(AssertUnwindSafe(|| o_fn(task, split, &mut capture))).is_ok();
            let captured = capture.buf.len() as u64;
            if !ran {
                Emitted::Panicked(captured)
            } else if board.try_commit(task) {
                let mut buffer = self.task_buffer(task);
                replay_capture(&capture.buf, &mut buffer);
                Emitted::Shipped(buffer.finish())
            } else {
                Emitted::Lost(captured)
            }
        } else {
            let mut buffer = self.task_buffer(task);
            // User code may panic; that becomes a clean job fault so peer
            // ranks still receive our EOFs instead of deadlocking in
            // their A phase.
            let ran = catch_unwind(AssertUnwindSafe(|| {
                let mut adapter = EmitAdapter {
                    buffer: &mut buffer,
                };
                o_fn(task, split, &mut adapter);
            }))
            .is_ok();
            if ran {
                Emitted::Shipped(buffer.finish())
            } else {
                Emitted::Panicked(buffer.stats().bytes)
            }
        };

        // `Some(records)` if this attempt's output shipped, `None` if it
        // lost the commit race.
        let shipped = match emitted {
            Emitted::Panicked(wasted) => {
                // Whatever the half-finished attempt flushed or captured
                // can never be recovered. A duplicate's panic is the same
                // user-code bug its primary will hit; the primary owns
                // the task's checkpoint frames and heartbeat.
                self.stats.wasted_bytes += wasted;
                if !speculative {
                    self.abandon(task);
                }
                self.fail(
                    FaultKind::TaskPanic,
                    "O task user code panicked",
                    Some(task),
                );
                return;
            }
            Emitted::Shipped(b) => {
                self.stats.o_tasks_run += 1;
                self.stats.records_emitted += b.records;
                self.stats.bytes_emitted += b.bytes;
                self.stats.frames += b.frames;
                self.stats.early_flushes += b.early_flushes;
                self.stats.combiner_records_in += b.combiner_records_in;
                self.stats.combiner_records_out += b.combiner_records_out;
                if let Some(cp) = cx.checkpoint {
                    cp.mark_complete_at(task, cx.ranks);
                }
                if speculative {
                    self.stats.speculative_commits += 1;
                    if let Some(r) = registry {
                        r.add(Counter::SpeculativeCommits, 1);
                    }
                }
                Some(b.records)
            }
            Emitted::Lost(wasted) => {
                self.stats.wasted_bytes += wasted;
                self.stats.speculative_aborts += 1;
                None
            }
        };
        if let Some(t) = &tracer {
            let mut args = Vec::new();
            if let Some(records) = shipped {
                args.push(("records", records.to_string()));
            }
            if speculative {
                args.push(("speculative", "true".into()));
            }
            if shipped.is_none() {
                args.push(("aborted", "true".into()));
            }
            t.span(SpanKind::OTask, task_start.unwrap_or(0), args);
        }
        if let Some(board) = heartbeat_board {
            board.finish(task);
            if let Some(r) = registry {
                r.add(Counter::Heartbeats, 1);
            }
        }
    }

    /// Groups and reduces the ingested partition, then closes this
    /// rank's books: store and spill-read counters, span absorption.
    fn a_phase<A>(
        mut self,
        a_fn: &A,
        ingest: IngestOutcome,
        merge_resume: Option<MergeCheckpoint>,
    ) -> Result<(RecordBatch, JobStats)>
    where
        A: Fn(&GroupedValues, &mut dyn Collector) + Send + Sync,
    {
        let cx = self.cx;
        let (config, rank, failure) = (cx.config, cx.rank, cx.failure);
        self.stats.corrupt_frames += ingest.corrupt_frames;
        if let Some(e) = ingest.first_error {
            failure.fail_with(e);
        }
        let mut store = ingest.store;
        // Merge checkpointing needs every record in a seekable sealed
        // run — a live in-memory cursor cannot name a block frontier —
        // so the forming run is sealed through the same block format as
        // the spills before the merge opens.
        let merge_cp = cx.checkpoint.filter(|_| !failure.is_set());
        if let Some(cp) = merge_cp.filter(|_| merge_resume.is_none()) {
            store.seal_all();
            cp.register_merge_runs(rank, cx.ranks, store.sealed_run_handles());
        }
        let st = store.stats();
        self.stats.spills += st.spills;
        self.stats.spilled_bytes += st.spilled_bytes;
        self.stats.spilled_wire_bytes += st.spilled_wire_bytes;
        self.stats.peak_resident_records = self
            .stats
            .peak_resident_records
            .max(st.peak_resident_records);
        let read_counters = store.read_counters();

        // An identity-shaped A function (Sort) emits a record per record
        // in; reserving for that up front spares the output vector its
        // doublings, and `into_batch` returns what a folding one leaves
        // unused.
        let mut collector = BatchCollector::with_capacity(st.records as usize);
        let grouped = if failure.is_set() {
            Ok(())
        } else {
            self.reduce_groups(a_fn, store, &st, merge_resume, merge_cp, &mut collector)
        };
        let reads = read_counters.snapshot();
        self.stats.spill_blocks_read += reads.blocks_read;
        self.stats.spill_blocks_skipped += reads.blocks_skipped;
        self.stats.spill_seeks += reads.seeks;
        if let Some(t) = &self.tracer {
            t.registry().add_spill_reads(&reads);
        }
        // Merge this rank's span buffer into the job trace before any
        // error propagates, so failed ranks keep their events; the
        // drained spans' phase totals ride back on the stats.
        if let (Some(obs), Some(t)) = (config.observer.as_ref(), &self.tracer) {
            self.stats.phase_us = obs.absorb(t);
        }
        self.stats.phase_us.merge(&ingest.phase);
        grouped.map_err(|e| store_decode_fault(e, rank, cx.attempt))?;
        Ok((collector.into_batch(), self.stats))
    }

    /// Pulls one key group at a time from the store's merge — grouped
    /// data is never all resident — through `a_fn` into `collector`.
    fn reduce_groups<A>(
        &mut self,
        a_fn: &A,
        store: PartitionStore,
        st: &StoreStats,
        merge_resume: Option<MergeCheckpoint>,
        merge_cp: Option<&CheckpointStore>,
        collector: &mut BatchCollector,
    ) -> Result<()>
    where
        A: Fn(&GroupedValues, &mut dyn Collector) + Send + Sync,
    {
        let cx = self.cx;
        let tracer = self.tracer.as_ref();
        // Ingest already decoded (and, for spilled runs, sorted)
        // everything overlapped with the O phase; the Sort span covers
        // only the final in-memory run's sort plus merge setup.
        let sort_start = tracer.map(Tracer::start);
        let merge_panic_at = cx
            .config
            .faults
            .as_ref()
            .and_then(|p| p.merge_panic_after(cx.rank, cx.attempt));
        let mut groups = 0u64;
        let mut stream = match &merge_resume {
            // Resume path: replay the output emitted before the recorded
            // boundary, then reopen every run at its frontier block,
            // skipping records at or before the last emitted group key.
            Some(m) => {
                let mut done = ser::unframe_batch(&m.partial_output)?;
                groups = m.groups_emitted;
                collector.append(&mut done);
                crate::store::resume_group_stream(
                    &m.runs,
                    &m.frontier,
                    m.last_key.clone(),
                    &store.read_counters(),
                )?
            }
            None => store.into_group_stream()?,
        };
        if let Some(t) = tracer {
            t.registry().add(Counter::RecordsIn, st.records);
            t.span(
                SpanKind::Sort,
                sort_start.unwrap_or(0),
                vec![("runs", (st.spills + 1).to_string())],
            );
        }
        let a_start = tracer.map(Tracer::start);
        // One group, refilled in place: no value vector per group.
        let mut group = GroupedValues::default();
        let streamed = loop {
            match stream.next_group_into(&mut group) {
                Ok(true) => {}
                Ok(false) => break Ok(()),
                Err(e) => break Err(e),
            }
            groups += 1;
            a_fn(&group, collector);
            if let Some(cp) = merge_cp.filter(|_| groups.is_multiple_of(MERGE_CP_INTERVAL)) {
                if let Some(frontier) = stream.frontier() {
                    // `batch()` closes the collector's open chunk first,
                    // so the framed output holds every group up to here.
                    cp.record_merge_frontier(
                        cx.rank,
                        frontier,
                        Some(group.key.clone()),
                        groups,
                        Bytes::from(ser::frame_batch(collector.batch())),
                    );
                }
            }
            if merge_panic_at.is_some_and(|after| groups >= after) {
                self.fail(FaultKind::RankDeath, "injected merge death", None);
                break Ok(());
            }
        };
        self.stats.groups += groups;
        if let Some(t) = tracer {
            t.span(
                SpanKind::ACompute,
                a_start.unwrap_or(0),
                vec![("groups", groups.to_string())],
            );
        }
        streamed?;
        // The merge ran to completion: its checkpoint state (and the run
        // files it pins) can be reclaimed.
        if let Some(cp) = merge_cp.filter(|_| !cx.failure.is_set()) {
            cp.clear_merge(cx.rank);
        }
        Ok(())
    }
}

/// Direct emission: user code writes straight into the task's buffer.
struct EmitAdapter<'a> {
    buffer: &'a mut KvBuffer,
}

impl Collector for EmitAdapter<'_> {
    fn collect(&mut self, key: &[u8], value: &[u8]) {
        self.buffer.emit_kv(key, value);
    }
}

/// Captures an attempt's emissions as `(klen, vlen, key, value)` varint
/// frames — the same layout [`dmpi_common::ser::read_framed_kv`] decodes
/// — for in-order replay into the task's real [`KvBuffer`].
struct CaptureCollector {
    buf: Vec<u8>,
}

impl Collector for CaptureCollector {
    fn collect(&mut self, key: &[u8], value: &[u8]) {
        ser::frame_kv(&mut self.buf, key, value);
    }
}

/// Replays captured emissions through the task's real buffer, borrowing
/// each pair straight out of the capture (no allocation).
fn replay_capture(capture: &[u8], buffer: &mut KvBuffer) {
    let mut off = 0usize;
    while off < capture.len() {
        let (key, value, n) = ser::read_framed_kv(&capture[off..])
            .expect("capture buffers are well-formed by construction");
        buffer.emit_kv(key, value);
        off += n;
    }
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

/// Wraps an undecodable A-store record as the structured corruption
/// fault the CRC gate would have raised, with rank/attempt provenance.
fn store_decode_fault(e: Error, rank: usize, attempt: u32) -> Error {
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
struct IngestOutcome {
    /// The filled A-side store (possibly spilled).
    store: PartitionStore,
    /// Data frames rejected by the CRC gate.
    corrupt_frames: u64,
    /// First integrity or transport fault seen (later ones are usually
    /// knock-on effects and are dropped, matching the job's
    /// first-failure-wins policy).
    first_error: Option<Error>,
    /// Phase totals absorbed from the ingest thread's own tracer.
    phase: PhaseTotals,
}

/// Drains one rank's mailbox until `ranks` EOF frames arrived (one per
/// sending rank), the mailbox disconnected, or a transport fault ended
/// the stream. Runs on a dedicated thread, concurrently with the rank's
/// O phase — see the deadlock-freedom argument in `comm.rs`.
///
/// Every data frame passes the [`Frame::verify`] CRC gate before it is
/// ingested; a corrupt frame is counted, reported as the thread's first
/// error (with the producing rank and O task in the cause), and skipped,
/// so a supervised retry sees the fault instead of silently wrong
/// output. With `discard` set (merge-resume attempts, where the A phase
/// reads the previous attempt's sealed runs) frames are drained and
/// verified but not stored. `recv_start` is the Recv span's start,
/// stamped by the rank thread.
fn ingest_partition(
    receiver: FrameReceiver,
    config: &JobConfig,
    rank: usize,
    ranks: usize,
    attempt: u32,
    recv_start: Option<u64>,
    discard: bool,
) -> IngestOutcome {
    let observer = config.observer.as_ref();
    // The tracer must be built on this thread (tracers are thread-local
    // by design); its spans merge into the shared trace on exit.
    let tracer = observer.map(|o| o.rank_tracer(rank as u32, attempt));
    let mut store = PartitionStore::new(config.memory_budget, true);
    store.set_spill_config(
        config
            .spill_config()
            .with_tag(format!("r{rank}-a{attempt}")),
    );
    if let Some(o) = observer {
        // The store gets the Send+Sync observer, not this thread's
        // tracer: its sealing sites (background threads included) build
        // their own tracers from it.
        store.set_observer(o.clone(), rank as u32, attempt);
    }
    // Wire-path histograms: how long each mailbox wait took, and how big
    // each arriving payload was. One Instant per frame, only when an
    // observer is installed.
    let recv_hist = observer.map(|o| o.registry().histograms().handle(HistKind::RecvLatency));
    let payload_hist = observer.map(|o| o.registry().histograms().handle(HistKind::FramePayload));
    let mut corrupt_frames = 0u64;
    let mut first_error: Option<Error> = None;
    let mut eofs = 0usize;
    while eofs < ranks {
        let wait_start = recv_hist.as_ref().map(|_| Instant::now());
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
    if let Some(t) = &tracer {
        t.span(
            SpanKind::Recv,
            recv_start.unwrap_or(0),
            vec![("frames", store.stats().frames.to_string())],
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
