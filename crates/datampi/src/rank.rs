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
//! 2. **O phase** — the rank pulls task indices from the job's
//!    [`TaskQueues`] and runs each through `run_o_task`: checkpoint
//!    replay, injected faults, the O function getting its own split and
//!    writing straight into the task's [`KvBuffer`], panic → fault,
//!    stats fold. Whatever ends the phase — queue drained, failed flag,
//!    user panic, injected death — the rank then sends its EOF to every
//!    partition, so no peer's ingest waits forever.
//! 3. **A phase** — once every peer's EOF arrived the store's groups are
//!    pulled one at a time through the user's A function into the
//!    caller's sink.
//!
//! The callers differ only in what they hand in (see [`RankContext`]):
//! the in-proc runtime shares one queue, checkpoint and [`JobFailure`]
//! among its rank threads, and its O function indexes resident splits;
//! `dmpirun` workers and the resident service run
//! [`crate::distrib::run_mesh_rank`], which supplies the `task % ranks`
//! queue, no checkpoint, a process-private failure cell, a part sink and
//! an O function that derives each split as its task starts.
//! Endpoint teardown and wire-stat recording stay with the caller.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use parking_lot::Mutex;

use dmpi_common::{Error, FaultCause, FaultKind, Result};

use crate::buffer::KvBuffer;
use crate::checkpoint::CheckpointStore;
use crate::comm::Frame;
use crate::config::JobConfig;
use crate::observe::{Counter, HistKind, Observer, PhaseTotals, SpanKind, Tracer};
use crate::runtime::JobStats;
use crate::store::{PartitionStore, StoreStats};
use crate::task::{Collector, GroupedValues};
use crate::transport::{FrameReceiver, FrameSender};

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

/// The dispenser an O phase pulls task indices from. In-proc, every
/// rank thread shares one queue and a free rank takes the next task
/// (the paper's dynamic scheduling); on a mesh, where no queue
/// spans processes, task `t` is pinned to rank `t % ranks`, which every
/// process computes alike.
pub(crate) struct TaskQueues {
    /// One queue every rank shares, or one per rank.
    queues: Vec<Mutex<VecDeque<usize>>>,
}

impl TaskQueues {
    /// One queue of tasks `0..tasks` that every rank pulls from.
    pub(crate) fn shared(tasks: usize) -> Self {
        TaskQueues {
            queues: vec![Mutex::new((0..tasks).collect())],
        }
    }

    /// Task `t` queued for rank `t % ranks` only.
    pub(crate) fn pinned(tasks: usize, ranks: usize) -> Self {
        let queues = (0..ranks)
            .map(|r| Mutex::new((r..tasks).step_by(ranks).collect()))
            .collect();
        TaskQueues { queues }
    }

    /// The next task for `rank`, or `None` once its queue is drained.
    pub(crate) fn next(&self, rank: usize) -> Option<usize> {
        self.queues[rank % self.queues.len()].lock().pop_front()
    }
}

/// Everything that differs between the callers of [`run_rank`].
pub(crate) struct RankContext<'a> {
    /// The job's configuration.
    pub config: &'a JobConfig,
    /// This rank.
    pub rank: usize,
    /// Mesh width.
    pub ranks: usize,
    /// Attempt number, for fault plans, spans and fault provenance.
    pub attempt: u32,
    /// The task dispenser this rank pulls from.
    pub queues: &'a TaskQueues,
    /// O-task checkpoints, when the job is restartable.
    pub checkpoint: Option<&'a CheckpointStore>,
    /// The job's failed flag.
    pub failure: &'a JobFailure,
}

/// Runs one rank of a job over its mesh attachment and returns the sink
/// its A output went into, `sink(records in)`, and its counters. `Ok`
/// does not mean the job succeeded — a rank that stopped on the failed
/// flag returns its partial counters, which the supervisor turns into
/// wasted-work accounting; the caller reads the verdict from
/// `cx.failure`.
pub(crate) fn run_rank<O, A, S>(
    cx: &RankContext<'_>,
    o_fn: &O,
    a_fn: &A,
    senders: Vec<FrameSender>,
    receiver: FrameReceiver,
    sink: impl FnOnce(u64) -> S,
) -> Result<(S, JobStats)>
where
    O: Fn(usize, &mut dyn Collector) + Send + Sync,
    A: Fn(&GroupedValues, &mut dyn Collector) + Send + Sync,
    S: Collector,
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

    // Stamped *before* the ingest thread spawns: the rank's Recv span
    // must enclose its O-task spans (per-lane spans are either disjoint
    // or nested), and thread scheduling could otherwise delay the ingest
    // thread's first instruction until after the O phase has begun.
    let recv_start = observer.map(Observer::now_micros);
    let ingest = std::thread::scope(|scope| {
        let ingest = scope
            .spawn(move || ingest_partition(receiver, config, rank, ranks, attempt, recv_start));
        me.o_phase();
        // Close the stream to every partition exactly once.
        for s in &me.senders {
            s.send(Frame::Eof { from_rank: rank });
        }
        ingest.join().expect("ingest thread panicked")
    });
    me.a_phase(a_fn, ingest, sink)
}

/// One rank's state across its O and A phases. Lives on the rank's
/// thread only (the tracer is `!Send`).
struct Rank<'a, O> {
    cx: &'a RankContext<'a>,
    o_fn: &'a O,
    senders: Vec<FrameSender>,
    tracer: Option<Tracer>,
    stats: JobStats,
}

impl<O> Rank<'_, O>
where
    O: Fn(usize, &mut dyn Collector) + Send + Sync,
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

    /// Pulls tasks until the queue is drained or the job failed.
    fn o_phase(&mut self) {
        let cx = self.cx;
        while !cx.failure.is_set() {
            let Some(task) = cx.queues.next(cx.rank) else {
                break;
            };
            match cx.checkpoint.filter(|cp| cp.is_complete(task)) {
                Some(cp) => self.replay_checkpointed(task, cp),
                None => self.run_o_task(task),
            }
        }
    }

    /// Checkpoint recovery: replays a completed task's frames without
    /// user code.
    fn replay_checkpointed(&mut self, task: usize, cp: &CheckpointStore) {
        let cx = self.cx;
        for (partition, payload) in cp.recover_frames(task) {
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
    }

    /// Builds `task`'s emit buffer with the checkpoint tee, tracer,
    /// combiner and injected corruption attached.
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

    /// Drops the partial checkpoint frames of a task that did not finish.
    fn abandon(&self, task: usize) {
        if let Some(cp) = self.cx.checkpoint {
            cp.discard_incomplete(task);
        }
    }

    /// Runs O task `task`: injected faults first, then the O function
    /// writing straight into the task's buffer.
    fn run_o_task(&mut self, task: usize) {
        let cx = self.cx;
        let tracer = self.tracer.as_ref().map(|t| t.for_task(task as u64));
        let task_start = tracer.as_ref().map(Tracer::start);
        if let Some(plan) = cx.config.faults.as_ref() {
            if plan.o_task_error(task, cx.attempt) {
                self.abandon(task);
                self.fail(
                    FaultKind::InjectedError,
                    "scheduled O-task failure",
                    Some(task),
                );
                return;
            }
        }

        let mut buffer = self.task_buffer(task);
        // User code may panic; that becomes a clean job fault so peer
        // ranks still receive our EOFs instead of deadlocking in their A
        // phase.
        let ran = catch_unwind(AssertUnwindSafe(|| (self.o_fn)(task, &mut buffer))).is_ok();
        if !ran {
            // Whatever the half-finished task flushed can never be
            // recovered.
            self.stats.wasted_bytes += buffer.stats().bytes;
            self.abandon(task);
            self.fail(
                FaultKind::TaskPanic,
                "O task user code panicked",
                Some(task),
            );
            return;
        }
        let b = buffer.finish();
        self.stats.o_tasks_run += 1;
        self.stats.records_emitted += b.records;
        self.stats.bytes_emitted += b.bytes;
        self.stats.frames += b.frames;
        self.stats.early_flushes += b.early_flushes;
        self.stats.combiner_records_in += b.combiner_records_in;
        self.stats.combiner_records_out += b.combiner_records_out;
        if let Some(cp) = cx.checkpoint {
            cp.mark_complete(task);
        }
        if let Some(t) = &tracer {
            let args = vec![("records", b.records.to_string())];
            t.span(SpanKind::OTask, task_start.unwrap_or(0), args);
        }
    }

    /// Groups and reduces the ingested partition into `sink`, then closes
    /// this rank's books: store and spill-read counters, span absorption.
    fn a_phase<A, S>(
        mut self,
        a_fn: &A,
        ingest: IngestOutcome,
        sink: impl FnOnce(u64) -> S,
    ) -> Result<(S, JobStats)>
    where
        A: Fn(&GroupedValues, &mut dyn Collector) + Send + Sync,
        S: Collector,
    {
        let cx = self.cx;
        let (config, rank, failure) = (cx.config, cx.rank, cx.failure);
        self.stats.corrupt_frames += ingest.corrupt_frames;
        if let Some(e) = ingest.first_error {
            failure.fail_with(e);
        }
        let store = ingest.store;
        let st = store.stats();
        self.stats.spills += st.spills;
        self.stats.spilled_bytes += st.spilled_bytes;
        self.stats.spilled_wire_bytes += st.spilled_wire_bytes;
        self.stats.peak_resident_records = self
            .stats
            .peak_resident_records
            .max(st.peak_resident_records);
        let read_counters = store.read_counters();

        let mut sink = sink(st.records);
        let grouped = if failure.is_set() {
            Ok(())
        } else {
            self.reduce_groups(a_fn, store, &st, &mut sink)
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
        grouped.map_err(|e| store_fault(e, rank, cx.attempt))?;
        Ok((sink, self.stats))
    }

    /// Pulls one key group at a time from the store's merge — grouped
    /// data is never all resident — through `a_fn` into `sink`.
    fn reduce_groups<A>(
        &mut self,
        a_fn: &A,
        store: PartitionStore,
        st: &StoreStats,
        sink: &mut dyn Collector,
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
        let mut stream = store.into_group_stream()?;
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
        // User code may panic; like an O task's, that becomes a clean job
        // fault, so the rank still reports instead of dying with its job.
        let streamed = catch_unwind(AssertUnwindSafe(|| loop {
            match stream.next_group_into(&mut group) {
                Ok(true) => {}
                Ok(false) => break Ok(()),
                Err(e) => break Err(e),
            }
            groups += 1;
            a_fn(&group, sink);
            if merge_panic_at.is_some_and(|after| groups >= after) {
                self.fail(FaultKind::RankDeath, "injected merge death", None);
                break Ok(());
            }
        }))
        .unwrap_or_else(|_| {
            self.fail(FaultKind::TaskPanic, "A function user code panicked", None);
            Ok(())
        });
        self.stats.groups += groups;
        if let Some(t) = tracer {
            t.span(
                SpanKind::ACompute,
                a_start.unwrap_or(0),
                vec![("groups", groups.to_string())],
            );
        }
        streamed
    }
}

/// Gives a store error rank/attempt provenance: an undecodable A-store
/// record becomes the structured corruption fault the CRC gate would
/// have raised, and a failed seal's fault (a full spill disk) is located
/// on this rank; any other store error keeps its own kind.
fn store_fault(e: Error, rank: usize, attempt: u32) -> Error {
    let cause = match e {
        Error::Corrupt(_) | Error::Varint(_) | Error::Codec(_) => FaultCause::new(
            FaultKind::CorruptFrame,
            format!("A-side store decode failed: {e}"),
        ),
        Error::Fault(cause) => cause,
        e => return e,
    };
    Error::fault(cause.rank(rank).attempt(attempt))
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
/// output. `recv_start` is the Recv span's start, stamped by the rank
/// thread.
fn ingest_partition(
    receiver: FrameReceiver,
    config: &JobConfig,
    rank: usize,
    ranks: usize,
    attempt: u32,
    recv_start: Option<u64>,
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
        // tracer: it moves to the rank thread after ingest, and each
        // seal builds its own tracer from it.
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
                        first_error.get_or_insert(store_fault(e, rank, attempt));
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
    // Fold the seals' traced phase time into this thread's totals.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamic_queue_dispenses_in_order_to_any_rank() {
        let q = TaskQueues::shared(4);
        assert_eq!(q.next(1), Some(0));
        assert_eq!(q.next(0), Some(1));
        assert_eq!(q.next(1), Some(2));
        assert_eq!(q.next(0), Some(3));
        assert_eq!(q.next(0), None);
    }

    #[test]
    fn static_queue_pins_tasks_modulo_ranks() {
        let q = TaskQueues::pinned(6, 2);
        // Rank 0 owns 0, 2, 4; rank 1 owns 1, 3, 5; no crossover.
        for expect in [0usize, 2, 4] {
            assert_eq!(q.next(0), Some(expect));
        }
        assert_eq!(q.next(0), None, "rank 0 is done");
        for expect in [1usize, 3, 5] {
            assert_eq!(q.next(1), Some(expect));
        }
        assert_eq!(q.next(1), None);
    }
}
