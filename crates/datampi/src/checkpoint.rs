//! Key-value-pair based checkpoint/restart.
//!
//! DataMPI checkpoints at the granularity of a completed O task: the frames
//! the task shipped to each A partition are retained, and the task is
//! marked complete. When a job is restarted against the same checkpoint,
//! completed tasks are **recovered** — their frames are replayed into the
//! A partitions without re-running the user's O function. This is the
//! "key-value pair based checkpoint/restart" the paper attributes to
//! DataMPI (§2.3).
//!
//! The store is the whole restart API: passing one to
//! [`run_job`](crate::run_job), [`run_iteration`](crate::iteration::run_iteration)
//! or a supervisor makes the run restartable, and every run against the
//! same store is the next attempt (0 on a fresh store, then counting up),
//! which is what fault plans and fault provenance key on.
//!
//! A store serves one mesh width: the first attempt pins it, and a run
//! at any other width is refused before any task runs, because banked
//! frames are partitioned for the width that emitted them.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use bytes::Bytes;
use dmpi_common::{Error, Result};
use parking_lot::Mutex;

use crate::spillfmt::SealedRun;

/// Shared, thread-safe checkpoint state. Clone-cheap (`Arc` inside); pass
/// the same store to a restarted job to recover.
///
/// # Examples
/// ```
/// use datampi::checkpoint::CheckpointStore;
/// use datampi::{run_job, FaultPlan, JobConfig};
/// use dmpi_common::group::{Collector, GroupedValues};
///
/// // Task 2 fails on attempt 0 only; the second run against the same
/// // store is attempt 1 and replays tasks 0 and 1 from the checkpoint.
/// let config = JobConfig::new(1).with_faults(FaultPlan::new(0).fail_o_task(2, 0));
/// let o = |_t: usize, s: &[u8], out: &mut dyn Collector| out.collect(s, b"1");
/// let a = |g: &GroupedValues, out: &mut dyn Collector| out.collect(&g.key, b"1");
/// let inputs = || vec!["a".into(), "b".into(), "c".into()];
/// let cp = CheckpointStore::new();
/// let err = run_job(&config, inputs(), o, a, Some(&cp)).unwrap_err();
/// assert_eq!(err.fault_cause().and_then(|c| c.attempt), Some(0));
/// let out = run_job(&config, inputs(), o, a, Some(&cp))?;
/// assert_eq!(out.stats.o_tasks_recovered, 2);
/// # Ok::<(), dmpi_common::Error>(())
/// ```
#[derive(Clone, Default)]
pub struct CheckpointStore {
    inner: Arc<Mutex<Inner>>,
}

#[derive(Default)]
struct Inner {
    /// Frames per completed-or-in-progress O task: `(partition, payload)`.
    frames: HashMap<usize, Vec<(usize, Bytes)>>,
    /// Completed O tasks. Lookup must stay O(1): `is_complete` runs once
    /// per task on every restart.
    completed: HashSet<usize>,
    /// In-progress A-side merge state per rank: sealed-run handles plus
    /// the last recorded group-boundary frontier.
    merges: HashMap<usize, MergeState>,
    /// Attempts begun against this store.
    attempts: u32,
    /// The mesh width the first attempt ran at; every later one must match.
    width: Option<usize>,
}

struct MergeState {
    runs: Vec<SealedRun>,
    progress: Option<MergeProgress>,
}

#[derive(Clone)]
struct MergeProgress {
    frontier: Vec<usize>,
    last_key: Option<Bytes>,
    groups_emitted: u64,
    partial_output: Bytes,
}

/// A restartable snapshot of a rank's A-side merge, taken at a group
/// boundary. Holds handles to the sealed runs (keeping disk-backed run
/// files alive across attempts), the block frontier each run's cursor
/// had reached, and the framed output emitted so far.
#[derive(Clone)]
pub struct MergeCheckpoint {
    /// The sealed spill runs the merge was reading.
    pub runs: Vec<SealedRun>,
    /// Per-run block index to resume reading from (parallel to `runs`).
    pub frontier: Vec<usize>,
    /// Last group key fully emitted; resume skips records `<=` this key.
    pub last_key: Option<Bytes>,
    /// Groups emitted before the boundary.
    pub groups_emitted: u64,
    /// Framed records emitted up to the boundary, replayable as output.
    pub partial_output: Bytes,
}

impl CheckpointStore {
    /// Fresh empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Begins the next attempt, at a mesh of `width` ranks, and returns
    /// its number: 0 on a fresh store, then counting up. The first
    /// attempt pins the width; a run at another width is a config error
    /// and does not count as an attempt.
    pub(crate) fn begin_attempt(&self, width: usize) -> Result<u32> {
        let mut inner = self.inner.lock();
        if let Some(pinned) = inner.width.filter(|&w| w != width) {
            return Err(Error::Config(format!(
                "checkpoint store was begun at {pinned} ranks, not {width}"
            )));
        }
        inner.width = Some(width);
        let attempt = inner.attempts;
        inner.attempts += 1;
        Ok(attempt)
    }

    /// Records a frame emitted by `o_task` towards `partition`.
    pub fn record_frame(&self, o_task: usize, partition: usize, payload: Bytes) {
        self.inner
            .lock()
            .frames
            .entry(o_task)
            .or_default()
            .push((partition, payload));
    }

    /// Marks `o_task` complete: its captured frames become recoverable.
    /// Idempotent.
    pub fn mark_complete(&self, o_task: usize) {
        self.inner.lock().completed.insert(o_task);
    }

    /// Discards partial frames of an uncompleted task (failure cleanup).
    pub fn discard_incomplete(&self, o_task: usize) {
        let mut inner = self.inner.lock();
        if !inner.completed.contains(&o_task) {
            inner.frames.remove(&o_task);
        }
    }

    /// True if `o_task` completed in a previous attempt.
    pub fn is_complete(&self, o_task: usize) -> bool {
        self.inner.lock().completed.contains(&o_task)
    }

    /// Number of completed tasks.
    pub fn completed_count(&self) -> usize {
        self.inner.lock().completed.len()
    }

    /// The frames of a completed task exactly as stored. Empty if not
    /// complete.
    pub fn recover_frames(&self, o_task: usize) -> Vec<(usize, Bytes)> {
        let inner = self.inner.lock();
        if inner.completed.contains(&o_task) {
            inner.frames.get(&o_task).cloned().unwrap_or_default()
        } else {
            Vec::new()
        }
    }

    /// Registers the sealed runs rank `rank`'s merge is about to read.
    /// Replaces any previous merge state for the rank (a fresh attempt
    /// starts a fresh merge). Cloning the run handles here keeps
    /// disk-backed run files alive even if the attempt dies and drops
    /// its `PartitionStore`.
    pub fn register_merge_runs(&self, rank: usize, runs: Vec<SealedRun>) {
        let state = MergeState {
            runs,
            progress: None,
        };
        self.inner.lock().merges.insert(rank, state);
    }

    /// Records a group-boundary frontier for rank `rank`'s merge:
    /// `frontier[i]` is the block index run `i`'s cursor sits at,
    /// `last_key` the last fully-emitted group key, and `partial_output`
    /// the framed records emitted so far. No-op unless
    /// [`register_merge_runs`](Self::register_merge_runs) ran first and
    /// the frontier length matches the registered run count.
    pub fn record_merge_frontier(
        &self,
        rank: usize,
        frontier: Vec<usize>,
        last_key: Option<Bytes>,
        groups_emitted: u64,
        partial_output: Bytes,
    ) {
        let mut inner = self.inner.lock();
        if let Some(state) = inner.merges.get_mut(&rank) {
            if frontier.len() == state.runs.len() {
                state.progress = Some(MergeProgress {
                    frontier,
                    last_key,
                    groups_emitted,
                    partial_output,
                });
            }
        }
    }

    /// The latest merge checkpoint for rank `rank`, if one was recorded.
    pub fn merge_checkpoint(&self, rank: usize) -> Option<MergeCheckpoint> {
        let inner = self.inner.lock();
        let state = inner.merges.get(&rank)?;
        let progress = state.progress.clone()?;
        Some(MergeCheckpoint {
            runs: state.runs.clone(),
            frontier: progress.frontier,
            last_key: progress.last_key,
            groups_emitted: progress.groups_emitted,
            partial_output: progress.partial_output,
        })
    }

    /// Drops rank `rank`'s merge state (merge finished; run files may be
    /// reclaimed once the owning store drops its handles too).
    pub fn clear_merge(&self, rank: usize) {
        self.inner.lock().merges.remove(&rank);
    }

    /// Total checkpointed bytes (the paper-relevant cost of the mechanism).
    pub fn total_bytes(&self) -> u64 {
        self.inner
            .lock()
            .frames
            .values()
            .flat_map(|v| v.iter())
            .map(|(_, b)| b.len() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmpi_common::kv::Record;

    #[test]
    fn complete_tasks_are_recoverable() {
        let cp = CheckpointStore::new();
        cp.record_frame(3, 0, Bytes::from_static(b"aa"));
        cp.record_frame(3, 1, Bytes::from_static(b"bb"));
        assert!(!cp.is_complete(3));
        assert!(cp.recover_frames(3).is_empty(), "not yet complete");
        cp.mark_complete(3);
        assert!(cp.is_complete(3));
        let frames = cp.recover_frames(3);
        assert_eq!(frames.len(), 2);
        assert_eq!(cp.completed_count(), 1);
        assert_eq!(cp.total_bytes(), 4);
    }

    #[test]
    fn attempts_count_up_from_zero_across_clones() {
        let cp = CheckpointStore::new();
        assert_eq!(cp.begin_attempt(2).unwrap(), 0);
        assert_eq!(
            cp.clone().begin_attempt(2).unwrap(),
            1,
            "clones share the count"
        );
        assert_eq!(cp.begin_attempt(2).unwrap(), 2);
    }

    #[test]
    fn the_first_attempt_pins_the_width() {
        let cp = CheckpointStore::new();
        assert_eq!(cp.begin_attempt(3).unwrap(), 0);
        let err = cp.begin_attempt(2).unwrap_err();
        assert!(matches!(err, Error::Config(_)), "{err}");
        assert_eq!(cp.begin_attempt(3).unwrap(), 1, "a refusal is no attempt");
    }

    #[test]
    fn incomplete_tasks_are_discarded() {
        let cp = CheckpointStore::new();
        cp.record_frame(1, 0, Bytes::from_static(b"partial"));
        cp.discard_incomplete(1);
        assert_eq!(cp.total_bytes(), 0);
        // Discard after completion is a no-op.
        cp.record_frame(2, 0, Bytes::from_static(b"done"));
        cp.mark_complete(2);
        cp.discard_incomplete(2);
        assert_eq!(cp.recover_frames(2).len(), 1);
    }

    #[test]
    fn double_complete_is_idempotent() {
        let cp = CheckpointStore::new();
        cp.record_frame(0, 1, Bytes::from_static(b"stored"));
        cp.mark_complete(0);
        cp.mark_complete(0);
        assert_eq!(cp.completed_count(), 1);
        assert_eq!(cp.recover_frames(0).len(), 1);
    }

    #[test]
    fn concurrent_recording() {
        let cp = CheckpointStore::new();
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let cp = cp.clone();
                std::thread::spawn(move || {
                    for i in 0..100 {
                        cp.record_frame(t, i % 4, Bytes::from(vec![0u8; 10]));
                    }
                    cp.mark_complete(t);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cp.completed_count(), 8);
        assert_eq!(cp.total_bytes(), 8 * 100 * 10);
    }

    fn sealed_run(n: usize) -> SealedRun {
        let mut w = crate::spillfmt::RunWriter::new(64, false, true);
        for i in 0..n {
            w.push(&Record::from_strs(&format!("k{i:04}"), "v"));
        }
        let (image, index) = w.finish();
        SealedRun::mem(image, index)
    }

    #[test]
    fn merge_checkpoint_round_trips() {
        let cp = CheckpointStore::new();
        cp.register_merge_runs(1, vec![sealed_run(10), sealed_run(10)]);
        assert!(cp.merge_checkpoint(1).is_none(), "no frontier recorded yet");
        cp.record_merge_frontier(
            1,
            vec![2, 0],
            Some(Bytes::from_static(b"k0005")),
            6,
            Bytes::from_static(b"framed"),
        );
        let m = cp.merge_checkpoint(1).expect("checkpoint recorded");
        assert_eq!(m.runs.len(), 2);
        assert_eq!(m.frontier, vec![2, 0]);
        assert_eq!(m.last_key.as_deref(), Some(b"k0005".as_slice()));
        assert_eq!(m.groups_emitted, 6);
        assert_eq!(&m.partial_output[..], b"framed");
        cp.clear_merge(1);
        assert!(cp.merge_checkpoint(1).is_none(), "cleared");
    }

    #[test]
    fn merge_checkpoint_invalidated_by_bad_frontier_and_reregistration() {
        let cp = CheckpointStore::new();
        cp.register_merge_runs(0, vec![sealed_run(4)]);
        // A frontier whose length disagrees with the run count is dropped.
        cp.record_merge_frontier(0, vec![1, 1], None, 0, Bytes::new());
        assert!(cp.merge_checkpoint(0).is_none());
        cp.record_merge_frontier(0, vec![1], None, 2, Bytes::new());
        assert!(cp.merge_checkpoint(0).is_some());
        // Re-registering (fresh attempt) wipes stale progress.
        cp.register_merge_runs(0, vec![sealed_run(4)]);
        assert!(cp.merge_checkpoint(0).is_none());
    }
}
