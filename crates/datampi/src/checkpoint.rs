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
    /// Attempts begun against this store.
    attempts: u32,
    /// The mesh width the first attempt ran at; every later one must match.
    width: Option<usize>,
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
}
