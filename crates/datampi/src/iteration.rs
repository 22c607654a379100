//! Iteration mode — one of DataMPI's "diversified" communication modes.
//!
//! Iterative algorithms (K-means is the paper's example) run the same job
//! shape repeatedly over the same input. In Common/MapReduce mode every
//! iteration would re-read and re-deserialize its splits; Iteration mode
//! keeps the **deserialized objects resident** in worker memory across
//! jobs, so each subsequent iteration starts from parsed data — DataMPI's
//! answer to Spark's RDD cache, without lineage (the resident data is the
//! source of truth; a restarted job reloads from the DFS).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;

use dmpi_common::group::{Collector, GroupedValues};
use dmpi_common::Result;

use crate::checkpoint::CheckpointStore;
use crate::config::JobConfig;
use crate::runtime::{run_job_core, JobOutput};
use crate::supervisor::{supervise_job_generic, RetryPolicy};

/// Deserialized splits held resident across iterations.
///
/// # Examples
/// ```
/// use datampi::iteration::IterationCache;
///
/// let inputs = vec![bytes::Bytes::from_static(b"1 2 3")];
/// let cache: IterationCache<u32> = IterationCache::load(&inputs, |split| {
///     std::str::from_utf8(split)
///         .unwrap()
///         .split(' ')
///         .map(|n| n.parse().unwrap())
///         .collect()
/// });
/// assert_eq!(cache.len(), 3);
/// assert_eq!(cache.parse_count(), 1); // never grows across iterations
/// ```
pub struct IterationCache<T> {
    splits: Vec<Arc<Vec<T>>>,
    loads: AtomicU64,
}

impl<T: Send + Sync> IterationCache<T> {
    /// Parses every input split once with `parse` and pins the results.
    pub fn load<F>(inputs: &[Bytes], parse: F) -> Self
    where
        F: Fn(&[u8]) -> Vec<T>,
    {
        let cache = IterationCache {
            splits: inputs.iter().map(|b| Arc::new(parse(b))).collect(),
            loads: AtomicU64::new(0),
        };
        cache.loads.store(inputs.len() as u64, Ordering::SeqCst);
        cache
    }

    /// Number of resident splits.
    pub fn num_splits(&self) -> usize {
        self.splits.len()
    }

    /// Total resident elements across splits.
    pub fn len(&self) -> usize {
        self.splits.iter().map(|s| s.len()).sum()
    }

    /// True if nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many splits have been parsed since construction — stays equal
    /// to `num_splits()` no matter how many iterations run, which is the
    /// mode's entire point.
    pub fn parse_count(&self) -> u64 {
        self.loads.load(Ordering::SeqCst)
    }

    /// Borrow one resident split.
    pub fn split(&self, i: usize) -> &Arc<Vec<T>> {
        &self.splits[i]
    }

    /// Iterates over the resident elements across all splits.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.splits.iter().flat_map(|s| s.iter())
    }

    /// Cheap handles to the resident splits (Arc clones).
    fn handles(&self) -> Vec<Arc<Vec<T>>> {
        self.splits.clone()
    }
}

/// Runs one iteration over a resident cache: the O function receives the
/// parsed objects of its split directly.
pub fn run_iteration<T, O, A>(
    config: &JobConfig,
    cache: &IterationCache<T>,
    o_fn: O,
    a_fn: A,
) -> Result<JobOutput>
where
    T: Send + Sync,
    O: Fn(usize, &[T], &mut dyn Collector) + Send + Sync,
    A: Fn(&GroupedValues, &mut dyn Collector) + Send + Sync,
{
    run_iteration_attempt(config, cache, o_fn, a_fn, None, 0)
}

/// Runs one iteration identifying the attempt number, optionally against a
/// [`CheckpointStore`] shared across attempts — the restartable form of
/// [`run_iteration`].
pub fn run_iteration_attempt<T, O, A>(
    config: &JobConfig,
    cache: &IterationCache<T>,
    o_fn: O,
    a_fn: A,
    checkpoint: Option<&CheckpointStore>,
    attempt: u32,
) -> Result<JobOutput>
where
    T: Send + Sync,
    O: Fn(usize, &[T], &mut dyn Collector) + Send + Sync,
    A: Fn(&GroupedValues, &mut dyn Collector) + Send + Sync,
{
    let o_fn =
        move |task: usize, split: &Arc<Vec<T>>, out: &mut dyn Collector| o_fn(task, split, out);
    run_job_core(config, &cache.handles(), &o_fn, &a_fn, checkpoint, attempt).map_err(|e| e.0)
}

/// Runs one iteration under the bounded-retry supervisor: faulted attempts
/// restart from checkpoint (when the config enables checkpointing) while
/// the resident cache — the mode's entire point — is never re-parsed.
pub fn supervise_iteration<T, O, A>(
    config: &JobConfig,
    policy: &RetryPolicy,
    cache: &IterationCache<T>,
    o_fn: O,
    a_fn: A,
) -> Result<JobOutput>
where
    T: Send + Sync,
    O: Fn(usize, &[T], &mut dyn Collector) + Send + Sync,
    A: Fn(&GroupedValues, &mut dyn Collector) + Send + Sync,
{
    let handles = cache.handles();
    supervise_job_generic(
        config,
        policy,
        &handles,
        move |task, split: &Arc<Vec<T>>, out: &mut dyn Collector| o_fn(task, split, out),
        a_fn,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmpi_common::ser::Writable;

    fn parse_words(split: &[u8]) -> Vec<Vec<u8>> {
        split
            .split(|&b| b == b' ')
            .filter(|w| !w.is_empty())
            .map(<[u8]>::to_vec)
            .collect()
    }

    fn count_o(_t: usize, words: &[Vec<u8>], out: &mut dyn Collector) {
        for w in words {
            out.collect(w, &1u64.to_bytes());
        }
    }

    fn sum_a(g: &GroupedValues, out: &mut dyn Collector) {
        let total: u64 = g.values.iter().map(|v| u64::from_bytes(v).unwrap()).sum();
        out.collect(&g.key, &total.to_bytes());
    }

    #[test]
    fn cache_parses_each_split_exactly_once() {
        let inputs = vec![Bytes::from_static(b"a b a"), Bytes::from_static(b"b c")];
        let cache = IterationCache::load(&inputs, parse_words);
        assert_eq!(cache.num_splits(), 2);
        assert_eq!(cache.len(), 5);
        assert!(!cache.is_empty());
        assert_eq!(cache.parse_count(), 2);

        // Five iterations: parse count must not move.
        let config = JobConfig::new(2);
        for _ in 0..5 {
            let out = run_iteration(&config, &cache, count_o, sum_a).unwrap();
            assert_eq!(out.stats.records_emitted, 5);
        }
        assert_eq!(cache.parse_count(), 2, "no re-deserialization");
    }

    #[test]
    fn iteration_results_match_byte_mode() {
        let inputs = vec![Bytes::from_static(b"x y x z"), Bytes::from_static(b"z z y")];
        let cache = IterationCache::load(&inputs, parse_words);
        let config = JobConfig::new(3);
        let iter_out = run_iteration(&config, &cache, count_o, sum_a).unwrap();
        let byte_out = crate::run_job(
            &config,
            inputs,
            |_t, split: &[u8], out: &mut dyn Collector| {
                for w in split.split(|&b| b == b' ').filter(|w| !w.is_empty()) {
                    out.collect(w, &1u64.to_bytes());
                }
            },
            sum_a,
            None,
        )
        .unwrap();
        let canon = |o: JobOutput| {
            o.into_single_batch()
                .into_records()
                .into_iter()
                .map(|r| (r.key.to_vec(), r.value.to_vec()))
                .collect::<std::collections::BTreeSet<_>>()
        };
        assert_eq!(canon(iter_out), canon(byte_out));
    }

    #[test]
    fn empty_cache_runs_cleanly() {
        let cache: IterationCache<Vec<u8>> = IterationCache::load(&[], parse_words);
        assert!(cache.is_empty());
        let out = run_iteration(&JobConfig::new(2), &cache, count_o, sum_a).unwrap();
        assert_eq!(out.stats.o_tasks_run, 0);
    }

    #[test]
    fn supervised_iteration_survives_transient_fault_without_reparsing() {
        use crate::fault::FaultPlan;

        let inputs = vec![
            Bytes::from_static(b"a b a"),
            Bytes::from_static(b"b c"),
            Bytes::from_static(b"c c a"),
        ];
        let cache = IterationCache::load(&inputs, parse_words);
        let config = JobConfig::new(1)
            .with_checkpointing(true)
            .with_faults(FaultPlan::new(5).fail_o_task(2, 0));
        let policy = RetryPolicy::new(3).with_backoff(std::time::Duration::ZERO);
        let out = supervise_iteration(&config, &policy, &cache, count_o, sum_a).unwrap();
        assert_eq!(out.stats.attempts, 2);
        assert!(out.stats.o_tasks_recovered > 0, "tasks 0-1 replayed");
        assert_eq!(cache.parse_count(), 3, "retries never re-deserialize");

        let clean = run_iteration(&JobConfig::new(1), &cache, count_o, sum_a).unwrap();
        let canon = |o: JobOutput| {
            o.into_single_batch()
                .into_records()
                .into_iter()
                .map(|r| (r.key.to_vec(), r.value.to_vec()))
                .collect::<std::collections::BTreeSet<_>>()
        };
        assert_eq!(canon(out), canon(clean));
    }

    #[test]
    fn iteration_checkpoint_restart_recovers_completed_tasks() {
        use crate::fault::FaultPlan;

        let inputs = vec![
            Bytes::from_static(b"p q"),
            Bytes::from_static(b"q r"),
            Bytes::from_static(b"r s"),
        ];
        let cache = IterationCache::load(&inputs, parse_words);
        let cp = crate::checkpoint::CheckpointStore::new();
        let failing = JobConfig::new(1)
            .with_checkpointing(true)
            .with_faults(FaultPlan::new(9).fail_o_task(2, 0));
        let err =
            run_iteration_attempt(&failing, &cache, count_o, sum_a, Some(&cp), 0).unwrap_err();
        assert!(err.fault_cause().expect("cause").is_injected());
        assert_eq!(cp.completed_count(), 2, "splits 0-1 checkpointed");
        let out = run_iteration_attempt(&failing, &cache, count_o, sum_a, Some(&cp), 1).unwrap();
        assert_eq!(out.stats.o_tasks_recovered, 2);
        assert_eq!(out.stats.o_tasks_run, 1);
    }

    #[test]
    fn iteration_state_can_vary_per_run() {
        // The per-iteration closure can capture fresh per-iteration state
        // (K-means' centroids) while the cached data stays fixed.
        let inputs = vec![Bytes::from_static(b"a b c d")];
        let cache = IterationCache::load(&inputs, parse_words);
        let config = JobConfig::new(2);
        for round in 0..3u64 {
            let out = run_iteration(
                &config,
                &cache,
                move |_t, words: &[Vec<u8>], out: &mut dyn Collector| {
                    // Emit only words whose first byte is above a moving
                    // threshold.
                    for w in words {
                        if w[0] as u64 > b'a' as u64 + round {
                            out.collect(w, b"1");
                        }
                    }
                },
                |g, out| out.collect(&g.key, &g.values[0]),
            )
            .unwrap();
            let emitted = out.stats.records_emitted;
            assert_eq!(emitted, 3 - round);
        }
    }
}
