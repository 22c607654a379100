//! Iteration mode — one of DataMPI's "diversified" communication modes.
//!
//! Iterative algorithms (K-means is the paper's example) run the same job
//! shape repeatedly over the same input. In MapReduce mode every
//! iteration would re-read and re-deserialize its splits; Iteration mode
//! keeps the **deserialized objects resident** in worker memory across
//! jobs, so each subsequent iteration starts from parsed data — DataMPI's
//! answer to Spark's RDD cache, without lineage (the resident data is the
//! source of truth; a restarted job reloads from the DFS). An iteration
//! run against a [`CheckpointStore`] restarts like any job: running it
//! again against the same store is the next attempt, over the same
//! resident splits, so a restart never re-parses them.

use std::sync::Arc;

use bytes::Bytes;

use dmpi_common::group::{Collector, GroupedValues};
use dmpi_common::Result;

use crate::checkpoint::CheckpointStore;
use crate::config::JobConfig;
use crate::runtime::{run_job_core, JobOutput};

/// Deserialized splits held resident across iterations.
///
/// # Examples
/// ```
/// use datampi::IterationCache;
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
/// ```
pub struct IterationCache<T> {
    splits: Vec<Arc<Vec<T>>>,
}

impl<T: Send + Sync> IterationCache<T> {
    /// Parses every input split once with `parse` and pins the results.
    pub fn load<F>(inputs: &[Bytes], mut parse: F) -> Self
    where
        F: FnMut(&[u8]) -> Vec<T>,
    {
        IterationCache {
            splits: inputs.iter().map(|b| Arc::new(parse(b))).collect(),
        }
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

    /// Borrow one resident split.
    pub fn split(&self, i: usize) -> &Arc<Vec<T>> {
        &self.splits[i]
    }

    /// Iterates over the resident elements across all splits.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.splits.iter().flat_map(|s| s.iter())
    }
}

/// Runs one iteration over a resident cache: the O function receives the
/// parsed objects of its split directly. `checkpoint` works as in
/// [`run_job`](crate::run_job): with a store, the run is the store's next
/// attempt and recovers what earlier attempts banked.
pub fn run_iteration<T, O, A>(
    config: &JobConfig,
    cache: &IterationCache<T>,
    o_fn: O,
    a_fn: A,
    checkpoint: Option<&CheckpointStore>,
) -> Result<JobOutput>
where
    T: Send + Sync,
    O: Fn(usize, &[T], &mut dyn Collector) + Send + Sync,
    A: Fn(&GroupedValues, &mut dyn Collector) + Send + Sync,
{
    let attempt = checkpoint.map_or(Ok(0), |cp| cp.begin_attempt(config.ranks))?;
    let splits = &cache.splits;
    let o_fn = |t: usize, out: &mut dyn Collector| o_fn(t, &splits[t], out);
    run_job_core(config, splits.len(), &o_fn, &a_fn, checkpoint, attempt).map_err(|e| e.0)
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

    /// Loads `inputs` through `parse_words`, counting the parse calls.
    fn counted_load(inputs: &[Bytes], parses: &mut usize) -> IterationCache<Vec<u8>> {
        IterationCache::load(inputs, |split| {
            *parses += 1;
            parse_words(split)
        })
    }

    #[test]
    fn cache_parses_each_split_exactly_once() {
        let inputs = vec![Bytes::from_static(b"a b a"), Bytes::from_static(b"b c")];
        let mut parses = 0;
        let cache = counted_load(&inputs, &mut parses);
        assert_eq!(cache.num_splits(), 2);
        assert_eq!(cache.len(), 5);
        assert!(!cache.is_empty());
        assert_eq!(parses, 2);

        // Five iterations: parse count must not move.
        let config = JobConfig::new(2);
        for _ in 0..5 {
            let out = run_iteration(&config, &cache, count_o, sum_a, None).unwrap();
            assert_eq!(out.stats.records_emitted, 5);
        }
        assert_eq!(parses, 2, "no re-deserialization");
    }

    #[test]
    fn iteration_results_match_byte_mode() {
        let inputs = vec![Bytes::from_static(b"x y x z"), Bytes::from_static(b"z z y")];
        let cache = IterationCache::load(&inputs, parse_words);
        let config = JobConfig::new(3);
        let iter_out = run_iteration(&config, &cache, count_o, sum_a, None).unwrap();
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
        let out = run_iteration(&JobConfig::new(2), &cache, count_o, sum_a, None).unwrap();
        assert_eq!(out.stats.o_tasks_run, 0);
    }

    #[test]
    fn iteration_checkpoint_restart_recovers_completed_tasks() {
        use crate::fault::FaultPlan;

        let inputs = vec![
            Bytes::from_static(b"p q"),
            Bytes::from_static(b"q r"),
            Bytes::from_static(b"r s"),
        ];
        let mut parses = 0;
        let cache = counted_load(&inputs, &mut parses);
        let cp = crate::checkpoint::CheckpointStore::new();
        let config = JobConfig::new(1).with_faults(FaultPlan::new(9).fail_o_task(2, 0));
        let err = run_iteration(&config, &cache, count_o, sum_a, Some(&cp)).unwrap_err();
        assert!(err.fault_cause().expect("cause").is_injected());
        assert_eq!(cp.completed_count(), 2, "splits 0-1 checkpointed");
        // The same iteration against the same store is attempt 1.
        let out = run_iteration(&config, &cache, count_o, sum_a, Some(&cp)).unwrap();
        assert_eq!(out.stats.o_tasks_recovered, 2);
        assert_eq!(out.stats.o_tasks_run, 1);
        assert_eq!(parses, 3, "restarts never re-parse");

        let clean = run_iteration(&JobConfig::new(1), &cache, count_o, sum_a, None).unwrap();
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
                None,
            )
            .unwrap();
            let emitted = out.stats.records_emitted;
            assert_eq!(emitted, 3 - round);
        }
    }
}
