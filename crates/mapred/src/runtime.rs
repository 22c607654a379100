//! The executing MapReduce runtime: sort/spill/merge, materialized
//! shuffle, reduce-side merge.
//!
//! This runtime really performs Hadoop's data movement: map output is
//! sorted and **materialized** (counted as disk traffic), reducers copy
//! their segments, merge them, and reduce. Comparing its counters against
//! the DataMPI runtime's on identical jobs quantifies exactly the
//! overheads the paper attributes to Hadoop.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use bytes::Bytes;

use dmpi_common::compare::{merge_sorted_runs, sort_records};
use dmpi_common::group::{group_sorted, BatchCollector, Collector, GroupedValues};
use dmpi_common::kv::{Record, RecordBatch};
use dmpi_common::partition::{HashPartitioner, Partitioner};
use dmpi_common::ser;
use dmpi_common::{Error, Result};

use crate::config::MapRedConfig;

/// Aggregate counters of a MapReduce job.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MrStats {
    /// Map tasks executed.
    pub map_tasks: u64,
    /// Records emitted by map functions (before the combiner).
    pub map_output_records: u64,
    /// Records after combining (what is actually materialized).
    pub combined_records: u64,
    /// Spill events (each is a sort + disk write).
    pub spills: u64,
    /// Bytes written to local disk for spills and final map outputs.
    pub materialized_bytes: u64,
    /// Bytes copied in the shuffle.
    pub shuffle_bytes: u64,
    /// Reduce tasks executed.
    pub reduce_tasks: u64,
    /// Key groups reduced.
    pub groups: u64,
    /// Map-task attempts that failed and were re-executed (Hadoop-style
    /// retry from the input split).
    pub map_task_retries: u64,
    /// Reduce-task attempts that failed and were re-executed (the shuffle
    /// refetches from the persistent map outputs).
    pub reduce_task_retries: u64,
    /// Bytes written or fetched by failed attempts and then discarded:
    /// spill output of dying map attempts plus shuffle input of dying
    /// reduce attempts. The re-execution analogue of
    /// `datampi::JobStats::wasted_bytes`.
    pub wasted_bytes: u64,
}

/// Result of a MapReduce job.
#[derive(Clone, Debug)]
pub struct MrJobOutput {
    /// Output per reducer partition.
    pub partitions: Vec<RecordBatch>,
    /// Aggregate counters.
    pub stats: MrStats,
}

impl MrJobOutput {
    /// Flattens reducer outputs in partition order.
    pub fn into_single_batch(self) -> RecordBatch {
        let mut out = RecordBatch::new();
        for mut p in self.partitions {
            out.append(&mut p);
        }
        out
    }
}

/// One partitioned, sorted, materialized spill image.
struct Spill {
    /// Per-partition framed, key-sorted record bytes.
    segments: Vec<Vec<u8>>,
}

/// The map-side sort buffer (`io.sort.mb` analogue).
pub struct SortSpillBuffer<'c> {
    partitioner: HashPartitioner,
    buffer: Vec<Record>,
    buffered_bytes: usize,
    sort_buffer: usize,
    spills: Vec<Spill>,
    combiner: Option<&'c CombinerFn<'c>>,
    stats: MrStats,
}

/// Type of combiner callbacks.
pub type CombinerFn<'a> = dyn Fn(&GroupedValues, &mut dyn Collector) + Sync + 'a;

impl<'c> SortSpillBuffer<'c> {
    /// Creates a buffer for `partitions` reducers.
    pub fn new(
        partitions: usize,
        sort_buffer: usize,
        combiner: Option<&'c CombinerFn<'c>>,
    ) -> Self {
        SortSpillBuffer {
            partitioner: HashPartitioner::new(partitions),
            buffer: Vec::new(),
            buffered_bytes: 0,
            sort_buffer,
            spills: Vec::new(),
            combiner,
            stats: MrStats::default(),
        }
    }

    /// Bytes already materialized by spills. On a failed attempt this is
    /// the work thrown away (the retry starts over from the input split).
    pub fn materialized_so_far(&self) -> u64 {
        self.stats.materialized_bytes
    }

    /// Emits one record into the buffer, spilling if full.
    pub fn emit(&mut self, record: Record) {
        self.buffered_bytes += record.framed_len();
        self.stats.map_output_records += 1;
        self.buffer.push(record);
        if self.buffered_bytes >= self.sort_buffer {
            self.spill();
        }
    }

    /// Sorts and materializes the current buffer as one spill.
    fn spill(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        self.stats.spills += 1;
        let records = std::mem::take(&mut self.buffer);
        self.buffered_bytes = 0;
        let parts = self.partitioner.num_partitions();
        // Bucket by partition, sort within each, combine, frame.
        let mut buckets: Vec<Vec<Record>> = (0..parts).map(|_| Vec::new()).collect();
        for r in records {
            buckets[self.partitioner.partition(&r.key)].push(r);
        }
        let mut segments = Vec::with_capacity(parts);
        for mut bucket in buckets {
            sort_records(&mut bucket);
            let bucket = match self.combiner {
                Some(combiner) => {
                    let mut out = BatchCollector::default();
                    for g in group_sorted(bucket) {
                        combiner(&g, &mut out);
                    }
                    let mut combined = out.into_batch().into_records();
                    // A well-formed combiner preserves key order, but do
                    // not trust user code with the merge invariant.
                    sort_records(&mut combined);
                    combined
                }
                None => bucket,
            };
            self.stats.combined_records += bucket.len() as u64;
            let batch: RecordBatch = bucket.into_iter().collect();
            let image = ser::frame_batch(&batch);
            self.stats.materialized_bytes += image.len() as u64;
            segments.push(image);
        }
        self.spills.push(Spill { segments });
    }

    /// Finishes the task: final spill plus merge of all spills into one
    /// partitioned map-output image (counting the merge's write).
    pub fn finish(mut self) -> Result<(Vec<Vec<u8>>, MrStats)> {
        self.spill();
        let parts = self.partitioner.num_partitions();
        if self.spills.len() == 1 {
            // Single spill: it already is the map output.
            let spill = self.spills.pop().expect("one spill");
            return Ok((spill.segments, self.stats));
        }
        let mut merged = Vec::with_capacity(parts);
        for p in 0..parts {
            let mut runs = Vec::with_capacity(self.spills.len());
            for spill in &self.spills {
                runs.push(ser::unframe_batch(&spill.segments[p])?.into_records());
            }
            let records = merge_sorted_runs(runs);
            let batch: RecordBatch = records.into_iter().collect();
            let image = ser::frame_batch(&batch);
            // The merge re-writes the data (Hadoop's multi-pass merge).
            self.stats.materialized_bytes += image.len() as u64;
            merged.push(image);
        }
        Ok((merged, self.stats))
    }
}

/// Runs a full MapReduce job over in-memory splits.
///
/// `map` is called per split; `reduce` per key group; `combiner` (if given
/// and enabled in `config`) runs on every spill.
pub fn run_mapreduce<M, R>(
    config: &MapRedConfig,
    inputs: Vec<Bytes>,
    map: M,
    combiner: Option<&CombinerFn<'_>>,
    reduce: R,
) -> Result<MrJobOutput>
where
    M: Fn(usize, &[u8], &mut dyn Collector) + Send + Sync,
    R: Fn(&GroupedValues, &mut dyn Collector) + Send + Sync,
{
    config.validate()?;
    let parts = config.num_reducers;
    let combiner = if config.use_combiner { combiner } else { None };

    // ---- Map phase ----
    // The queue holds (task, attempt): Hadoop's fault tolerance re-executes
    // a failed task from its input split, up to `max_attempts` times.
    let queue: Mutex<VecDeque<(usize, u32)>> =
        Mutex::new((0..inputs.len()).map(|t| (t, 0)).collect());
    let map_outputs: Mutex<Vec<Option<Vec<Vec<u8>>>>> = Mutex::new(vec![None; inputs.len()]);
    let stats_acc: Mutex<MrStats> = Mutex::new(MrStats::default());
    let failed = AtomicBool::new(false);
    let failure: Mutex<Option<Error>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for _ in 0..config.map_slots.min(inputs.len().max(1)) {
            scope.spawn(|| {
                loop {
                    if failed.load(Ordering::SeqCst) {
                        break;
                    }
                    let Some((task, attempt)) = queue.lock().expect("queue").pop_front() else {
                        break;
                    };

                    // A task failure either requeues the task or, past the
                    // attempt budget, fails the job.
                    let on_task_failure = |reason: String| {
                        if attempt + 1 < config.max_attempts {
                            let mut q = queue.lock().expect("queue");
                            q.push_back((task, attempt + 1));
                            stats_acc.lock().expect("stats").map_task_retries += 1;
                            false
                        } else {
                            *failure.lock().expect("failure") = Some(Error::JobAborted(format!(
                                "map task {task} failed {} attempts: {reason}",
                                config.max_attempts
                            )));
                            failed.store(true, Ordering::SeqCst);
                            true
                        }
                    };

                    // Injected fault: fail the first `failures` attempts.
                    if let Some(fault) = config.fail_map_task {
                        if fault.task_index == task && attempt < fault.failures {
                            if on_task_failure("injected fault".into()) {
                                break;
                            }
                            continue;
                        }
                    }

                    let mut buffer = SortSpillBuffer::new(parts, config.sort_buffer, combiner);
                    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        struct Adapter<'a, 'c>(&'a mut SortSpillBuffer<'c>);
                        impl Collector for Adapter<'_, '_> {
                            fn collect(&mut self, key: &[u8], value: &[u8]) {
                                self.0.emit(Record::new(key.to_vec(), value.to_vec()));
                            }
                        }
                        let mut adapter = Adapter(&mut buffer);
                        map(task, &inputs[task], &mut adapter);
                    }));
                    if run.is_err() {
                        // Spills the dying attempt already wrote are
                        // discarded: the retry starts from the raw split.
                        stats_acc.lock().expect("stats").wasted_bytes +=
                            buffer.materialized_so_far();
                        if on_task_failure("user code panicked".into()) {
                            break;
                        }
                        continue;
                    }
                    match buffer.finish() {
                        Ok((segments, s)) => {
                            let mut acc = stats_acc.lock().expect("stats");
                            acc.map_tasks += 1;
                            acc.map_output_records += s.map_output_records;
                            acc.combined_records += s.combined_records;
                            acc.spills += s.spills;
                            acc.materialized_bytes += s.materialized_bytes;
                            map_outputs.lock().expect("outputs")[task] = Some(segments);
                        }
                        Err(e) => {
                            *failure.lock().expect("failure") = Some(e);
                            failed.store(true, Ordering::SeqCst);
                            break;
                        }
                    }
                }
            });
        }
    });
    if failed.load(Ordering::SeqCst) {
        return Err(failure
            .lock()
            .expect("failure")
            .take()
            .unwrap_or_else(|| Error::fault_msg("map phase failed")));
    }

    let map_outputs = map_outputs.into_inner().expect("outputs lock");
    let map_outputs: Vec<Vec<Vec<u8>>> = map_outputs
        .into_iter()
        .map(|o| o.expect("all map tasks completed"))
        .collect();

    // ---- Shuffle + reduce phase ----
    // Like maps, reducers are retried up to `max_attempts`; because map
    // outputs are materialized, a retry just refetches and re-reduces.
    let reduce_queue: Mutex<VecDeque<(usize, u32)>> =
        Mutex::new((0..parts).map(|p| (p, 0)).collect());
    let reduce_outputs: Mutex<Vec<Option<RecordBatch>>> = Mutex::new(vec![None; parts]);
    let map_outputs = &map_outputs;
    let stats_acc = &stats_acc;
    let failed = &failed;
    let failure = &failure;
    let reduce = &reduce;

    std::thread::scope(|scope| {
        for _ in 0..config.reduce_slots.min(parts) {
            scope.spawn(|| {
                loop {
                    if failed.load(Ordering::SeqCst) {
                        break;
                    }
                    let Some((p, attempt)) = reduce_queue.lock().expect("rq").pop_front() else {
                        break;
                    };
                    let on_task_failure = |reason: String| {
                        if attempt + 1 < config.max_attempts {
                            reduce_queue.lock().expect("rq").push_back((p, attempt + 1));
                            stats_acc.lock().expect("stats").reduce_task_retries += 1;
                            false
                        } else {
                            *failure.lock().expect("failure") = Some(Error::JobAborted(format!(
                                "reduce task {p} failed {} attempts: {reason}",
                                config.max_attempts
                            )));
                            failed.store(true, Ordering::SeqCst);
                            true
                        }
                    };
                    if let Some(fault) = config.fail_reduce_task {
                        if fault.task_index == p && attempt < fault.failures {
                            if on_task_failure("injected fault".into()) {
                                break;
                            }
                            continue;
                        }
                    }
                    let work = || -> Result<(RecordBatch, u64, u64)> {
                        // Shuffle: copy this partition's segment from every
                        // map output (the HTTP fetch).
                        let mut shuffle_bytes = 0u64;
                        let mut runs = Vec::with_capacity(map_outputs.len());
                        for output in map_outputs {
                            let segment = &output[p];
                            shuffle_bytes += segment.len() as u64;
                            runs.push(ser::unframe_batch(segment)?.into_records());
                        }
                        // Reduce-side merge + group + reduce.
                        let merged = merge_sorted_runs(runs);
                        let mut collector = BatchCollector::default();
                        let mut groups = 0u64;
                        for g in group_sorted(merged) {
                            groups += 1;
                            reduce(&g, &mut collector);
                        }
                        Ok((collector.into_batch(), shuffle_bytes, groups))
                    };
                    match work() {
                        Ok((batch, shuffle_bytes, groups)) => {
                            let mut acc = stats_acc.lock().expect("stats");
                            acc.reduce_tasks += 1;
                            acc.shuffle_bytes += shuffle_bytes;
                            acc.groups += groups;
                            reduce_outputs.lock().expect("ro")[p] = Some(batch);
                        }
                        Err(e) => {
                            // The attempt's shuffle fetch is discarded; the
                            // retry copies the same segments again.
                            let refetch: u64 = map_outputs.iter().map(|o| o[p].len() as u64).sum();
                            stats_acc.lock().expect("stats").wasted_bytes += refetch;
                            if on_task_failure(e.to_string()) {
                                break;
                            }
                        }
                    }
                }
            });
        }
    });
    if failed.load(Ordering::SeqCst) {
        return Err(failure
            .lock()
            .expect("failure")
            .take()
            .unwrap_or_else(|| Error::fault_msg("reduce phase failed")));
    }

    let partitions: Vec<RecordBatch> = reduce_outputs
        .into_inner()
        .expect("ro lock")
        .into_iter()
        .map(|o| o.expect("all reducers completed"))
        .collect();
    let stats = *stats_acc.lock().expect("stats");
    Ok(MrJobOutput { partitions, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmpi_common::ser::Writable;

    fn wc_map(_t: usize, split: &[u8], out: &mut dyn Collector) {
        for line in split.split(|&b| b == b'\n') {
            for w in line.split(|&b| b == b' ').filter(|w| !w.is_empty()) {
                out.collect(w, &1u64.to_bytes());
            }
        }
    }

    fn wc_reduce(g: &GroupedValues, out: &mut dyn Collector) {
        let total: u64 = g.values.iter().map(|v| u64::from_bytes(v).unwrap()).sum();
        out.collect(&g.key, &total.to_bytes());
    }

    fn counts(out: MrJobOutput) -> std::collections::BTreeMap<String, u64> {
        out.into_single_batch()
            .into_records()
            .into_iter()
            .map(|r| (r.key_utf8(), u64::from_bytes(&r.value).unwrap()))
            .collect()
    }

    #[test]
    fn wordcount_end_to_end() {
        let config = MapRedConfig::new(3);
        let inputs = vec![Bytes::from_static(b"a b a\nc"), Bytes::from_static(b"b a")];
        let out = run_mapreduce(&config, inputs, wc_map, Some(&wc_reduce), wc_reduce).unwrap();
        assert_eq!(out.stats.map_tasks, 2);
        assert_eq!(out.stats.reduce_tasks, 3);
        let c = counts(out);
        assert_eq!(c["a"], 3);
        assert_eq!(c["b"], 2);
        assert_eq!(c["c"], 1);
    }

    #[test]
    fn tiny_sort_buffer_multi_spill_correctness() {
        let config = MapRedConfig::new(2)
            .with_sort_buffer(64)
            .with_combiner(false);
        let inputs: Vec<Bytes> = (0..4)
            .map(|t| {
                Bytes::from(
                    (0..50)
                        .map(|i| format!("key{:02}", (i * 7 + t) % 30))
                        .collect::<Vec<_>>()
                        .join(" "),
                )
            })
            .collect();
        let out = run_mapreduce(&config, inputs, wc_map, None, wc_reduce).unwrap();
        assert!(out.stats.spills > 4, "tiny buffer must spill repeatedly");
        let c = counts(out);
        let total: u64 = c.values().sum();
        assert_eq!(total, 200);
    }

    #[test]
    fn combiner_shrinks_materialized_data() {
        let inputs: Vec<Bytes> = (0..2)
            .map(|_| Bytes::from("x y ".repeat(2000).into_bytes()))
            .collect();
        let with = run_mapreduce(
            &MapRedConfig::new(2).with_sort_buffer(1 << 14),
            inputs.clone(),
            wc_map,
            Some(&wc_reduce),
            wc_reduce,
        )
        .unwrap();
        let without = run_mapreduce(
            &MapRedConfig::new(2)
                .with_sort_buffer(1 << 14)
                .with_combiner(false),
            inputs,
            wc_map,
            None,
            wc_reduce,
        )
        .unwrap();
        assert!(with.stats.combined_records < without.stats.combined_records);
        assert!(with.stats.materialized_bytes < without.stats.materialized_bytes / 10);
        assert_eq!(counts(with), counts(without));
    }

    #[test]
    fn reducer_outputs_are_key_sorted() {
        let config = MapRedConfig::new(2);
        let inputs = vec![Bytes::from_static(b"pear apple zebra mango apple")];
        let out = run_mapreduce(&config, inputs, wc_map, None, wc_reduce).unwrap();
        for p in &out.partitions {
            let keys: Vec<_> = p.iter().map(|r| r.key.clone()).collect();
            let mut sorted = keys.clone();
            sorted.sort();
            assert_eq!(keys, sorted);
        }
    }

    #[test]
    fn shuffle_bytes_match_materialized_single_spill() {
        // With one spill per map and no combiner, everything materialized
        // is shuffled exactly once.
        let config = MapRedConfig::new(4).with_combiner(false);
        let inputs = vec![Bytes::from_static(b"q w e r t y u i o p")];
        let out = run_mapreduce(&config, inputs, wc_map, None, wc_reduce).unwrap();
        assert_eq!(out.stats.shuffle_bytes, out.stats.materialized_bytes);
    }

    #[test]
    fn panicking_map_task_exhausts_retries_then_fails() {
        let config = MapRedConfig::new(1).with_max_attempts(3);
        let inputs = vec![Bytes::from_static(b"boom")];
        let map = |_t: usize, _s: &[u8], _o: &mut dyn Collector| panic!("bad");
        let err = run_mapreduce(&config, inputs, map, None, wc_reduce).unwrap_err();
        assert!(matches!(err, Error::JobAborted(_)), "got {err:?}");
    }

    #[test]
    fn transient_map_failure_is_retried_and_job_succeeds() {
        use crate::config::MrFaultSpec;
        let config = MapRedConfig::new(2).with_fault(MrFaultSpec {
            task_index: 1,
            failures: 2, // fails twice, succeeds on the third attempt
        });
        let inputs = vec![
            Bytes::from_static(b"a b"),
            Bytes::from_static(b"b c"),
            Bytes::from_static(b"c a"),
        ];
        let out = run_mapreduce(&config, inputs, wc_map, None, wc_reduce).unwrap();
        assert_eq!(out.stats.map_task_retries, 2);
        assert_eq!(out.stats.map_tasks, 3);
        let c = counts(out);
        assert_eq!(c["a"], 2);
        assert_eq!(c["b"], 2);
        assert_eq!(c["c"], 2);
    }

    #[test]
    fn transient_reduce_failure_is_retried() {
        use crate::config::MrFaultSpec;
        let config = MapRedConfig::new(3).with_reduce_fault(MrFaultSpec {
            task_index: 1,
            failures: 2,
        });
        let inputs = vec![Bytes::from_static(b"a b c d e f")];
        let out = run_mapreduce(&config, inputs, wc_map, None, wc_reduce).unwrap();
        assert_eq!(out.stats.reduce_task_retries, 2);
        assert_eq!(out.stats.reduce_tasks, 3);
        let total: u64 = counts(out).values().sum();
        assert_eq!(total, 6);
    }

    #[test]
    fn dying_map_attempt_counts_wasted_spill_bytes() {
        use std::sync::atomic::AtomicU32;
        // A tiny sort buffer forces a spill on every record; the first
        // attempt spills twice and then panics, so those bytes are waste.
        let calls = AtomicU32::new(0);
        let map = |_t: usize, split: &[u8], out: &mut dyn Collector| {
            let attempt = calls.fetch_add(1, Ordering::SeqCst);
            for (i, w) in split.split(|b| *b == b' ').enumerate() {
                if attempt == 0 && i == 2 {
                    panic!("dies after two spills");
                }
                out.collect(w, b"1");
            }
        };
        let config = MapRedConfig::new(1)
            .with_sort_buffer(1)
            .with_max_attempts(2);
        let inputs = vec![Bytes::from_static(b"aa bb cc dd")];
        let out = run_mapreduce(&config, inputs, map, None, wc_reduce).unwrap();
        assert_eq!(out.stats.map_task_retries, 1);
        assert!(out.stats.wasted_bytes > 0, "discarded spills are waste");
        assert_eq!(counts(out).len(), 4);
    }

    #[test]
    fn injected_reduce_fault_fires_before_fetch_so_wastes_nothing() {
        use crate::config::MrFaultSpec;
        let config = MapRedConfig::new(2).with_reduce_fault(MrFaultSpec {
            task_index: 0,
            failures: 1,
        });
        let inputs = vec![Bytes::from_static(b"a b c d")];
        let out = run_mapreduce(&config, inputs, wc_map, None, wc_reduce).unwrap();
        assert_eq!(out.stats.reduce_task_retries, 1);
        assert_eq!(
            out.stats.wasted_bytes, 0,
            "pre-fetch injected faults discard nothing"
        );
    }

    #[test]
    fn permanent_reduce_fault_aborts() {
        use crate::config::MrFaultSpec;
        let config = MapRedConfig::new(2)
            .with_max_attempts(2)
            .with_reduce_fault(MrFaultSpec {
                task_index: 0,
                failures: 9,
            });
        let inputs = vec![Bytes::from_static(b"x y")];
        let err = run_mapreduce(&config, inputs, wc_map, None, wc_reduce).unwrap_err();
        assert!(matches!(err, Error::JobAborted(_)));
    }

    #[test]
    fn permanent_fault_beyond_budget_aborts() {
        use crate::config::MrFaultSpec;
        let config = MapRedConfig::new(1)
            .with_max_attempts(2)
            .with_fault(MrFaultSpec {
                task_index: 0,
                failures: 5,
            });
        let inputs = vec![Bytes::from_static(b"x")];
        let err = run_mapreduce(&config, inputs, wc_map, None, wc_reduce).unwrap_err();
        assert!(matches!(err, Error::JobAborted(_)));
    }

    #[test]
    fn empty_input_empty_output() {
        let config = MapRedConfig::new(2);
        let out = run_mapreduce(&config, vec![], wc_map, None, wc_reduce).unwrap();
        assert_eq!(out.stats.map_tasks, 0);
        assert!(out.partitions.iter().all(|p| p.is_empty()));
    }

    #[test]
    fn matches_datampi_results() {
        // The same WordCount on both engines must agree — the cross-engine
        // invariant the paper's comparison relies on.
        let inputs: Vec<Bytes> = (0..5)
            .map(|i| Bytes::from(format!("w{} w{} common", i, i % 2)))
            .collect();
        let mr = run_mapreduce(
            &MapRedConfig::new(4),
            inputs.clone(),
            wc_map,
            Some(&wc_reduce),
            wc_reduce,
        )
        .unwrap();
        let dm =
            datampi::run_job(&datampi::JobConfig::new(4), inputs, wc_map, wc_reduce, None).unwrap();
        let mr_counts = counts(mr);
        let dm_counts: std::collections::BTreeMap<String, u64> = dm
            .into_single_batch()
            .into_records()
            .into_iter()
            .map(|r| (r.key_utf8(), u64::from_bytes(&r.value).unwrap()))
            .collect();
        assert_eq!(mr_counts, dm_counts);
    }
}
