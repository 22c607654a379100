//! Key-value grouping abstractions shared by every engine: emission
//! surfaces (`Collector`), grouped values, and the two grouping
//! disciplines (key-sorted vs hash-clustered).
//!
//! DataMPI's A tasks, Hadoop's reducers and Spark's `reduceByKey` all
//! consume `(key, [values])` groups produced from a stream of records;
//! defining the surface once keeps the three engines' user functions
//! interchangeable, which the integration tests exploit to check that all
//! engines compute identical results.

use bytes::Bytes;

use crate::kv::{Record, RecordBatch};

/// Emission surface handed to O functions (wraps the partitioned buffer).
pub trait Collector {
    /// Emits one key-value pair.
    fn collect(&mut self, key: &[u8], value: &[u8]);

    /// Emits a pair whose key and value are already shared handles, such
    /// as a group's own key and values: an A function that passes its
    /// input through unchanged (Sort's identity) calls this instead of
    /// [`collect`](Self::collect). A collector that stores records may
    /// keep the handles rather than copy their bytes, which pins the
    /// buffer they slice for as long as the record lives. Computed
    /// output goes through `collect`. The default copies.
    fn collect_shared(&mut self, key: &Bytes, value: &Bytes) {
        self.collect(key, value);
    }
}

/// A key and all values received for it at one A partition.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GroupedValues {
    /// The group's key.
    pub key: Bytes,
    /// All values emitted for the key, in arrival (or sorted) order.
    pub values: Vec<Bytes>,
}

impl GroupedValues {
    /// Number of values in the group.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the group carries no values (cannot normally happen).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Groups a key-sorted run of records by key in a single pass: equal
/// keys must be adjacent, which sorting guarantees.
pub fn group_sorted(records: Vec<Record>) -> Vec<GroupedValues> {
    let mut groups: Vec<GroupedValues> = Vec::new();
    for rec in records {
        match groups.last_mut() {
            Some(g) if g.key == rec.key => g.values.push(rec.value),
            _ => groups.push(GroupedValues {
                key: rec.key,
                values: vec![rec.value],
            }),
        }
    }
    groups
}

/// Clusters unsorted records by key using a hash map: groups come out in
/// order of each key's first appearance and hold their values in arrival
/// order, which keeps the output deterministic for a given arrival order.
pub fn group_hashed(records: Vec<Record>) -> Vec<GroupedValues> {
    let mut index: crate::hashing::FnvHashMap<Bytes, usize> = Default::default();
    let mut groups: Vec<GroupedValues> = Vec::new();
    for rec in records {
        match index.get(&rec.key) {
            Some(&i) => groups[i].values.push(rec.value),
            None => {
                index.insert(rec.key.clone(), groups.len());
                groups.push(GroupedValues {
                    key: rec.key,
                    values: vec![rec.value],
                });
            }
        }
    }
    groups
}

/// Most output bytes a chunk gathers before it closes. Large enough that
/// the per-chunk allocation is noise against the pairs it carries, small
/// enough that a consumer holding one copied record pins little besides
/// it. A record added by `collect_shared` pins the buffer its caller's
/// handles slice instead: for the rank body, a received frame (up to
/// 1 MiB) or a decoded spill block (64 KiB).
const CHUNK_BYTES: usize = 256 * 1024;

/// A collector writing into a [`RecordBatch`] — the A-side output surface
/// and a convenient test double for O functions.
///
/// Collecting a pair allocates nothing: its bytes are appended to the
/// open **chunk**, a reused gather buffer. When the chunk would outgrow
/// 256 KiB (`CHUNK_BYTES`) it closes — one shared allocation of exactly the
/// gathered size, out of which every pair's [`Record`] is cut as two
/// slices — and the buffer starts over. A pair is never split: one
/// larger than a chunk closes what is open and gets a chunk to itself.
/// The buffer grows with what is collected, so a job with a few KiB of
/// output holds a few KiB.
///
/// [`collect_shared`](Collector::collect_shared) copies nothing: it
/// closes the open chunk, so records stay in collection order, and keeps
/// the two handles as the record.
#[derive(Default)]
pub struct BatchCollector {
    /// Records cut out of closed chunks.
    batch: RecordBatch,
    /// The open chunk: key bytes then value bytes of each pair in
    /// `pairs`, back to back.
    chunk: Vec<u8>,
    /// Key and value length of each pair in the open chunk.
    pairs: Vec<(usize, usize)>,
}

impl BatchCollector {
    /// A collector whose batch has room for `records` records, for
    /// callers that know how many pairs are coming.
    pub fn with_capacity(records: usize) -> Self {
        BatchCollector {
            batch: RecordBatch::with_capacity(records),
            ..BatchCollector::default()
        }
    }

    /// Closes the open chunk: copies it into one shared allocation and
    /// cuts its pairs out of that as records.
    fn close_chunk(&mut self) {
        if self.pairs.is_empty() {
            return;
        }
        let shared = Bytes::copy_from_slice(&self.chunk);
        let mut at = 0;
        for &(key_len, value_len) in &self.pairs {
            let (mid, end) = (at + key_len, at + key_len + value_len);
            self.batch.push(Record {
                key: shared.slice(at..mid),
                value: shared.slice(mid..end),
            });
            at = end;
        }
        self.chunk.clear();
        self.pairs.clear();
    }

    /// Consumes the collector, yielding everything collected, with no
    /// unused capacity left on the batch.
    pub fn into_batch(mut self) -> RecordBatch {
        self.close_chunk();
        self.batch.shrink_to_fit();
        self.batch
    }
}

impl Collector for BatchCollector {
    fn collect(&mut self, key: &[u8], value: &[u8]) {
        let need = key.len() + value.len();
        if !self.pairs.is_empty() && self.chunk.len() + need > CHUNK_BYTES {
            self.close_chunk();
        }
        self.chunk.extend_from_slice(key);
        self.chunk.extend_from_slice(value);
        self.pairs.push((key.len(), value.len()));
    }

    fn collect_shared(&mut self, key: &Bytes, value: &Bytes) {
        self.close_chunk();
        self.batch.push(Record {
            key: key.clone(),
            value: value.clone(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(k: &str, v: &str) -> Record {
        Record::from_strs(k, v)
    }

    #[test]
    fn group_sorted_merges_adjacent_keys() {
        let groups = group_sorted(vec![
            rec("a", "1"),
            rec("a", "2"),
            rec("b", "3"),
            rec("c", "4"),
            rec("c", "5"),
        ]);
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0].len(), 2);
        assert_eq!(groups[1].len(), 1);
        assert_eq!(groups[2].values[1], Bytes::from_static(b"5"));
    }

    #[test]
    fn group_hashed_handles_interleaved_keys() {
        let groups = group_hashed(vec![
            rec("x", "1"),
            rec("y", "2"),
            rec("x", "3"),
            rec("y", "4"),
        ]);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].key, Bytes::from_static(b"x"));
        assert_eq!(groups[0].values.len(), 2);
        assert_eq!(groups[1].values.len(), 2);
    }

    #[test]
    fn empty_input_empty_groups() {
        assert!(group_sorted(vec![]).is_empty());
        assert!(group_hashed(vec![]).is_empty());
        let g = GroupedValues {
            key: Bytes::new(),
            values: vec![],
        };
        assert!(g.is_empty());
    }

    #[test]
    fn batch_collector_collects() {
        let mut c = BatchCollector::default();
        c.collect(b"k", b"v");
        c.collect(b"k2", b"v2");
        c.collect(b"", b"");
        let batch = c.into_batch();
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.records()[0], rec("k", "v"));
        assert_eq!(batch.records()[1], rec("k2", "v2"));
        assert_eq!(batch.records()[2], rec("", ""));
        // The pairs of one chunk sit back to back in one allocation.
        let (first, second) = (&batch.records()[0], &batch.records()[1]);
        assert_eq!(
            first.key.as_ref().as_ptr() as usize + 2,
            second.key.as_ref().as_ptr() as usize
        );
        assert_eq!(
            second.key.as_ref().as_ptr() as usize + 2,
            second.value.as_ref().as_ptr() as usize
        );
    }

    /// The collector this one replaced: one allocation per record.
    fn per_record(pairs: &[(Vec<u8>, Vec<u8>)]) -> RecordBatch {
        pairs
            .iter()
            .map(|(k, v)| Record::new(k.clone(), v.clone()))
            .collect()
    }

    fn assert_same_batch(got: &RecordBatch, expected: &RecordBatch) {
        assert_eq!(got.records(), expected.records());
        assert_eq!(got.payload_bytes(), expected.payload_bytes());
        assert_eq!(got.framed_bytes(), expected.framed_bytes());
    }

    #[test]
    fn arena_output_equals_per_record_output_across_chunk_boundaries() {
        // Pair sizes chosen so that chunks close with a pair that would
        // have straddled the boundary, with one that fills the chunk
        // exactly, and around empty keys, values and pairs.
        let mut pairs: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        let mut byte = 0u8;
        let mut fill = |len: usize| -> Vec<u8> {
            (0..len)
                .map(|_| {
                    byte = byte.wrapping_mul(31).wrapping_add(7);
                    byte
                })
                .collect()
        };
        pairs.push((fill(CHUNK_BYTES / 2), fill(CHUNK_BYTES / 2))); // fills chunk 1 exactly
        pairs.push((Vec::new(), Vec::new())); // opens chunk 2 with nothing
        pairs.push((fill(CHUNK_BYTES - 10), Vec::new()));
        pairs.push((Vec::new(), fill(11))); // would straddle: opens chunk 3
        for i in 0..4000usize {
            pairs.push((fill(i % 97), fill((i * 7) % 131)));
        }
        pairs.push((fill(3), fill(CHUNK_BYTES + 5))); // larger than a chunk
        pairs.push((fill(1), fill(1)));
        pairs.push((fill(CHUNK_BYTES * 2), Vec::new())); // oversized and last
        let mut c = BatchCollector::with_capacity(16);
        for (k, v) in &pairs {
            c.collect(k, v);
        }
        let got = c.into_batch();
        assert_same_batch(&got, &per_record(&pairs));
        // No pair was split: key and value are adjacent in one allocation.
        for r in got.records() {
            assert_eq!(
                r.key.as_ref().as_ptr() as usize + r.key.len(),
                r.value.as_ref().as_ptr() as usize
            );
        }
    }

    #[test]
    fn collect_shared_keeps_the_handles_it_is_given() {
        let frame = Bytes::from(b"key-1value-1".to_vec());
        let (key, value) = (frame.slice(0..5), frame.slice(5..12));
        let mut c = BatchCollector::default();
        c.collect(b"a", b"1");
        c.collect_shared(&key, &value);
        c.collect(b"b", b"2");
        let batch = c.into_batch();
        let expected: RecordBatch = [rec("a", "1"), rec("key-1", "value-1"), rec("b", "2")]
            .into_iter()
            .collect();
        assert_same_batch(&batch, &expected);
        let shared = &batch.records()[1];
        assert_eq!(shared.key.as_ptr(), key.as_ptr());
        assert_eq!(shared.value.as_ptr(), value.as_ptr());
    }
}
