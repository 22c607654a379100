//! Key-value grouping abstractions shared by every engine: emission
//! surfaces (`Collector`), grouped values, and the two grouping
//! disciplines (key-sorted vs hash-clustered).
//!
//! DataMPI's A tasks, Hadoop's reducers and Spark's `reduceByKey` all
//! consume `(key, [values])` groups produced from a stream of records;
//! defining the surface once keeps the three engines' user functions
//! interchangeable, which the integration tests exploit to check that all
//! engines compute identical results.

use std::ops::Range;

use bytes::Bytes;

use crate::kv::{Record, RecordBatch};

/// Emission surface handed to O functions (wraps the partitioned buffer).
pub trait Collector {
    /// Emits one key-value pair.
    fn collect(&mut self, key: &[u8], value: &[u8]);
}

/// A key and all values received for it at one A partition.
#[derive(Clone, Debug, PartialEq, Eq)]
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

/// Groups a run of records by key. If the records are key-sorted the
/// grouping is a single pass; for unsorted (Common-mode) input, equal keys
/// are still adjacent only if pre-grouped, so this helper always handles
/// the general case by keeping a map for non-adjacent keys being
/// impossible after sorting — the runtime sorts or hash-clusters first.
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

/// Incremental hash clustering (Common mode): groups come out in order of
/// each key's first appearance and hold their values in arrival order,
/// which keeps the output deterministic for a given arrival order.
#[derive(Default)]
pub struct HashGrouper {
    index: crate::hashing::FnvHashMap<Bytes, usize>,
    groups: Vec<GroupedValues>,
}

impl HashGrouper {
    /// Adds one owned record.
    pub fn push(&mut self, rec: Record) {
        match self.index.get(&rec.key) {
            Some(&i) => self.groups[i].values.push(rec.value),
            None => {
                self.index.insert(rec.key.clone(), self.groups.len());
                self.groups.push(GroupedValues {
                    key: rec.key,
                    values: vec![rec.value],
                });
            }
        }
    }

    /// Adds the pair whose key and value are the given ranges of `frame`,
    /// as slices sharing the frame's storage. The key is looked up as
    /// plain bytes and sliced only when it opens a group.
    pub fn push_slices(&mut self, frame: &Bytes, key: Range<usize>, value: Range<usize>) {
        match self.index.get(&frame[key.clone()]) {
            Some(&i) => self.groups[i].values.push(frame.slice(value)),
            None => {
                let key = frame.slice(key);
                self.index.insert(key.clone(), self.groups.len());
                self.groups.push(GroupedValues {
                    key,
                    values: vec![frame.slice(value)],
                });
            }
        }
    }

    /// The groups, in first-appearance order.
    pub fn finish(self) -> Vec<GroupedValues> {
        self.groups
    }
}

/// Clusters unsorted records by key using a hash map (Common mode); see
/// [`HashGrouper`] for the order.
pub fn group_hashed(records: Vec<Record>) -> Vec<GroupedValues> {
    let mut grouper = HashGrouper::default();
    for rec in records {
        grouper.push(rec);
    }
    grouper.finish()
}

/// A simple collector writing into a [`RecordBatch`] — the A-side output
/// surface and a convenient test double for O functions.
#[derive(Default)]
pub struct BatchCollector {
    /// Collected records.
    pub batch: RecordBatch,
    /// Where a pair is joined before its one allocation is made.
    joined: Vec<u8>,
}

impl Collector for BatchCollector {
    fn collect(&mut self, key: &[u8], value: &[u8]) {
        // One shared allocation per record, sliced into key and value.
        self.joined.clear();
        self.joined.extend_from_slice(key);
        self.joined.extend_from_slice(value);
        let shared = Bytes::copy_from_slice(&self.joined);
        self.batch.push(Record {
            key: shared.slice(..key.len()),
            value: shared.slice(key.len()..),
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
        assert_eq!(c.batch.len(), 3);
        assert_eq!(c.batch.records()[0], rec("k", "v"));
        assert_eq!(c.batch.records()[1], rec("k2", "v2"));
        assert_eq!(c.batch.records()[2], rec("", ""));
        // Key and value of one record share one allocation.
        let r = &c.batch.records()[1];
        assert_eq!(
            r.key.as_ref().as_ptr() as usize + 2,
            r.value.as_ref().as_ptr() as usize
        );
    }

    #[test]
    fn grouper_agrees_on_slices_and_records() {
        let records = vec![rec("x", "1"), rec("y", "2"), rec("x", "3"), rec("", "")];
        let mut framed = Vec::new();
        for r in &records {
            crate::ser::frame_record(&mut framed, r);
        }
        let frame = Bytes::from(framed);
        let mut grouper = HashGrouper::default();
        for span in crate::ser::framed_kv_spans(&frame) {
            let span = span.unwrap();
            grouper.push_slices(&frame, span.key(), span.value());
        }
        assert_eq!(grouper.finish(), group_hashed(records));
    }
}
