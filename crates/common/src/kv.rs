//! Key-value records — the unit of data in every engine.
//!
//! DataMPI is a *key-value pair based* communication library: O tasks emit
//! `(key, value)` pairs which the library partitions, moves, and groups for
//! A tasks. Hadoop's map/reduce and Spark's pair-RDD operations speak the
//! same language, so one record type serves all three engines.

use std::fmt;

use bytes::Bytes;

/// A single serialized key-value record.
///
/// Keys and values are opaque byte strings; typed views are layered on top
/// via [`crate::ser::Writable`]. `Bytes` keeps cloning cheap (reference
/// counted) which matters when a record is fanned out to several consumers
/// (e.g. replicated DFS writes).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Record {
    /// Serialized key bytes.
    pub key: Bytes,
    /// Serialized value bytes.
    pub value: Bytes,
}

impl Record {
    /// Builds a record from anything convertible to `Bytes`.
    pub fn new(key: impl Into<Bytes>, value: impl Into<Bytes>) -> Self {
        Record {
            key: key.into(),
            value: value.into(),
        }
    }

    /// Builds a record from UTF-8 string slices (one copy per field,
    /// straight into the shared storage — no intermediate `Vec`).
    pub fn from_strs(key: &str, value: &str) -> Self {
        Record {
            key: Bytes::copy_from_slice(key.as_bytes()),
            value: Bytes::copy_from_slice(value.as_bytes()),
        }
    }

    /// Total payload size in bytes (key + value, excluding framing).
    pub fn payload_len(&self) -> usize {
        self.key.len() + self.value.len()
    }

    /// Size of this record when framed on disk or on the wire:
    /// `varint(key_len) + varint(value_len) + key + value`.
    pub fn framed_len(&self) -> usize {
        crate::varint::encoded_len(self.key.len() as u64)
            + crate::varint::encoded_len(self.value.len() as u64)
            + self.payload_len()
    }

    /// Key as UTF-8, replacing invalid sequences (debug/display helper).
    pub fn key_utf8(&self) -> String {
        String::from_utf8_lossy(&self.key).into_owned()
    }

    /// Value as UTF-8, replacing invalid sequences (debug/display helper).
    pub fn value_utf8(&self) -> String {
        String::from_utf8_lossy(&self.value).into_owned()
    }
}

impl fmt::Debug for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Record({:?} => {:?})",
            self.key_utf8(),
            self.value_utf8()
        )
    }
}

/// An ordered batch of records plus cached aggregate sizes.
///
/// Batches are the granularity at which the executing runtimes move data
/// between tasks and at which the simulator charges I/O costs, so the
/// aggregate byte count is maintained incrementally instead of recomputed.
#[derive(Clone, Debug, Default)]
pub struct RecordBatch {
    records: Vec<Record>,
    payload_bytes: u64,
    framed_bytes: u64,
}

impl RecordBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty batch with room for `n` records.
    pub fn with_capacity(n: usize) -> Self {
        RecordBatch {
            records: Vec::with_capacity(n),
            payload_bytes: 0,
            framed_bytes: 0,
        }
    }

    /// Appends a record, updating cached sizes.
    pub fn push(&mut self, rec: Record) {
        self.payload_bytes += rec.payload_len() as u64;
        self.framed_bytes += rec.framed_len() as u64;
        self.records.push(rec);
    }

    /// Moves all records out of `other` into `self`.
    pub fn append(&mut self, other: &mut RecordBatch) {
        self.payload_bytes += other.payload_bytes;
        self.framed_bytes += other.framed_bytes;
        self.records.append(&mut other.records);
        other.payload_bytes = 0;
        other.framed_bytes = 0;
    }

    /// Gives back the room reserved for records that never came.
    pub fn shrink_to_fit(&mut self) {
        self.records.shrink_to_fit();
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if the batch holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Sum of key+value payload bytes.
    pub fn payload_bytes(&self) -> u64 {
        self.payload_bytes
    }

    /// Sum of framed record sizes (what the batch occupies on disk/wire).
    pub fn framed_bytes(&self) -> u64 {
        self.framed_bytes
    }

    /// Immutable view of the records.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Consumes the batch, yielding its records.
    pub fn into_records(self) -> Vec<Record> {
        self.records
    }

    /// Sorts records by raw key bytes (then value for determinism).
    /// Unstable sort: the `(key, value)` comparator already fixes the
    /// order of every distinguishable pair (see
    /// [`crate::compare::sort_records`]'s invariant note).
    pub fn sort_by_key(&mut self) {
        self.records
            .sort_unstable_by(|a, b| a.key.cmp(&b.key).then_with(|| a.value.cmp(&b.value)));
    }

    /// Iterates over the records.
    pub fn iter(&self) -> std::slice::Iter<'_, Record> {
        self.records.iter()
    }
}

impl FromIterator<Record> for RecordBatch {
    fn from_iter<T: IntoIterator<Item = Record>>(iter: T) -> Self {
        let mut batch = RecordBatch::new();
        for r in iter {
            batch.push(r);
        }
        batch
    }
}

impl IntoIterator for RecordBatch {
    type Item = Record;
    type IntoIter = std::vec::IntoIter<Record>;
    fn into_iter(self) -> Self::IntoIter {
        self.records.into_iter()
    }
}

impl<'a> IntoIterator for &'a RecordBatch {
    type Item = &'a Record;
    type IntoIter = std::slice::Iter<'a, Record>;
    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_sizes() {
        let r = Record::from_strs("key", "value");
        assert_eq!(r.payload_len(), 8);
        // one varint byte per length for short fields
        assert_eq!(r.framed_len(), 10);
    }

    #[test]
    fn batch_tracks_sizes_incrementally() {
        let mut b = RecordBatch::new();
        assert!(b.is_empty());
        b.push(Record::from_strs("a", "1"));
        b.push(Record::from_strs("bb", "22"));
        assert_eq!(b.len(), 2);
        assert_eq!(b.payload_bytes(), 6);
        let expected_framed: u64 = b.iter().map(|r| r.framed_len() as u64).sum();
        assert_eq!(b.framed_bytes(), expected_framed);
    }

    #[test]
    fn append_moves_and_zeroes_source() {
        let mut a: RecordBatch = [Record::from_strs("x", "1")].into_iter().collect();
        let mut b: RecordBatch = [Record::from_strs("y", "2")].into_iter().collect();
        a.append(&mut b);
        assert_eq!(a.len(), 2);
        assert!(b.is_empty());
        assert_eq!(b.payload_bytes(), 0);
        assert_eq!(b.framed_bytes(), 0);
    }

    #[test]
    fn sort_by_key_orders_lexicographically() {
        let mut b: RecordBatch = [
            Record::from_strs("pear", "3"),
            Record::from_strs("apple", "1"),
            Record::from_strs("apple", "0"),
            Record::from_strs("fig", "2"),
        ]
        .into_iter()
        .collect();
        b.sort_by_key();
        let keys: Vec<String> = b.iter().map(|r| r.key_utf8()).collect();
        assert_eq!(keys, ["apple", "apple", "fig", "pear"]);
        // ties broken by value for determinism
        assert_eq!(b.records()[0].value_utf8(), "0");
    }

    #[test]
    fn debug_is_readable() {
        let r = Record::from_strs("k", "v");
        assert_eq!(format!("{r:?}"), "Record(\"k\" => \"v\")");
    }
}
