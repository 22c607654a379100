//! Property-based tests for the common crate's foundations: the
//! serialization, codec, comparator, and partitioner invariants every
//! engine depends on.

use proptest::prelude::*;

use bytes::Bytes;
use dmpi_common::codec;
use dmpi_common::compare::{is_sorted, merge_sorted_runs, sort_records};
use dmpi_common::group::{BatchCollector, Collector};
use dmpi_common::kv::{Record, RecordBatch};
use dmpi_common::partition::{HashPartitioner, Partitioner, RangePartitioner};
use dmpi_common::ser::{self, Writable};
use dmpi_common::varint;

proptest! {
    #[test]
    fn varint_round_trips(v in any::<u64>()) {
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, v);
        let (decoded, n) = varint::read_u64(&buf).unwrap();
        prop_assert_eq!(decoded, v);
        prop_assert_eq!(n, buf.len());
        prop_assert_eq!(n, varint::encoded_len(v));
    }

    #[test]
    fn signed_varint_round_trips(v in any::<i64>()) {
        let mut buf = Vec::new();
        varint::write_i64(&mut buf, v);
        prop_assert_eq!(varint::read_i64(&buf).unwrap().0, v);
    }

    #[test]
    fn varint_decoding_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..24)) {
        let _ = varint::read_u64(&bytes);
    }

    #[test]
    fn codec_round_trips(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let compressed = codec::compress(&data);
        let decompressed = codec::decompress(&compressed).unwrap();
        prop_assert_eq!(decompressed, data);
    }

    #[test]
    fn codec_rejects_corruption_without_panicking(
        data in proptest::collection::vec(any::<u8>(), 1..512),
        flip in any::<u8>(),
        pos in any::<prop::sample::Index>(),
    ) {
        let mut compressed = codec::compress(&data);
        let i = pos.index(compressed.len());
        compressed[i] ^= flip;
        // Any outcome but a panic is fine; if it decodes, length must obey
        // the header.
        if let Ok(out) = codec::decompress(&compressed) {
            let declared = codec::uncompressed_len(&compressed).unwrap();
            prop_assert_eq!(out.len() as u64, declared);
        }
    }

    #[test]
    fn record_framing_round_trips(
        pairs in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 0..64),
             proptest::collection::vec(any::<u8>(), 0..64)),
            0..32,
        )
    ) {
        let batch: RecordBatch = pairs
            .iter()
            .map(|(k, v)| Record::new(k.clone(), v.clone()))
            .collect();
        let framed = ser::frame_batch(&batch);
        prop_assert_eq!(framed.len() as u64, batch.framed_bytes());
        let decoded = ser::unframe_batch(&framed).unwrap();
        prop_assert_eq!(decoded.records(), batch.records());
    }

    #[test]
    fn framing_decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = ser::unframe_batch(&bytes);
    }

    #[test]
    fn writable_string_round_trips(s in ".{0,64}") {
        let bytes = s.to_bytes();
        prop_assert_eq!(String::from_bytes(&bytes).unwrap(), s);
    }

    #[test]
    fn writable_f64_vec_round_trips(v in proptest::collection::vec(any::<f64>(), 0..32)) {
        let bytes = v.to_bytes();
        let back = Vec::<f64>::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back.len(), v.len());
        for (a, b) in back.iter().zip(&v) {
            prop_assert!(a == b || (a.is_nan() && b.is_nan()));
        }
    }

    #[test]
    fn hash_partitioner_is_total_and_stable(
        keys in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..32), 1..64),
        parts in 1usize..64,
    ) {
        let p = HashPartitioner::new(parts);
        for k in &keys {
            let a = p.partition(k);
            prop_assert!(a < parts);
            prop_assert_eq!(a, p.partition(k));
        }
    }

    #[test]
    fn range_partitioner_is_monotone(
        mut keys in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..16), 2..64),
        parts in 1usize..16,
    ) {
        let p = RangePartitioner::from_sample(keys.clone(), parts);
        keys.sort();
        let assigned: Vec<usize> = keys.iter().map(|k| p.partition(k)).collect();
        prop_assert!(assigned.windows(2).all(|w| w[0] <= w[1]));
        prop_assert!(assigned.iter().all(|&a| a < p.num_partitions()));
    }

    #[test]
    fn sorting_is_a_permutation_and_ordered(
        pairs in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 0..16), any::<u8>()),
            0..64,
        )
    ) {
        let mut records: Vec<Record> = pairs
            .iter()
            .map(|(k, v)| Record::new(k.clone(), vec![*v]))
            .collect();
        let mut expected = records.clone();
        sort_records(&mut records);
        prop_assert!(is_sorted(&records));
        // Permutation check: sort both multiset representations.
        let canon = |v: &[Record]| {
            let mut c: Vec<(Vec<u8>, Vec<u8>)> =
                v.iter().map(|r| (r.key.to_vec(), r.value.to_vec())).collect();
            c.sort();
            c
        };
        expected.sort_by(|a, b| a.key.cmp(&b.key).then(a.value.cmp(&b.value)));
        prop_assert_eq!(canon(&records), canon(&expected));
    }

    #[test]
    fn merge_equals_global_sort(
        runs in proptest::collection::vec(
            proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..8), 0..16),
            0..6,
        )
    ) {
        let runs: Vec<Vec<Record>> = runs
            .into_iter()
            .map(|keys| {
                let mut v: Vec<Record> =
                    keys.into_iter().map(|k| Record::new(k, vec![])).collect();
                sort_records(&mut v);
                v
            })
            .collect();
        let mut all: Vec<Record> = runs.iter().flatten().cloned().collect();
        let merged = merge_sorted_runs(runs);
        sort_records(&mut all);
        prop_assert_eq!(merged, all);
    }

    /// Sharing a pair's handles instead of copying its bytes changes
    /// nothing a reader of the batch can see: not the order, not the
    /// byte counts.
    #[test]
    fn collect_shared_interleaves_with_collect_like_collect_alone(
        ops in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 0..48),
             proptest::collection::vec(any::<u8>(), 0..48),
             any::<bool>()),
            0..64,
        )
    ) {
        let mut mixed = BatchCollector::default();
        let mut copied = BatchCollector::default();
        for (key, value, shared) in &ops {
            if *shared {
                mixed.collect_shared(&Bytes::from(key.clone()), &Bytes::from(value.clone()));
            } else {
                mixed.collect(key, value);
            }
            copied.collect(key, value);
        }
        let (mixed, copied) = (mixed.into_batch(), copied.into_batch());
        prop_assert_eq!(mixed.records(), copied.records());
        prop_assert_eq!(mixed.payload_bytes(), copied.payload_bytes());
        prop_assert_eq!(mixed.framed_bytes(), copied.framed_bytes());
    }
}
