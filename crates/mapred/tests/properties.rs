//! Property-based tests of the MapReduce engine: arbitrary corpora,
//! sort-buffer sizes and combiner settings must always yield the reference
//! result with key-sorted reducer outputs.

use std::collections::BTreeMap;

use bytes::Bytes;
use proptest::prelude::*;

use dmpi_common::compare::is_sorted;
use dmpi_common::group::{Collector, GroupedValues};
use dmpi_common::ser::Writable;
use dmpi_mapred::{run_mapreduce, MapRedConfig};

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

fn reference(inputs: &[Bytes]) -> BTreeMap<Vec<u8>, u64> {
    let mut m = BTreeMap::new();
    for split in inputs {
        for line in split.split(|&b| b == b'\n') {
            for w in line.split(|&b| b == b' ').filter(|w| !w.is_empty()) {
                *m.entry(w.to_vec()).or_default() += 1;
            }
        }
    }
    m
}

fn corpus_strategy() -> impl Strategy<Value = Vec<Bytes>> {
    proptest::collection::vec(
        proptest::collection::vec("[a-d]{1,3}", 0..16)
            .prop_map(|words| Bytes::from(words.join(" "))),
        0..8,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mapreduce_matches_reference(
        inputs in corpus_strategy(),
        reducers in 1usize..8,
        sort_buffer in prop_oneof![Just(32usize), Just(512), Just(1 << 20)],
        combiner in any::<bool>(),
    ) {
        let config = MapRedConfig::new(reducers)
            .with_sort_buffer(sort_buffer)
            .with_combiner(combiner);
        let expected = reference(&inputs);
        let out = run_mapreduce(
            &config,
            inputs,
            wc_map,
            if combiner { Some(&wc_reduce) } else { None },
            wc_reduce,
        )
        .unwrap();
        // Reducer outputs are key-sorted (the MapReduce contract).
        for p in &out.partitions {
            prop_assert!(is_sorted(p.records()));
        }
        let got: BTreeMap<Vec<u8>, u64> = out
            .into_single_batch()
            .into_records()
            .into_iter()
            .map(|r| (r.key.to_vec(), u64::from_bytes(&r.value).unwrap()))
            .collect();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn combiner_never_changes_results_only_volume(inputs in corpus_strategy()) {
        let on = run_mapreduce(
            &MapRedConfig::new(3).with_sort_buffer(64),
            inputs.clone(),
            wc_map,
            Some(&wc_reduce),
            wc_reduce,
        )
        .unwrap();
        let off = run_mapreduce(
            &MapRedConfig::new(3).with_sort_buffer(64).with_combiner(false),
            inputs,
            wc_map,
            None,
            wc_reduce,
        )
        .unwrap();
        prop_assert!(on.stats.materialized_bytes <= off.stats.materialized_bytes);
        let canon = |o: dmpi_mapred::MrJobOutput| -> BTreeMap<Vec<u8>, u64> {
            o.into_single_batch()
                .into_records()
                .into_iter()
                .map(|r| (r.key.to_vec(), u64::from_bytes(&r.value).unwrap()))
                .collect()
        };
        prop_assert_eq!(canon(on), canon(off));
    }

    #[test]
    fn shuffle_moves_exactly_the_materialized_single_spill_bytes(
        inputs in corpus_strategy(),
    ) {
        // With a huge sort buffer (single spill) and no combiner, the
        // shuffle must move exactly what the maps materialized.
        let out = run_mapreduce(
            &MapRedConfig::new(4).with_combiner(false),
            inputs,
            wc_map,
            None,
            wc_reduce,
        )
        .unwrap();
        prop_assert_eq!(out.stats.shuffle_bytes, out.stats.materialized_bytes);
    }
}
