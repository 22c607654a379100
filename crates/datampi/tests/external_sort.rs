//! External-memory sort: with an input many times larger than the
//! memory budget, the A side must complete through disk-backed spill
//! runs while its resident footprint stays pinned near the budget.

use std::collections::BTreeMap;

use bytes::Bytes;

use datampi::store::{GroupStream, PartitionStore};
use datampi::{run_job, JobConfig, SpillConfig, WireCompression};
use dmpi_common::group::{Collector, GroupedValues};
use dmpi_common::ser::Writable;
use dmpi_common::{ser, Record};

fn scratch_dir(label: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("dmpi-extsort-{label}-{}", std::process::id()))
}

/// Deterministic pseudo-random record stream: keys collide across the
/// whole input, values pad each record to a meaningful size.
fn gen_records(n: usize, seed: u64) -> Vec<Record> {
    let mut x = seed | 1;
    (0..n)
        .map(|i| {
            // xorshift64
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            Record {
                key: Bytes::from(format!("k{:06}", x % 5_000)),
                value: Bytes::from(format!("v{i:08}-{}", "p".repeat((x % 23) as usize))),
            }
        })
        .collect()
}

fn grouped(records: impl IntoIterator<Item = Record>) -> BTreeMap<Bytes, Vec<Bytes>> {
    let mut m: BTreeMap<Bytes, Vec<Bytes>> = BTreeMap::new();
    for r in records {
        m.entry(r.key).or_default().push(r.value);
    }
    // Value order within a group depends on merge tiebreak details;
    // compare multisets.
    for v in m.values_mut() {
        v.sort();
    }
    m
}

/// Ingests `records` as frames of `per_frame` records and ends the
/// ingest; returns the largest frame's byte length.
fn ingest_framed(store: &mut PartitionStore, records: &[Record], per_frame: usize) -> usize {
    let mut max_frame = 0usize;
    for chunk in records.chunks(per_frame) {
        let mut payload = Vec::new();
        for r in chunk {
            ser::frame_record(&mut payload, r);
        }
        max_frame = max_frame.max(payload.len());
        store.ingest(Bytes::from(payload)).unwrap();
    }
    store.finish_ingest();
    max_frame
}

/// Drains a group stream into the `grouped` shape, asserting sorted
/// key order on the way.
fn drain_groups(mut stream: GroupStream) -> BTreeMap<Bytes, Vec<Bytes>> {
    let mut seen: BTreeMap<Bytes, Vec<Bytes>> = BTreeMap::new();
    let mut last: Option<Bytes> = None;
    while let Some(g) = stream.next_group().unwrap() {
        if let Some(prev) = &last {
            assert!(*prev < g.key, "groups must stream in sorted key order");
        }
        last = Some(g.key.clone());
        let mut values = g.values;
        values.sort();
        seen.insert(g.key, values);
    }
    seen
}

#[test]
fn external_sort_completes_with_bounded_residency() {
    const BUDGET: usize = 4096;
    let records = gen_records(6_000, 42);
    let input_bytes: usize = records.iter().map(|r| r.key.len() + r.value.len()).sum();
    assert!(
        input_bytes >= 8 * BUDGET,
        "input must dwarf the budget: {input_bytes} < {}",
        8 * BUDGET
    );

    let dir = scratch_dir("store");
    let mut store = PartitionStore::new(BUDGET, true);
    store.set_spill_config(
        SpillConfig::default()
            .with_dir(dir.clone())
            .with_compression(true)
            .with_block_bytes(1024),
    );
    let max_frame = ingest_framed(&mut store, &records, 16);

    let st = store.stats();
    // The residency proof: the forming run never holds more than the
    // budget plus the frame that tipped it over, no matter how large
    // the input grows.
    assert!(
        st.peak_mem_bytes as usize <= BUDGET + max_frame,
        "peak resident bytes {} exceed budget {} + frame {}",
        st.peak_mem_bytes,
        BUDGET,
        max_frame
    );
    assert!(st.spills >= 8, "expected many disk runs, got {}", st.spills);
    assert!(st.spilled_bytes as usize >= input_bytes - BUDGET - max_frame);
    assert!(
        store.sealed_run_handles().iter().all(|r| r.is_disk()),
        "every sealed run must live on disk"
    );

    // The k-way merge over those disk runs reproduces the reference
    // grouping exactly.
    let expected = grouped(records);
    assert_eq!(drain_groups(store.into_group_stream().unwrap()), expected);

    let leftovers = std::fs::read_dir(&dir).map(|it| it.count()).unwrap_or(0);
    assert_eq!(leftovers, 0, "run files must self-delete after the merge");
    let _ = std::fs::remove_dir_all(&dir);
}

fn wc_o(_t: usize, split: &[u8], out: &mut dyn Collector) {
    for w in split.split(|&b| b == b' ').filter(|w| !w.is_empty()) {
        out.collect(w, &1u64.to_bytes());
    }
}

fn wc_a(g: &GroupedValues, out: &mut dyn Collector) {
    let total: u64 = g.values.iter().map(|v| u64::from_bytes(v).unwrap()).sum();
    out.collect(&g.key, &total.to_bytes());
}

#[test]
fn end_to_end_job_sorts_externally_under_tight_budget() {
    const BUDGET: usize = 1024;
    let mut x = 99u64;
    let inputs: Vec<Bytes> = (0..8)
        .map(|_| {
            let words: Vec<String> = (0..600)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    format!("w{:04}", x % 800)
                })
                .collect();
            Bytes::from(words.join(" "))
        })
        .collect();

    let dir = scratch_dir("job");
    let config = JobConfig::new(2)
        .with_memory_budget(BUDGET)
        .with_spill_dir(dir.clone())
        .with_spill_compression(WireCompression::Lz4)
        .with_spill_block_bytes(2048);
    let out = run_job(&config, inputs.clone(), wc_o, wc_a, None).unwrap();
    assert!(out.stats.spills >= 8, "job must sort through disk runs");
    assert!(out.stats.spilled_bytes >= 8 * BUDGET as u64);
    // Compressed runs occupy less than the raw record bytes they hold.
    assert!(out.stats.spilled_wire_bytes < out.stats.spilled_bytes);

    let baseline = run_job(&JobConfig::new(2), inputs, wc_o, wc_a, None).unwrap();
    assert_eq!(out.partitions.len(), baseline.partitions.len());
    for (p, q) in out.partitions.iter().zip(&baseline.partitions) {
        assert_eq!(p.records(), q.records());
    }
    let leftovers = std::fs::read_dir(&dir).map(|it| it.count()).unwrap_or(0);
    assert_eq!(leftovers, 0, "spill dir must be empty when the job ends");
    let _ = std::fs::remove_dir_all(&dir);
}
