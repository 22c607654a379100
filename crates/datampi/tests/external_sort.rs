//! External-memory sort: with an input many times larger than the
//! memory budget, the A side must complete through disk-backed spill
//! runs while its resident footprint stays pinned near the budget.

mod counting_alloc;

use std::collections::BTreeMap;

use bytes::Bytes;

use counting_alloc::peak_since;
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

/// Sorts `n` generated records through a store at `budget` whose runs
/// spill to disk, checks the residency counters, that every run went to
/// disk and that the merge reproduces the reference grouping, and
/// returns the most heap the ingesting thread held while ingesting.
fn sort_externally(budget: usize, n: usize) -> usize {
    let records = gen_records(n, 42);
    let input_bytes: usize = records.iter().map(|r| r.key.len() + r.value.len()).sum();
    assert!(
        input_bytes >= 6 * budget,
        "input must dwarf the budget: {input_bytes} < {}",
        6 * budget
    );

    let dir = scratch_dir(&format!("store-{budget}-{n}"));
    let mut store = PartitionStore::new(budget, true);
    store.set_spill_config(
        SpillConfig::default()
            .with_dir(dir.clone())
            .with_compression(true)
            .with_block_bytes(budget / 4),
    );
    let (max_frame, held) = peak_since(|| ingest_framed(&mut store, &records, 16));

    let st = store.stats();
    // `peak_mem_bytes` counts only the forming run's frame bytes: it
    // never holds more than the budget plus the frame that tipped it
    // over, no matter how large the input grows.
    assert!(
        st.peak_mem_bytes as usize <= budget + max_frame,
        "peak resident bytes {} exceed budget {} + frame {}",
        st.peak_mem_bytes,
        budget,
        max_frame
    );
    let runs = input_bytes / budget / 2;
    assert!(
        st.spills as usize >= runs,
        "expected ≥ {runs} disk runs, got {}",
        st.spills
    );
    assert!(st.spilled_bytes as usize >= input_bytes - budget - max_frame);
    let run_files = std::fs::read_dir(&dir).map(|it| it.count()).unwrap_or(0);
    assert_eq!(
        run_files as u64, st.spills,
        "every sealed run must be a file in the spill dir"
    );

    // The k-way merge over those disk runs reproduces the reference
    // grouping exactly.
    let expected = grouped(records);
    assert_eq!(drain_groups(store.into_group_stream().unwrap()), expected);

    let leftovers = std::fs::read_dir(&dir).map(|it| it.count()).unwrap_or(0);
    assert_eq!(leftovers, 0, "run files must self-delete after the merge");
    let _ = std::fs::remove_dir_all(&dir);
    held
}

#[test]
fn external_sort_completes_with_bounded_residency() {
    // About 40 budgets of input at 4 KiB. The heap is not bounded here:
    // at this budget, costs that do not scale with it (the compressor,
    // each sealed run's in-memory index) outweigh it.
    sort_externally(4096, 6_000);
    // About 6 and 25 budgets at 256 KiB. The ingesting thread seals
    // each run itself, a block at a time, so everything it holds — the
    // forming run, its index, the one block being written — is freed
    // before the next run forms, and its heap stays a fixed multiple of
    // the budget whatever the input's size.
    const BUDGET: usize = 256 * 1024;
    for n in [60_000, 240_000] {
        let held = sort_externally(BUDGET, n);
        assert!(
            held <= 5 * BUDGET,
            "{n} records: ingest held {held} bytes, {:.2}x the {BUDGET}-byte budget",
            held as f64 / BUDGET as f64
        );
    }
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
