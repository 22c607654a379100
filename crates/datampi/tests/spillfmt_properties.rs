//! Property-based tests of the indexed spill-run format: for arbitrary
//! records and block budgets, a sealed run file must round-trip
//! byte-identically; seeded corruption in a run file must be caught by
//! the block CRC before any record decodes; the k-way merge over run
//! files must produce the grouping of memory alone, and the order of a
//! global sort on keys that collide on its cached head bytes; and a
//! CRC-valid block whose record framing lies must fail every merge entry
//! point with a corrupt-data error, within a bounded allocation. (The
//! footer parser's own properties are unit tests of `spillfmt`: no
//! production path reads a footer back.)

use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use proptest::prelude::*;

use datampi::spillfmt::{BlockMeta, RunIndex, RunWriter, SpillConfig};
use datampi::store::{GroupStream, PartitionStore};
use datampi::{run_job, JobConfig, SealedRun, SpillReadCounters};
use dmpi_common::compare::sort_records;
use dmpi_common::crc::crc32;
use dmpi_common::group::{Collector, GroupedValues};
use dmpi_common::ser::Writable;
use dmpi_common::{ser, varint, Error, Record};

mod common;
mod counting_alloc;
use common::into_records;
use counting_alloc::peak_since;

/// A unique scratch directory per proptest case, so concurrent cases
/// (and reruns) never collide on disk.
fn scratch_dir(label: &str) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "dmpi-spillprop-{}-{label}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn record_strategy() -> impl Strategy<Value = Record> {
    (
        proptest::collection::vec(any::<u8>(), 0..24),
        proptest::collection::vec(any::<u8>(), 0..48),
    )
        .prop_map(|(k, v)| Record {
            key: Bytes::from(k),
            value: Bytes::from(v),
        })
}

fn corpus_strategy() -> impl Strategy<Value = Vec<Record>> {
    proptest::collection::vec(record_strategy(), 0..60)
}

fn build_run(records: &[Record], block_bytes: usize, sorted: bool) -> (Vec<u8>, RunIndex) {
    let mut w = RunWriter::new(block_bytes, false, sorted);
    for r in records {
        w.push(r);
    }
    w.finish()
}

fn read_all(run: &SealedRun) -> Vec<Record> {
    let counters = SpillReadCounters::new();
    let mut reader = run.open(&counters, None).unwrap();
    let mut out = Vec::new();
    while let Some(r) = reader.next_record().unwrap() {
        out.push(r);
    }
    out
}

fn wc_o(_t: usize, split: &[u8], out: &mut dyn Collector) {
    for line in split.split(|&b| b == b'\n') {
        for w in line.split(|&b| b == b' ').filter(|w| !w.is_empty()) {
            out.collect(w, &1u64.to_bytes());
        }
    }
}

fn wc_a(g: &GroupedValues, out: &mut dyn Collector) {
    let total: u64 = g.values.iter().map(|v| u64::from_bytes(v).unwrap()).sum();
    out.collect(&g.key, &total.to_bytes());
}

fn text_corpus_strategy() -> impl Strategy<Value = Vec<Bytes>> {
    proptest::collection::vec(
        proptest::collection::vec("[a-f]{1,5}", 1..20)
            .prop_map(|words| Bytes::from(words.join(" "))),
        1..8,
    )
}

/// Fills a store through the real framing path, with a tiny budget so
/// runs actually seal through the block format when `cfg` has a dir.
fn fill_store(records: &[Record], budget: usize, cfg: SpillConfig) -> PartitionStore {
    fill_store_keeping_frames(records, budget, cfg).0
}

/// [`fill_store`], also returning the frames ingested, which the forming
/// run's records slice.
fn fill_store_keeping_frames(
    records: &[Record],
    budget: usize,
    cfg: SpillConfig,
) -> (PartitionStore, Vec<Bytes>) {
    let mut store = PartitionStore::new(budget, true);
    store.set_spill_config(cfg);
    let mut frames = Vec::new();
    for chunk in records.chunks(7) {
        let mut payload = Vec::new();
        for r in chunk {
            ser::frame_record(&mut payload, r);
        }
        let payload = Bytes::from(payload);
        frames.push(payload.clone());
        store.ingest(payload).unwrap();
    }
    store.finish_ingest();
    (store, frames)
}

fn drain_groups(records: &[Record], budget: usize, cfg: SpillConfig) -> Vec<(Bytes, Vec<Bytes>)> {
    let store = fill_store(records, budget, cfg);
    let mut stream = store.into_group_stream().unwrap();
    let mut out = Vec::new();
    while let Some(g) = stream.next_group().unwrap() {
        out.push((g.key, g.values));
    }
    out
}

/// Keys built to collide on the merge's cached 16 head bytes: the empty
/// key; `"a"`, `"a\0"` and `"a\0\0"`, equal once zero-padded; and keys of
/// 7, 8, 9, 15, 16 and 17 bytes cut from one of two 16-byte stems (one
/// all zeros), their last byte kept or replaced by 0x00, 0x01 or 0xff.
fn colliding_key() -> impl Strategy<Value = Vec<u8>> {
    const STEMS: [&[u8; 16]; 2] = [b"shared-16-bytes!", &[0; 16]];
    const LENS: [usize; 6] = [7, 8, 9, 15, 16, 17];
    const LAST: [Option<u8>; 4] = [None, Some(0), Some(1), Some(0xff)];
    (0usize..10, 0..STEMS.len(), 0..LENS.len(), 0..LAST.len()).prop_map(
        |(kind, stem, len, last)| match kind {
            0 => Vec::new(),
            // "a", "a\0", "a\0\0".
            1..=3 => b"a\0\0"[..kind].to_vec(),
            _ => {
                let len = LENS[len];
                let mut key = STEMS[stem].to_vec();
                key.push(b'+');
                key.truncate(len);
                if let Some(byte) = LAST[last] {
                    key[len - 1] = byte;
                }
                key
            }
        },
    )
}

/// A colliding key with a value of at most two bytes over a three-byte
/// alphabet, so that equal keys, and equal records, land in several runs.
fn colliding_record() -> impl Strategy<Value = Record> {
    (colliding_key(), proptest::collection::vec(0u8..3, 0..3)).prop_map(|(k, v)| Record {
        key: Bytes::from(k),
        value: Bytes::from(v),
    })
}

/// Whether `value` slices one of `frames`, that is, whether the merge
/// took it from the forming run rather than from a sealed block.
fn from_frames(value: &Bytes, frames: &[Bytes]) -> bool {
    let at = value.as_ptr() as usize;
    frames.iter().any(|f| {
        let start = f.as_ptr() as usize;
        (start..=start + f.len()).contains(&at)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any record multiset, any block budget: the run file yields
    /// exactly the pushed records in order.
    #[test]
    fn runs_round_trip_any_records_and_block_size(
        records in corpus_strategy(),
        block_bytes in 1usize..512,
    ) {
        let (image, index) = build_run(&records, block_bytes, false);
        prop_assert_eq!(index.records as usize, records.len());
        prop_assert_eq!(index.file_len as usize, image.len());

        let dir = scratch_dir("rt");
        let path = dir.join("run-0.spill");
        let disk = SealedRun::to_file(&image, index, path.clone()).unwrap();
        prop_assert!(path.exists());
        prop_assert_eq!(read_all(&disk), records);
        drop(disk);
        prop_assert!(!path.exists(), "run file must self-delete");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Flipping any single bit inside any stored block of a run file is
    /// caught by the per-block CRC before a single record from that
    /// block decodes; blocks ahead of the corruption still stream.
    #[test]
    fn seeded_corruption_is_caught_by_block_crc_before_decode(
        records in proptest::collection::vec(record_strategy(), 1..60),
        block_bytes in 1usize..256,
        poke in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let (mut image, index) = build_run(&records, block_bytes, false);
        prop_assert!(!index.blocks.is_empty());
        // Pick a victim block and a byte inside its stored span.
        let victim = poke.index(index.blocks.len());
        let meta = &index.blocks[victim];
        let at = meta.offset as usize + poke.index(meta.stored_len as usize);
        image[at] ^= 1 << bit;

        let dir = scratch_dir("flip");
        let run = SealedRun::to_file(&image, index.clone(), dir.join("run-0.spill")).unwrap();
        let counters = SpillReadCounters::new();
        let mut reader = run.open(&counters, None).unwrap();
        let before: u64 = index.blocks[..victim].iter().map(|b| b.records as u64).sum();
        let mut yielded = 0u64;
        let err = loop {
            match reader.next_record() {
                Ok(Some(rec)) => {
                    // Records ahead of the corrupt block are intact and
                    // identical to what was written.
                    prop_assert!(yielded < before, "corrupt block must not yield records");
                    prop_assert_eq!(&rec, &records[yielded as usize]);
                    yielded += 1;
                }
                Ok(None) => {
                    return Err(proptest::test_runner::TestCaseError::fail(
                        "corruption must surface as an error",
                    ))
                }
                Err(e) => break e,
            }
        };
        let msg = format!("{err}");
        prop_assert!(msg.contains("crc mismatch"), "unexpected error: {}", msg);
        prop_assert_eq!(yielded, before, "all pre-corruption blocks stream first");
        drop(reader);
        drop(run);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The loser-tree merge over run files groups exactly as memory
    /// alone does (no spill dir, so nothing seals).
    #[test]
    fn merge_over_run_files_groups_as_memory_alone(
        records in proptest::collection::vec(record_strategy(), 0..80),
        budget in 32usize..512,
        block_bytes in 1usize..128,
    ) {
        let base = SpillConfig::default().with_block_bytes(block_bytes);
        let baseline = drain_groups(&records, budget, base.clone());
        let dir = scratch_dir("grid");
        let full = drain_groups(&records, budget, base.with_dir(dir.clone()));
        prop_assert_eq!(&full, &baseline, "full merge");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// End-to-end: a full job's partition outputs are byte-identical
    /// whether the A side groups from memory (no spill dir) or through
    /// run files — under a budget small enough that
    /// every rank with more than a budget of input spills.
    #[test]
    fn jobs_are_byte_identical_across_the_spill_grid(
        inputs in text_corpus_strategy(),
        ranks in 1usize..4,
        budget in 48usize..512,
    ) {
        let baseline_cfg = JobConfig::new(ranks)
            .with_memory_budget(budget);
        let baseline = run_job(&baseline_cfg, inputs.clone(), wc_o, wc_a, None).unwrap();
        prop_assert_eq!(baseline.stats.spills, 0);
        let dir = scratch_dir("job");
        let config = baseline_cfg
            .clone()
            .with_spill_block_bytes(97)
            .with_spill_dir(dir.clone());
        let out = run_job(&config, inputs, wc_o, wc_a, None).unwrap();
        // Past `ranks` budgets of input, some partition went over.
        prop_assert!(
            out.stats.spills > 0 || out.stats.bytes_emitted <= (budget * ranks) as u64
        );
        prop_assert_eq!(out.partitions.len(), baseline.partitions.len());
        for (p, q) in out.partitions.iter().zip(&baseline.partitions) {
            prop_assert_eq!(p.records(), q.records());
        }
        // Runs are reference-counted and self-deleting; once the job
        // is done its spill dir holds no files.
        let leftovers = std::fs::read_dir(&dir)
            .map(|it| it.count())
            .unwrap_or(0);
        prop_assert_eq!(leftovers, 0, "spill files must self-delete");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Keys that agree on the merge's cached 16 head bytes, or only once
    /// zero-padded, still leave the store in the order of a global sort,
    /// from memory alone or from run files, with or without a forming
    /// run; equal records leave in run order, the forming run's last.
    #[test]
    fn merge_orders_keys_colliding_on_the_cached_head_bytes(
        records in proptest::collection::vec(colliding_record(), 0..120),
        budget in 64usize..1024,
        block_bytes in 1usize..96,
    ) {
        let mut expected = records.clone();
        sort_records(&mut expected);
        for disk in [false, true] {
            let mut cfg = SpillConfig::default().with_block_bytes(block_bytes);
            let dir = disk.then(|| scratch_dir("collide"));
            if let Some(d) = &dir {
                cfg = cfg.with_dir(d.clone());
            }

            // The last frames stay in the forming run, the merge's last.
            let (store, frames) = fill_store_keeping_frames(&records, budget, cfg.clone());
            let merged = into_records(store);
            prop_assert_eq!(&merged, &expected, "with a forming run (disk={})", disk);
            for pair in merged.windows(2) {
                prop_assert!(
                    pair[0] != pair[1]
                        || !from_frames(&pair[0].value, &frames)
                        || from_frames(&pair[1].value, &frames),
                    "a sealed run's record left after an equal forming-run one (disk={})",
                    disk
                );
            }

            // Every run sealed, when there is a dir to seal into.
            let mut store = fill_store(&records, budget, cfg);
            store.seal_all();
            prop_assert_eq!(&into_records(store), &expected, "sealed runs only (disk={})", disk);
            if let Some(d) = dir {
                let _ = std::fs::remove_dir_all(&d);
            }
        }
    }
}

#[test]
fn equal_records_leave_a_sealed_run_before_the_forming_run() {
    // The forming run wins the match for ("k", "a"), and its next head
    // ties the sealed run's ("k", "b") on key and value: only the run
    // index puts the sealed run's copy first.
    let dir = scratch_dir("tie");
    let mut store = PartitionStore::new(1 << 20, true);
    store.set_spill_config(SpillConfig::default().with_dir(dir.clone()));
    let sealed = [Record::from_strs("k", "b")];
    let forming = [Record::from_strs("k", "a"), Record::from_strs("k", "b")];
    let frame = |records: &[Record]| {
        let mut payload = Vec::new();
        for r in records {
            ser::frame_record(&mut payload, r);
        }
        Bytes::from(payload)
    };
    store.ingest(frame(&sealed)).unwrap();
    store.spill();
    assert_eq!(store.stats().spills, 1);
    let forming_frame = frame(&forming);
    store.ingest(forming_frame.clone()).unwrap();
    let merged = into_records(store);
    let values: Vec<&[u8]> = merged.iter().map(|r| &r.value[..]).collect();
    assert_eq!(values, [&b"a"[..], b"b", b"b"]);
    let frames = [forming_frame];
    let from_forming: Vec<bool> = merged
        .iter()
        .map(|r| from_frames(&r.value, &frames))
        .collect();
    assert_eq!(from_forming, [true, false, true]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The varint header framing a `klen`-byte key and a `vlen`-byte value.
fn header(klen: u64, vlen: u64) -> Vec<u8> {
    let mut out = Vec::new();
    varint::write_u64(&mut out, klen);
    varint::write_u64(&mut out, vlen);
    out
}

/// Framing lies a block can end with, by name.
fn framing_lies() -> Vec<(&'static str, Vec<u8>)> {
    vec![
        (
            "key length past the block end",
            [header(1000, 0), b"k".to_vec()].concat(),
        ),
        (
            "value length past the block end",
            [header(1, 1000), b"k".to_vec()].concat(),
        ),
        (
            "lengths whose sum overflows",
            header(u64::MAX / 2, u64::MAX / 2 + 1),
        ),
        ("truncated varint", vec![0x80]),
        ("varint over ten bytes", vec![0xff; 11]),
        (
            "trailing partial record",
            [header(3, 3), b"ke".to_vec()].concat(),
        ),
    ]
}

/// Sets `block[at..at + 4]` so that the block's CRC-32C is `target`.
/// The CRC is affine in the message bits, and 32 consecutive bits reach
/// every checksum, so those bytes solve a 32 x 32 system over GF(2).
fn forge_crc(block: &mut [u8], at: usize, target: u32) {
    block[at..at + 4].fill(0);
    let base = crc32(block);
    // Each free bit as (what flipping it does to the CRC, which bits).
    let mut rows: Vec<(u32, u32)> = (0..32)
        .map(|bit| {
            block[at + bit / 8] ^= 1 << (bit % 8);
            let effect = crc32(block) ^ base;
            block[at + bit / 8] ^= 1 << (bit % 8);
            (effect, 1u32 << bit)
        })
        .collect();
    let (mut want, mut bits) = (target ^ base, 0u32);
    for pivot_bit in (0..32).rev().map(|b| 1u32 << b) {
        let Some(p) = rows.iter().position(|(effect, _)| effect & pivot_bit != 0) else {
            continue;
        };
        let (effect, which) = rows.swap_remove(p);
        for row in rows.iter_mut().filter(|(e, _)| e & pivot_bit != 0) {
            row.0 ^= effect;
            row.1 ^= which;
        }
        if want & pivot_bit != 0 {
            want ^= effect;
            bits ^= which;
        }
    }
    block[at..at + 4].copy_from_slice(&bits.to_le_bytes());
    assert_eq!(crc32(block), target, "four free bytes reach every CRC");
}

/// The blocks of the run file at `path`, which `fill_store` sealed from
/// the first frames of `records` (7 records a frame) in key order: the
/// index of the one such prefix whose sorted run, written in blocks of
/// `block_bytes`, is the file byte for byte.
fn sealed_blocks(path: &std::path::Path, records: &[Record], block_bytes: usize) -> Vec<BlockMeta> {
    let image = std::fs::read(path).unwrap();
    (7..records.len() + 7)
        .step_by(7)
        .find_map(|end| {
            let mut run = records[..end.min(records.len())].to_vec();
            sort_records(&mut run);
            let (written, index) = build_run(&run, block_bytes, true);
            (written == image).then_some(index.blocks)
        })
        .expect("the run file is the sorted run of a prefix of the frames")
}

/// Rewrites block `meta` of the raw run file at `path` as one record
/// (key `k`, a value filling the block up to the lie) followed by `lie`,
/// keeping the block's length and its CRC-32C: the block passes the
/// integrity gate, and only its framing is wrong.
fn plant_lie(path: &std::path::Path, meta: &BlockMeta, lie: &[u8]) {
    let mut image = std::fs::read(path).unwrap();
    assert_eq!(meta.stored_len, meta.raw_len);
    let block = &mut image[meta.offset as usize..][..meta.raw_len as usize];
    // A one-byte key length, a two-byte value length and the key.
    let value_len = block.len() - lie.len() - 4;
    assert!(
        (128..1 << 14).contains(&value_len),
        "block of {}",
        block.len()
    );
    let mut forged = header(1, value_len as u64);
    forged.push(b'k');
    forged.resize(forged.len() + value_len, b'v');
    forged.extend_from_slice(lie);
    assert_eq!(forged.len(), block.len());
    forge_crc(&mut forged, 4 + value_len - 4, meta.crc);
    block.copy_from_slice(&forged);
    std::fs::write(path, &image).unwrap();
}

/// Pulls groups until `stream` fails; a clean end fails the test.
fn drain_to_error(stream: &mut GroupStream) -> Error {
    let mut group = GroupedValues::default();
    loop {
        match stream.next_group_into(&mut group) {
            Ok(true) => {}
            Ok(false) => panic!("a lying block must not drain cleanly"),
            Err(e) => return e,
        }
    }
}

/// Which call failed, and how.
fn first_failure(opened: dmpi_common::Result<GroupStream>) -> (&'static str, Error) {
    match opened {
        Err(e) => ("open", e),
        Ok(mut stream) => ("next_group_into", drain_to_error(&mut stream)),
    }
}

#[test]
fn lying_block_framing_is_a_corrupt_error_on_every_merge_entry() {
    // What a merge of three runs may hold at once: a block and its
    // index per run, readers, error messages. A length read from the
    // block must never size an allocation.
    const HELD_BOUND: usize = 64 * 1024;
    let records: Vec<Record> = (0..200u32)
        .map(|i| Record::new(format!("key{:05}", (i * 7919) % 1000), vec![b'v'; 40]))
        .collect();
    for (lie_name, lie) in framing_lies() {
        // Block 0 fails as the merge opens, block 1 once groups flow.
        for (victim, entry) in [(0, "open"), (1, "next_group_into")] {
            let case = format!("{lie_name}, block {victim}");
            let dir = scratch_dir("lie");
            let cfg = SpillConfig::default()
                .with_block_bytes(512)
                .with_dir(dir.clone())
                .with_tag("h");
            let mut store = fill_store(&records, 4096, cfg);
            store.seal_all();
            let run = dir.join("h-0.spill");
            let blocks = sealed_blocks(&run, &records, 512);
            assert!(blocks.len() > 2, "{case}");
            plant_lie(&run, &blocks[victim], &lie);
            let ((at, e), held) = peak_since(|| first_failure(store.into_group_stream()));
            assert_eq!(at, entry, "{case}: {e}");
            assert!(matches!(e, Error::Corrupt(_)), "{case}: {e:?}");
            assert!(held <= HELD_BOUND, "{case}: the merge held {held} bytes");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
