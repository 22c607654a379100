//! Property-based tests of the indexed spill-run format: for arbitrary
//! records, block budgets, storage backends and compression settings, a
//! sealed run must round-trip byte-identically; seeded corruption must be
//! caught by the block CRC before any record decodes; a hostile image
//! must be rejected by the footer parser, never panic it; and the k-way
//! merge must produce identical output across the whole
//! {memory,disk} x {compressed,raw} grid.

use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use proptest::prelude::*;

use datampi::spillfmt::{parse_image, RunWriter, SpillConfig, RUN_MAGIC, TRAILER_LEN};
use datampi::store::PartitionStore;
use datampi::{run_job, JobConfig, SealedRun, SpillReadCounters, WireCompression};
use dmpi_common::crc::crc32;
use dmpi_common::group::{Collector, GroupedValues};
use dmpi_common::ser::Writable;
use dmpi_common::{ser, Record};

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

fn build_run(records: &[Record], block_bytes: usize, compress: bool) -> (Vec<u8>, usize) {
    let mut w = RunWriter::new(block_bytes, compress, false);
    for r in records {
        w.push(r);
    }
    let (image, index) = w.finish();
    let blocks = index.blocks.len();
    let _ = SealedRun::mem(image.clone(), index);
    (image, blocks)
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

/// Fills a store through the real framing path, with a tiny
/// budget so runs actually seal through the block format.
fn fill_store(records: &[Record], budget: usize, cfg: SpillConfig) -> PartitionStore {
    let mut store = PartitionStore::new(budget, true);
    store.set_spill_config(cfg);
    for chunk in records.chunks(7) {
        let mut payload = Vec::new();
        for r in chunk {
            ser::frame_record(&mut payload, r);
        }
        store.ingest(Bytes::from(payload)).unwrap();
    }
    store.finish_ingest();
    store
}

/// `footer` behind a trailer whose magic and footer CRC are right, so
/// the parser gets past both and decodes the footer bytes.
fn image_with_footer(blocks: &[u8], footer: &[u8]) -> Vec<u8> {
    let mut image = blocks.to_vec();
    image.extend_from_slice(footer);
    image.extend_from_slice(&(blocks.len() as u64).to_le_bytes());
    image.extend_from_slice(&crc32(footer).to_le_bytes());
    image.extend_from_slice(&RUN_MAGIC.to_le_bytes());
    image
}

/// `parse_image` on hostile bytes: an error, or an index whose every
/// block lies before the footer the trailer names. A panic fails the
/// case on its own.
fn parse_is_safe(image: &[u8]) -> Result<(), proptest::test_runner::TestCaseError> {
    let Ok(index) = parse_image(image) else {
        return Ok(());
    };
    let trailer = &image[image.len() - TRAILER_LEN..];
    let footer_offset = u64::from_le_bytes(trailer[..8].try_into().unwrap());
    for b in &index.blocks {
        let end = b.offset.checked_add(b.stored_len as u64);
        prop_assert!(
            end.is_some_and(|end| end <= footer_offset),
            "block {}+{} past the footer at {}",
            b.offset,
            b.stored_len,
            footer_offset
        );
    }
    Ok(())
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any record multiset, any block budget, raw or LZ4, memory or
    /// disk: the sealed run yields exactly the pushed records in order,
    /// and the reparsed footer matches the writer's totals.
    #[test]
    fn runs_round_trip_any_records_block_size_and_storage(
        records in corpus_strategy(),
        block_bytes in 1usize..512,
        compress in any::<bool>(),
    ) {
        let mut w = RunWriter::new(block_bytes, compress, false);
        for r in &records {
            w.push(r);
        }
        let (image, index) = w.finish();
        prop_assert_eq!(index.records as usize, records.len());
        prop_assert_eq!(index.file_len as usize, image.len());

        let reparsed = parse_image(&image).unwrap();
        prop_assert_eq!(&reparsed.blocks, &index.blocks);
        prop_assert_eq!(reparsed.raw_bytes, index.raw_bytes);
        prop_assert_eq!(reparsed.stored_bytes, index.stored_bytes);

        let mem = SealedRun::mem(image.clone(), index.clone());
        prop_assert_eq!(read_all(&mem), records.clone());

        let dir = scratch_dir("rt");
        let path = dir.join("run-0.spill");
        let disk = SealedRun::to_file(&image, index, path.clone()).unwrap();
        prop_assert!(disk.is_disk());
        prop_assert_eq!(read_all(&disk), records);
        drop(disk);
        prop_assert!(!path.exists(), "run file must self-delete");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Flipping any single bit inside any stored block is caught by the
    /// per-block CRC (or the LZ4 container) before a single record from
    /// that block decodes; blocks ahead of the corruption still stream.
    #[test]
    fn seeded_corruption_is_caught_by_block_crc_before_decode(
        records in proptest::collection::vec(record_strategy(), 1..60),
        block_bytes in 1usize..256,
        compress in any::<bool>(),
        poke in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let (mut image, _) = build_run(&records, block_bytes, compress);
        let index = parse_image(&image).unwrap();
        prop_assert!(!index.blocks.is_empty());
        // Pick a victim block and a byte inside its stored span.
        let victim = poke.index(index.blocks.len());
        let meta = &index.blocks[victim];
        let at = meta.offset as usize + poke.index(meta.stored_len as usize);
        image[at] ^= 1 << bit;

        let run = SealedRun::mem(image, index.clone());
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
        prop_assert!(
            msg.contains("crc mismatch") || msg.contains("decompress"),
            "unexpected error: {}", msg
        );
        prop_assert_eq!(yielded, before, "all pre-corruption blocks stream first");
    }

    /// The footer parser on hostile input: arbitrary bytes (also as a
    /// footer behind a valid trailer), every truncation of a valid
    /// image, and a valid image with one byte of its footer or trailer
    /// changed. Each is rejected or yields blocks that fit before the
    /// footer; none panics.
    #[test]
    fn footer_parser_rejects_hostile_images_without_panicking(
        noise in proptest::collection::vec(any::<u8>(), 0..256),
        blocks_len in 0usize..64,
        records in proptest::collection::vec(record_strategy(), 0..40),
        block_bytes in 1usize..128,
        compress in any::<bool>(),
        poke in any::<prop::sample::Index>(),
        mask in 1u8..=255,
    ) {
        parse_is_safe(&noise)?;
        parse_is_safe(&image_with_footer(&vec![0; blocks_len], &noise))?;

        let (image, _) = build_run(&records, block_bytes, compress);
        for len in 0..image.len() {
            parse_is_safe(&image[..len])?;
        }

        let index = parse_image(&image).unwrap();
        let footer_at = image.len() - TRAILER_LEN - index.encode_footer().len();
        let mut flipped = image.clone();
        flipped[footer_at + poke.index(image.len() - footer_at)] ^= mask;
        parse_is_safe(&flipped)?;
    }

    /// The loser-tree merge's grouped output is identical across every
    /// cell of the {memory,disk} x {raw,lz4} grid.
    #[test]
    fn merge_is_identical_across_storage_compression_and_skip_grid(
        records in proptest::collection::vec(record_strategy(), 0..80),
        budget in 32usize..512,
        block_bytes in 1usize..128,
    ) {
        let base = SpillConfig::default().with_block_bytes(block_bytes);
        let baseline = drain_groups(&records, budget, base.clone());
        for disk in [false, true] {
            for compress in [false, true] {
                let mut cfg = base.clone().with_compression(compress);
                let dir = disk.then(|| scratch_dir("grid"));
                if let Some(d) = &dir {
                    cfg = cfg.with_dir(d.clone());
                }
                let full = drain_groups(&records, budget, cfg);
                prop_assert_eq!(&full, &baseline, "full merge (disk={}, lz4={})", disk, compress);
                if let Some(d) = dir {
                    let _ = std::fs::remove_dir_all(&d);
                }
            }
        }
    }

    /// End-to-end: a full job's partition outputs are byte-identical
    /// whether spill runs live in memory or on disk, raw or compressed —
    /// under a budget small enough that every rank actually spills.
    #[test]
    fn jobs_are_byte_identical_across_the_spill_grid(
        inputs in text_corpus_strategy(),
        ranks in 1usize..4,
        budget in 48usize..512,
    ) {
        let baseline_cfg = JobConfig::new(ranks)
            .with_memory_budget(budget);
        let baseline = run_job(&baseline_cfg, inputs.clone(), wc_o, wc_a, None).unwrap();
        for disk in [false, true] {
            for compress in [false, true] {
                let mut config = baseline_cfg.clone().with_spill_block_bytes(97);
                let dir = disk.then(|| scratch_dir("job"));
                if let Some(d) = &dir {
                    config = config.with_spill_dir(d.clone());
                }
                if compress {
                    config = config.with_spill_compression(WireCompression::Lz4);
                }
                let out = run_job(&config, inputs.clone(), wc_o, wc_a, None).unwrap();
                prop_assert_eq!(out.partitions.len(), baseline.partitions.len());
                for (p, q) in out.partitions.iter().zip(&baseline.partitions) {
                    prop_assert_eq!(p.records(), q.records());
                }
                if let Some(d) = dir {
                    // Runs are reference-counted and self-deleting; once
                    // the job is done its spill dir holds no files.
                    let leftovers = std::fs::read_dir(&d)
                        .map(|it| it.count())
                        .unwrap_or(0);
                    prop_assert_eq!(leftovers, 0, "spill files must self-delete");
                    let _ = std::fs::remove_dir_all(&d);
                }
            }
        }
    }
}
