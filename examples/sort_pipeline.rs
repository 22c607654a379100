//! Sort pipeline: the paper's Sort micro-benchmark end to end, on real
//! data, across all three engines.
//!
//! ```text
//! cargo run --release --example sort_pipeline
//! ```
//!
//! 1. generates a wiki-seeded corpus into the MiniDfs (BigDataBench's Text
//!    Generator),
//! 2. converts part of it to compressed sequence files (`ToSeqFile`) for
//!    the Normal Sort variant,
//! 3. sorts it on DataMPI, the MapReduce engine, and the RDD engine,
//! 4. verifies the outputs agree and reports engine counters.

use std::time::Instant;

use bytes::Bytes;
use datampi_suite::common::compare::is_sorted;
use datampi_suite::datagen::{seqfile, SeedModel, TextGenerator};
use datampi_suite::dfs::{DfsConfig, MiniDfs};
use datampi_suite::workloads::sort;

fn main() {
    // --- generate the corpus into the DFS ---
    let dfs = MiniDfs::new(8, DfsConfig::paper_tuned().with_block_size(64 * 1024)).unwrap();
    let mut gen = TextGenerator::new(SeedModel::lda_wiki1w(), 2024);
    let paths = gen.write_corpus(&dfs, "/corpus", 1 << 20, 8).unwrap();
    println!(
        "generated {} files, {} blocks, {} stored bytes",
        paths.len(),
        dfs.splits_for_prefix("/corpus/").unwrap().len(),
        dfs.stored_bytes()
    );

    // --- read the splits back out of the DFS as engine inputs ---
    let inputs: Vec<Bytes> = dfs
        .splits_for_prefix("/corpus/")
        .unwrap()
        .iter()
        .map(|s| dfs.read_block(s.block.id).unwrap())
        .collect();

    // --- Text Sort on all three engines ---
    let t = Instant::now();
    let dm =
        sort::run_text_datampi(&datampi_suite::datampi::JobConfig::new(4), inputs.clone()).unwrap();
    println!("DataMPI text sort:   {:?}", t.elapsed());

    let t = Instant::now();
    let mr = sort::run_text_mapred(&datampi_suite::mapred::MapRedConfig::new(4), inputs.clone())
        .unwrap();
    println!("MapReduce text sort: {:?}", t.elapsed());

    let t = Instant::now();
    let ctx = datampi_suite::rddsim::SparkContext::new(
        datampi_suite::rddsim::SparkConfig::new(4).with_memory_budget(64 << 20),
    )
    .unwrap();
    let sp = sort::run_text_spark(&ctx, inputs.clone(), 4).unwrap();
    println!("RDD text sort:       {:?}", t.elapsed());

    // --- verify ---
    for (engine, parts) in [("datampi", &dm), ("mapreduce", &mr), ("rdd", &sp)] {
        let records: usize = parts.iter().map(|p| p.len()).sum();
        for p in parts {
            assert!(is_sorted(p.records()));
        }
        println!("{engine}: {records} records, every partition key-sorted");
    }
    let total_dm: usize = dm.iter().map(|p| p.len()).sum();
    let total_sp: usize = sp.iter().map(|p| p.len()).sum();
    assert_eq!(total_dm, total_sp, "no records lost anywhere");

    // --- Normal Sort: ToSeqFile + compressed input ---
    let (img, logical) = seqfile::to_seq_file(&gen.generate_bytes(1 << 18));
    println!(
        "\nToSeqFile: {} physical -> {} logical bytes ({}x compression)",
        img.len(),
        logical,
        logical / img.len() as u64
    );
    let norm = sort::run_normal_datampi(
        &datampi_suite::datampi::JobConfig::new(4),
        vec![Bytes::from(img)],
    )
    .unwrap();
    let n: usize = norm.iter().map(|p| p.len()).sum();
    println!("Normal Sort produced {n} sorted records from compressed input");
}
