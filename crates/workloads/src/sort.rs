//! Sort — micro-benchmark #1, in its two paper variants.
//!
//! * **Text Sort** — uncompressed text input; each line is a record, sorted
//!   by its content.
//! * **Normal Sort** — compressed sequence-file input produced by
//!   `ToSeqFile` (key = value = line, LZ77-compressed); the engine first
//!   decompresses, then sorts by key.
//!
//! Sort moves **all** of its input through the shuffle (`emit_ratio = 1`)
//! and writes it all back ×3 replicas — the I/O-heavy end of the
//! micro-benchmark spectrum, where DataMPI's pipelining pays the most.
//!
//! Output contract of the real drivers: hash-partitioned, key-sorted
//! within each partition (the MapReduce sort contract); the Spark driver
//! uses a range partitioner and is therefore globally sorted.

use bytes::Bytes;

use dmpi_common::group::{Collector, GroupedValues};
use dmpi_common::Result;

/// O/map for Text Sort: each line becomes `(line, empty)`.
pub fn text_map(_task: usize, split: &[u8], out: &mut dyn Collector) {
    for line in dmpi_datagen::text::lines(split) {
        out.collect(line, b"");
    }
}

/// O/map for Normal Sort: decompress the sequence file, emit its records.
pub fn seq_map(_task: usize, split: &[u8], out: &mut dyn Collector) {
    let batch = dmpi_datagen::seqfile::read_compressed(split)
        .expect("normal sort input must be a valid compressed sequence file");
    for rec in &batch {
        out.collect(&rec.key, &rec.value);
    }
}

/// A/reduce: identity — the engine's grouping already sorted the keys.
/// Hands the group's own handles on, so a collector that keeps them
/// copies nothing.
pub fn identity_reduce(group: &GroupedValues, out: &mut dyn Collector) {
    for v in &group.values {
        out.collect_shared(&group.key, v);
    }
}

/// Runs Text Sort on the DataMPI runtime; returns per-partition outputs
/// (each key-sorted).
pub fn run_text_datampi(
    config: &datampi::JobConfig,
    inputs: Vec<Bytes>,
) -> Result<Vec<dmpi_common::RecordBatch>> {
    Ok(datampi::run_job(config, inputs, text_map, identity_reduce, None)?.partitions)
}

/// Runs Text Sort on the MapReduce runtime.
pub fn run_text_mapred(
    config: &dmpi_mapred::MapRedConfig,
    inputs: Vec<Bytes>,
) -> Result<Vec<dmpi_common::RecordBatch>> {
    Ok(dmpi_mapred::run_mapreduce(config, inputs, text_map, None, identity_reduce)?.partitions)
}

/// Runs Text Sort on the RDD engine (globally sorted via range shuffle).
pub fn run_text_spark(
    ctx: &dmpi_rddsim::SparkContext,
    inputs: Vec<Bytes>,
    partitions: usize,
) -> Result<Vec<dmpi_common::RecordBatch>> {
    ctx.text_source(inputs).sort_by_key(partitions).collect()
}

/// Runs Normal Sort on the DataMPI runtime.
pub fn run_normal_datampi(
    config: &datampi::JobConfig,
    inputs: Vec<Bytes>,
) -> Result<Vec<dmpi_common::RecordBatch>> {
    Ok(datampi::run_job(config, inputs, seq_map, identity_reduce, None)?.partitions)
}

/// Runs Normal Sort on the MapReduce runtime.
pub fn run_normal_mapred(
    config: &dmpi_mapred::MapRedConfig,
    inputs: Vec<Bytes>,
) -> Result<Vec<dmpi_common::RecordBatch>> {
    Ok(dmpi_mapred::run_mapreduce(config, inputs, seq_map, None, identity_reduce)?.partitions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmpi_common::compare::is_sorted;
    use dmpi_datagen::{seqfile, SeedModel, TextGenerator};

    fn text_inputs() -> Vec<Bytes> {
        let mut g = TextGenerator::new(SeedModel::lda_wiki1w(), 21);
        (0..4)
            .map(|_| Bytes::from(g.generate_bytes(3000)))
            .collect()
    }

    fn all_lines(inputs: &[Bytes]) -> Vec<Vec<u8>> {
        let mut v: Vec<Vec<u8>> = inputs
            .iter()
            .flat_map(|s| dmpi_datagen::text::lines(s).map(<[u8]>::to_vec))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn text_sort_partitions_are_sorted_and_complete() {
        let inputs = text_inputs();
        let expected = all_lines(&inputs);
        let parts = run_text_datampi(&datampi::JobConfig::new(4), inputs).unwrap();
        let mut got: Vec<Vec<u8>> = Vec::new();
        for p in &parts {
            let records = p.records();
            assert!(is_sorted(records));
            got.extend(records.iter().map(|r| r.key.to_vec()));
        }
        got.sort();
        assert_eq!(got, expected, "no line lost or duplicated");
    }

    #[test]
    fn mapred_text_sort_matches_datampi() {
        let inputs = text_inputs();
        let dm = run_text_datampi(&datampi::JobConfig::new(4), inputs.clone()).unwrap();
        let mr = run_text_mapred(&dmpi_mapred::MapRedConfig::new(4), inputs).unwrap();
        // Same hash partitioner, same comparator: identical partitions.
        assert_eq!(dm.len(), mr.len());
        for (a, b) in dm.iter().zip(&mr) {
            assert_eq!(a.records(), b.records());
        }
    }

    #[test]
    fn spark_text_sort_is_globally_ordered() {
        let inputs = text_inputs();
        let expected = all_lines(&inputs);
        let ctx = dmpi_rddsim::SparkContext::new(
            dmpi_rddsim::SparkConfig::new(4).with_memory_budget(64 << 20),
        )
        .unwrap();
        let parts = run_text_spark(&ctx, inputs, 4).unwrap();
        let flat: Vec<Vec<u8>> = parts
            .iter()
            .flat_map(|p| p.iter().map(|r| r.key.to_vec()))
            .collect();
        assert_eq!(flat, expected, "concatenation is globally sorted");
    }

    #[test]
    fn normal_sort_round_trips_compressed_input() {
        let mut g = TextGenerator::new(SeedModel::lda_wiki1w(), 22);
        let text = g.generate_bytes(5000);
        let (img, logical) = seqfile::to_seq_file(&text);
        assert!(img.len() < logical as usize, "input is compressed");
        let parts =
            run_normal_datampi(&datampi::JobConfig::new(2), vec![Bytes::from(img)]).unwrap();
        let total: usize = parts.iter().map(|p| p.len()).sum();
        let lines = dmpi_datagen::text::lines(&text).count();
        assert_eq!(total, lines);
        for p in &parts {
            assert!(is_sorted(p.records()));
            for r in p {
                assert_eq!(r.key, r.value, "ToSeqFile sets key = value");
            }
        }
    }

    #[test]
    fn normal_sort_engines_agree() {
        let mut g = TextGenerator::new(SeedModel::lda_wiki1w(), 23);
        let imgs: Vec<Bytes> = (0..3)
            .map(|_| Bytes::from(seqfile::to_seq_file(&g.generate_bytes(2000)).0))
            .collect();
        let dm = run_normal_datampi(&datampi::JobConfig::new(3), imgs.clone()).unwrap();
        let mr = run_normal_mapred(&dmpi_mapred::MapRedConfig::new(3), imgs).unwrap();
        for (a, b) in dm.iter().zip(&mr) {
            assert_eq!(a.records(), b.records());
        }
    }

    #[test]
    fn normal_sort_of_a_large_binary_split_matches_mapreduce() {
        // A compressed sequence file is binary: it holds 0x0A bytes that
        // are not line ends, and the O function must see it whole.
        let mut g = TextGenerator::new(SeedModel::lda_wiki1w(), 24);
        let text = g.generate_bytes(384 * 1024);
        let (img, _) = seqfile::to_seq_file(&text);
        assert!(img.contains(&b'\n'), "the image holds 0x0A bytes");
        let imgs = vec![Bytes::from(img)];
        let dm = run_normal_datampi(&datampi::JobConfig::new(2), imgs.clone()).unwrap();
        let mr = run_normal_mapred(&dmpi_mapred::MapRedConfig::new(2), imgs).unwrap();
        assert_eq!(
            dm.iter().map(|p| p.len()).sum::<usize>(),
            dmpi_datagen::text::lines(&text).count()
        );
        for (a, b) in dm.iter().zip(&mr) {
            assert_eq!(a.records(), b.records());
        }
    }
}
