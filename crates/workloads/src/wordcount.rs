//! WordCount — micro-benchmark #2.
//!
//! Counts occurrences of every word in a text corpus. The defining
//! characteristic (§4.4): the dictionary is small relative to the corpus,
//! so with map-side combining almost no intermediate data moves — the
//! benchmark is **CPU-bound**, and Hadoop loses by spending CPU on
//! map-side sort/spill. DataMPI's combiner folds each word on the O side
//! before the shuffle, and its A side sorts an index over the few
//! records that arrive; Spark aggregates in hash maps.

use bytes::Bytes;

use dmpi_common::group::{Collector, GroupedValues};
use dmpi_common::ser::Writable;
use dmpi_common::varint::{encode_u64, MAX_VARINT_LEN};
use dmpi_common::Result;

/// O/map function: tokenize lines, emit `(word, 1)`.
pub fn map(_task: usize, split: &[u8], out: &mut dyn Collector) {
    let mut buf = [0; MAX_VARINT_LEN];
    let one = encode_u64(1, &mut buf);
    for line in dmpi_datagen::text::lines(split) {
        for word in dmpi_datagen::text::words(line) {
            out.collect(word, one);
        }
    }
}

/// A/reduce function: sum the counts of one word.
pub fn reduce(group: &GroupedValues, out: &mut dyn Collector) {
    let total: u64 = group
        .values
        .iter()
        .map(|v| u64::from_bytes(v).unwrap_or(0))
        .sum();
    out.collect(&group.key, encode_u64(total, &mut [0; MAX_VARINT_LEN]));
}

/// Decodes engine output into `(word, count)` pairs, sorted by word.
pub fn decode_counts(batch: dmpi_common::RecordBatch) -> Vec<(String, u64)> {
    let mut v: Vec<(String, u64)> = batch
        .into_records()
        .into_iter()
        .map(|r| (r.key_utf8(), u64::from_bytes(&r.value).unwrap_or(0)))
        .collect();
    v.sort();
    v
}

/// Runs WordCount on the DataMPI runtime.
pub fn run_datampi(config: &datampi::JobConfig, inputs: Vec<Bytes>) -> Result<Vec<(String, u64)>> {
    let out = datampi::run_job(config, inputs, map, reduce, None)?;
    Ok(decode_counts(out.into_single_batch()))
}

/// Runs WordCount on the MapReduce runtime (with combiner).
pub fn run_mapred(
    config: &dmpi_mapred::MapRedConfig,
    inputs: Vec<Bytes>,
) -> Result<Vec<(String, u64)>> {
    let out = dmpi_mapred::run_mapreduce(config, inputs, map, Some(&reduce), reduce)?;
    Ok(decode_counts(out.into_single_batch()))
}

/// Runs WordCount on the RDD engine.
pub fn run_spark(
    ctx: &dmpi_rddsim::SparkContext,
    inputs: Vec<Bytes>,
) -> Result<Vec<(String, u64)>> {
    let rdd = ctx
        .text_source(inputs)
        .flat_map(|rec, out| {
            let mut buf = [0; MAX_VARINT_LEN];
            let one = encode_u64(1, &mut buf);
            for word in dmpi_datagen::text::words(&rec.key) {
                out.collect(word, one);
            }
        })
        .reduce_by_key(8, |a, b| {
            (u64::from_bytes(a).unwrap_or(0) + u64::from_bytes(b).unwrap_or(0)).to_bytes()
        });
    let parts = rdd.collect()?;
    let mut batch = dmpi_common::RecordBatch::new();
    for mut p in parts {
        batch.append(&mut p);
    }
    Ok(decode_counts(batch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmpi_datagen::{SeedModel, TextGenerator};

    fn corpus() -> Vec<Bytes> {
        let mut g = TextGenerator::new(SeedModel::lda_wiki1w(), 11);
        (0..6)
            .map(|_| Bytes::from(g.generate_bytes(4000)))
            .collect()
    }

    #[test]
    fn all_three_engines_agree() {
        let inputs = corpus();
        let dm = run_datampi(&datampi::JobConfig::new(4), inputs.clone()).unwrap();
        let mr = run_mapred(&dmpi_mapred::MapRedConfig::new(4), inputs.clone()).unwrap();
        let ctx = dmpi_rddsim::SparkContext::new(dmpi_rddsim::SparkConfig::new(4)).unwrap();
        let sp = run_spark(&ctx, inputs).unwrap();
        assert_eq!(dm, mr);
        assert_eq!(dm, sp);
        assert!(!dm.is_empty());
    }

    #[test]
    fn counts_are_exact_on_a_known_corpus() {
        let inputs = vec![Bytes::from_static(b"to be or not to be\n")];
        let dm = run_datampi(&datampi::JobConfig::new(2), inputs).unwrap();
        let map: std::collections::HashMap<_, _> = dm.into_iter().collect();
        assert_eq!(map["to"], 2);
        assert_eq!(map["be"], 2);
        assert_eq!(map["or"], 1);
        assert_eq!(map["not"], 1);
    }

    #[test]
    fn total_count_equals_word_occurrences() {
        let inputs = corpus();
        let total_words: u64 = inputs
            .iter()
            .flat_map(|s| dmpi_datagen::text::lines(s))
            .map(|l| dmpi_datagen::text::words(l).count() as u64)
            .sum();
        let counts = run_datampi(&datampi::JobConfig::new(4), inputs).unwrap();
        let sum: u64 = counts.iter().map(|(_, c)| c).sum();
        assert_eq!(sum, total_words);
    }
}
