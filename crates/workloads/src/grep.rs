//! Grep — micro-benchmark #3.
//!
//! Searches for a pattern in the input documents and counts occurrences of
//! the matched strings (BigDataBench semantics: emit each match, count per
//! matched string). The workload is a sequential scan with tiny
//! intermediate data: startup cost and scan rate dominate.

use bytes::Bytes;

use dmpi_common::group::{Collector, GroupedValues};
use dmpi_common::scan::find_byte;
use dmpi_common::ser::Writable;
use dmpi_common::varint::{encode_u64, MAX_VARINT_LEN};
use dmpi_common::Result;

/// Counts occurrences of `needle` in `haystack` (leftmost first,
/// non-overlapping). A longer needle is only compared where its first
/// byte occurs.
pub fn count_matches(haystack: &[u8], needle: &[u8]) -> usize {
    let &[first, ..] = needle else {
        return 0;
    };
    if needle.len() == 1 {
        return haystack.iter().filter(|&&b| b == first).count();
    }
    let mut count = 0;
    let mut i = 0;
    while let Some(at) = find_byte(first, &haystack[i..]) {
        let candidate = i + at;
        if haystack[candidate..].starts_with(needle) {
            count += 1;
            i = candidate + needle.len();
        } else {
            i = candidate + 1;
        }
    }
    count
}

/// Builds the O/map function for a pattern: emit `(pattern, n)` per line
/// with `n` matches.
pub fn map_fn(pattern: &str) -> impl Fn(usize, &[u8], &mut dyn Collector) + Send + Sync {
    let pattern = pattern.as_bytes().to_vec();
    move |_task, split, out| {
        let mut buf = [0; MAX_VARINT_LEN];
        for line in dmpi_datagen::text::lines(split) {
            let n = count_matches(line, &pattern);
            if n > 0 {
                out.collect(&pattern, encode_u64(n as u64, &mut buf));
            }
        }
    }
}

/// A/reduce: sum match counts.
pub fn reduce(group: &GroupedValues, out: &mut dyn Collector) {
    let total: u64 = group
        .values
        .iter()
        .map(|v| u64::from_bytes(v).unwrap_or(0))
        .sum();
    out.collect(&group.key, encode_u64(total, &mut [0; MAX_VARINT_LEN]));
}

/// Total matches from engine output.
fn total_of(batch: dmpi_common::RecordBatch) -> u64 {
    batch
        .into_records()
        .into_iter()
        .map(|r| u64::from_bytes(&r.value).unwrap_or(0))
        .sum()
}

/// Runs Grep on the DataMPI runtime, returning the total match count.
pub fn run_datampi(config: &datampi::JobConfig, inputs: Vec<Bytes>, pattern: &str) -> Result<u64> {
    let out = datampi::run_job(config, inputs, map_fn(pattern), reduce, None)?;
    Ok(total_of(out.into_single_batch()))
}

/// Runs Grep on the MapReduce runtime.
pub fn run_mapred(
    config: &dmpi_mapred::MapRedConfig,
    inputs: Vec<Bytes>,
    pattern: &str,
) -> Result<u64> {
    let out = dmpi_mapred::run_mapreduce(config, inputs, map_fn(pattern), Some(&reduce), reduce)?;
    Ok(total_of(out.into_single_batch()))
}

/// Runs Grep on the RDD engine.
pub fn run_spark(
    ctx: &dmpi_rddsim::SparkContext,
    inputs: Vec<Bytes>,
    pattern: &str,
) -> Result<u64> {
    let pat = pattern.as_bytes().to_vec();
    let rdd = ctx
        .text_source(inputs)
        .flat_map(move |rec, out| {
            let n = count_matches(&rec.key, &pat);
            if n > 0 {
                out.collect(b"match", encode_u64(n as u64, &mut [0; MAX_VARINT_LEN]));
            }
        })
        .reduce_by_key(4, |a, b| {
            (u64::from_bytes(a).unwrap_or(0) + u64::from_bytes(b).unwrap_or(0)).to_bytes()
        });
    let parts = rdd.collect()?;
    let mut batch = dmpi_common::RecordBatch::new();
    for mut p in parts {
        batch.append(&mut p);
    }
    Ok(total_of(batch))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn match_counting() {
        assert_eq!(count_matches(b"abcabcabc", b"abc"), 3);
        assert_eq!(count_matches(b"aaaa", b"aa"), 2, "non-overlapping");
        assert_eq!(count_matches(b"aaaaa", b"aa"), 2, "leftmost first");
        assert_eq!(count_matches(b"abababa", b"aba"), 2);
        assert_eq!(count_matches(b"aaaaa", b"a"), 5);
        assert_eq!(count_matches(b"hello", b"xyz"), 0);
        assert_eq!(count_matches(b"", b"x"), 0);
        assert_eq!(count_matches(b"x", b""), 0);
        assert_eq!(count_matches(b"ab", b"abc"), 0);
    }

    #[test]
    fn engines_agree_on_match_totals() {
        let inputs = vec![
            Bytes::from_static(b"the cat sat on the mat\nno felines here\n"),
            Bytes::from_static(b"cat cat cat\n"),
        ];
        let dm = run_datampi(&datampi::JobConfig::new(2), inputs.clone(), "cat").unwrap();
        let mr = run_mapred(&dmpi_mapred::MapRedConfig::new(2), inputs.clone(), "cat").unwrap();
        let ctx = dmpi_rddsim::SparkContext::new(dmpi_rddsim::SparkConfig::new(2)).unwrap();
        let sp = run_spark(&ctx, inputs, "cat").unwrap();
        assert_eq!(dm, 4);
        assert_eq!(mr, 4);
        assert_eq!(sp, 4);
    }

    #[test]
    fn zero_matches_is_fine() {
        let inputs = vec![Bytes::from_static(b"nothing to see\n")];
        assert_eq!(
            run_datampi(&datampi::JobConfig::new(2), inputs, "zebra").unwrap(),
            0
        );
    }

    #[test]
    fn grep_on_generated_text_finds_common_word() {
        use dmpi_datagen::{SeedModel, TextGenerator};
        let model = SeedModel::lda_wiki1w();
        let top_word = model.word_at_rank(0).to_string();
        let mut g = TextGenerator::new(model, 3);
        let inputs = vec![Bytes::from(g.generate_bytes(50_000))];
        let n = run_datampi(&datampi::JobConfig::new(2), inputs, &top_word).unwrap();
        assert!(n > 50, "most frequent word should appear often, got {n}");
    }
}
