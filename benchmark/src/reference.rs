//! The independent reference every trial is checked against.
//!
//! At set-up the expected result of a job is computed single-threaded
//! with plain std code — a `HashMap` of word counts, a sorted vector of
//! lines, a substring count — sharing nothing with the runtime, the
//! workload crate's O/A functions or its partitioner. Both the expected
//! result and each trial's `JobOutput` are reduced to one canonical byte
//! stream (all partitions merged, keys ascending) and digested; a trial
//! passes when the digests and record counts agree.

use std::collections::HashMap;

use bytes::Bytes;
use dmpi_common::ser::{RecordReader, Writable};
use dmpi_common::{Record, RecordBatch};
use dmpi_workloads::exec::GREP_PATTERN;
use dmpi_workloads::ExecWorkload;

/// Streaming FNV-1a, 64 bit. An integrity digest, not a defence: the
/// only adversary is a bug.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// A job result reduced to what the check compares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// Digest of the canonical byte stream.
    pub digest: u64,
    /// Output records across all partitions.
    pub records: u64,
}

/// Fingerprint of `(key, count)` pairs: sorted by key, each hashed as
/// `key 0x00 count-as-decimal 0x0a`. A key that occurs twice (a word
/// reduced in two partitions) changes both fields.
pub fn counts_fingerprint(mut pairs: Vec<(&[u8], u64)>) -> Fingerprint {
    pairs.sort_unstable();
    let mut d = Digest::new();
    for (key, count) in &pairs {
        d.update(key);
        d.update(&[0]);
        d.update(count.to_string().as_bytes());
        d.update(b"\n");
    }
    Fingerprint {
        digest: d.finish(),
        records: pairs.len() as u64,
    }
}

fn lines(split: &[u8]) -> impl Iterator<Item = &[u8]> {
    split.split(|&b| b == b'\n').filter(|l| !l.is_empty())
}

/// The expected result of `workload` over `inputs`.
pub fn expected(workload: ExecWorkload, inputs: &[Bytes]) -> Fingerprint {
    match workload {
        ExecWorkload::WordCount => {
            let mut counts: HashMap<&[u8], u64> = HashMap::new();
            for split in inputs {
                for line in lines(split) {
                    for word in line.split(|&b| b == b' ').filter(|w| !w.is_empty()) {
                        *counts.entry(word).or_insert(0) += 1;
                    }
                }
            }
            counts_fingerprint(counts.into_iter().collect())
        }
        ExecWorkload::TextSort => {
            let mut all: Vec<&[u8]> = inputs.iter().flat_map(|s| lines(s)).collect();
            all.sort_unstable();
            let mut d = Digest::new();
            for line in &all {
                d.update(line);
                d.update(b"\n");
            }
            Fingerprint {
                digest: d.finish(),
                records: all.len() as u64,
            }
        }
        ExecWorkload::Grep => {
            // Non-overlapping occurrences, counted per split: the
            // pattern holds no newline, so no match straddles lines.
            let total: u64 = inputs
                .iter()
                .map(|s| String::from_utf8_lossy(s).matches(GREP_PATTERN).count() as u64)
                .sum();
            let pairs = if total > 0 {
                vec![(GREP_PATTERN.as_bytes(), total)]
            } else {
                Vec::new()
            };
            counts_fingerprint(pairs)
        }
    }
}

fn count_pairs<'a>(
    records: impl Iterator<Item = &'a Record>,
) -> Result<Vec<(&'a [u8], u64)>, String> {
    records
        .map(|r| {
            u64::from_bytes(&r.value)
                .map(|n| (&r.key[..], n))
                .map_err(|e| format!("count value of {:?}: {e}", r.key_utf8()))
        })
        .collect()
}

/// Merges key-sorted partitions into one ascending stream and digests
/// it as `key value 0x0a`. Fails if any partition is out of order.
fn sorted_fingerprint(partitions: &[&[Record]]) -> Result<Fingerprint, String> {
    for (p, part) in partitions.iter().enumerate() {
        if let Some(i) = part.windows(2).position(|w| w[0].key > w[1].key) {
            return Err(format!("partition {p} is not key-sorted at record {i}"));
        }
    }
    let mut heads = vec![0usize; partitions.len()];
    let mut d = Digest::new();
    let mut records = 0u64;
    loop {
        let next = (0..partitions.len())
            .filter(|&p| heads[p] < partitions[p].len())
            .min_by(|&a, &b| {
                partitions[a][heads[a]]
                    .key
                    .cmp(&partitions[b][heads[b]].key)
            });
        let Some(p) = next else { break };
        let rec = &partitions[p][heads[p]];
        d.update(&rec.key);
        d.update(&rec.value);
        d.update(b"\n");
        heads[p] += 1;
        records += 1;
    }
    Ok(Fingerprint {
        digest: d.finish(),
        records,
    })
}

/// Fingerprint of what a job actually produced.
pub fn observed(workload: ExecWorkload, partitions: &[RecordBatch]) -> Result<Fingerprint, String> {
    match workload {
        ExecWorkload::WordCount | ExecWorkload::Grep => Ok(counts_fingerprint(count_pairs(
            partitions.iter().flat_map(|p| p.iter()),
        )?)),
        ExecWorkload::TextSort => {
            let parts: Vec<&[Record]> = partitions.iter().map(|p| p.records()).collect();
            sorted_fingerprint(&parts)
        }
    }
}

/// Fingerprint of a service job's `out=` directory: one `part-NNNNN`
/// file of framed records per rank, as the resident workers write them.
pub fn observed_counts_files(dir: &std::path::Path, ranks: usize) -> Result<Fingerprint, String> {
    let mut records = Vec::new();
    for rank in 0..ranks {
        let path = dir.join(format!("part-{rank:05}"));
        let bytes = std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let mut reader = RecordReader::new(&bytes);
        while let Some(rec) = reader
            .next_record()
            .map_err(|e| format!("decode {}: {e}", path.display()))?
        {
            records.push(rec);
        }
    }
    Ok(counts_fingerprint(count_pairs(records.iter())?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(pairs: &[(&str, Vec<u8>)]) -> RecordBatch {
        let mut b = RecordBatch::new();
        for (k, v) in pairs {
            b.push(Record::new(k.as_bytes().to_vec(), v.clone()));
        }
        b
    }

    #[test]
    fn digest_is_fnv1a_and_order_sensitive() {
        let mut d = Digest::new();
        d.update(b"a");
        assert_eq!(d.finish(), 0xaf63_dc4c_8601_ec8c); // published FNV-1a("a")
        let mut ab = Digest::new();
        ab.update(b"ab");
        let mut ba = Digest::new();
        ba.update(b"b");
        ba.update(b"a");
        assert_ne!(ab.finish(), ba.finish());
        let mut split = Digest::new();
        split.update(b"a");
        split.update(b"b");
        assert_eq!(ab.finish(), split.finish(), "streaming equals one-shot");
    }

    #[test]
    fn wordcount_reference_matches_hand_count_and_partitioned_output() {
        let inputs = vec![Bytes::from("b a b\n\na  c\n"), Bytes::from("c b\n")];
        let want = expected(ExecWorkload::WordCount, &inputs);
        assert_eq!(want.records, 3);
        // The same counts, spread over two partitions in any order.
        let p0 = batch(&[("c", 2u64.to_bytes()), ("a", 2u64.to_bytes())]);
        let p1 = batch(&[("b", 3u64.to_bytes())]);
        assert_eq!(observed(ExecWorkload::WordCount, &[p0, p1]).unwrap(), want);
        // One count off, or one word reduced twice, is a mismatch.
        let off = batch(&[
            ("a", 2u64.to_bytes()),
            ("b", 2u64.to_bytes()),
            ("c", 2u64.to_bytes()),
        ]);
        assert_ne!(observed(ExecWorkload::WordCount, &[off]).unwrap(), want);
        let dup = batch(&[
            ("a", 2u64.to_bytes()),
            ("b", 3u64.to_bytes()),
            ("c", 1u64.to_bytes()),
            ("c", 1u64.to_bytes()),
        ]);
        assert_ne!(observed(ExecWorkload::WordCount, &[dup]).unwrap(), want);
    }

    #[test]
    fn sort_reference_accepts_sorted_partitions_and_rejects_disorder() {
        let inputs = vec![Bytes::from("pear\napple\n"), Bytes::from("fig\napple\n")];
        let want = expected(ExecWorkload::TextSort, &inputs);
        assert_eq!(want.records, 4);
        let p0 = batch(&[("apple", vec![]), ("apple", vec![]), ("pear", vec![])]);
        let p1 = batch(&[("fig", vec![])]);
        assert_eq!(observed(ExecWorkload::TextSort, &[p0, p1]).unwrap(), want);
        let unsorted = batch(&[("pear", vec![]), ("apple", vec![])]);
        assert!(observed(ExecWorkload::TextSort, &[unsorted]).is_err());
        let lost = batch(&[("apple", vec![]), ("fig", vec![]), ("pear", vec![])]);
        assert_ne!(observed(ExecWorkload::TextSort, &[lost]).unwrap(), want);
    }

    #[test]
    fn grep_reference_counts_the_fixed_pattern() {
        let inputs = vec![Bytes::from("banana\nxyz\n"), Bytes::from("a\n")];
        let want = expected(ExecWorkload::Grep, &inputs);
        let got = batch(&[(GREP_PATTERN, 4u64.to_bytes())]);
        assert_eq!(observed(ExecWorkload::Grep, &[got]).unwrap(), want);
    }
}
