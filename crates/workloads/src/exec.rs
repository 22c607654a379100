//! The really-executable workload catalogue behind `dmpirun` and `dmpid`.
//!
//! Each entry pairs one of the micro-benchmarks' engine-agnostic O/A
//! functions with a deterministic input generator, so every process of a
//! multi-process job — and the in-proc runtime used to verify it — can
//! derive identical inputs from `(seed, task)` alone and no split data
//! ever crosses the control plane; a worker derives only its own tasks'
//! splits, one at a time. The A side groups by key-sorted merge
//! on every surface and the A functions are order-insensitive, which is
//! what makes the output byte-identical between the in-proc and
//! multi-process surfaces.

use bytes::Bytes;

use datampi::service::{JobResolver, JobSpec, PreparedJob};
use datampi::{run_job, Combiner, JobConfig, JobOutput};
use dmpi_common::group::{Collector, GroupedValues};
use dmpi_common::{Error, Result};
use dmpi_datagen::{SeedModel, TextGenerator};

use crate::{grep, sort, wordcount};

/// The fixed pattern the Grep entry scans for. The generator's
/// vocabulary is synthetic (random letter strings), so a single common
/// letter is the only pattern guaranteed to appear in every split.
pub const GREP_PATTERN: &str = "a";

/// A boxed O function over a split.
type SplitOFn = Box<dyn Fn(usize, &[u8], &mut dyn Collector) + Send + Sync>;

/// A workload `dmpirun` can execute end-to-end.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecWorkload {
    /// WordCount: `(word, 1)` → per-word sums.
    WordCount,
    /// Text Sort: identity over lines, key-sorted per partition.
    TextSort,
    /// Grep: count occurrences of [`GREP_PATTERN`].
    Grep,
}

impl ExecWorkload {
    /// Every catalogue entry.
    pub const ALL: [ExecWorkload; 3] = [
        ExecWorkload::WordCount,
        ExecWorkload::TextSort,
        ExecWorkload::Grep,
    ];

    /// The launcher-facing name.
    pub fn name(&self) -> &'static str {
        match self {
            ExecWorkload::WordCount => "wordcount",
            ExecWorkload::TextSort => "sort",
            ExecWorkload::Grep => "grep",
        }
    }

    /// Parses a launcher argument.
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "wordcount" | "wc" => Some(ExecWorkload::WordCount),
            "sort" | "textsort" | "text-sort" => Some(ExecWorkload::TextSort),
            "grep" => Some(ExecWorkload::Grep),
            _ => None,
        }
    }

    /// The deterministic input of O task `task`: every process generates
    /// the same split from `(seed, task)`.
    pub fn input_for_task(&self, task: usize, min_bytes: usize, seed: u64) -> Bytes {
        // Mix the task index in with a splitmix-style round so per-task
        // streams are decorrelated even for adjacent tasks.
        let mut s = seed
            .wrapping_add((task as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(1);
        s = (s ^ (s >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let mut gen = TextGenerator::new(SeedModel::lda_wiki1w(), s);
        Bytes::from(gen.generate_bytes(min_bytes.max(1)))
    }

    /// The full input table for a job of `tasks` O tasks.
    pub fn inputs(&self, tasks: usize, min_bytes: usize, seed: u64) -> Vec<Bytes> {
        (0..tasks)
            .map(|t| self.input_for_task(t, min_bytes, seed))
            .collect()
    }

    fn o_fn(&self) -> SplitOFn {
        match self {
            ExecWorkload::WordCount => Box::new(wordcount::map),
            ExecWorkload::TextSort => Box::new(sort::text_map),
            ExecWorkload::Grep => Box::new(grep::map_fn(GREP_PATTERN)),
        }
    }

    fn a_fn(&self) -> fn(&GroupedValues, &mut dyn Collector) {
        match self {
            ExecWorkload::WordCount => wordcount::reduce,
            ExecWorkload::TextSort => sort::identity_reduce,
            ExecWorkload::Grep => grep::reduce,
        }
    }

    /// The workload's O-side combiner, when one is semantically valid:
    /// WordCount and Grep fold `(key, u64)` sums — associative and
    /// commutative, so pre-aggregating before the shuffle cannot change
    /// the A output. TextSort is identity over every record and has
    /// nothing to fold.
    pub fn combiner(&self) -> Option<Combiner> {
        match self {
            ExecWorkload::WordCount => Some(Combiner::new(wordcount::reduce)),
            ExecWorkload::Grep => Some(Combiner::new(grep::reduce)),
            ExecWorkload::TextSort => None,
        }
    }

    /// Runs the workload on the in-proc threaded runtime, honouring
    /// `config` exactly (transport backend, combiner, spill settings).
    /// `dmpirun --verify-inproc` checks multi-process output against
    /// this run, and the benchmark package times it.
    pub fn run_raw(&self, config: &JobConfig, inputs: Vec<Bytes>) -> Result<JobOutput> {
        run_job(config, inputs, self.o_fn(), self.a_fn(), None)
    }
}

/// The catalogue as a [`JobResolver`]: `dmpid` and `dmpirun` workers
/// inject this to resolve submitted workload names — same deterministic
/// inputs, same O/A functions as [`ExecWorkload::run_raw`] — which is
/// what keeps multi-process outputs byte-identical to in-proc runs of
/// the same seeds. Task `t`'s split lives only while the task runs.
pub struct CatalogueResolver;

impl JobResolver for CatalogueResolver {
    fn prepare(&self, spec: &JobSpec) -> Result<PreparedJob> {
        let w = ExecWorkload::parse(&spec.workload)
            .ok_or_else(|| Error::Config(format!("unknown workload {:?}", spec.workload)))?;
        let (o_fn, bytes, seed) = (w.o_fn(), spec.bytes_per_task, spec.seed);
        Ok(PreparedJob {
            o_fn: Box::new(move |t, out| o_fn(t, &w.input_for_task(t, bytes, seed), out)),
            a_fn: Box::new(w.a_fn()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_aliases_parse() {
        for w in ExecWorkload::ALL {
            assert_eq!(ExecWorkload::parse(w.name()), Some(w));
        }
        assert_eq!(ExecWorkload::parse("WC"), Some(ExecWorkload::WordCount));
        assert_eq!(ExecWorkload::parse("mystery"), None);
    }

    #[test]
    fn inputs_are_deterministic_and_task_distinct() {
        let w = ExecWorkload::WordCount;
        let a = w.inputs(3, 500, 42);
        let b = w.inputs(3, 500, 42);
        assert_eq!(a, b, "same seed → same inputs");
        assert_ne!(a[0], a[1], "tasks get distinct splits");
        assert_ne!(a[0], w.input_for_task(0, 500, 43), "seed matters");
    }

    #[test]
    fn every_entry_runs_and_produces_output() {
        let config = JobConfig::new(2);
        for w in ExecWorkload::ALL {
            let out = w.run_raw(&config, w.inputs(4, 800, 7)).unwrap();
            assert_eq!(out.stats.o_tasks_run, 4, "{}", w.name());
            assert!(out.stats.records_emitted > 0, "{}", w.name());
        }
    }

    #[test]
    fn declared_combiners_preserve_output_bytes() {
        let plain = JobConfig::new(2);
        for w in ExecWorkload::ALL {
            let Some(c) = w.combiner() else { continue };
            let combined = plain.clone().with_combiner(c);
            let a = w.run_raw(&plain, w.inputs(4, 1500, 11)).unwrap();
            let b = w.run_raw(&combined, w.inputs(4, 1500, 11)).unwrap();
            for (pa, pb) in a.partitions.iter().zip(&b.partitions) {
                assert_eq!(pa.records(), pb.records(), "{}", w.name());
            }
            assert!(
                b.stats.bytes_emitted < a.stats.bytes_emitted,
                "{}: combiner must cut shuffle bytes",
                w.name()
            );
        }
        assert!(ExecWorkload::TextSort.combiner().is_none());
    }

    #[test]
    fn grep_pattern_occurs_in_generated_text() {
        let w = ExecWorkload::Grep;
        let out = w.run_raw(&JobConfig::new(2), w.inputs(3, 2000, 1)).unwrap();
        assert!(
            out.stats.records_emitted > 0,
            "the fixed pattern must appear in the corpus"
        );
    }

    /// FNV-1a of each task's split in `inputs(32, 2 MiB, 42)`: the
    /// benchmark's `grep-inproc` input, whose first 16 tasks are its Sort
    /// input and first 4 its WordCount input.
    const BENCHMARK_INPUT_DIGESTS: [u64; 32] = [
        0x95438cd739cc7b07,
        0x9eecd2ee427892c6,
        0xa94991d105e65efa,
        0xb529e0cfbf60a8cf,
        0x669414714bf8888d,
        0x0e9de4761965bafa,
        0x9c18e83da7f4fd74,
        0x050335f0e5d27eb8,
        0x7ec24a6567e4d411,
        0x2c7490a2595cb2c0,
        0x4d456ddd54d8aab1,
        0x4243f6f5a9276372,
        0x35e923ed2dc6b29a,
        0x41769b0d3026fc25,
        0x8f050f73b2c9bb18,
        0xee8bd523bf453f05,
        0x214825779e0aa1e6,
        0x8f20810a5602eddc,
        0x011cb7b253d2aac5,
        0x805db911d2a6820f,
        0xc03b94ed7d1fd6c6,
        0x13e04a38d247f732,
        0xd514f0ec059b3165,
        0x512736e6a17402b8,
        0x7407fe61f6994f7b,
        0x8e022de6f33d05a7,
        0x2a254e8b1b9be9ba,
        0x109c0801f927102b,
        0xf2ff31d85ed3a0bf,
        0x8d6e2a533b09527e,
        0x208913c65909c513,
        0xd5fb32176f1cbad4,
    ];

    #[test]
    #[cfg_attr(debug_assertions, ignore = "generates 64 MiB; run with --release")]
    fn benchmark_inputs_match_their_digests() {
        let got: Vec<u64> = ExecWorkload::Grep
            .inputs(32, 2 << 20, 42)
            .iter()
            .map(|split| dmpi_common::hashing::fnv1a(split))
            .collect();
        assert_eq!(got, BENCHMARK_INPUT_DIGESTS);
    }
}
