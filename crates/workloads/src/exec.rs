//! The really-executable workload catalogue behind `dmpirun` and `dmpid`.
//!
//! Each entry pairs one of the micro-benchmarks' engine-agnostic O/A
//! functions with a deterministic input generator, so every process of a
//! multi-process job — and the in-proc runtime used to verify it — can
//! derive identical inputs from `(seed, task)` alone and no split data
//! ever crosses the control plane. The A side groups by key-sorted merge
//! on every surface and the A functions are order-insensitive, which is
//! what makes the output byte-identical between the in-proc and
//! multi-process surfaces.

use bytes::Bytes;

use datampi::runtime::{run_job, JobOutput};
use datampi::service::{JobResolver, JobSpec, PreparedJob};
use datampi::{Combiner, JobConfig};
use dmpi_common::group::{Collector, GroupedValues};
use dmpi_common::{Error, Result};
use dmpi_datagen::{SeedModel, TextGenerator};

use crate::{grep, sort, wordcount};

/// The fixed pattern the Grep entry scans for. The generator's
/// vocabulary is synthetic (random letter strings), so a single common
/// letter is the only pattern guaranteed to appear in every split.
pub const GREP_PATTERN: &str = "a";

/// A boxed O function as the runtime consumes it.
type BoxedOFn = Box<dyn Fn(usize, &[u8], &mut dyn Collector) + Send + Sync>;

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

    fn o_fn(&self) -> BoxedOFn {
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
/// the same seeds.
pub struct CatalogueResolver;

impl JobResolver for CatalogueResolver {
    fn prepare(&self, spec: &JobSpec) -> Result<PreparedJob> {
        let w = ExecWorkload::parse(&spec.workload)
            .ok_or_else(|| Error::Config(format!("unknown workload {:?}", spec.workload)))?;
        Ok(PreparedJob {
            inputs: w.inputs(spec.tasks, spec.bytes_per_task, spec.seed),
            o_fn: w.o_fn(),
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
}
