//! `datampi` — a key-value-pair based communication library extending the
//! MPI model for Hadoop/Spark-like Big Data computing.
//!
//! This crate is the reproduction's primary artifact: the DataMPI library
//! of Lu et al. (IPDPS '14), whose performance the case-study paper
//! measures against Hadoop and Spark. DataMPI replaces MPI's
//! buffer-to-buffer communication with **key-value pair** communication
//! organized as a **bipartite graph** between two communicators:
//!
//! * **O (origin) tasks** produce key-value pairs (like map tasks);
//! * **A (accept) tasks** consume them grouped by key (like reduce tasks).
//!
//! The library implements the "4D" characteristics the paper summarizes:
//!
//! * **Dichotomic** — the O/A bipartite communication model ([`runtime`]);
//! * **Dynamic** — tasks are scheduled dynamically onto worker ranks (the
//!   runtime's shared queue hands splits to whichever rank is free);
//! * **Data-centric** — emitted pairs are partitioned and buffered at the
//!   A-side worker ([`store`]), so A tasks read their input locally;
//! * **Diversified** — [`task`] exposes MapReduce mode (key-sorted
//!   groups, with an optional O-side combiner), and [`iteration`]
//!   implements Iteration mode (deserialized splits stay resident in
//!   worker memory across jobs, the pattern K-means uses).
//!
//! Communication is **pipelined**: O-task computation overlaps with
//! key-value movement ([`buffer::KvBuffer`] flushes asynchronously while
//! the task keeps producing), which the paper credits for most of
//! DataMPI's speedup. Intermediate data stays in worker memory (spilling
//! only under pressure), avoiding Hadoop's redundant disk materialization.
//! Fault tolerance is key-value checkpoint/restart ([`checkpoint`]): a
//! run given a [`CheckpointStore`](checkpoint::CheckpointStore) is
//! restartable, every run against the same store is its next attempt,
//! and the bounded-retry [`supervisor`] repeats that run for the caller;
//! the [`fault`] module injects
//! deterministic, seeded faults (task errors, rank deaths, mid-merge
//! deaths, wire corruption caught by per-frame CRCs) to exercise that
//! machinery.
//!
//! Every executing surface runs the same per-rank program — ingest
//! thread, O loop, EOFs, A loop (`rank.rs`; DESIGN.md §5) — and differs
//! only in where its ranks live and what they can share:
//!
//! * the **in-proc runtime** ([`runtime`]): ranks are threads of one
//!   process connected by a pluggable [`transport`] (the in-proc channel
//!   fabric or a real TCP mesh), sharing one task queue, checkpoint and
//!   failed flag — the surface of the test suite, the benchmark
//!   package's data workloads and the [`supervisor`];
//! * **one rank per process**, in a job service session ([`service`]
//!   over [`distrib`]): kept resident for many jobs by `dmpid`, or
//!   started for one by the `dmpirun` launcher — the static
//!   `task % ranks` assignment, no checkpoint.

#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod buffer;
pub mod checkpoint;
pub mod comm;
pub mod config;
pub mod distrib;
pub mod fault;
pub mod iteration;
pub mod observe;
mod rank;
pub mod runtime;
pub mod service;
pub mod spillfmt;
pub mod store;
pub mod supervisor;
pub mod task;
pub mod transport;

pub use config::{JobConfig, WireCompression};
pub use fault::FaultPlan;
pub use observe::{Observer, PhaseTotals, Profiler, SpanKind, Trace};
pub use runtime::{run_job, JobOutput, JobStats};
pub use spillfmt::{KeyRange, SealedRun, SpillConfig, SpillReadCounters};
pub use supervisor::{supervise_job, RetryPolicy};
pub use task::{Collector, Combiner, GroupedValues};
pub use transport::{
    Backend, Endpoint, FrameReceiver, FrameSender, TcpOptions, Transport, WireStats,
};

/// The body rows of the DESIGN.md table whose header row starts with
/// `header`, each as its cells with spaces and backticks trimmed. The
/// tests that pin the document's tables to the code read them here.
#[cfg(test)]
pub(crate) fn design_table(header: &str) -> Vec<Vec<String>> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md");
    let doc = std::fs::read_to_string(path).expect("DESIGN.md at the repo root");
    let rows: Vec<Vec<String>> = doc
        .lines()
        .skip_while(|line| !line.starts_with(header))
        .skip(2) // the header row and its separator
        .take_while(|line| line.starts_with('|'))
        .map(|row| {
            let cells = row.trim_matches('|').split('|');
            cells
                .map(|cell| cell.trim_matches([' ', '`']).to_string())
                .collect()
        })
        .collect();
    assert!(!rows.is_empty(), "DESIGN.md has no table headed {header:?}");
    rows
}

/// A scratch directory of one unit test's own, removed on drop.
#[cfg(test)]
pub(crate) struct ScratchDir(pub(crate) std::path::PathBuf);

#[cfg(test)]
impl ScratchDir {
    pub(crate) fn new() -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        ScratchDir(std::env::temp_dir().join(format!(
            "dmpi-unit-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        )))
    }
}

#[cfg(test)]
impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use std::path::{Path, PathBuf};

    /// Appends every `.rs` file under `dir` to `out`.
    fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).expect("a readable source dir") {
            let path = entry.expect("a directory entry").path();
            if path.is_dir() {
                rust_files(&path, out);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                out.push(path);
            }
        }
    }

    /// DESIGN.md's ablation table names the tests that check each
    /// mechanism, as `module::tests::name` (a unit test in `module.rs` or
    /// `module/mod.rs` under `crates/`) or `file.rs::name`; each must
    /// name a test function that exists.
    #[test]
    fn design_doc_ablation_tests_exist() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let (mut crates, mut all) = (Vec::new(), Vec::new());
        rust_files(&root.join("crates"), &mut crates);
        rust_files(&root.join("tests"), &mut all);
        all.extend(crates.iter().cloned());
        let rows = crate::design_table("| ablation |");
        let cited: Vec<&str> = rows
            .iter()
            .flat_map(|row| row[2].split('`'))
            .filter(|token| token.contains("::") && !token.contains(' '))
            .collect();
        assert!(cited.len() >= 5, "the table cites its tests: {cited:?}");
        for token in cited {
            let (path, name) = token.rsplit_once("::").expect("a path");
            let (files, wanted) = match path.strip_suffix("::tests") {
                Some(module) => {
                    let module = module.rsplit("::").next().expect("a module");
                    (
                        &crates,
                        vec![format!("{module}.rs"), format!("{module}/mod.rs")],
                    )
                }
                None => (&all, vec![path.to_string()]),
            };
            let defines = |file: &PathBuf| {
                wanted.iter().any(|w| file.ends_with(w))
                    && std::fs::read_to_string(file)
                        .expect("a readable source file")
                        .contains(&format!("fn {name}("))
            };
            assert!(
                files.iter().any(defines),
                "DESIGN.md's ablation table cites `{token}`, which names no test"
            );
        }
    }
}
