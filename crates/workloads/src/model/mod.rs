//! The simulator's whole engine model: what the paper-scale experiments
//! assume about each engine, and with which [`calib`] constants.
//!
//! The executing engines cannot run 8-64 GB inputs here, so every
//! paper-scale figure compiles the job into `dmpi-dcsim` activities
//! instead. One file per engine holds its job profile (calibrated in
//! `SimJobProfile::new`), the one `profile` function that says what each
//! workload changes, and the compiler from profile to task graph:
//!
//! * [`datampi`] — pipelined O tasks, intermediate data resident in
//!   A-side memory;
//! * [`mapred`] — Hadoop's staged map, sort/spill, materialized shuffle
//!   and per-task JVM launch;
//! * [`spark`] — Spark's explicit stage list, imperfect input locality
//!   and memory-or-die sorts.
//!
//! [`run_sim`](crate::run_sim) drives all three.

use dmpi_common::{Error, Result};
use dmpi_dcsim::{Activity, Demand, NodeId, Simulation, TaskId, TaskSpec};
use dmpi_dfs::simio;

use crate::calib;
use crate::runner::Workload;

pub mod datampi;
pub mod mapred;
pub mod spark;

/// Replication factor of every job's DFS output (3 in the paper's HDFS
/// configuration).
const OUTPUT_REPLICATION: usize = 3;

/// The cluster's node count; an empty cluster runs no job.
fn cluster_nodes(sim: &Simulation) -> Result<usize> {
    match sim.spec().nodes {
        0 => Err(Error::Config("empty cluster".into())),
        n => Ok(n as usize),
    }
}

/// Adds the job-wide barrier `{job}-{phase}` on node 0: it waits for
/// `deps`, takes `secs`, and changes every node's resident memory by
/// `mem_delta` (the runtime's daemons or heaps arriving or leaving).
fn barrier(
    sim: &mut Simulation,
    job: &str,
    phase: &str,
    deps: &[TaskId],
    secs: f64,
    mem_delta: i64,
) -> Result<TaskId> {
    let mut builder = TaskSpec::builder(format!("{job}-{phase}"), NodeId(0))
        .phase(phase)
        .deps(deps.iter().copied())
        .delay(secs);
    for node in sim.spec().node_ids() {
        builder = builder.activity(Activity::MemChange {
            node,
            delta: mem_delta,
        });
    }
    sim.add_task(builder.build())
}

/// Demands of writing `bytes` of job output from `node` through the DFS
/// pipeline: the primary replica is local, the others on the next nodes
/// round-robin (placement detail does not matter for aggregate cost;
/// distinctness does).
fn replicated_write(node: NodeId, nodes: usize, bytes: f64) -> Vec<Demand> {
    let replicas: Vec<NodeId> = (0..OUTPUT_REPLICATION)
        .map(|r| NodeId(((node.index() + r) % nodes) as u16))
        .collect();
    simio::write_demands(node, &replicas, bytes)
}

/// The job-name stem every engine's profile of `workload` starts with.
fn job_name(workload: Workload) -> &'static str {
    match workload {
        Workload::NormalSort => "sort-Normal",
        Workload::TextSort => "sort-Text",
        Workload::WordCount => "wordcount",
        Workload::Grep => "grep",
        Workload::KMeans => "kmeans",
        Workload::NaiveBayes => "bayes",
    }
}

/// Logical bytes per physical input byte: only Normal Sort reads
/// compressed sequence files.
fn input_compression(workload: Workload) -> f64 {
    match workload {
        Workload::NormalSort => calib::SEQFILE_COMPRESSION,
        _ => 1.0,
    }
}

/// Decompression CPU per physical input byte.
fn decompress_cpu_per_byte(workload: Workload) -> f64 {
    match workload {
        Workload::NormalSort => 1.0 / calib::DECOMPRESS_RATE,
        _ => 0.0,
    }
}

/// Whether `workload` is one of the two Sort variants.
fn is_sort(workload: Workload) -> bool {
    matches!(workload, Workload::NormalSort | Workload::TextSort)
}

#[cfg(test)]
mod tests {
    use dmpi_dfs::{DfsConfig, InputSplit, MiniDfs};

    use super::*;

    /// The splits of one `bytes`-long file written from node 0 of the
    /// paper's 8-node cluster.
    pub(super) fn splits(bytes: u64) -> Vec<InputSplit> {
        let dfs = MiniDfs::new(8, DfsConfig::paper_tuned()).unwrap();
        dfs.create_virtual("/in", NodeId(0), bytes).unwrap();
        dfs.splits("/in").unwrap()
    }

    #[test]
    fn profiles_reflect_engine_characteristics() {
        let dm = datampi::profile(Workload::WordCount, 4);
        let h = mapred::profile(Workload::WordCount, 4);
        assert!(
            h.map_cpu_per_byte > dm.o_cpu_per_byte,
            "hadoop pays the sort"
        );
        assert!(h.startup_secs > dm.startup_secs);
        assert!(dm.emit_ratio < 0.01, "combining shrinks intermediate data");
    }
}
