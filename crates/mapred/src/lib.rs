//! `dmpi-mapred` — a Hadoop-1.x-like MapReduce engine.
//!
//! This is the **baseline** the paper compares DataMPI against: Apache
//! Hadoop 1.2.1 with the behaviours the evaluation attributes its costs to:
//!
//! * map-side **sort/spill/merge** — map output is buffered (`io.sort.mb`),
//!   sorted by `(partition, key)`, optionally combined, and spilled to
//!   local disk; spills are merged into one materialized, partitioned map
//!   output file per task ([`runtime::SortSpillBuffer`]);
//! * **disk-materialized shuffle** — reducers fetch map-output segments
//!   over HTTP (network + source-disk reads) and merge them, re-spilling
//!   when the merge buffer overflows;
//! * **per-task JVM launch** and heavyweight job startup/scheduling
//!   latency, which dominate the small-job experiments (Figure 5);
//! * **3× replicated output** writes through the DFS pipeline.
//!
//! The crate is the real multi-threaded runtime
//! ([`runtime::run_mapreduce`]); the paper-scale simulator's model of
//! Hadoop lives in `dmpi_workloads::model::mapred`. The staged structure —
//! read, *then* sort, *then* spill, *then* shuffle — is precisely what
//! makes its simulated phases additive where DataMPI's pipelined phases
//! overlap.

pub mod config;
pub mod runtime;

pub use config::MapRedConfig;
pub use runtime::{run_mapreduce, MrJobOutput, MrStats};
