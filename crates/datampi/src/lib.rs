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
//! Fault tolerance is key-value checkpoint/restart ([`checkpoint`]) driven
//! by a bounded-retry [`supervisor`]; the [`fault`] module injects
//! deterministic, seeded faults (task errors, rank deaths, stragglers,
//! wire corruption caught by per-frame CRCs) to exercise that machinery.
//!
//! Every executing surface runs the same per-rank program — ingest
//! thread, O loop, EOFs, A loop (`rank.rs`; DESIGN.md "Execution core")
//! — and differs only in where its ranks live and what they can share:
//!
//! * the **in-proc runtime** ([`runtime`]): ranks are threads of one
//!   process connected by a pluggable [`transport`] (the in-proc channel
//!   fabric or a real TCP mesh), sharing one task queue, speculation
//!   board, checkpoint and failed flag — the surface of the test suite,
//!   the benchmark package's data workloads and the [`supervisor`];
//! * **one rank per process**, in a job service session ([`service`]
//!   over [`distrib`]): kept resident for many jobs by `dmpid`, or
//!   started for one by the `dmpirun` launcher — the static task
//!   assignment, no board, no checkpoint.
//!
//! Beside them, a **plan compiler** ([`plan`]) translates the same job
//! into `dmpi-dcsim` activities for the paper-scale experiments.

#![warn(missing_docs)]

pub mod buffer;
pub mod checkpoint;
pub mod comm;
pub mod config;
pub mod distrib;
pub mod fault;
pub mod iteration;
pub mod observe;
pub mod plan;
mod rank;
pub mod runtime;
pub mod service;
pub mod speculate;
pub mod spillfmt;
pub mod store;
pub mod supervisor;
pub mod task;
pub mod transport;

pub use config::{JobConfig, WireCompression};
pub use fault::FaultPlan;
pub use observe::{Observer, PhaseTotals, Profiler, SpanKind, Trace};
pub use runtime::{run_job, JobOutput, JobStats};
pub use speculate::{Scheduling, SpeculationConfig};
pub use spillfmt::{KeyRange, SealedRun, SpillConfig, SpillReadCounters};
pub use supervisor::{
    supervise_job, supervise_job_elastic, ElasticOutput, ElasticPolicy, RetryPolicy,
};
pub use task::{Collector, Combiner, GroupedValues};
pub use transport::{
    Backend, Endpoint, FrameReceiver, FrameSender, TcpOptions, Transport, WireStats,
};
