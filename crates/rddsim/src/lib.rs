//! `dmpi-rddsim` — a Spark-0.8-like RDD engine.
//!
//! The paper's second baseline: Apache Spark 0.8.1, whose defining traits
//! the evaluation leans on are reproduced here:
//!
//! * **RDDs with lineage** ([`rdd`]) — datasets are immutable DAGs of
//!   coarse-grained transformations; a lost partition is recomputed from
//!   its lineage rather than restored from a checkpoint;
//! * **stage-based DAG scheduling** — narrow transformations fuse into one
//!   stage (pipelined in-memory), shuffles cut stage boundaries;
//! * **in-memory caching** via a block-manager with a strict budget, whose
//!   exhaustion produces the `OutOfMemory` failures the paper hits when
//!   sorting more than 8 GB (Figure 3(a)/(b));
//! * **low job startup** relative to Hadoop (executors are reused; tasks
//!   are threads, not JVMs) — the paper's small-job result (Figure 5).
//!
//! The crate is the real executing runtime ([`rdd`], driven through
//! [`rdd::SparkContext`]); the paper-scale simulator's model of Spark,
//! with its explicit stage list, lives in `dmpi_workloads::model::spark`.

pub mod config;
pub mod rdd;

pub use config::SparkConfig;
pub use rdd::{Rdd, SparkContext};
