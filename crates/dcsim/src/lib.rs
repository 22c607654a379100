//! `dmpi-dcsim` — a discrete-event datacenter simulator.
//!
//! This crate is the substrate that replaces the paper's physical testbed
//! (8 nodes, dual Xeon E5620, 16 GB RAM, one SATA disk, 1 GbE) for the
//! paper-scale experiments. Execution engines (DataMPI, the Hadoop-like
//! MapReduce engine, the Spark-like RDD engine) compile jobs into DAGs of
//! [`task::TaskSpec`]s whose activities demand node resources; the simulator
//! executes the DAG against a **max-min fair fluid model**:
//!
//! * every node exposes a CPU pool (core-seconds/second), a disk
//!   (bytes/second, reads and writes share the spindle), and a full-duplex
//!   NIC (independent in/out bytes/second);
//! * at every instant, active tasks receive max-min fair rates computed by
//!   *progressive filling* over all resources they demand ([`fairshare`]);
//! * an activity may demand several resources at once — progress is coupled,
//!   which is exactly how pipelined execution (DataMPI's overlap of O-task
//!   computation with key-value movement) differs from staged execution
//!   (Hadoop's read → sort → spill → shuffle): a pipelined phase costs
//!   `max` of its resource times, a staged one costs their sum.
//!
//! The simulator also produces the per-second resource time series (CPU
//! utilization and wait-I/O, disk and network throughput, memory footprint)
//! that the paper plots in Figure 4.

pub mod engine;
pub mod failure;
pub mod fairshare;
pub mod metrics;
pub mod report;
pub mod spec;
pub mod task;
pub mod timeline;

pub use engine::Simulation;
pub use failure::{FailureSpec, RecoveryModel, RecoveryStats};
pub use report::{SimReport, TaskRecord};
pub use spec::{ClusterSpec, NodeId};
pub use task::{Activity, Demand, IoTag, Resource, SlotKind, TaskId, TaskSpec};
