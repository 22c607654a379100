//! `dmpi-workloads` — the five BigDataBench workloads of the paper
//! (Table 1), implemented against all three engines.
//!
//! | # | Workload    | Type            | Module       |
//! |---|-------------|-----------------|--------------|
//! | 1 | Sort        | Micro-benchmark | [`sort`]     |
//! | 2 | WordCount   | Micro-benchmark | [`wordcount`]|
//! | 3 | Grep        | Micro-benchmark | [`grep`]     |
//! | 4 | Naive Bayes | Social Network  | [`bayes`]    |
//! | 5 | K-means     | E-commerce      | [`kmeans`]   |
//!
//! Each module provides:
//!
//! * the **algorithm** as engine-agnostic O/map and A/reduce functions over
//!   key-value records (really executable — the unit tests check
//!   cross-engine result equality);
//! * **drivers** running it on the DataMPI runtime, the MapReduce runtime,
//!   and the RDD engine.
//!
//! The paper-scale experiments run in the simulator instead: [`model`]
//! holds everything it assumes about the three engines — one profile per
//! workload and engine, built from the calibration constants in
//! [`calib`], and each engine's compiler into simulator tasks — and
//! [`runner`] runs one `(workload, engine, input size)` cell through it
//! and returns job time plus the resource profile, the primitive every
//! figure of the paper is regenerated from. [`vectorize`] implements the
//! Mahout-style `seq2sparse` preprocessing chain (dictionary job +
//! vectorization job) that feeds both applications.

pub mod bayes;
pub mod calib;
pub mod catalog;
pub mod exec;
pub mod grep;
pub mod kmeans;
pub mod model;
pub mod runner;
pub mod sort;
pub mod vectorize;
pub mod wordcount;

pub use exec::{CatalogueResolver, ExecWorkload};
pub use runner::{run_sim, Engine, Outcome, Workload};
