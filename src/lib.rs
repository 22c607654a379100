//! `datampi-suite` — facade crate for the DataMPI reproduction workspace.
//!
//! Re-exports every workspace crate under one roof so examples and
//! downstream users can depend on a single package:
//!
//! ```
//! use datampi_suite::common::kv::Record;
//! let r = Record::from_strs("hello", "1");
//! assert_eq!(r.key_utf8(), "hello");
//! ```

pub use datampi;
pub use dmpi_common as common;
pub use dmpi_datagen as datagen;
pub use dmpi_dcsim as dcsim;
pub use dmpi_dfs as dfs;
pub use dmpi_mapred as mapred;
pub use dmpi_rddsim as rddsim;
pub use dmpi_workloads as workloads;

/// README.md's Rust examples, run as doctests, so the paths they name
/// stay public.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
