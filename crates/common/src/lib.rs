//! Shared foundations for the `datampi-rs` workspace.
//!
//! This crate provides the vocabulary types used by every other crate in the
//! reproduction of *"Performance Benefits of DataMPI: A Case Study with
//! BigDataBench"*:
//!
//! * [`kv`] — key-value records, the unit of data movement in all three
//!   engines (DataMPI, the Hadoop-like MapReduce engine, the Spark-like RDD
//!   engine).
//! * [`ser`] — a `Writable`-style binary serialization layer with
//!   length-prefixed framing, mirroring Hadoop's on-disk/on-wire record
//!   format.
//! * [`varint`] — LEB128 variable-length integers used by the framing layer
//!   and the block codec.
//! * [`compare`] — byte-order sorting and merging, so sorting can operate
//!   on serialized records without deserializing them.
//! * [`partition`] — hash and range partitioners mapping keys to reducer /
//!   A-communicator indices.
//! * [`codec`] — a from-scratch LZ77 block codec standing in for Hadoop's
//!   `GzipCodec` (used by the *Normal Sort* workload's compressed sequence
//!   files).
//! * [`hashing`] — a fast FNV-1a hasher for hot hash-partitioning paths.
//! * [`scan`] — word-at-a-time byte search for the text scans.
//! * [`units`] — byte-size constants and formatting helpers.
//! * [`error`] — the shared error type.

#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod codec;
pub mod compare;
pub mod crc;
pub mod error;
pub mod group;
pub mod hashing;
pub mod kv;
pub mod partition;
pub mod scan;
pub mod ser;
pub mod units;
pub mod varint;

pub use error::{Error, FaultCause, FaultKind, Result};
pub use kv::{Record, RecordBatch};
