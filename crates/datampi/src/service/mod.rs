//! The resident job service: `dmpid` workers, the multi-tenant
//! coordinator, and fair-share admission.
//!
//! The paper attributes DataMPI's latency edge on short BigDataBench
//! workloads to *resident, communication-ready processes* — no
//! per-job process launch, no per-job connection setup. This module is
//! that idea as a subsystem:
//!
//! * [`protocol`] — the one line codec and its verbs (`join`, `job`,
//!   `jobdone`, `submit`, …), with forward compatibility (unknown verbs
//!   skip, not error) as a protocol rule;
//! * [`mesh`] — the [`JobMux`]: many concurrent jobs multiplexed over
//!   one established TCP mesh via a job-id tag in the frame header;
//! * [`admission`] — `dcsim::fairshare` max-min progressive filling
//!   ported into a live admission controller with per-tenant quotas, a
//!   bounded queue, and graceful drain;
//! * [`worker`] — the resident worker loop behind the `dmpid` binary;
//! * [`coordinator`] — the scheduler behind `dmpid --coordinator`;
//! * [`client`] — the calls `dmpi` and `dmpirun` make against it.
//!
//! The one-shot path is not a separate implementation: `dmpirun` starts a
//! one-job session — [`serve`] on a thread, one [`Seat`] per worker
//! process — submits its job as job 0 through [`submit`], and drains as
//! soon as it is accepted, so the session ends with its one job. A job
//! crosses processes in exactly one way, started fresh or kept resident.

pub mod admission;
pub mod client;
pub mod coordinator;
pub mod mesh;
pub mod protocol;
pub mod worker;

pub use admission::{AdmissionConfig, FairShareAdmission, RejectReason};
pub use client::{request, submit, Submission};
pub use coordinator::{serve, ServiceConfig, ServiceSummary};
pub use mesh::{JobChannels, JobMux};
pub use protocol::{JobSpec, WorkerDone};
pub use worker::{run_resident_worker, JobResolver, PreparedJob, Seat};
