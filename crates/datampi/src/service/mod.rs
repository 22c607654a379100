//! The resident job service: `dmpid` workers, the multi-tenant
//! coordinator, and fair-share admission.
//!
//! The paper attributes DataMPI's latency edge on short BigDataBench
//! workloads to *resident, communication-ready processes* — no
//! per-job process launch, no per-job connection setup. This module is
//! that idea as a subsystem:
//!
//! * `protocol` — the one line codec ([`Line`]) and its verbs (`join`,
//!   `job`, `jobdone`, `submit`, …), with forward compatibility (unknown
//!   verbs skip, not error) as a protocol rule;
//! * `mesh` — the `JobMux`: many concurrent jobs multiplexed over one
//!   established TCP mesh via a job-id tag in the frame header;
//! * `admission` — `dcsim::fairshare` max-min progressive filling ported
//!   into a live admission controller ([`FairShareAdmission`]) with
//!   per-tenant quotas, a bounded queue, and graceful drain;
//! * `worker` — the resident worker loop behind the `dmpid` binary
//!   ([`run_resident_worker`], [`Seat`]);
//! * `coordinator` — the scheduler behind `dmpid --coordinator`
//!   ([`serve`]);
//! * `client` — the calls `dmpi` and `dmpirun` make against it
//!   ([`submit`], [`request`]).
//!
//! The one-shot path is not a separate implementation: `dmpirun` starts a
//! one-job session — [`serve`] on a thread, one [`Seat`] per worker
//! process — submits its job as job 0 through [`submit`], and drains as
//! soon as it is accepted, so the session ends with its one job. A job
//! crosses processes in exactly one way, started fresh or kept resident.

mod admission;
mod client;
mod coordinator;
mod mesh;
pub(crate) mod protocol;
mod worker;

pub use admission::{AdmissionConfig, FairShareAdmission};
pub use client::{request, submit};
pub use coordinator::{serve, ServiceConfig, ServiceSummary};
pub(crate) use mesh::JobChannels;
pub use protocol::{JobSpec, Line};
pub use worker::{run_resident_worker, JobResolver, PreparedJob, Seat};

#[cfg(test)]
#[path = "../../tests/unit/forward_compat.rs"]
mod forward_compat;
