//! One rank of a job on a TCP mesh, shared by every multi-process
//! surface.
//!
//! A job crosses processes in exactly one way: a resident job service
//! session ([`crate::service`]). `dmpid` keeps one session up for many
//! jobs; `dmpirun` starts a one-job session, runs its job as job 0 and
//! drains it. Either way a worker process:
//!
//! 1. binds a data listener and **joins** the session's coordinator
//!    (`join <port> <t0>`, answered by `clock <T>`, its seat `rank <r>
//!    <ranks> tlm=<0|1>` and, once every seat is taken, the [`RankTable`]
//!    broadcast `peers v0 <addr0> <addr1> …`);
//! 2. builds the full TCP mesh with [`establish_endpoint`] — exactly the
//!    fabric the threaded runtime uses for
//!    [`Backend::Tcp`](crate::transport::Backend) — and wraps it in a
//!    `JobMux` (`service/mesh.rs`);
//! 3. runs each dispatched job's rank through `run_mesh_rank` (the
//!    same per-rank body as an in-proc rank thread, `rank.rs`), pulling
//!    from the static `task % ranks == rank` assignment, so every process
//!    derives the same schedule with no further coordination, and
//!    derives only its own tasks' splits;
//! 4. reports each job as a
//!    [`WorkerEvent`](crate::service::protocol::WorkerEvent): an optional
//!    final `jobtlm` frame, then `jobdone <id> rank=… …` or `jobfail <id>
//!    rank=… err=…`.
//!
//! A worker that dies mid-job closes its sockets before sending its
//! [`Frame::Eof`](crate::comm::Frame); peers surface that as a structured
//! [`FaultKind::RankDeath`](dmpi_common::FaultKind) fault (see
//! `transport::tcp`), their jobs fail cleanly, and the coordinator sees
//! the rank's control stream end without a report.
//!
//! [`establish_endpoint`]: crate::transport::establish_endpoint

use std::net::SocketAddr;

use dmpi_common::Result;

use crate::config::JobConfig;
use crate::rank::{run_rank, JobFailure, RankContext, TaskQueues};
use crate::runtime::JobStats;
use crate::service::protocol::{Line, LineWriter};
use crate::service::JobChannels;
use crate::task::{Collector, GroupedValues};

/// Environment variable carrying the coordinator's address to a
/// `dmpirun` worker process.
pub const ENV_COORD: &str = "DMPI_COORD";

/// The rank table: the mesh's peer data addresses, indexed by rank. A
/// session broadcasts it once, when its last seat is taken; ranks never
/// join or leave a mesh in place.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RankTable {
    /// Peer data addresses, indexed by rank.
    pub peers: Vec<SocketAddr>,
}

impl RankTable {
    /// A table over `peers`.
    pub fn new(peers: Vec<SocketAddr>) -> Self {
        RankTable { peers }
    }

    /// Mesh width under this table.
    pub fn ranks(&self) -> usize {
        self.peers.len()
    }

    /// The broadcast wire form: `peers v0 <addr0> <addr1> …`.
    pub fn wire_line(&self) -> String {
        let line = LineWriter::new("peers").pos("v0");
        self.peers.iter().fold(line, LineWriter::pos).finish()
    }

    /// Parses a broadcast line. Any `v<N>` is accepted, so a peer that
    /// numbers its tables still parses.
    pub fn parse(line: &str) -> Option<RankTable> {
        Line::of(line, "peers").and_then(RankTable::from_line)
    }

    /// [`parse`](Self::parse) of a line already split off its verb.
    pub(crate) fn from_line(mut line: Line<'_>) -> Option<RankTable> {
        line.word()?.strip_prefix('v')?.parse::<u64>().ok()?;
        let mut peers = Vec::new();
        while let Some(addr) = line.word() {
            peers.push(addr.parse().ok()?);
        }
        (!peers.is_empty()).then_some(RankTable { peers })
    }
}

/// Runs one rank of one job over its attachment to an established mesh:
/// the body of every resident job, `dmpirun`'s job 0 included. It is
/// [`run_rank`] with what separate processes cannot share left out: of
/// `tasks`, this rank runs the static `task % ranks` share every process
/// computes locally (`o_fn` derives each task's split), there is no
/// checkpoint, the attempt is 0, and the failed flag is private to this
/// process (peers learn of a failure from their streams). The rank's A
/// output goes into `sink`, which comes back with the counters. The
/// caller owns mesh teardown; the channels die with this call.
pub(crate) fn run_mesh_rank<O, A, S>(
    config: &JobConfig,
    rank: usize,
    channels: JobChannels,
    tasks: usize,
    o_fn: O,
    a_fn: A,
    sink: S,
) -> Result<(S, JobStats)>
where
    O: Fn(usize, &mut dyn Collector) + Send + Sync,
    A: Fn(&GroupedValues, &mut dyn Collector) + Send + Sync,
    S: Collector,
{
    config.validate()?;
    let ranks = config.ranks;
    if let Some(obs) = config.observer.as_ref() {
        obs.begin_job(ranks);
    }
    let queues = TaskQueues::pinned(tasks, ranks);
    let failure = JobFailure::default();
    let cx = RankContext {
        config,
        rank,
        ranks,
        attempt: 0,
        queues: &queues,
        checkpoint: None,
        failure: &failure,
    };
    let (senders, receiver) = (channels.senders, channels.receiver);
    let (sink, mut stats) = run_rank(&cx, &o_fn, &a_fn, senders, receiver, |_| sink)?;
    if let Some(e) = failure.take() {
        return Err(e);
    }
    stats.attempts = 1;
    Ok((sink, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_tables_parse_any_version_and_reject_garbage() {
        let t = RankTable::parse("peers v3 127.0.0.1:1 127.0.0.1:2\n").unwrap();
        assert_eq!(t.ranks(), 2);
        assert!(RankTable::parse("peers 127.0.0.1:1 127.0.0.1:2\n").is_none());
        assert!(RankTable::parse("peers").is_none());
        assert!(RankTable::parse("peers v2").is_none());
        assert!(RankTable::parse("peers vx 127.0.0.1:1").is_none());
        assert!(RankTable::parse("ports 127.0.0.1:1").is_none());
    }

    #[test]
    fn rank_table_wire_line_round_trips() {
        let table = RankTable::new(vec![
            "127.0.0.1:9000".parse().unwrap(),
            "127.0.0.1:9001".parse().unwrap(),
        ]);
        assert_eq!(table.wire_line(), "peers v0 127.0.0.1:9000 127.0.0.1:9001");
        assert_eq!(RankTable::parse(&table.wire_line()).unwrap(), table);
    }
}
