//! Multi-process execution: the worker and coordinator halves of
//! `dmpirun`.
//!
//! The launcher model is deliberately minimal — `mpirun` on localhost:
//!
//! 1. the **coordinator** (the `dmpirun` parent process) binds a
//!    rendezvous listener and spawns one worker process per rank with
//!    `DMPI_RANK` / `DMPI_RANKS` / `DMPI_COORD` in the environment;
//! 2. each **worker** binds its own data listener on an ephemeral port,
//!    dials the coordinator (with seeded-jitter retry, so a herd of
//!    workers restarting together decorrelates), and registers
//!    `rank <r> <port> <t0>`, `t0` being its clock reading; the
//!    coordinator answers `clock <T>` at once, which gives the worker
//!    its [`ClockSync`];
//! 3. once every rank has registered, the coordinator broadcasts the
//!    complete **versioned** rank table (`peers v<version> <addr0>
//!    <addr1> …` — see [`RankTable`]), and every worker builds the full
//!    TCP mesh with [`establish_endpoint`] — exactly the fabric the
//!    threaded runtime uses for
//!    [`Backend::Tcp`](crate::transport::Backend), so both surfaces run
//!    the same wire code;
//! 4. workers run the job ([`run_worker`]): each executes the same
//!    per-rank body as an in-proc rank thread (`rank.rs`), pulling from
//!    the static `task % ranks == rank` assignment — every process
//!    derives the same schedule with no further coordination;
//! 5. each worker reports back over its rendezvous connection in the
//!    resident service's worker vocabulary
//!    ([`WorkerEvent`](crate::service::protocol::WorkerEvent)), as job 0:
//!    `jobtlm 0 tlm …` frames while it runs, then `jobdone 0 rank=… …`
//!    or `jobfail 0 rank=… err=…`; the coordinator sums the `jobdone`
//!    counters across ranks.
//!
//! Every line above is one line of the control-plane grammar, read and
//! written through the codec in [`crate::service::protocol`].
//!
//! A worker that dies mid-job closes its sockets before sending its
//! [`Frame::Eof`](crate::comm::Frame); peers surface that as a structured
//! [`FaultKind::RankDeath`](dmpi_common::FaultKind) fault (see
//! `transport::tcp`), their jobs fail cleanly, and the coordinator sees
//! both the missing result line and the nonzero exit status. With
//! `dmpirun --elastic` the coordinator then re-runs the rendezvous one
//! rank narrower under a bumped table version — ranks leave (and
//! replacements join) a mesh by being included in, or dropped from, the
//! next version of the table rather than by any in-band repair.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

use bytes::Bytes;

use dmpi_common::kv::RecordBatch;
use dmpi_common::{Error, FaultCause, FaultKind, Result};

use crate::config::JobConfig;
use crate::observe::{ClockSync, HistKind};
use crate::rank::{run_rank, JobFailure, RankContext};
use crate::runtime::JobStats;
use crate::service::protocol::{read_known_line, Line, LineWriter};
use crate::service::{JobChannels, JobMux};
use crate::speculate::{Scheduling, TaskQueues};
use crate::task::{Collector, GroupedValues};
use crate::transport::{establish_endpoint, jitter_state, retry_backoff, TcpOptions, WireStats};

/// Environment variable carrying a worker's rank.
pub const ENV_RANK: &str = "DMPI_RANK";
/// Environment variable carrying the total rank count.
pub const ENV_RANKS: &str = "DMPI_RANKS";
/// Environment variable carrying the coordinator's rendezvous address.
pub const ENV_COORD: &str = "DMPI_COORD";
/// Environment variable carrying the launch attempt (0 for a fresh job;
/// bumped by `dmpirun --elastic` relaunches so one-shot injections like
/// `--fail-rank` fire only once).
pub const ENV_ATTEMPT: &str = "DMPI_ATTEMPT";

/// How long rendezvous reads may block before the launcher gives up on a
/// worker (or a worker on the launcher).
pub const RENDEZVOUS_TIMEOUT: Duration = Duration::from_secs(60);

fn rendezvous_fault(detail: String) -> Error {
    Error::fault(FaultCause::new(FaultKind::Transport, detail))
}

/// One rank's result of a multi-process job.
#[derive(Debug)]
pub struct WorkerReport {
    /// The rank's A-partition output.
    pub partition: RecordBatch,
    /// The rank's share of the job counters.
    pub stats: JobStats,
    /// Encoded bytes this rank's sockets actually carried.
    pub wire: WireStats,
}

/// A versioned rank table: the mesh's peer data addresses (indexed by
/// rank) plus the membership **version** that produced them. Version 0
/// is a job's original table; the coordinator bumps the version every
/// time membership changes — a rank leaving (death absorbed by the
/// elastic supervisor) or a replacement joining. Ranks never patch a
/// mesh in place: they join or leave by appearing in, or vanishing
/// from, the *next* broadcast version, so every worker always holds a
/// consistent table and can tell a stale one from a current one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RankTable {
    /// Membership version (0 = the original table).
    pub version: u64,
    /// Peer data addresses, indexed by rank.
    pub peers: Vec<SocketAddr>,
}

impl RankTable {
    /// Builds version `version` of a table over `peers`.
    pub fn new(version: u64, peers: Vec<SocketAddr>) -> Self {
        RankTable { version, peers }
    }

    /// Mesh width under this table.
    pub fn ranks(&self) -> usize {
        self.peers.len()
    }

    /// The broadcast wire form: `peers v<version> <addr0> <addr1> …`.
    pub fn wire_line(&self) -> String {
        let line = LineWriter::new("peers").pos(format_args!("v{}", self.version));
        self.peers.iter().fold(line, LineWriter::pos).finish()
    }

    /// Parses a broadcast line.
    pub fn parse(line: &str) -> Option<RankTable> {
        let mut line = Line::of(line, "peers")?;
        let version = line.word()?.strip_prefix('v')?.parse().ok()?;
        let mut peers = Vec::new();
        while let Some(addr) = line.word() {
            peers.push(addr.parse().ok()?);
        }
        (!peers.is_empty()).then_some(RankTable { version, peers })
    }
}

/// Worker side of the rendezvous: dials the coordinator, registers this
/// rank's data `port`, syncs clocks, and blocks until the full rank table
/// arrives. Returns the (still-open) coordinator stream — the worker
/// later writes its result line on it — the versioned [`RankTable`] and
/// the [`ClockSync`].
///
/// The dial retries with the transport's seeded-jitter exponential
/// backoff ([`retry_backoff`]): when a whole width of workers restarts
/// at once (elastic relaunch, supervisor retry), their redials spread
/// out instead of hammering the coordinator's accept queue in lockstep.
///
/// The clock handshake: the worker stamps `t0 = now_us()` into its
/// registration (`rank <r> <port> <t0>`), the coordinator answers
/// `clock <T>` with its own reading before the table broadcast, and the
/// worker derives its [`ClockSync`] from the exchange. `now_us` is the
/// worker's local µs clock (the same one its observer stamps spans with,
/// so the returned offset maps those spans onto the coordinator's
/// timeline).
pub fn register_with_coordinator(
    coord: SocketAddr,
    rank: usize,
    port: u16,
    now_us: &dyn Fn() -> u64,
) -> Result<(TcpStream, RankTable, ClockSync)> {
    let opts = TcpOptions::default();
    // Peer index 0 = "the coordinator" in the jitter stream; data-mesh
    // dials use real peer ranks, but they also use a different seed mix
    // (rank vs rank<<32) so the streams never collide.
    let mut jitter = jitter_state(opts.jitter_seed, rank, 0);
    let mut stream = None;
    let mut last_err = String::new();
    for attempt in 0..opts.connect_attempts.max(1) {
        match TcpStream::connect(coord) {
            Ok(s) => {
                stream = Some(s);
                break;
            }
            Err(e) => last_err = e.to_string(),
        }
        std::thread::sleep(retry_backoff(
            attempt,
            opts.connect_base_delay,
            opts.connect_max_delay,
            &mut jitter,
        ));
    }
    let stream = stream.ok_or_else(|| {
        rendezvous_fault(format!(
            "rank {rank}: dial coordinator {coord} failed after {} attempts: {last_err}",
            opts.connect_attempts.max(1)
        ))
    })?;
    stream
        .set_read_timeout(Some(RENDEZVOUS_TIMEOUT))
        .map_err(|e| rendezvous_fault(format!("rank {rank}: set rendezvous timeout: {e}")))?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| rendezvous_fault(format!("rank {rank}: clone rendezvous stream: {e}")))?;
    let t0 = now_us();
    let registration = LineWriter::new("rank").pos(rank).pos(port).pos(t0);
    writeln!(writer, "{}", registration.finish())
        .map_err(|e| rendezvous_fault(format!("rank {rank}: register with coordinator: {e}")))?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    // Forward compatibility: a newer coordinator may interleave verbs
    // this build does not know (the service protocol adds `job`,
    // `jobdone`, …); the reader skips them instead of erroring.
    let known = |verb: &str| verb == "clock" || verb == "peers";
    read_known_line(&mut reader, &mut line, known)
        .map_err(|e| rendezvous_fault(format!("rank {rank}: read clock reply: {e}")))?;
    let coord_now = Line::of(&line, "clock")
        .and_then(|mut l| l.pos::<u64>())
        .ok_or_else(|| rendezvous_fault(format!("rank {rank}: bad clock reply {line:?}")))?;
    let sync = ClockSync::from_exchange(t0, coord_now, now_us());
    line.clear();
    read_known_line(&mut reader, &mut line, known)
        .map_err(|e| rendezvous_fault(format!("rank {rank}: read rank table: {e}")))?;
    let table = RankTable::parse(&line)
        .ok_or_else(|| rendezvous_fault(format!("rank {rank}: bad rank table line {line:?}")))?;
    Ok((reader.into_inner(), table, sync))
}

/// Coordinator side of the rendezvous: accepts one connection per rank,
/// reads each worker's `rank <r> <port> <t0>` registration, answers it
/// at once with `clock <now_us()>` (the clock handshake's second leg),
/// then broadcasts the complete rank table — stamped with `version` — to
/// all of them. Returns the still-open worker streams indexed by rank
/// (the workers' result lines arrive on these). A fresh job is version
/// 0; elastic relaunches call this again with the surviving width and a
/// bumped version. `dmpirun` passes its observer's clock as `now_us` so
/// worker spans land on the same timeline its own events use.
pub fn coordinate_rank_table(
    listener: &TcpListener,
    ranks: usize,
    version: u64,
    now_us: &dyn Fn() -> u64,
) -> Result<Vec<TcpStream>> {
    let mut streams: Vec<Option<TcpStream>> = (0..ranks).map(|_| None).collect();
    let mut ports = vec![0u16; ranks];
    for _ in 0..ranks {
        let (stream, _) = listener
            .accept()
            .map_err(|e| rendezvous_fault(format!("coordinator accept failed: {e}")))?;
        stream
            .set_read_timeout(Some(RENDEZVOUS_TIMEOUT))
            .map_err(|e| rendezvous_fault(format!("coordinator set timeout: {e}")))?;
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        // Skip unknown leading verbs: a newer worker may preface its
        // registration with verbs from a future protocol revision.
        read_known_line(&mut reader, &mut line, |verb| verb == "rank")
            .map_err(|e| rendezvous_fault(format!("coordinator read registration: {e}")))?;
        let (rank, port) = parse_registration(&line)
            .ok_or_else(|| rendezvous_fault(format!("bad registration line {line:?}")))?;
        if rank >= ranks || streams[rank].is_some() {
            return Err(rendezvous_fault(format!(
                "registration for unexpected rank {rank} (of {ranks})"
            )));
        }
        // Reply per-connection, before waiting on other ranks, so the
        // worker's measured RTT stays as tight as possible.
        let clock = LineWriter::new("clock").pos(now_us());
        writeln!(reader.get_mut(), "{}", clock.finish())
            .map_err(|e| rendezvous_fault(format!("clock reply to rank {rank}: {e}")))?;
        ports[rank] = port;
        streams[rank] = Some(reader.into_inner());
    }
    let table = RankTable::new(
        version,
        ports
            .iter()
            .map(|p| format!("127.0.0.1:{p}").parse().expect("loopback addr"))
            .collect(),
    );
    let line = table.wire_line();
    let mut out = Vec::with_capacity(ranks);
    for (rank, stream) in streams.into_iter().enumerate() {
        let mut stream = stream.expect("every slot filled above");
        writeln!(stream, "{line}")
            .map_err(|e| rendezvous_fault(format!("broadcast table to rank {rank}: {e}")))?;
        out.push(stream);
    }
    Ok(out)
}

/// Parses `rank <r> <port> <t0>`. The worker's `t0` only has to be a
/// clock reading: the sync is computed on the worker's side.
fn parse_registration(line: &str) -> Option<(usize, u16)> {
    let mut line = Line::of(line, "rank")?;
    let (rank, port) = (line.pos()?, line.pos()?);
    line.pos::<u64>()?;
    Some((rank, port))
}

/// Runs one rank of a multi-process job over an already-distributed rank
/// table: builds this rank's mesh endpoint, runs the rank
/// (`run_mesh_rank`) as job 0 of that mesh, and tears the mesh down.
///
/// `inputs` is the *full* task table — every worker derives it
/// deterministically (same seed), so no split data crosses the
/// rendezvous. A [`FaultPlan`](crate::fault::FaultPlan) in `config` is
/// honoured as on the in-proc runtime with attempt 0; `dmpirun` only
/// ever builds [`SlowRank`](crate::fault::FaultEvent::SlowRank) pacing
/// (`--slow-rank`, a real straggler process) — it kills whole processes
/// for everything else, a worker process being the fault domain.
pub fn run_worker<O, A>(
    config: &JobConfig,
    rank: usize,
    listener: TcpListener,
    peers: &[SocketAddr],
    inputs: &[Bytes],
    o_fn: O,
    a_fn: A,
) -> Result<WorkerReport>
where
    O: Fn(usize, &[u8], &mut dyn Collector) + Send + Sync,
    A: Fn(&GroupedValues, &mut dyn Collector) + Send + Sync,
{
    config.validate()?;
    let ranks = peers.len();
    if rank >= ranks {
        return Err(Error::Config(format!("rank {rank} out of 0..{ranks}")));
    }
    let observer = config.observer.as_ref();
    let mut opts = TcpOptions::from_config(config);
    opts.send_hist = observer.map(|o| o.registry().histograms().handle(HistKind::SendLatency));
    let mut endpoint = establish_endpoint(rank, listener, peers, &opts)?;
    if let Some(obs) = observer {
        endpoint.attach_window_wait(obs.registry().histograms().handle(HistKind::WindowWait));
    }
    // One-shot execution is the degenerate resident-service session:
    // the mesh is wrapped in a [`JobMux`] and the whole job runs as job
    // 0 of that mesh, so `dmpirun` and `dmpid` exercise the same frame
    // path (tag on send, route + strip on receive) and the service
    // inherits the one-shot byte-identity guarantees for free.
    let mux = JobMux::new(endpoint);
    let result = mux
        .open_job(0)
        .and_then(|channels| run_mesh_rank(config, rank, ranks, channels, inputs, o_fn, a_fn));
    mux.finish_job(0);
    // Teardown before any error propagates, so writer/reader threads
    // never outlive the report.
    let wire = mux.close();
    let (partition, stats) = result?;
    if let Some(obs) = observer {
        obs.registry().add_wire_stats(&wire);
    }
    Ok(WorkerReport {
        partition,
        stats,
        wire,
    })
}

/// Runs one rank of one job over its attachment to an established mesh
/// — the body shared by one-shot [`run_worker`] (job 0 of a fresh mesh)
/// and the resident service worker (many jobs, concurrently, over one
/// [`JobMux`]). It is [`run_rank`] with what separate processes cannot
/// share left out: the split dispenser is the static `task % ranks`
/// assignment every process computes locally, there is no progress board
/// and no checkpoint — whatever `config.scheduling` and
/// `config.speculation` say, since a per-process board would wait
/// forever for other processes' tasks — the attempt is 0, and the failed
/// flag is private to this process (peers learn of a failure from their
/// streams). The caller owns mesh teardown; the channels die with this
/// call.
pub(crate) fn run_mesh_rank<O, A>(
    config: &JobConfig,
    rank: usize,
    ranks: usize,
    channels: JobChannels,
    inputs: &[Bytes],
    o_fn: O,
    a_fn: A,
) -> Result<(RecordBatch, JobStats)>
where
    O: Fn(usize, &[u8], &mut dyn Collector) + Send + Sync,
    A: Fn(&GroupedValues, &mut dyn Collector) + Send + Sync,
{
    config.validate()?;
    if let Some(obs) = config.observer.as_ref() {
        obs.begin_job(ranks);
    }
    let pinned = Scheduling::Static {
        work_stealing: false,
    };
    let queues = TaskQueues::new(pinned, inputs.len(), ranks, 0);
    let failure = JobFailure::default();
    let cx = RankContext {
        config,
        rank,
        ranks,
        attempt: 0,
        inputs,
        queues: &queues,
        board: None,
        checkpoint: None,
        failure: &failure,
    };
    let o_fn = move |task: usize, split: &Bytes, out: &mut dyn Collector| o_fn(task, split, out);
    let (partition, mut stats) = run_rank(&cx, &o_fn, &a_fn, channels.senders, channels.receiver)?;
    if let Some(e) = failure.take() {
        return Err(e);
    }
    stats.attempts = 1;
    Ok((partition, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::{Counter, Observer, SpanKind};
    use crate::runtime::run_job;
    use dmpi_common::ser::Writable;
    use std::thread;

    type OFn = fn(usize, &[u8], &mut dyn Collector);

    fn wc_o(_task: usize, split: &[u8], out: &mut dyn Collector) {
        for word in split.split(|&b| b == b' ').filter(|w| !w.is_empty()) {
            out.collect(word, &1u64.to_bytes());
        }
    }

    fn wc_a(group: &GroupedValues, out: &mut dyn Collector) {
        let total: u64 = group
            .values
            .iter()
            .map(|v| u64::from_bytes(v).unwrap())
            .sum();
        out.collect(&group.key, &total.to_bytes());
    }

    /// A frozen clock for rendezvous calls whose sync nobody reads.
    fn no_clock() -> u64 {
        0
    }

    /// The full launcher protocol, with worker *threads* standing in for
    /// worker processes: rendezvous at table version 0, mesh
    /// establishment, [`run_worker`] under `configs[rank]`. Returns each
    /// rank's result.
    fn launch(configs: Vec<JobConfig>, inputs: &[Bytes], o: OFn) -> Vec<Result<WorkerReport>> {
        let ranks = configs.len();
        let coord = TcpListener::bind("127.0.0.1:0").unwrap();
        let coord_addr = coord.local_addr().unwrap();
        let workers: Vec<_> = configs
            .into_iter()
            .enumerate()
            .map(|(rank, config)| {
                let inputs = inputs.to_vec();
                thread::spawn(move || {
                    let data = TcpListener::bind("127.0.0.1:0").unwrap();
                    let port = data.local_addr().unwrap().port();
                    let (_stream, table, _sync) =
                        register_with_coordinator(coord_addr, rank, port, &no_clock).unwrap();
                    assert_eq!(table.version, 0, "fresh job broadcasts version 0");
                    run_worker(&config, rank, data, &table.peers, &inputs, o, wc_a)
                })
            })
            .collect();
        let streams = coordinate_rank_table(&coord, ranks, 0, &no_clock).unwrap();
        assert_eq!(streams.len(), ranks);
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    }

    fn launch_ok(configs: Vec<JobConfig>, inputs: &[Bytes], o: OFn) -> Vec<WorkerReport> {
        launch(configs, inputs, o)
            .into_iter()
            .map(|r| r.unwrap())
            .collect()
    }

    /// Rendezvous, mesh establishment, static O scheduling, and result
    /// equality against the in-proc runtime.
    #[test]
    fn protocol_round_trip_matches_in_proc_output() {
        let ranks = 3;
        let inputs: Vec<Bytes> = (0..7)
            .map(|i| Bytes::from(format!("w{} w{} shared", i, (i * 3) % 5)))
            .collect();
        let config = JobConfig::new(ranks);
        let mut reports = launch_ok(vec![config.clone(); ranks], &inputs, wc_o);

        let baseline = run_job(&config, inputs, wc_o, wc_a, None).unwrap();
        let total_tasks: u64 = reports.iter().map(|r| r.stats.o_tasks_run).sum();
        assert_eq!(total_tasks, 7);
        for (rank, report) in reports.iter_mut().enumerate() {
            assert_eq!(
                report.partition.records(),
                baseline.partitions[rank].records(),
                "partition {rank} must match the in-proc runtime"
            );
            assert!(report.wire.bytes_sent > 0);
        }
        let records: u64 = reports.iter().map(|r| r.stats.records_emitted).sum();
        assert_eq!(records, baseline.stats.records_emitted);
    }

    /// Line-decomposable WordCount (required by the parallel O
    /// executor's chunking contract — words never span lines).
    fn lines_o(_task: usize, split: &[u8], out: &mut dyn Collector) {
        for line in split.split(|&b| b == b'\n') {
            for word in line.split(|&b| b == b' ').filter(|w| !w.is_empty()) {
                out.collect(word, &1u64.to_bytes());
            }
        }
    }

    fn lined_inputs(tasks: usize) -> Vec<Bytes> {
        (0..tasks)
            .map(|i| {
                let mut s = String::new();
                for j in 0..30 {
                    s.push_str(&format!("w{} shared\n", (i * 7 + j) % 9));
                }
                Bytes::from(s)
            })
            .collect()
    }

    #[test]
    fn parallel_workers_match_in_proc_sequential_output() {
        let ranks = 2;
        let inputs = lined_inputs(4);
        let config = JobConfig::new(ranks)
            .with_o_parallelism(4)
            .with_o_chunk_bytes(32);
        let reports = launch_ok(vec![config; ranks], &inputs, lines_o);

        // Byte-identity bar: multi-process parallel workers equal the
        // in-proc sequential runtime partition for partition.
        let seq = JobConfig::new(ranks).with_o_parallelism(1);
        let baseline = run_job(&seq, inputs, lines_o, wc_a, None).unwrap();
        for (rank, report) in reports.iter().enumerate() {
            assert_eq!(
                report.partition.records(),
                baseline.partitions[rank].records(),
                "partition {rank} must match sequential in-proc output"
            );
        }
        let records: u64 = reports.iter().map(|r| r.stats.records_emitted).sum();
        assert_eq!(records, baseline.stats.records_emitted);
    }

    /// Panics on task 0 — rank 0's under the static assignment.
    fn panics_on_task_zero(task: usize, split: &[u8], out: &mut dyn Collector) {
        if task == 0 {
            panic!("user code exploded");
        }
        lines_o(task, split, out);
    }

    #[test]
    fn panicking_o_task_is_a_fault_on_its_rank_and_no_hang_on_the_peer() {
        // Direct emission (1) and the chunk pool (4): both must turn the
        // panic into a TaskPanic fault *after* this rank's EOFs went out,
        // so neither its own ingest thread nor the peer waits forever.
        for o_parallelism in [1usize, 4] {
            let config = JobConfig::new(2)
                .with_o_parallelism(o_parallelism)
                .with_o_chunk_bytes(32);
            let mut results = launch(vec![config; 2], &lined_inputs(4), panics_on_task_zero);
            // The peer returns (its streams closed cleanly); what it
            // returns is the launcher's to discard.
            let _peer = results.pop().unwrap();
            let err = results.pop().unwrap().unwrap_err();
            let cause = err.fault_cause().expect("structured cause");
            assert_eq!(cause.kind, FaultKind::TaskPanic, "p={o_parallelism}");
            assert_eq!((cause.task, cause.rank), (Some(0), Some(0)));
        }
    }

    #[test]
    fn registration_lines_parse_and_reject_garbage() {
        assert_eq!(
            parse_registration("rank 2 9000 12345\n"),
            Some((2, 9000)),
            "registrations carry the clock handshake's t0"
        );
        assert!(parse_registration("rank 2 9000\n").is_none(), "t0 missing");
        assert!(parse_registration("rang 2 9000 1").is_none());
        assert!(parse_registration("rank x 9000 1").is_none());
        assert!(parse_registration("rank 2 9000 notatime").is_none());
        let t = RankTable::parse("peers v3 127.0.0.1:1 127.0.0.1:2\n").unwrap();
        assert_eq!((t.version, t.ranks()), (3, 2));
        assert!(RankTable::parse("peers 127.0.0.1:1 127.0.0.1:2\n").is_none());
        assert!(RankTable::parse("peers").is_none());
        assert!(RankTable::parse("peers v2").is_none());
        assert!(RankTable::parse("peers vx 127.0.0.1:1").is_none());
        assert!(RankTable::parse("ports 127.0.0.1:1").is_none());
    }

    #[test]
    fn rank_table_wire_line_round_trips() {
        let table = RankTable::new(
            7,
            vec![
                "127.0.0.1:9000".parse().unwrap(),
                "127.0.0.1:9001".parse().unwrap(),
            ],
        );
        assert_eq!(table.wire_line(), "peers v7 127.0.0.1:9000 127.0.0.1:9001");
        assert_eq!(RankTable::parse(&table.wire_line()).unwrap(), table);
    }

    #[test]
    fn versioned_broadcast_reaches_every_worker() {
        // A relaunch-style rendezvous at version 2: workers must see the
        // bumped version in their parsed table.
        let ranks = 2;
        let coord = TcpListener::bind("127.0.0.1:0").unwrap();
        let coord_addr = coord.local_addr().unwrap();
        let workers: Vec<_> = (0..ranks)
            .map(|rank| {
                thread::spawn(move || {
                    register_with_coordinator(coord_addr, rank, 1234, &no_clock)
                        .unwrap()
                        .1
                })
            })
            .collect();
        coordinate_rank_table(&coord, ranks, 2, &no_clock).unwrap();
        for w in workers {
            let table = w.join().unwrap();
            assert_eq!(table.version, 2);
            assert_eq!(table.ranks(), ranks);
        }
    }

    #[test]
    fn clock_handshake_yields_the_coordinator_offset() {
        let ranks = 2;
        let coord = TcpListener::bind("127.0.0.1:0").unwrap();
        let coord_addr = coord.local_addr().unwrap();
        let workers: Vec<_> = (0..ranks)
            .map(|rank| {
                thread::spawn(move || {
                    // A frozen worker clock: t0 == t1 == 1000, so the
                    // exchange is exact (rtt 0) and deterministic.
                    let (_s, table, sync) =
                        register_with_coordinator(coord_addr, rank, 4321, &|| 1000).unwrap();
                    (table, sync)
                })
            })
            .collect();
        // The coordinator's clock reads 51_000 at every reply.
        coordinate_rank_table(&coord, ranks, 0, &|| 51_000).unwrap();
        for w in workers {
            let (table, sync) = w.join().unwrap();
            assert_eq!(table.version, 0);
            assert_eq!(sync.offset_us, 50_000);
            assert_eq!(sync.rtt_us, 0);
            assert_eq!(sync.apply(1000), 51_000);
        }
    }

    #[test]
    fn worker_with_observer_records_spans_and_wire_bytes() {
        let ranks = 2;
        let inputs: Vec<Bytes> = (0..4)
            .map(|i| Bytes::from(format!("w{i} shared")))
            .collect();
        let observers: Vec<Observer> = (0..ranks).map(|_| Observer::new()).collect();
        let configs = observers
            .iter()
            .map(|obs| JobConfig::new(ranks).with_observer(obs.clone()))
            .collect();
        let reports = launch_ok(configs, &inputs, wc_o);
        let (mut records_in, mut records_out) = (0, 0);
        for (rank, (obs, report)) in observers.iter().zip(&reports).enumerate() {
            let trace = obs.trace();
            assert_eq!(
                trace.of_kind(SpanKind::OTask).count() as u64,
                report.stats.o_tasks_run,
                "rank {rank}: one OTask span per task"
            );
            assert_eq!(trace.of_kind(SpanKind::Recv).count(), 1);
            assert_eq!(trace.of_kind(SpanKind::Sort).count(), 1, "rank {rank}");
            assert_eq!(trace.of_kind(SpanKind::ACompute).count(), 1, "rank {rank}");
            let snap = obs.registry().snapshot();
            assert_eq!(snap[Counter::WireBytesSent], report.wire.bytes_sent);
            assert_eq!(snap[Counter::RecordsOut], report.stats.records_emitted);
            records_in += snap[Counter::RecordsIn];
            records_out += snap[Counter::RecordsOut];
            assert!(
                obs.registry()
                    .histograms()
                    .handle(crate::observe::HistKind::RecvLatency)
                    .count()
                    > 0,
                "rank {rank}: ingest waits must land in the RecvLatency channel"
            );
        }
        assert!(records_out > 0);
        assert_eq!(records_in, records_out, "every emitted record was ingested");
    }

    #[test]
    fn slow_rank_pacing_delays_only_the_planned_rank() {
        use crate::fault::FaultPlan;
        let ranks = 2;
        let inputs: Vec<Bytes> = (0..6)
            .map(|i| Bytes::from(format!("w{i} shared")))
            .collect();
        // Rank 1 is paced 30ms per task (3 tasks → ≥90ms); rank 0 is not.
        let config = JobConfig::new(ranks).with_faults(FaultPlan::new(1).slow_rank(1, 0, 30));
        let reports = launch_ok(vec![config; ranks], &inputs, wc_o);
        assert_eq!(reports[0].stats.straggler_delays, 0, "rank 0 unpaced");
        assert_eq!(reports[1].stats.straggler_delays, 3, "one pause per task");
        // Pacing slows a rank; it never changes what the job computes.
        let baseline = run_job(&JobConfig::new(ranks), inputs, wc_o, wc_a, None).unwrap();
        for (rank, report) in reports.iter().enumerate() {
            assert_eq!(
                report.partition.records(),
                baseline.partitions[rank].records()
            );
        }
    }
}
