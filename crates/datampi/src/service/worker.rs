//! The resident worker: joins a coordinator once, then executes many
//! jobs over the same mesh until told to drain.
//!
//! This is the paper's "communication-ready resident process" made
//! literal: rendezvous, TCP mesh establishment, and thread-pool warmup
//! are paid once at `dmpid` start; every subsequent job costs only a
//! `job …` control line. Jobs run concurrently — each on its own thread
//! with its own [`JobMux`] route (and, when the coordinator writes
//! reports, its own [`Observer`]) — so two tenants' jobs interleave on
//! the shared sockets without sharing any runtime state.
//!
//! A `dmpirun` worker process is the same worker in a session that
//! carries one job: it joins, may act on its seat (the launcher's test
//! injections), and serves.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bytes::Bytes;

use dmpi_common::crc::crc32;
use dmpi_common::kv::RecordBatch;
use dmpi_common::ser::RecordWriter;
use dmpi_common::{Error, FaultCause, FaultKind, Result};

use crate::config::JobConfig;
use crate::distrib::{run_mesh_rank, RankTable};
use crate::observe::{Clock, ClockSync, HistKind, Histograms, Observer, TelemetryFrame};
use crate::runtime::JobStats;
use crate::task::{Collector, GroupedValues};
use crate::transport::{establish_endpoint, TcpOptions, WireStats};

use super::mesh::JobMux;
use super::protocol::{read_known_line, JobSpec, Line, LineWriter, WorkerDone, WorkerEvent};

/// A boxed O (map-side) function, as resolved from a job spec.
pub type BoxedOFn = Box<dyn Fn(usize, &[u8], &mut dyn Collector) + Send + Sync>;
/// A boxed A (reduce-side) function, as resolved from a job spec.
pub type BoxedAFn = Box<dyn Fn(&GroupedValues, &mut dyn Collector) + Send + Sync>;

/// A job the resolver has made runnable: deterministic inputs plus the
/// O and A functions.
pub struct PreparedJob {
    /// The full task table (every rank derives the same one).
    pub inputs: Vec<Bytes>,
    /// The O (map-side) function.
    pub o_fn: BoxedOFn,
    /// The A (reduce-side) function.
    pub a_fn: BoxedAFn,
}

/// Turns a [`JobSpec`] into a runnable job. The trait keeps
/// `datampi::service` free of any workload-catalogue dependency — the
/// `dmpid` binary injects the catalogue from `dmpi_workloads`, tests
/// inject tiny closures.
pub trait JobResolver: Send + Sync {
    /// Resolves `spec` or explains why it cannot run (unknown workload,
    /// bad parameters). Called on the job's own thread.
    fn prepare(&self, spec: &JobSpec) -> Result<PreparedJob>;
}

fn service_fault(detail: String) -> Error {
    Error::fault(FaultCause::new(FaultKind::Transport, detail))
}

/// A worker's place in a session, as the `join` handshake gave it: the
/// first of the two steps of [`run_resident_worker`], split out so a
/// caller can look at its seat before it serves ([`Seat::serve`]).
pub struct Seat {
    /// This worker's rank, assigned in join order.
    pub rank: usize,
    /// The session's rank table.
    pub table: RankTable,
    /// The data listener the table advertises for this rank.
    pub listener: TcpListener,
    /// `Some` when the coordinator writes job reports (`tlm=1` in the
    /// seat line): jobs then run traced and ship their telemetry, span
    /// times mapped onto the coordinator's timeline by this sync.
    pub sync: Option<ClockSync>,
    /// The clock the sync was measured against; traced jobs stamp their
    /// spans on it.
    epoch: Instant,
    /// Stays a [`BufReader`] on purpose: the coordinator writes dispatch
    /// lines right behind the `peers` table on the same socket, so any
    /// bytes the handshake happened to buffer MUST remain readable —
    /// unwrapping to the raw stream would silently drop already-buffered
    /// `job …` lines.
    control: BufReader<TcpStream>,
}

impl Seat {
    /// Binds a data listener on an ephemeral loopback port and joins the
    /// coordinator at `coord`: `join <port> <t0>`, answered by `clock
    /// <T>`, the seat `rank <r> <ranks> tlm=<0|1>` and the `peers` table.
    pub fn join(coord: SocketAddr) -> Result<Seat> {
        let epoch = Instant::now();
        let now_us = || epoch.elapsed().as_micros() as u64;
        let listener = TcpListener::bind("127.0.0.1:0")
            .map_err(|e| service_fault(format!("bind data listener: {e}")))?;
        let port = listener
            .local_addr()
            .map_err(|e| service_fault(format!("data listener addr: {e}")))?
            .port();
        let stream = TcpStream::connect(coord)
            .map_err(|e| service_fault(format!("dial coordinator {coord}: {e}")))?;
        // Control lines are tiny and latency-bound (`jobdone` is on every
        // job's critical path): never let Nagle batch them.
        let _ = stream.set_nodelay(true);
        let mut writer = stream
            .try_clone()
            .map_err(|e| service_fault(format!("clone control stream: {e}")))?;
        let t0 = now_us();
        let join = LineWriter::new("join").pos(port).pos(t0);
        join.send(&mut writer)
            .map_err(|e| service_fault(format!("send join: {e}")))?;
        let mut control = BufReader::new(stream);
        let mut line = String::new();
        let mut sync = ClockSync::default();
        let mut rank: Option<usize> = None;
        let mut traced = false;
        let mut table: Option<RankTable> = None;
        // The handshake answers arrive in order (clock, rank, peers) but
        // tolerate reordering and — forward compatibility — unknown verbs.
        while table.is_none() {
            let n = read_known_line(&mut control, &mut line, |v| {
                matches!(v, "clock" | "rank" | "peers")
            })
            .map_err(|e| service_fault(format!("read join reply: {e}")))?;
            if n == 0 {
                return Err(service_fault(
                    "coordinator closed the stream mid-handshake".into(),
                ));
            }
            let mut reply = Line::parse(&line).expect("read_known_line accepted its verb");
            match reply.verb() {
                "clock" => {
                    if let Some(coord_now) = reply.pos::<u64>() {
                        sync = ClockSync::from_exchange(t0, coord_now, now_us());
                    }
                }
                "rank" => {
                    rank = reply.pos();
                    traced = reply.get("tlm").is_some_and(|v| v.flag());
                }
                _ => table = RankTable::parse(&line),
            }
        }
        let table = table.expect("loop exits with a table");
        let rank = rank.ok_or_else(|| service_fault("coordinator never assigned a rank".into()))?;
        if rank >= table.ranks() {
            return Err(service_fault(format!(
                "assigned rank {rank} outside table of {}",
                table.ranks()
            )));
        }
        Ok(Seat {
            rank,
            table,
            listener,
            sync: traced.then_some(sync),
            epoch,
            control,
        })
    }

    /// The second step: builds the mesh once, then executes every
    /// dispatched job until the coordinator sends `drain` (or closes the
    /// stream). Drain is graceful: running jobs finish and report before
    /// the worker sends `bye` and tears its mesh attachment down.
    pub fn serve(self, resolver: Arc<dyn JobResolver>) -> Result<()> {
        let Seat {
            rank,
            table,
            listener,
            sync,
            epoch,
            control: mut reader,
        } = self;
        let ranks = table.ranks();
        let mesh = Histograms::default();
        let trace = sync.map(|sync| Tracing { epoch, sync, mesh });
        let opts = TcpOptions {
            send_hist: trace.as_ref().map(|t| t.mesh.handle(HistKind::SendLatency)),
            ..TcpOptions::default()
        };
        let mut endpoint = establish_endpoint(rank, listener, &table.peers, &opts)?;
        if let Some(t) = &trace {
            endpoint.attach_window_wait(t.mesh.handle(HistKind::WindowWait));
        }
        let mux = JobMux::new(endpoint);
        let control_writer =
            Arc::new(Mutex::new(reader.get_ref().try_clone().map_err(|e| {
                service_fault(format!("clone control stream: {e}"))
            })?));
        let mut line = String::new();
        let mut jobs: Vec<std::thread::JoinHandle<()>> = Vec::new();
        let mut saw_drain = false;
        loop {
            let n = read_known_line(&mut reader, &mut line, |v| matches!(v, "job" | "drain"))
                .map_err(|e| service_fault(format!("rank {rank}: read dispatch: {e}")))?;
            if n == 0 {
                // Coordinator vanished: finish what is running, skip `bye`.
                break;
            }
            if line.starts_with("drain") {
                saw_drain = true;
                break;
            }
            let Some(spec) = JobSpec::parse_job(&line) else {
                // A malformed dispatch is the coordinator's bug; report it
                // if the id is recoverable, otherwise skip the line.
                if let Some(job) = Line::parse(&line).and_then(|mut l| l.pos()) {
                    let err = "malformed job line".into();
                    send_events(&control_writer, &[WorkerEvent::Fail { job, rank, err }]);
                }
                continue;
            };
            let mux = Arc::clone(&mux);
            let resolver = Arc::clone(&resolver);
            let control = Arc::clone(&control_writer);
            let trace = trace.clone();
            // Reap as we go: a finished job thread's stack and TLS stay
            // mapped until it is joined, so holding every handle until
            // drain grows the worker's memory with the number of jobs it
            // has run.
            jobs.retain(|job| !job.is_finished());
            jobs.push(std::thread::spawn(move || {
                run_one_job(spec, resolver.as_ref(), &mux, &control, rank, ranks, trace);
            }));
        }
        for handle in jobs {
            let _ = handle.join();
        }
        if saw_drain {
            send_events(&control_writer, &[WorkerEvent::Bye { rank }]);
        }
        mux.close();
        Ok(())
    }
}

/// What a traced session gives each job: the session clock the sync was
/// measured on, the sync onto the coordinator's timeline, and the send
/// latency and window wait its mesh threads record, which no job owns.
#[derive(Clone)]
struct Tracing {
    epoch: Instant,
    sync: ClockSync,
    mesh: Histograms,
}

/// Runs one dispatched job on its own thread: resolve, attach to the
/// mux, execute, write the partition, report. Every outcome produces
/// exactly one terminal line (`jobdone` or `jobfail`) on the control
/// stream. With `trace` set (the coordinator asked for traced jobs) the
/// job runs under an observer on the session clock, and its final
/// `jobtlm` frame — spans mapped onto the coordinator's timeline by the
/// sync — precedes the terminal line whatever the outcome.
#[allow(clippy::too_many_arguments)]
fn run_one_job(
    spec: JobSpec,
    resolver: &dyn JobResolver,
    mux: &JobMux,
    control: &Mutex<TcpStream>,
    rank: usize,
    ranks: usize,
    trace: Option<Tracing>,
) {
    let started = Instant::now();
    let observer = trace
        .as_ref()
        .map(|t| Observer::with_clock(Clock::Real(t.epoch)));
    let mesh_before = trace
        .as_ref()
        .map_or_else(Vec::new, |t| t.mesh.snapshot_all());
    let outcome = (|| -> Result<WorkerDone> {
        let channels = mux.open_job(spec.id)?;
        let prepared = match resolver.prepare(&spec) {
            Ok(p) => p,
            Err(e) => {
                // Resolution failures are deterministic and symmetric
                // across ranks, but send this job's EOFs anyway so a
                // peer that somehow did start never hangs waiting on us.
                for s in &channels.senders {
                    s.send(crate::comm::Frame::Eof { from_rank: rank });
                }
                return Err(e);
            }
        };
        let mut config = JobConfig::new(ranks);
        if let Some(obs) = &observer {
            config = config.with_observer(obs.clone());
        }
        // Disk-backed spills live in a per-job subdirectory so one
        // resident worker can run many jobs over a shared spill root;
        // the whole subtree is removed on every exit path below.
        let spill_dir = spec
            .spill_dir
            .as_ref()
            .map(|dir| Path::new(dir).join(format!("job-{}", spec.id)));
        if let Some(dir) = &spill_dir {
            std::fs::create_dir_all(dir)
                .map_err(|e| service_fault(format!("create {}: {e}", dir.display())))?;
            config = config.with_spill_dir(dir.clone());
        }
        if spec.spill_compress {
            config = config.with_spill_compression(crate::WireCompression::Lz4);
        }
        let wire_handle = Arc::clone(&channels.wire);
        let result = run_mesh_rank(
            &config,
            rank,
            ranks,
            channels,
            &prepared.inputs,
            prepared.o_fn,
            prepared.a_fn,
        );
        // The store's run-file guards already deleted every sealed run
        // they owned; this sweeps the (now empty, or crash-littered)
        // job subdirectory itself, on failure as well as success.
        if let Some(dir) = &spill_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        let (partition, stats) = result?;
        let wire = wire_handle.snapshot();
        if let Some(obs) = &observer {
            obs.registry().add_wire_stats(&wire);
        }
        report_partition(&spec, rank, &partition, &stats, &wire, started)
    })();
    mux.finish_job(spec.id);
    let (job, mut events) = (spec.id, Vec::with_capacity(2));
    if let Some((observer, trace)) = observer.zip(trace) {
        // The mesh's samples while the job ran: exactly the job's own
        // when it runs alone, as in a `dmpirun` session.
        let mesh_now = trace.mesh.snapshot_all();
        for ((kind, now), (_, before)) in mesh_now.iter().zip(&mesh_before) {
            let hist = observer.registry().histograms().handle(*kind);
            hist.record_snapshot(&now.since(before));
        }
        let frame = TelemetryFrame::collect(&observer, rank as u32, 0, true, trace.sync);
        let frame = Box::new(frame);
        events.push(WorkerEvent::Tlm { job, frame });
    }
    events.push(match outcome {
        Ok(done) => WorkerEvent::Done(done),
        Err(e) => WorkerEvent::Fail {
            job,
            rank,
            err: e.to_string(),
        },
    });
    send_events(control, &events);
}

/// What a worker does with its finished partition: frames it,
/// fingerprints the bytes, writes them to `<out>/part-NNNNN` when the
/// job asks, and fills in the rank's `jobdone`.
fn report_partition(
    spec: &JobSpec,
    rank: usize,
    partition: &RecordBatch,
    stats: &JobStats,
    wire: &WireStats,
    started: Instant,
) -> Result<WorkerDone> {
    let mut writer = RecordWriter::new();
    for rec in partition.iter() {
        writer.write(rec);
    }
    let framed = writer.into_bytes();
    if let Some(dir) = spec.out.as_deref().map(Path::new) {
        std::fs::create_dir_all(dir)
            .map_err(|e| service_fault(format!("create {}: {e}", dir.display())))?;
        let path = dir.join(format!("part-{rank:05}"));
        std::fs::write(&path, &framed)
            .map_err(|e| service_fault(format!("write {}: {e}", path.display())))?;
    }
    Ok(WorkerDone {
        job: spec.id,
        rank,
        crc: crc32(&framed),
        elapsed_us: started.elapsed().as_micros() as u64,
        out_records: partition.len() as u64,
        out_bytes: framed.len() as u64,
        records_emitted: stats.records_emitted,
        groups: stats.groups,
        wire_sent: wire.bytes_sent,
        wire_recv: wire.bytes_received,
        o_tasks_run: stats.o_tasks_run,
        bytes_emitted: stats.bytes_emitted,
        frames: stats.frames,
    })
}

/// Writes `events` to the coordinator as one write, so that no other
/// job's lines land between them.
fn send_events(control: &Mutex<TcpStream>, events: &[WorkerEvent]) {
    let lines: String = events.iter().map(|e| e.wire_line() + "\n").collect();
    let mut stream = control.lock().expect("control stream lock");
    let _ = stream.write_all(lines.as_bytes());
}

/// The resident worker main, `dmpid`'s and `dmpirun`'s: joins `coord`
/// ([`Seat::join`]), then serves jobs on that seat until drained
/// ([`Seat::serve`]).
pub fn run_resident_worker(coord: SocketAddr, resolver: Arc<dyn JobResolver>) -> Result<()> {
    Seat::join(coord)?.serve(resolver)
}
