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

use std::fs::File;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use dmpi_common::crc::Crc32;
use dmpi_common::ser::frame_kv;
use dmpi_common::{Error, FaultCause, FaultKind, Result};

use crate::config::JobConfig;
use crate::distrib::{run_mesh_rank, RankTable};
use crate::observe::{Clock, ClockSync, HistKind, Histograms, Observer, TelemetryFrame};
use crate::task::{Collector, GroupedValues};
use crate::transport::{establish_endpoint, TcpOptions};

use super::mesh::JobMux;
use super::protocol::{read_known_line, JobSpec, Line, LineWriter, WorkerDone, WorkerEvent};

/// A boxed O (map-side) function, as resolved from a job spec: given a
/// task index, it derives that task's split and emits its pairs.
pub type BoxedOFn = Box<dyn Fn(usize, &mut dyn Collector) + Send + Sync>;
/// A boxed A (reduce-side) function, as resolved from a job spec.
pub type BoxedAFn = Box<dyn Fn(&GroupedValues, &mut dyn Collector) + Send + Sync>;

/// A job the resolver has made runnable. A rank hands the O function
/// only its own share of the spec's task indices, so no worker derives
/// or holds the job's whole input.
pub struct PreparedJob {
    /// The O (map-side) function.
    pub o_fn: BoxedOFn,
    /// The A (reduce-side) function.
    pub a_fn: BoxedAFn,
}

/// Turns a [`JobSpec`] into a runnable job. The trait keeps
/// `datampi::service` free of any workload-catalogue dependency — the
/// `dmpid` binary injects the catalogue from `dmpi_workloads`, tests
/// inject tiny closures. Every process's O function must derive the
/// same split for task `t` (from the spec's seed, say).
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
        // The handshake answers arrive in order (clock, rank, peers) but
        // tolerate reordering and — forward compatibility — unknown verbs.
        // The first table that parses ends it.
        let table = loop {
            let n = read_known_line(&mut control, &mut line, |v| {
                matches!(v, "clock" | "rank" | "peers")
            })
            .map_err(|e| service_fault(format!("read join reply: {e}")))?;
            if n == 0 {
                return Err(service_fault(
                    "coordinator closed the stream mid-handshake".into(),
                ));
            }
            let Some(mut reply) = Line::parse(&line) else {
                continue;
            };
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
                _ => {
                    if let Some(table) = RankTable::from_line(reply) {
                        break table;
                    }
                }
            }
        };
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
/// mux, execute into the part sink, report. Every outcome produces
/// exactly one terminal line (`jobdone` or `jobfail`) on the control
/// stream; a panic that escapes the job (user code panics are already
/// faults) is caught, sends this rank's EOFs so no peer waits on it, and
/// is reported as the job's `jobfail`. With `trace` set (the coordinator
/// asked for traced jobs) the job runs under an observer on the session
/// clock, and its final `jobtlm` frame — spans mapped onto the
/// coordinator's timeline by the sync — precedes the terminal line
/// whatever the outcome.
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
    let part = spec
        .out
        .as_deref()
        .map(|dir| Path::new(dir).join(format!("part-{rank:05}")));
    let outcome = mux.open_job(spec.id).and_then(|channels| {
        let eof_senders = channels.senders.clone();
        let mut ran_body = false;
        let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<WorkerDone> {
            let prepared = resolver.prepare(&spec)?;
            let sink = PartSink::create(part.clone())?;
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
            ran_body = true;
            let result = run_mesh_rank(
                &config,
                rank,
                channels,
                spec.tasks,
                prepared.o_fn,
                prepared.a_fn,
                sink,
            );
            // The store's run-file guards already deleted every sealed run
            // they owned; this sweeps the (now empty, or crash-littered)
            // job subdirectory itself, on failure as well as success.
            if let Some(dir) = &spill_dir {
                let _ = std::fs::remove_dir_all(dir);
            }
            let (sink, stats) = result?;
            let wire = wire_handle.snapshot();
            if let Some(obs) = &observer {
                obs.registry().add_wire_stats(&wire);
            }
            let out = sink.finish()?;
            Ok(WorkerDone {
                job: spec.id,
                rank,
                crc: out.crc.finalize(),
                elapsed_us: started.elapsed().as_micros() as u64,
                out_records: out.records,
                out_bytes: out.bytes,
                records_emitted: stats.records_emitted,
                groups: stats.groups,
                wire_sent: wire.bytes_sent,
                wire_recv: wire.bytes_received,
                o_tasks_run: stats.o_tasks_run,
                bytes_emitted: stats.bytes_emitted,
                frames: stats.frames,
            })
        }));
        // The rank body sends this rank's EOFs. A failure before it (a
        // resolver error, a spill directory that cannot be made) or a
        // panic anywhere still owes them to a peer that did start; a
        // duplicate after the body sent them can only end a peer's ingest
        // early in a job that fails anyway.
        if outcome.is_err() || !ran_body {
            for s in &eof_senders {
                s.send(crate::comm::Frame::Eof { from_rank: rank });
            }
        }
        outcome.unwrap_or_else(|_| {
            Err(Error::fault(
                FaultCause::new(FaultKind::TaskPanic, "job thread panicked").rank(rank),
            ))
        })
    });
    mux.finish_job(spec.id);
    // A rank's part file exists only if the rank reports `jobdone`: a
    // failed body leaves no partial one.
    if let (Err(_), Some(part)) = (&outcome, &part) {
        let _ = std::fs::remove_file(part);
    }
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

/// Framed bytes a [`PartSink`] gathers before it hashes and writes them.
const PART_CHUNK: usize = 64 * 1024;

/// A worker's A output, framed once as its groups finish. Whenever the
/// buffer holds a chunk, its bytes feed the CRC and, if the job names an
/// `out` dir, go straight to `<out>/part-NNNNN`; `finish` returns the
/// first write error.
#[derive(Default)]
struct PartSink {
    /// Framed pairs not yet hashed: grows on demand to a chunk plus a pair.
    chunk: Vec<u8>,
    crc: Crc32,
    records: u64,
    bytes: u64,
    file: Option<(File, PathBuf)>,
    error: Option<Error>,
}

impl PartSink {
    /// A sink that writes to the file at `path`, made with its
    /// directory, or with no path only hashes.
    fn create(path: Option<PathBuf>) -> Result<PartSink> {
        let Some(path) = path else {
            return Ok(PartSink::default());
        };
        let dir = path.parent().unwrap_or(Path::new(""));
        std::fs::create_dir_all(dir)
            .map_err(|e| service_fault(format!("create {}: {e}", dir.display())))?;
        let file = File::create(&path)
            .map_err(|e| service_fault(format!("create {}: {e}", path.display())))?;
        let file = Some((file, path));
        Ok(PartSink {
            file,
            ..PartSink::default()
        })
    }

    /// Hashes the gathered bytes, writes them to the part file if there
    /// is one, and empties the buffer.
    fn write_chunk(&mut self) {
        self.crc.update(&self.chunk);
        self.bytes += self.chunk.len() as u64;
        if let Some((file, path)) = &mut self.file {
            if let (Err(e), None) = (file.write_all(&self.chunk), &self.error) {
                self.error = Some(service_fault(format!("write {}: {e}", path.display())));
            }
        }
        self.chunk.clear();
    }

    /// Writes what is left: the finished sink, whose `crc`, `records`
    /// and `bytes` are the partition's, or the first write error.
    fn finish(mut self) -> Result<PartSink> {
        self.write_chunk();
        self.error.take().map_or(Ok(self), Err)
    }
}

impl Collector for PartSink {
    fn collect(&mut self, key: &[u8], value: &[u8]) {
        frame_kv(&mut self.chunk, key, value);
        self.records += 1;
        if self.chunk.len() >= PART_CHUNK {
            self.write_chunk();
        }
    }
}

/// Writes `events` to the coordinator as one write, so that no other
/// job's lines land between them.
fn send_events(control: &Mutex<TcpStream>, events: &[WorkerEvent]) {
    let lines: String = events.iter().map(|e| e.wire_line() + "\n").collect();
    let mut stream = control.lock();
    let _ = stream.write_all(lines.as_bytes());
}

/// The resident worker main, `dmpid`'s and `dmpirun`'s: joins `coord`
/// ([`Seat::join`]), then serves jobs on that seat until drained
/// ([`Seat::serve`]).
pub fn run_resident_worker(coord: SocketAddr, resolver: Arc<dyn JobResolver>) -> Result<()> {
    Seat::join(coord)?.serve(resolver)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmpi_common::crc::crc32;
    use dmpi_common::kv::{Record, RecordBatch};
    use dmpi_common::ser::frame_batch;

    /// Feeds `batch` through a part sink without a file and with one, and
    /// checks both against `frame_batch`'s bytes and their CRC.
    fn assert_frames_like_frame_batch(batch: &RecordBatch, case: &str) {
        let framed = frame_batch(batch);
        let dir = std::env::temp_dir().join(format!("part-sink-{case}-{}", std::process::id()));
        let path = dir.join("part-00000");
        for path in [None, Some(path)] {
            let mut sink = PartSink::create(path.clone()).unwrap();
            for rec in batch {
                sink.collect(&rec.key, &rec.value);
            }
            let done = sink.finish().unwrap();
            let summary = (done.crc.finalize(), done.records, done.bytes);
            let want = (crc32(&framed), batch.len() as u64, framed.len() as u64);
            assert_eq!(summary, want, "{case}, file {path:?}");
            if let Some(path) = path {
                assert!(
                    std::fs::read(&path).unwrap() == framed,
                    "{case}: file bytes"
                );
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn part_sink_gives_the_bytes_and_crc_of_frame_batch() {
        let small: RecordBatch = (0..20_000u32)
            .map(|i| Record::new(format!("key-{i}"), (i * 7).to_string()))
            .collect();
        assert!(frame_batch(&small).len() > 3 * PART_CHUNK);
        assert_frames_like_frame_batch(&small, "several-chunks");

        let big = vec![7u8; 2 * PART_CHUNK + 3];
        let oversized: RecordBatch = [
            Record::from_strs("a", "1"),
            Record::new(b"big".to_vec(), big),
            Record::from_strs("b", "2"),
        ]
        .into_iter()
        .collect();
        assert_frames_like_frame_batch(&oversized, "pair-over-a-chunk");

        assert_frames_like_frame_batch(&RecordBatch::new(), "empty");
    }
}
