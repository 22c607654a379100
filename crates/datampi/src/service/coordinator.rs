//! The service coordinator: forms one resident mesh, then schedules
//! many tenants' jobs onto it under fair-share admission.
//!
//! One listener carries everything: resident workers `join`, clients
//! `submit`/`status`/`drain` — the accept thread classifies each
//! connection by its first known verb and forwards it to the scheduler
//! as an event. The scheduler (a single thread, so admission and job
//! state need no locking) assigns ranks in join order, broadcasts the
//! `peers v0 …` table once the mesh is full, and from then on pushes
//! `job <id> …` dispatch lines to every rank as
//! [`FairShareAdmission`] frees slots.
//! With a `report_dir` the coordinator asks its workers to trace their
//! jobs (`tlm=1` in the join reply) and aggregates each job's `jobtlm`
//! frames into a `dmpi-job-report/v1` document, exactly the artifact the
//! one-shot launcher writes; without one nobody would read the frames,
//! so jobs run untraced and none are sent.

use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};

use dmpi_common::{Error, FaultCause, FaultKind, Result};

use crate::distrib::RankTable;
use crate::observe::TelemetryAggregator;

use super::admission::{AdmissionConfig, FairShareAdmission};
use super::protocol::{read_known_line, JobSpec, Line, LineWriter, WorkerDone, WorkerEvent};

/// Static coordinator configuration.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Mesh width: resident workers expected before jobs dispatch.
    pub ranks: usize,
    /// Fair-share admission knobs.
    pub admission: AdmissionConfig,
    /// When set, jobs run traced and each completed job's
    /// `dmpi-job-report/v1` JSON lands at `<dir>/job-<id>.json`.
    pub report_dir: Option<PathBuf>,
}

/// What a full service session amounted to, returned by [`serve`] after
/// drain completes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceSummary {
    /// Jobs that completed on every rank.
    pub completed: u64,
    /// Jobs that failed on at least one rank.
    pub failed: u64,
    /// Submissions bounced by admission (queue full / draining).
    pub rejected: u64,
}

fn service_fault(detail: String) -> Error {
    Error::fault(FaultCause::new(FaultKind::Transport, detail))
}

enum Event {
    Join {
        stream: TcpStream,
        port: u16,
    },
    Submit {
        stream: TcpStream,
        spec: JobSpec,
    },
    Status {
        stream: TcpStream,
    },
    Drain {
        stream: TcpStream,
    },
    /// A line from a seated worker.
    Worker(WorkerEvent),
    /// A seated worker's control stream ended without `bye`.
    WorkerGone {
        rank: usize,
    },
}

/// One admitted job's runtime state on the scheduler.
struct JobState {
    spec: JobSpec,
    client: TcpStream,
    done: Vec<Option<WorkerDone>>,
    /// The job's telemetry, kept only when a report will be written.
    agg: Option<TelemetryAggregator>,
    started: Instant,
}

/// Classifies one fresh connection by its first known verb and forwards
/// it to the scheduler. Runs on a short-lived thread per connection so a
/// slow client cannot stall the accept loop.
fn classify_connection(stream: TcpStream, events: &Sender<Event>, epoch: Instant) {
    let Ok(clone) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(clone);
    let mut line = String::new();
    let known = |v: &str| matches!(v, "join" | "submit" | "status" | "drain");
    if read_known_line(&mut reader, &mut line, known).unwrap_or(0) == 0 {
        return;
    }
    let Some(mut request) = Line::parse(&line) else {
        return;
    };
    match request.verb() {
        "join" => {
            let Some(port) = request.pos() else {
                return;
            };
            // Answer the clock leg immediately (before the scheduler
            // gets involved) so the worker's measured RTT stays tight.
            if request.word().is_some() {
                let mut w = match stream.try_clone() {
                    Ok(w) => w,
                    Err(_) => return,
                };
                let clock = LineWriter::new("clock").pos(epoch.elapsed().as_micros() as u64);
                let _ = writeln!(w, "{}", clock.finish());
            }
            let _ = events.send(Event::Join { stream, port });
        }
        "submit" => {
            if let Some(spec) = JobSpec::parse_submit(&line) {
                let _ = events.send(Event::Submit { stream, spec });
            } else {
                reject(stream, "malformed submit");
            }
        }
        "status" => {
            let _ = events.send(Event::Status { stream });
        }
        "drain" => {
            let _ = events.send(Event::Drain { stream });
        }
        _ => {}
    }
}

fn reject(mut client: TcpStream, reason: &str) {
    let line = LineWriter::new("rejected").text("reason", reason);
    let _ = writeln!(client, "{}", line.finish());
}

/// Drains one resident worker's control stream into scheduler events,
/// ending with exactly one departure: the worker's `bye`, or
/// [`Event::WorkerGone`] when the stream ends (or fails) without one.
fn worker_reader(stream: TcpStream, rank: usize, events: Sender<Event>) {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let known = |v: &str| matches!(v, "jobdone" | "jobfail" | "jobtlm" | "bye");
    while read_known_line(&mut reader, &mut line, known).unwrap_or(0) > 0 {
        // A malformed line of a known verb is dropped like an unknown one.
        let Some(event) = WorkerEvent::parse(&line) else {
            continue;
        };
        let said_bye = matches!(event, WorkerEvent::Bye { .. });
        let _ = events.send(Event::Worker(event));
        if said_bye {
            return;
        }
    }
    let _ = events.send(Event::WorkerGone { rank });
}

struct Scheduler {
    config: ServiceConfig,
    /// Pre-mesh joiners, in join order: (control stream, data port).
    joiners: Vec<(TcpStream, u16)>,
    /// Post-mesh control writers, indexed by rank.
    workers: Vec<TcpStream>,
    jobs: HashMap<u64, JobState>,
    admission: FairShareAdmission,
    next_id: u64,
    summary: ServiceSummary,
    draining: bool,
    drain_sent: bool,
    drain_waiters: Vec<TcpStream>,
    /// Seated workers that left: said `bye`, or their stream ended.
    departed: usize,
    events: Sender<Event>,
}

impl Scheduler {
    fn mesh_ready(&self) -> bool {
        self.workers.len() == self.config.ranks
    }

    fn on_join(&mut self, stream: TcpStream, port: u16) {
        if self.mesh_ready() || self.draining {
            // A late joiner has no seat: closing the stream tells it so.
            return;
        }
        self.joiners.push((stream, port));
        if self.joiners.len() < self.config.ranks {
            return;
        }
        let ranks = self.config.ranks;
        let table = RankTable::new(
            0,
            self.joiners
                .iter()
                .map(|(_, p)| format!("127.0.0.1:{p}").parse().expect("loopback addr"))
                .collect(),
        );
        let table_line = table.wire_line();
        // Workers trace their jobs only when a report will be written.
        let traced = self.config.report_dir.is_some() as u8;
        for (rank, (mut stream, _)) in self.joiners.drain(..).enumerate() {
            let seat = LineWriter::new("rank")
                .pos(rank)
                .pos(ranks)
                .field("tlm", traced);
            let _ = writeln!(stream, "{}", seat.finish());
            let _ = writeln!(stream, "{table_line}");
            let events = self.events.clone();
            match stream.try_clone() {
                Ok(read_half) => {
                    std::thread::spawn(move || worker_reader(read_half, rank, events));
                }
                // Nobody can read this rank's reports: it has left.
                Err(_) => drop(events.send(Event::WorkerGone { rank })),
            }
            self.workers.push(stream);
        }
        self.try_dispatch();
    }

    fn on_submit(&mut self, mut stream: TcpStream, mut spec: JobSpec) {
        spec.id = self.next_id;
        match self.admission.submit(spec.clone()) {
            Err(reason) => {
                self.summary.rejected += 1;
                reject(stream, &reason.to_string());
            }
            Ok(()) => {
                self.next_id += 1;
                let accepted = LineWriter::new("accepted").field("job", spec.id);
                let _ = writeln!(stream, "{}", accepted.finish());
                self.jobs.insert(
                    spec.id,
                    JobState {
                        spec,
                        client: stream,
                        done: (0..self.config.ranks).map(|_| None).collect(),
                        agg: self
                            .config
                            .report_dir
                            .as_ref()
                            .map(|_| TelemetryAggregator::new(self.config.ranks)),
                        started: Instant::now(),
                    },
                );
                self.try_dispatch();
            }
        }
    }

    /// Pushes every job admission will currently allow onto the mesh.
    fn try_dispatch(&mut self) {
        if !self.mesh_ready() {
            return;
        }
        while let Some(spec) = self.admission.next_to_dispatch() {
            let line = spec.wire_line();
            for w in &mut self.workers {
                let _ = writeln!(w, "{line}");
            }
            if let Some(job) = self.jobs.get_mut(&spec.id) {
                job.started = Instant::now();
            }
        }
    }

    fn on_worker_done(&mut self, done: WorkerDone) {
        let Some(job) = self.jobs.get_mut(&done.job) else {
            return; // already failed and retired
        };
        if done.rank < job.done.len() {
            let rank = done.rank;
            job.done[rank] = Some(done);
        }
        if !job.done.iter().all(Option::is_some) {
            return;
        }
        let id = job.spec.id;
        let mut job = self.jobs.remove(&id).expect("checked above");
        let reports: Vec<&WorkerDone> = job.done.iter().map(|d| d.as_ref().unwrap()).collect();
        let out_records: u64 = reports.iter().map(|d| d.out_records).sum();
        let out_bytes: u64 = reports.iter().map(|d| d.out_bytes).sum();
        let crcs = reports
            .iter()
            .map(|d| d.crc.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let elapsed_us = job.started.elapsed().as_micros() as u64;
        let done = LineWriter::new("jobdone")
            .field("job", id)
            .field("out_records", out_records)
            .field("out_bytes", out_bytes)
            .field("crcs", crcs)
            .field("elapsed_us", elapsed_us);
        let _ = writeln!(job.client, "{}", done.finish());
        self.write_report(&job, elapsed_us);
        self.summary.completed += 1;
        self.admission.release(&job.spec.tenant);
        self.try_dispatch();
        self.maybe_start_worker_drain();
    }

    fn write_report(&self, job: &JobState, elapsed_us: u64) {
        let (Some(dir), Some(agg)) = (&self.config.report_dir, &job.agg) else {
            return;
        };
        let meta = [
            ("job", job.spec.id.to_string()),
            ("tenant", format!("{:?}", job.spec.tenant)),
            ("workload", format!("{:?}", job.spec.workload)),
            ("tasks", job.spec.tasks.to_string()),
            ("seed", job.spec.seed.to_string()),
            ("elapsed_us", elapsed_us.to_string()),
        ];
        let json = agg.report_json(&meta);
        let _ = std::fs::create_dir_all(dir);
        let _ = std::fs::write(dir.join(format!("job-{}.json", job.spec.id)), json);
    }

    fn on_worker_fail(&mut self, id: u64, rank: usize, err: String) {
        let Some(mut job) = self.jobs.remove(&id) else {
            return; // duplicate failure reports collapse into the first
        };
        let fail = LineWriter::new("jobfail")
            .field("job", id)
            .text("err", &format!("rank {rank}: {err}"));
        let _ = writeln!(job.client, "{}", fail.finish());
        self.summary.failed += 1;
        self.admission.release(&job.spec.tenant);
        self.try_dispatch();
        self.maybe_start_worker_drain();
    }

    fn on_worker_gone(&mut self, rank: usize) {
        self.departed += 1;
        if self.drain_sent {
            // Told to leave, it left: only its `bye` is missing.
            return;
        }
        // A resident rank died: the mesh is degraded beyond repair for
        // every job on it. Fail in-flight jobs, stop admitting, drain.
        let err = format!("resident rank {rank} left the mesh");
        let ids: Vec<u64> = self.jobs.keys().copied().collect();
        for id in ids {
            self.on_worker_fail(id, rank, err.clone());
        }
        self.admission.start_drain();
        self.draining = true;
        self.maybe_start_worker_drain();
    }

    fn on_status(&mut self, mut stream: TcpStream) {
        let seated = format_args!("{}/{}", self.workers.len(), self.config.ranks);
        let status = LineWriter::new("status")
            .field("ranks", seated)
            .field("queued", self.admission.queued_total())
            .field("running", self.admission.running_total())
            .field("completed", self.summary.completed)
            .field("failed", self.summary.failed)
            .field("rejected", self.summary.rejected)
            // One `tenant= queued= running=` group per tenant, the groups
            // comma-joined: the reply's shape since before the codec.
            .pos(self.admission.status_fragments().join(","));
        let _ = writeln!(stream, "{}", status.finish());
    }

    fn on_drain(&mut self, stream: TcpStream) {
        self.draining = true;
        self.admission.start_drain();
        self.drain_waiters.push(stream);
        self.maybe_start_worker_drain();
    }

    /// Once draining and idle, tells every worker to deregister.
    fn maybe_start_worker_drain(&mut self) {
        if !self.draining || self.drain_sent || !self.admission.drained() {
            return;
        }
        self.drain_sent = true;
        for w in &mut self.workers {
            let _ = writeln!(w, "drain");
        }
    }

    /// True once the session is over: drained and every seated worker
    /// has left (or there never was a mesh to leave).
    fn finished(&self) -> bool {
        self.drain_sent && self.departed >= self.workers.len()
    }

    fn finish(&mut self) {
        let drained = LineWriter::new("drained")
            .field("completed", self.summary.completed)
            .finish();
        for mut w in self.drain_waiters.drain(..) {
            let _ = writeln!(w, "{drained}");
        }
    }
}

/// Runs a service session to completion: accepts worker joins and
/// client submissions on `listener`, schedules jobs under fair-share
/// admission, and returns the session summary once a `drain` request
/// (or a mesh death) has been honoured.
pub fn serve(listener: TcpListener, config: ServiceConfig) -> Result<ServiceSummary> {
    let epoch = Instant::now();
    let (events_tx, events_rx): (Sender<Event>, Receiver<Event>) = unbounded();
    let wake_addr = listener
        .local_addr()
        .map_err(|e| service_fault(format!("coordinator local_addr: {e}")))?;
    let accept_events = events_tx.clone();
    let stop = Arc::new(AtomicBool::new(false));
    let accept_stop = Arc::clone(&stop);
    let acceptor = std::thread::spawn(move || {
        // Blocking accept: a poll tick here would be pure submit latency
        // for every client. `serve` ends the loop by setting `stop` and
        // dialling `wake_addr` once.
        while let Ok((stream, _)) = listener.accept() {
            if accept_stop.load(Ordering::SeqCst) {
                return;
            }
            let _ = stream.set_nodelay(true);
            let events = accept_events.clone();
            std::thread::spawn(move || classify_connection(stream, &events, epoch));
        }
    });

    let admission = FairShareAdmission::new(config.admission.clone());
    let mut sched = Scheduler {
        config,
        joiners: Vec::new(),
        workers: Vec::new(),
        jobs: HashMap::new(),
        admission,
        next_id: 0,
        summary: ServiceSummary::default(),
        draining: false,
        drain_sent: false,
        drain_waiters: Vec::new(),
        departed: 0,
        events: events_tx,
    };

    while !sched.finished() {
        let event = match events_rx.recv_timeout(Duration::from_millis(100)) {
            Ok(ev) => ev,
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                // Idle tick: a drain with no mesh resolves here.
                if sched.draining && sched.workers.is_empty() && sched.admission.drained() {
                    sched.drain_sent = true;
                }
                continue;
            }
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break,
        };
        match event {
            Event::Join { stream, port } => sched.on_join(stream, port),
            Event::Submit { stream, spec } => sched.on_submit(stream, spec),
            Event::Status { stream } => sched.on_status(stream),
            Event::Drain { stream } => sched.on_drain(stream),
            Event::Worker(WorkerEvent::Done(done)) => sched.on_worker_done(done),
            Event::Worker(WorkerEvent::Fail { job, rank, err }) => {
                sched.on_worker_fail(job, rank, err)
            }
            Event::Worker(WorkerEvent::Tlm { job, frame }) => {
                if let Some(agg) = sched.jobs.get_mut(&job).and_then(|j| j.agg.as_mut()) {
                    agg.absorb(*frame);
                }
            }
            Event::Worker(WorkerEvent::Bye { .. }) => sched.departed += 1,
            Event::WorkerGone { rank } => sched.on_worker_gone(rank),
        }
    }
    sched.finish();
    stop.store(true, Ordering::SeqCst);
    // A refused dial means the acceptor already left on an accept error.
    let _ = TcpStream::connect(wake_addr);
    let _ = acceptor.join();
    Ok(sched.summary)
}
