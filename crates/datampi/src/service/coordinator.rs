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
//!
//! A job is terminal once every rank has reported it or left the session:
//! only then does its client get one line — `jobdone` with the ranks'
//! counters summed, or `jobfail` with every failed rank's reason in rank
//! order — and its admission slot come free. With a `report_dir` the
//! workers trace their jobs (`tlm=1` in the seat line) and at the
//! terminal the coordinator writes the job's `dmpi-job-report/v1` and
//! Chrome trace (with its own dispatch → terminal span); without one
//! nobody would read the frames, so jobs run untraced and none are sent.

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
use crate::observe::{SpanKind, TelemetryAggregator, TraceEvent, JOB_LANE};

use super::admission::{AdmissionConfig, FairShareAdmission};
use super::protocol::{read_known_line, JobSpec, Line, LineWriter, WorkerDone, WorkerEvent};

/// Static coordinator configuration.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Mesh width: resident workers expected before jobs dispatch.
    pub ranks: usize,
    /// Fair-share admission knobs.
    pub admission: AdmissionConfig,
    /// When set, jobs run traced and each finished job's
    /// `dmpi-job-report/v1` JSON lands at `<dir>/job-<id>.json`, its
    /// Chrome trace at `<dir>/job-<id>.trace.json`.
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
    /// A seated worker left: it said `bye`, or its control stream ended.
    Left {
        rank: usize,
    },
}

/// A rank's outcome of one job: its report, or why there is none.
type Outcome = std::result::Result<WorkerDone, String>;

/// One admitted job's runtime state on the scheduler.
struct JobState {
    spec: JobSpec,
    client: TcpStream,
    /// Per rank, once known; the job is terminal when all are.
    outcomes: Vec<Option<Outcome>>,
    /// The job's telemetry, kept only when a report will be written.
    agg: Option<TelemetryAggregator>,
    /// `None` while queued.
    dispatched: Option<Instant>,
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
                let _ = clock.send(&mut w);
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
    let _ = line.send(&mut client);
}

/// Drains one resident worker's control stream into scheduler events,
/// ending with exactly one [`Event::Left`]: at the worker's `bye`, or
/// when the stream ends (or fails) without one.
fn worker_reader(stream: TcpStream, rank: usize, events: Sender<Event>) {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let known = |v: &str| matches!(v, "jobdone" | "jobfail" | "jobtlm" | "bye");
    while read_known_line(&mut reader, &mut line, known).unwrap_or(0) > 0 {
        // A malformed line of a known verb is dropped like an unknown one.
        match WorkerEvent::parse(&line) {
            Some(WorkerEvent::Bye { .. }) => break,
            Some(event) => drop(events.send(Event::Worker(event))),
            None => {}
        }
    }
    let _ = events.send(Event::Left { rank });
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
    /// Per rank: left the session (said `bye`, or its stream ended).
    left: Vec<bool>,
    /// The session clock: clock replies and the coordinator's spans.
    epoch: Instant,
    events: Sender<Event>,
}

impl Scheduler {
    fn mesh_ready(&self) -> bool {
        self.workers.len() == self.config.ranks
    }

    fn on_join(&mut self, stream: TcpStream, port: u16) {
        if self.mesh_ready() || self.drain_sent {
            // A late joiner has no seat: closing the stream tells it so.
            // (Draining with jobs still queued, a session keeps seating:
            // those jobs need a mesh to run on.)
            return;
        }
        self.joiners.push((stream, port));
        if self.joiners.len() < self.config.ranks {
            return;
        }
        let ranks = self.config.ranks;
        let table = RankTable::new(
            self.joiners
                .iter()
                .map(|(_, p)| format!("127.0.0.1:{p}").parse().expect("loopback addr"))
                .collect(),
        );
        let table_line = table.wire_line() + "\n";
        // Workers trace their jobs only when a report will be written.
        let traced = self.config.report_dir.is_some() as u8;
        for (rank, (mut stream, _)) in self.joiners.drain(..).enumerate() {
            let seat = LineWriter::new("rank")
                .pos(rank)
                .pos(ranks)
                .field("tlm", traced);
            let _ = stream.write_all((seat.finish() + "\n" + &table_line).as_bytes());
            let events = self.events.clone();
            match stream.try_clone() {
                Ok(read_half) => {
                    std::thread::spawn(move || worker_reader(read_half, rank, events));
                }
                // Nobody can read this rank's reports: it has left.
                Err(_) => drop(events.send(Event::Left { rank })),
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
                let _ = accepted.send(&mut stream);
                self.jobs.insert(
                    spec.id,
                    JobState {
                        spec,
                        client: stream,
                        outcomes: (0..self.config.ranks).map(|_| None).collect(),
                        agg: self
                            .config
                            .report_dir
                            .as_ref()
                            .map(|_| TelemetryAggregator::new(self.config.ranks)),
                        dispatched: None,
                    },
                );
                self.try_dispatch();
            }
        }
    }

    /// Pushes every job admission will currently allow onto the mesh. A
    /// rank that has already left is settled for each job at once.
    fn try_dispatch(&mut self) {
        while self.mesh_ready() {
            let Some(spec) = self.admission.next_to_dispatch() else {
                return;
            };
            if let Some(job) = self.jobs.get_mut(&spec.id) {
                job.dispatched = Some(Instant::now());
            }
            let line = spec.wire_line() + "\n";
            for w in &mut self.workers {
                let _ = w.write_all(line.as_bytes());
            }
            let gone: Vec<usize> = (0..self.left.len()).filter(|&r| self.left[r]).collect();
            for rank in gone {
                self.settle(spec.id, rank, Err(died(rank)));
            }
        }
    }

    /// Takes a worker's report of a job; a job it makes terminal frees
    /// its slot for the next.
    fn on_outcome(&mut self, id: u64, rank: usize, outcome: Outcome) {
        if self.settle(id, rank, outcome) {
            self.try_dispatch();
            self.maybe_start_worker_drain();
        }
    }

    /// Records rank `rank`'s outcome of job `id` — its first; later ones
    /// and unknown jobs are dropped — and finishes the job when that was
    /// the last one missing. Returns whether it was.
    fn settle(&mut self, id: u64, rank: usize, outcome: Outcome) -> bool {
        let Some(job) = self.jobs.get_mut(&id) else {
            return false;
        };
        let Some(slot @ None) = job.outcomes.get_mut(rank) else {
            return false;
        };
        if let (Err(cause), Some(agg)) = (&outcome, job.agg.as_mut()) {
            agg.record(TraceEvent {
                kind: SpanKind::Fault,
                ts_us: self.epoch.elapsed().as_micros() as u64,
                dur_us: 0,
                instant: true,
                rank: rank as u32,
                attempt: 0,
                task: None,
                args: vec![("cause", cause.clone())],
            });
        }
        *slot = Some(outcome);
        if !job.outcomes.iter().all(Option::is_some) {
            return false;
        }
        self.finish_job(id);
        true
    }

    /// Answers a terminal job's client, writes its report, and returns
    /// its admission slot.
    fn finish_job(&mut self, id: u64) {
        let mut job = self.jobs.remove(&id).expect("settled jobs are live");
        let elapsed_us = job.dispatched.map_or(0, |t| t.elapsed().as_micros() as u64);
        let outcomes: Vec<Outcome> = job.outcomes.drain(..).flatten().collect();
        let failures: Vec<&str> = outcomes
            .iter()
            .filter_map(|o| o.as_ref().err())
            .map(String::as_str)
            .collect();
        let ok = failures.is_empty();
        let line = if ok {
            let done: Vec<&WorkerDone> = outcomes.iter().flatten().collect();
            let sum = |of: fn(&WorkerDone) -> u64| done.iter().map(|d| of(d)).sum::<u64>();
            let crcs: Vec<String> = done.iter().map(|d| d.crc.to_string()).collect();
            LineWriter::new("jobdone")
                .field("job", id)
                .field("out_records", sum(|d| d.out_records))
                .field("out_bytes", sum(|d| d.out_bytes))
                .field("crcs", crcs.join(","))
                .field("elapsed_us", elapsed_us)
                .field("o_tasks_run", sum(|d| d.o_tasks_run))
                .field("records_emitted", sum(|d| d.records_emitted))
                .field("bytes_emitted", sum(|d| d.bytes_emitted))
                .field("frames", sum(|d| d.frames))
                .field("groups", sum(|d| d.groups))
                .field("wire_sent", sum(|d| d.wire_sent))
                .field("wire_recv", sum(|d| d.wire_recv))
        } else {
            let err = failures.join("; ");
            LineWriter::new("jobfail")
                .field("job", id)
                .text("err", &err)
        };
        let _ = line.send(&mut job.client);
        if let (Some(dir), Some(agg)) = (&self.config.report_dir, job.agg.as_mut()) {
            if let Some(at) = job.dispatched {
                agg.record(TraceEvent {
                    kind: SpanKind::Attempt,
                    ts_us: at.duration_since(self.epoch).as_micros() as u64,
                    dur_us: elapsed_us,
                    instant: false,
                    rank: JOB_LANE,
                    attempt: 0,
                    task: None,
                    args: vec![("ranks", self.config.ranks.to_string())],
                });
            }
            let report = agg.job_report(&job.spec, "tcp", elapsed_us, ok);
            let _ = std::fs::create_dir_all(dir);
            let _ = std::fs::write(dir.join(format!("job-{id}.json")), report);
            let trace = agg.trace().to_chrome_json_by_rank();
            let _ = std::fs::write(dir.join(format!("job-{id}.trace.json")), trace);
        }
        self.summary.completed += ok as u64;
        self.summary.failed += !ok as u64;
        self.admission.release(&job.spec.tenant);
    }

    fn on_left(&mut self, rank: usize) {
        if let Some(left) = self.left.get_mut(rank) {
            *left = true;
        }
        if self.drain_sent {
            // Told to leave, it left.
            return;
        }
        // A resident rank died: the mesh is degraded beyond repair. Every
        // dispatched job has lost the rank's report; stop admitting and
        // drain (queued jobs still dispatch, and fail fast).
        let jobs = self.jobs.iter().filter(|(_, job)| job.dispatched.is_some());
        for id in jobs.map(|(&id, _)| id).collect::<Vec<_>>() {
            self.settle(id, rank, Err(died(rank)));
        }
        self.admission.start_drain();
        self.draining = true;
        self.try_dispatch();
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
        let _ = status.send(&mut stream);
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
            let _ = w.write_all(b"drain\n");
        }
    }

    /// True once the session is over: drained and every seated worker
    /// has left (or there never was a mesh to leave).
    fn finished(&self) -> bool {
        self.drain_sent && self.left[..self.workers.len()].iter().all(|&l| l)
    }

    fn finish(&mut self) {
        let drained = LineWriter::new("drained")
            .field("completed", self.summary.completed)
            .finish()
            + "\n";
        for mut w in self.drain_waiters.drain(..) {
            let _ = w.write_all(drained.as_bytes());
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
        left: vec![false; config.ranks],
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
        epoch,
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
            Event::Worker(WorkerEvent::Done(done)) => {
                sched.on_outcome(done.job, done.rank, Ok(done))
            }
            Event::Worker(WorkerEvent::Fail { job, rank, err }) => {
                sched.on_outcome(job, rank, Err(format!("rank {rank}: {err}")))
            }
            Event::Worker(WorkerEvent::Tlm { job, frame }) => {
                if let Some(agg) = sched.jobs.get_mut(&job).and_then(|j| j.agg.as_mut()) {
                    agg.absorb(*frame);
                }
            }
            // The reader turns `bye` into `Left`.
            Event::Worker(WorkerEvent::Bye { .. }) => {}
            Event::Left { rank } => sched.on_left(rank),
        }
    }
    sched.finish();
    stop.store(true, Ordering::SeqCst);
    // A refused dial means the acceptor already left on an accept error.
    let _ = TcpStream::connect(wake_addr);
    let _ = acceptor.join();
    Ok(sched.summary)
}

/// Why a rank that left has no outcome for a job.
fn died(rank: usize) -> String {
    format!("rank {rank} died without reporting")
}
