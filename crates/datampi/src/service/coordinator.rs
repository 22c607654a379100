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
//! Per-job `jobtlm` frames aggregate into a per-job
//! `dmpi-job-report/v1` document, exactly the artifact the one-shot
//! launcher writes.

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
use crate::observe::{TelemetryAggregator, TelemetryFrame};

use super::admission::{AdmissionConfig, FairShareAdmission};
use super::protocol::{esc, parse_jobfail, read_known_line, JobSpec, WorkerDone};

/// Static coordinator configuration.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Mesh width: resident workers expected before jobs dispatch.
    pub ranks: usize,
    /// Fair-share admission knobs.
    pub admission: AdmissionConfig,
    /// When set, each completed job's `dmpi-job-report/v1` JSON lands
    /// at `<dir>/job-<id>.json`.
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
    WorkerDone(WorkerDone),
    WorkerFail {
        job: u64,
        rank: usize,
        err: String,
    },
    WorkerTlm {
        job: u64,
        frame: Box<TelemetryFrame>,
    },
    WorkerBye,
    WorkerGone {
        rank: usize,
    },
}

/// One admitted job's runtime state on the scheduler.
struct JobState {
    spec: JobSpec,
    client: TcpStream,
    done: Vec<Option<WorkerDone>>,
    agg: TelemetryAggregator,
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
    let mut it = line.split_whitespace();
    match it.next() {
        Some("join") => {
            let Some(port) = it.next().and_then(|p| p.parse().ok()) else {
                return;
            };
            // Answer the clock leg immediately (before the scheduler
            // gets involved) so the worker's measured RTT stays tight.
            if it.next().is_some() {
                let mut w = match stream.try_clone() {
                    Ok(w) => w,
                    Err(_) => return,
                };
                let _ = writeln!(w, "clock {}", epoch.elapsed().as_micros() as u64);
            }
            let _ = events.send(Event::Join { stream, port });
        }
        Some("submit") => {
            if let Some(spec) = JobSpec::parse_submit(&line) {
                let _ = events.send(Event::Submit { stream, spec });
            } else {
                let mut stream = stream;
                let _ = writeln!(stream, "rejected reason={}", esc("malformed submit"));
            }
        }
        Some("status") => {
            let _ = events.send(Event::Status { stream });
        }
        Some("drain") => {
            let _ = events.send(Event::Drain { stream });
        }
        _ => {}
    }
}

/// Drains one resident worker's control stream into scheduler events.
fn worker_reader(stream: TcpStream, rank: usize, events: Sender<Event>) {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let known = |v: &str| matches!(v, "jobdone" | "jobfail" | "jobtlm" | "bye");
    loop {
        match read_known_line(&mut reader, &mut line, known) {
            Ok(0) | Err(_) => {
                let _ = events.send(Event::WorkerGone { rank });
                return;
            }
            Ok(_) => {}
        }
        if let Some(done) = WorkerDone::parse(&line) {
            let _ = events.send(Event::WorkerDone(done));
        } else if let Some((job, rank, err)) = parse_jobfail(&line) {
            let _ = events.send(Event::WorkerFail { job, rank, err });
        } else if let Some(rest) = line.strip_prefix("jobtlm ") {
            let mut it = rest.splitn(2, ' ');
            let job = it.next().and_then(|t| t.parse::<u64>().ok());
            let frame = it.next().and_then(TelemetryFrame::parse);
            if let (Some(job), Some(frame)) = (job, frame) {
                let _ = events.send(Event::WorkerTlm {
                    job,
                    frame: Box::new(frame),
                });
            }
        } else if line.starts_with("bye") {
            let _ = events.send(Event::WorkerBye);
            return;
        }
    }
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
    byes: usize,
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
        for (rank, (mut stream, _)) in self.joiners.drain(..).enumerate() {
            let _ = writeln!(stream, "rank {rank} {ranks}");
            let _ = writeln!(stream, "{table_line}");
            if let Ok(read_half) = stream.try_clone() {
                let events = self.events.clone();
                std::thread::spawn(move || worker_reader(read_half, rank, events));
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
                let _ = writeln!(stream, "rejected reason={}", esc(&reason.to_string()));
            }
            Ok(()) => {
                self.next_id += 1;
                let _ = writeln!(stream, "accepted job={}", spec.id);
                self.jobs.insert(
                    spec.id,
                    JobState {
                        spec,
                        client: stream,
                        done: (0..self.config.ranks).map(|_| None).collect(),
                        agg: TelemetryAggregator::new(self.config.ranks),
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
        let _ = writeln!(
            job.client,
            "jobdone job={id} out_records={out_records} out_bytes={out_bytes} \
             crcs={crcs} elapsed_us={elapsed_us}"
        );
        self.write_report(&job, elapsed_us);
        self.summary.completed += 1;
        self.admission.release(&job.spec.tenant);
        self.try_dispatch();
        self.maybe_start_worker_drain();
    }

    fn write_report(&self, job: &JobState, elapsed_us: u64) {
        let Some(dir) = &self.config.report_dir else {
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
        let json = job.agg.report_json(&meta);
        let _ = std::fs::create_dir_all(dir);
        let _ = std::fs::write(dir.join(format!("job-{}.json", job.spec.id)), json);
    }

    fn on_worker_fail(&mut self, id: u64, rank: usize, err: String) {
        let Some(mut job) = self.jobs.remove(&id) else {
            return; // duplicate failure reports collapse into the first
        };
        let _ = writeln!(
            job.client,
            "jobfail job={id} err={}",
            esc(&format!("rank {rank}: {err}"))
        );
        self.summary.failed += 1;
        self.admission.release(&job.spec.tenant);
        self.try_dispatch();
        self.maybe_start_worker_drain();
    }

    fn on_worker_gone(&mut self, rank: usize) {
        if self.drain_sent {
            // Workers hang up right after `bye`; that is the plan.
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
        let fragments = self.admission.status_fragments().join(",");
        let _ = writeln!(
            stream,
            "status ranks={}/{} queued={} running={} completed={} failed={} rejected={} {}",
            self.workers.len(),
            self.config.ranks,
            self.admission.queued_total(),
            self.admission.running_total(),
            self.summary.completed,
            self.summary.failed,
            self.summary.rejected,
            fragments
        );
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

    /// True once the session is over: drained and every worker said bye
    /// (or there never was a mesh to say bye from).
    fn finished(&self) -> bool {
        self.drain_sent && self.byes >= self.workers.len()
    }

    fn finish(&mut self) {
        for mut w in self.drain_waiters.drain(..) {
            let _ = writeln!(w, "drained completed={}", self.summary.completed);
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
        byes: 0,
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
            Event::WorkerDone(done) => sched.on_worker_done(done),
            Event::WorkerFail { job, rank, err } => sched.on_worker_fail(job, rank, err),
            Event::WorkerTlm { job, frame } => {
                if let Some(j) = sched.jobs.get_mut(&job) {
                    j.agg.absorb(*frame);
                }
            }
            Event::WorkerBye => sched.byes += 1,
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
