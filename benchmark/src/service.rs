//! The small-jobs workload: an in-process `serve` coordinator and two
//! resident workers over loopback, driven by closed-loop clients that
//! each submit WordCount jobs of a few KiB back to back. Launch,
//! rendezvous, admission, the line protocol and the job multiplexer
//! dominate; the data path is idle.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use datampi::service::{
    run_resident_worker, serve, AdmissionConfig, FairShareAdmission, JobSpec, ServiceConfig,
    ServiceSummary,
};
use dmpi_workloads::{CatalogueResolver, ExecWorkload};

use crate::reference::{expected, observed_counts_files, Fingerprint};
use crate::spec::{ServiceSpec, RANKS, SERVICE_SPEC};

/// Concurrent jobs the mesh admits: above the client count, so the
/// closed loop never queues behind admission.
const MESH_SLOTS: usize = 4;

fn admission_config() -> AdmissionConfig {
    AdmissionConfig {
        mesh_slots: MESH_SLOTS,
        queue_limit: 4096,
        default_quota: MESH_SLOTS,
    }
}

/// The WordCount job every client submits, for `tenant` over `seed`.
fn job_spec(spec: &ServiceSpec, tenant: &str, seed: u64, out: Option<String>) -> JobSpec {
    JobSpec {
        id: 0,
        tenant: tenant.to_string(),
        workload: ExecWorkload::WordCount.name().to_string(),
        tasks: spec.tasks,
        bytes_per_task: spec.split_bytes,
        seed,
        o_parallelism: 1,
        out,
        spill_dir: None,
        spill_compress: false,
    }
}

/// One entry of the seed pool: a job and what it must produce.
pub struct PoolJob {
    pub seed: u64,
    pub want: Fingerprint,
}

/// Derives the pool's job seeds from the run seed and computes each
/// job's reference. Jobs cycle through the pool, so every one of them
/// is checked against a result computed before the stream starts.
pub fn seed_pool(spec: &ServiceSpec, run_seed: u64) -> Vec<PoolJob> {
    (0..spec.seed_pool as u64)
        .map(|i| {
            let seed = run_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i);
            let inputs = ExecWorkload::WordCount.inputs(spec.tasks, spec.split_bytes, seed);
            PoolJob {
                seed,
                want: expected(ExecWorkload::WordCount, &inputs),
            }
        })
        .collect()
}

/// A coordinator plus `RANKS` resident workers, all threads of this
/// process. `drain` must be called to stop and join them.
pub struct Session {
    addr: SocketAddr,
    coordinator: JoinHandle<dmpi_common::Result<ServiceSummary>>,
    workers: Vec<JoinHandle<dmpi_common::Result<()>>>,
}

impl Session {
    /// Starts the service and returns once the mesh reports every rank
    /// resident — the point from which a submitted job can run.
    pub fn start() -> Result<Session, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let config = ServiceConfig {
            ranks: RANKS,
            admission: admission_config(),
            report_dir: None,
        };
        let coordinator = std::thread::spawn(move || serve(listener, config));
        let workers = (0..RANKS)
            .map(|_| {
                std::thread::spawn(move || run_resident_worker(addr, Arc::new(CatalogueResolver)))
            })
            .collect();
        let session = Session {
            addr,
            coordinator,
            workers,
        };
        match session.wait_mesh_ready() {
            Ok(()) => Ok(session),
            Err(e) => {
                let _ = session.drain();
                Err(e)
            }
        }
    }

    fn wait_mesh_ready(&self) -> Result<(), String> {
        let want = format!("ranks={RANKS}/{RANKS}");
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if let Ok(line) = request(self.addr, "status", |l| l.starts_with("status")) {
                if line.contains(&want) {
                    return Ok(());
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Err(format!("mesh never reached {RANKS} resident ranks"))
    }

    /// Drains the coordinator and joins every service thread.
    pub fn drain(self) -> Result<ServiceSummary, String> {
        let drained = request(self.addr, "drain", |l| l.starts_with("drained"));
        let summary = self
            .coordinator
            .join()
            .map_err(|_| "coordinator panicked".to_string())
            .and_then(|r| r.map_err(|e| e.to_string()));
        // Join every worker before reporting the first failure.
        let joined: Vec<_> = self.workers.into_iter().map(JoinHandle::join).collect();
        for worker in joined {
            worker
                .map_err(|_| "worker panicked".to_string())?
                .map_err(|e| e.to_string())?;
        }
        drained?;
        summary
    }
}

/// Sends one line on a fresh connection and returns the first reply
/// line `until` accepts (empty if the peer closes first).
fn request(addr: SocketAddr, line: &str, until: impl Fn(&str) -> bool) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("dial coordinator: {e}"))?;
    writeln!(stream, "{line}").map_err(|e| format!("send {line}: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    loop {
        reply.clear();
        let n = reader
            .read_line(&mut reply)
            .map_err(|e| format!("read reply: {e}"))?;
        if n == 0 || until(&reply) {
            return Ok(reply);
        }
    }
}

/// Client-side timestamps of one job.
#[derive(Clone, Copy)]
pub struct JobTiming {
    pub submit: Instant,
    pub accepted: Instant,
    pub done: Instant,
}

impl JobTiming {
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.submit).as_secs_f64() * 1e3
    }
    pub fn accept_ms(&self) -> f64 {
        (self.accepted - self.submit).as_secs_f64() * 1e3
    }
    pub fn run_ms(&self) -> f64 {
        (self.done - self.accepted).as_secs_f64() * 1e3
    }
}

/// What one closed-loop client saw.
#[derive(Default)]
pub struct ClientReport {
    pub timings: Vec<JobTiming>,
    pub attempted: u64,
    /// Jobs rejected, failed, or cut off by a closed connection.
    pub failed: u64,
    /// Completed jobs whose output disagreed with the reference.
    pub mismatched: u64,
    /// Jobs whose `out=` files were read back and checked in full.
    pub sampled: u64,
    pub first_error: Option<String>,
}

/// Submits one job and waits for its terminal line. Returns the
/// timestamps and the `out_records` the coordinator reported.
fn submit(addr: SocketAddr, spec: &JobSpec) -> Result<(JobTiming, u64), String> {
    let submit = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("dial coordinator: {e}"))?;
    let _ = stream.set_nodelay(true);
    writeln!(stream, "{}", spec.submit_line()).map_err(|e| format!("send submit: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut accepted = None;
    let mut line = String::new();
    loop {
        line.clear();
        if reader
            .read_line(&mut line)
            .map_err(|e| format!("read reply: {e}"))?
            == 0
        {
            return Err("coordinator hung up mid-job".into());
        }
        match line.split_whitespace().next() {
            Some("accepted") => accepted = Some(Instant::now()),
            Some("jobdone") => {
                let done = Instant::now();
                let out_records = line
                    .split_whitespace()
                    .find_map(|f| f.strip_prefix("out_records="))
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("jobdone without out_records: {}", line.trim_end()))?;
                let timing = JobTiming {
                    submit,
                    accepted: accepted.unwrap_or(done),
                    done,
                };
                return Ok((timing, out_records));
            }
            Some("jobfail") | Some("rejected") => return Err(line.trim_end().to_string()),
            _ => {}
        }
    }
}

fn client_loop(
    addr: SocketAddr,
    spec: &ServiceSpec,
    client: usize,
    pool: &[PoolJob],
    jobs: usize,
    scratch: &Path,
) -> ClientReport {
    let mut report = ClientReport::default();
    for n in 0..jobs {
        // The clients walk the pool from different offsets.
        let job = &pool[(n + client * pool.len() / spec.clients()) % pool.len()];
        let sampled = n % spec.sample_every == 0;
        let out_dir = scratch.join(format!("svc-c{client}-j{n}"));
        let out = sampled.then(|| out_dir.to_string_lossy().into_owned());
        let tenant = spec.tenants[client % spec.tenants.len()];
        let job_spec = job_spec(spec, tenant, job.seed, out);
        report.attempted += 1;
        let verdict = submit(addr, &job_spec).and_then(|(timing, out_records)| {
            report.timings.push(timing);
            let mut got = Fingerprint {
                records: out_records,
                ..job.want
            };
            if sampled {
                report.sampled += 1;
                got = observed_counts_files(&out_dir, RANKS)?;
            }
            Ok(got == job.want)
        });
        if sampled {
            let _ = std::fs::remove_dir_all(&out_dir);
        }
        match verdict {
            Ok(true) => {}
            Ok(false) => report.mismatched += 1,
            Err(e) => {
                report.failed += 1;
                report.first_error.get_or_insert(e);
            }
        }
    }
    report
}

/// Length of one slice of the stream. The run reports its best slice:
/// see the README on why the best and not the median.
const SLICE: Duration = Duration::from_secs(1);

/// The measured stream: every client's report, and the instants at
/// which the main thread cut the stream into slices, each with the
/// process CPU time used so far.
pub struct Stream {
    pub clients: Vec<ClientReport>,
    /// Slice boundaries: the start of the stream, then one mark per
    /// full [`SLICE`].
    pub marks: Vec<(Instant, f64)>,
    /// When the last client finished, and the CPU used by then.
    pub end: (Instant, f64),
}

/// Runs the closed-loop stream against `session`: every client first
/// runs its untimed warm-up jobs, then all start together and each
/// submits `jobs_per_client` jobs back to back.
pub fn run_stream(
    session: &Session,
    spec: &ServiceSpec,
    pool: &[PoolJob],
    jobs_per_client: usize,
    scratch: &Path,
) -> Result<Stream, String> {
    let addr = session.addr;
    let gate = Barrier::new(spec.clients() + 1);
    let mark = || (Instant::now(), crate::host::process_cpu_seconds());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spec.clients())
            .map(|client| {
                let gate = &gate;
                scope.spawn(move || {
                    let warm = client_loop(addr, spec, client, pool, spec.warmup_jobs, scratch);
                    gate.wait();
                    let report = client_loop(addr, spec, client, pool, jobs_per_client, scratch);
                    (warm.first_error, report)
                })
            })
            .collect();
        gate.wait();
        let mut marks = vec![mark()];
        while !handles.iter().all(|h| h.is_finished()) {
            std::thread::sleep(Duration::from_millis(20));
            if marks.last().is_some_and(|(at, _)| at.elapsed() >= SLICE) {
                marks.push(mark());
            }
        }
        let end = mark();
        let mut clients = Vec::new();
        for handle in handles {
            let (warm_error, report) = handle.join().map_err(|_| "client panicked")?;
            if let Some(e) = warm_error {
                return Err(format!("warm-up job failed: {e}"));
            }
            clients.push(report);
        }
        Ok(Stream {
            clients,
            marks,
            end,
        })
    })
}

/// Admission decisions per second: one submit / dispatch / release
/// cycle per operation, two tenants alternating, called directly.
pub fn admission_ops_per_s() -> f64 {
    const OPS: usize = 20_000;
    let mut admission = FairShareAdmission::new(admission_config());
    let specs = SERVICE_SPEC
        .tenants
        .map(|t| job_spec(&SERVICE_SPEC, t, 42, None));
    let start = Instant::now();
    for i in 0..OPS {
        admission
            .submit(specs[i % 2].clone())
            .expect("an idle controller admits");
        let job = admission
            .next_to_dispatch()
            .expect("a free slot dispatches");
        admission.release(&job.tenant);
    }
    OPS as f64 / start.elapsed().as_secs_f64()
}

/// Nanoseconds to format one submit line and parse it back.
pub fn protocol_roundtrip_ns() -> f64 {
    const OPS: usize = 20_000;
    let spec = job_spec(&SERVICE_SPEC, SERVICE_SPEC.tenants[0], 42, None);
    let start = Instant::now();
    for _ in 0..OPS {
        let line = std::hint::black_box(&spec).submit_line();
        std::hint::black_box(JobSpec::parse_submit(&line).expect("own line parses"));
    }
    start.elapsed().as_secs_f64() * 1e9 / OPS as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_pool_is_deterministic_and_seed_dependent() {
        let a = seed_pool(&SERVICE_SPEC, 7);
        let b = seed_pool(&SERVICE_SPEC, 7);
        let c = seed_pool(&SERVICE_SPEC, 8);
        assert_eq!(a.len(), SERVICE_SPEC.seed_pool);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.seed == y.seed && x.want == y.want));
        assert!(a.iter().zip(&c).all(|(x, y)| x.seed != y.seed));
        assert_ne!(a[0].want, a[1].want, "pool entries are distinct jobs");
    }

    #[test]
    fn micro_loops_measure_something() {
        assert!(admission_ops_per_s() > 0.0);
        assert!(protocol_roundtrip_ns() > 0.0);
    }
}
