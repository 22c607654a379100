//! How a resident session ends. `serve` must return — and every `drain`
//! client get its `drained` — however the seated ranks leave, and a rank
//! told to drain must keep its data listener up until its peers are
//! through dialling it. Both used to hang or fail: a rank whose control
//! stream ended without `bye` was waited for forever, and a drain right
//! after start made the faster rank drop its listener under the slower
//! one's dial, which then failed to establish its mesh and left without
//! `bye`. A session drained before its workers have joined — `dmpirun`'s
//! order — must still seat them and run the jobs it had queued.
//!
//! The odd ranks here are fakes: raw `TcpStream`s speaking `join` (as
//! `tests/forward_compat.rs` does for the rendezvous) beside one real
//! [`run_resident_worker`]. Every scenario runs under a watchdog, so a
//! hang is a failed test, not a stalled suite.

mod common;

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use datampi::comm::Frame;
use datampi::service::{
    run_resident_worker, serve, submit, AdmissionConfig, JobResolver, JobSpec, Line, PreparedJob,
    ServiceConfig, ServiceSummary,
};
use datampi::transport::wire;
use dmpi_common::{Error, Result};

use common::{under_watchdog, Outcome};

const RANKS: usize = 2;

/// One request, answered by the first line that starts with `until`.
fn request(addr: SocketAddr, line: &str, until: &str, patience: Duration) -> Outcome<String> {
    common::request(addr, line, |reply| reply.starts_with(until), patience)
}

/// The scenarios here end sessions; a job submitted to one fails to
/// resolve.
struct NoJobs;

impl JobResolver for NoJobs {
    fn prepare(&self, spec: &JobSpec) -> Result<PreparedJob> {
        Err(Error::Config(format!("no catalogue: {}", spec.workload)))
    }
}

struct Service {
    addr: SocketAddr,
    coordinator: JoinHandle<Result<ServiceSummary>>,
}

fn start_service() -> Outcome<Service> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let config = ServiceConfig {
        ranks: RANKS,
        admission: AdmissionConfig::default(),
        report_dir: None,
    };
    let coordinator = std::thread::spawn(move || serve(listener, config));
    Ok(Service { addr, coordinator })
}

fn real_worker(addr: SocketAddr) -> JoinHandle<Result<()>> {
    std::thread::spawn(move || run_resident_worker(addr, Arc::new(NoJobs)))
}

fn wait_seated(addr: SocketAddr) -> Outcome<()> {
    let want = format!("ranks={RANKS}/{RANKS}");
    let patience = Duration::from_secs(10);
    while !request(addr, "status", "status", patience)?.contains(&want) {
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(())
}

fn joined<T>(handle: JoinHandle<Result<T>>, who: &str) -> Outcome<T> {
    handle
        .join()
        .map_err(|_| format!("{who} panicked"))?
        .map_err(|e| format!("{who}: {e}"))
}

/// A seated rank that is no `run_resident_worker`: it holds a data
/// listener, the peers' dials it accepted there, and its control stream.
struct FakeWorker {
    rank: usize,
    /// The data addresses of the `peers` broadcast, indexed by rank.
    peers: Vec<SocketAddr>,
    control: BufReader<TcpStream>,
    data: TcpListener,
    heard: Vec<TcpStream>,
}

impl FakeWorker {
    fn join(coord: SocketAddr) -> Outcome<FakeWorker> {
        let data = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let port = data.local_addr().map_err(|e| e.to_string())?.port();
        let mut stream = TcpStream::connect(coord).map_err(|e| format!("dial: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .map_err(|e| e.to_string())?;
        writeln!(stream, "join {port} 0").map_err(|e| format!("send join: {e}"))?;
        let mut control = BufReader::new(stream);
        let mut rank = None;
        let mut line = String::new();
        loop {
            line.clear();
            let n = control.read_line(&mut line).map_err(|e| e.to_string())?;
            if n == 0 {
                return Err("coordinator closed the stream mid-handshake".into());
            }
            if let Some(mut seat) = Line::of(&line, "rank") {
                rank = seat.pos();
            } else if let Some(mut table) = Line::of(&line, "peers") {
                let rank = rank.ok_or("table before seat")?;
                table.word(); // the table's version, `v0`
                let peers = std::iter::from_fn(|| table.word())
                    .map(|addr| addr.parse().map_err(|e| format!("peer {addr}: {e}")))
                    .collect::<Outcome<_>>()?;
                return Ok(FakeWorker {
                    rank,
                    peers,
                    control,
                    data,
                    heard: Vec::new(),
                });
            }
        }
    }

    /// Blocks until the coordinator's `drain` arrives.
    fn await_drain(&mut self) -> Outcome<()> {
        let mut line = String::new();
        loop {
            line.clear();
            let n = self
                .control
                .read_line(&mut line)
                .map_err(|e| e.to_string())?;
            if n == 0 {
                return Err("control stream ended before drain".into());
            }
            if Line::of(&line, "drain").is_some() {
                return Ok(());
            }
        }
    }

    /// Dials every real peer's data port and completes this rank's side
    /// of the mesh there: a handshake, then the teardown EOF.
    fn dial_peers(&self) -> Outcome<()> {
        for (peer, addr) in self.peers.iter().enumerate() {
            if peer == self.rank {
                continue;
            }
            let mut stream = TcpStream::connect(addr)
                .map_err(|e| format!("rank {peer}'s data listener is gone: {e}"))?;
            let mut batch = wire::BatchEncoder::new(wire::MIN_COALESCE_BYTES, false);
            wire::write_handshake(&mut stream, self.rank, batch.features())
                .map_err(|e| e.to_string())?;
            batch.push(&Frame::Eof {
                from_rank: self.rank,
            });
            let mut eof = Vec::new();
            batch.seal_into(&mut eof);
            stream.write_all(&eof).map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    /// Accepts every real peer's dial on the data listener and reads its
    /// handshake, keeping the streams open. Once this returns, no peer's
    /// mesh set-up still needs this rank: hanging up after it cannot
    /// reset a handshake or send a dialler into its connect-retry backoff.
    fn hear_peers(&mut self) -> Outcome<()> {
        for _ in 1..self.peers.len() {
            let (mut stream, _) = self.data.accept().map_err(|e| format!("accept: {e}"))?;
            let mut handshake = [0u8; wire::HANDSHAKE_LEN];
            stream
                .read_exact(&mut handshake)
                .map_err(|e| format!("read a peer's handshake: {e}"))?;
            self.heard.push(stream);
        }
        Ok(())
    }
}

fn hang_up_without_bye() -> Outcome<()> {
    let service = start_service()?;
    let real = real_worker(service.addr);
    let mut fake = FakeWorker::join(service.addr)?;
    fake.dial_peers()?;
    fake.hear_peers()?;
    wait_seated(service.addr)?;

    let addr = service.addr;
    let drain =
        std::thread::spawn(move || request(addr, "drain", "drained", Duration::from_secs(5)));
    fake.await_drain()?;
    drop(fake); // leaves as a crashed rank does: no `bye`

    drain
        .join()
        .map_err(|_| "drain client panicked".to_string())?
        .map_err(|e| format!("the drain client must get `drained`: {e}"))?;
    joined(service.coordinator, "serve")?;
    joined(real, "the real worker")
}

#[test]
fn serve_finishes_when_a_seated_rank_hangs_up_without_bye() {
    under_watchdog(Duration::from_secs(60), hang_up_without_bye);
}

fn dial_after_drain() -> Outcome<()> {
    let service = start_service()?;
    let real = real_worker(service.addr);
    let mut fake = FakeWorker::join(service.addr)?;
    wait_seated(service.addr)?;

    let addr = service.addr;
    let drain =
        std::thread::spawn(move || request(addr, "drain", "drained", Duration::from_secs(20)));
    fake.await_drain()?;
    // The slow rank: still about to dial when the fast one is already
    // told to leave. Give the fast rank time to get as far as it will —
    // out of `run_resident_worker` altogether if nothing holds it.
    let patience = Instant::now() + Duration::from_secs(1);
    while !real.is_finished() && Instant::now() < patience {
        std::thread::sleep(Duration::from_millis(5));
    }
    fake.dial_peers()
        .map_err(|e| format!("a rank told to drain must outlive its peers' dials: {e}"))?;
    drop(fake);

    joined(real, "the real worker")?;
    drain
        .join()
        .map_err(|_| "drain client panicked".to_string())??;
    joined(service.coordinator, "serve").map(|_| ())
}

#[test]
fn a_draining_rank_keeps_its_listener_until_its_peers_have_dialled() {
    under_watchdog(Duration::from_secs(60), dial_after_drain);
}

/// `dmpirun`'s order: submit, drain, and only then do the workers join.
/// Draining stops admission, not seating: the queued job still needs its
/// mesh, and it reaches its terminal line before the session ends.
fn drain_before_the_mesh_forms() -> Outcome<()> {
    let service = start_service()?;
    let addr = service.addr;
    let job = submit(addr, &spec("queued"))?;
    let drain =
        std::thread::spawn(move || request(addr, "drain", "drained", Duration::from_secs(20)));
    // A `draining` rejection proves the scheduler has taken the drain;
    // a probe it accepts first is queued and runs too.
    let mut probes = 0;
    loop {
        match submit(addr, &spec("probe")) {
            Ok(_) => probes += 1,
            Err(e) if e.ends_with("draining") => break,
            Err(e) => return Err(e),
        }
    }
    let workers: Vec<_> = (0..RANKS).map(|_| real_worker(addr)).collect();
    match job.outcome() {
        Err(e) if e.contains("no catalogue: queued") => {}
        other => {
            return Err(format!(
                "the queued job must run on the late mesh: {other:?}"
            ))
        }
    }
    drain
        .join()
        .map_err(|_| "drain client panicked".to_string())??;
    let summary = joined(service.coordinator, "serve")?;
    if (summary.completed, summary.failed, summary.rejected) != (0, 1 + probes, 1) {
        return Err(format!(
            "every queued job runs, one turned away: {summary:?}"
        ));
    }
    for worker in workers {
        joined(worker, "a worker seated while draining")?;
    }
    Ok(())
}

fn spec(workload: &str) -> JobSpec {
    JobSpec {
        id: 0,
        tenant: "t".into(),
        workload: workload.into(),
        tasks: RANKS,
        bytes_per_task: 64,
        seed: 1,
        o_parallelism: 1,
        out: None,
        spill_dir: None,
        spill_compress: false,
    }
}

#[test]
fn a_session_drained_before_its_mesh_forms_still_runs_its_queued_job() {
    under_watchdog(Duration::from_secs(60), drain_before_the_mesh_forms);
}

/// Resident start → `ranks=N/N` → drain, over and over: the shape of the
/// benchmark's `service-smalljobs` set-up and tear-down, where the two
/// defects above met (3 hangs in ~50 benchmark runs; cycle 1,319 of an
/// in-process loop). Every worker must return `Ok` every time.
const CYCLES: usize = 200;

fn start_drain_cycles() -> Outcome<()> {
    for cycle in 0..CYCLES {
        let started = Instant::now();
        let service = start_service()?;
        let workers: Vec<_> = (0..RANKS).map(|_| real_worker(service.addr)).collect();
        wait_seated(service.addr)?;
        request(service.addr, "drain", "drained", Duration::from_secs(10))
            .map_err(|e| format!("cycle {cycle}: {e}"))?;
        joined(service.coordinator, "serve")?;
        for worker in workers {
            joined(worker, "worker").map_err(|e| format!("cycle {cycle}: {e}"))?;
        }
        let took = started.elapsed();
        if took > Duration::from_secs(5) {
            return Err(format!("cycle {cycle} took {took:?}"));
        }
    }
    Ok(())
}

#[test]
fn resident_start_then_drain_cycles_always_end_cleanly() {
    under_watchdog(Duration::from_secs(300), start_drain_cycles);
}
