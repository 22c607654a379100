//! `dmpirun` — a minimal `mpirun`-style launcher: runs a catalogue
//! workload as N real worker processes on localhost, connected by the
//! DataMPI TCP transport.
//!
//! ```text
//! dmpirun --ranks 4 --tasks 8 wordcount
//! ```
//!
//! The parent process is the coordinator: it binds a rendezvous
//! listener, spawns one copy of itself per rank in worker mode (rank,
//! rank count and coordinator address travel in the `DMPI_RANK` /
//! `DMPI_RANKS` / `DMPI_COORD` environment variables), distributes the
//! rank table, and sums every worker's `jobdone` line into one job
//! summary. Workers generate their input splits deterministically from
//! the shared seed, so no split data crosses the rendezvous channel.
//! A worker reports as a resident `dmpid` worker does, in the one
//! [`WorkerEvent`] vocabulary, its job being job 0: `jobdone 0 rank=… …`
//! or `jobfail 0 rank=… err=…`.
//!
//! With `--trace-out`, `--report-out` or `--progress` the **telemetry
//! plane** comes up: each worker runs its job under an
//! [`Observer`], clock-syncs with the coordinator at registration, and
//! ships periodic `jobtlm 0 tlm …` frames (counters, latency histograms,
//! sealed spans) over its rendezvous stream. The coordinator aggregates them
//! into a live progress line, a merged multi-process Chrome trace (one
//! process row per rank, offset-corrected onto the coordinator's
//! timeline), and a final `job-report.json` (schema
//! `dmpi-job-report/v1`, documented in DESIGN.md §13).
//!
//! `--verify-inproc` re-runs the same job on the in-process threaded
//! runtime and asserts the multi-process output is byte-identical per
//! partition (and that the record counters agree with the in-proc
//! observer) — the catalogue's determinism contract makes that exact.

use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use datampi::distrib::{
    coordinate_rank_table, register_with_coordinator, ENV_ATTEMPT, ENV_COORD, ENV_RANK, ENV_RANKS,
};
use datampi::observe::{
    Counter, Observer, SpanKind, TelemetryAggregator, TelemetryFrame, TelemetrySink, TraceEvent,
    JOB_LANE,
};
use datampi::service::protocol::{read_known_line, WorkerDone, WorkerEvent};
use datampi::service::worker::report_partition;
use datampi::transport::Backend;
use datampi::{FaultPlan, JobConfig, WireCompression};
use dmpi_common::crc::crc32;
use dmpi_common::ser::RecordWriter;
use dmpi_workloads::ExecWorkload;

const USAGE: &str = "\
usage: dmpirun [options] <workload>

Runs a catalogue workload (wordcount | sort | grep) as N worker
processes on localhost over the DataMPI TCP transport.

options:
  --ranks N, -n N     worker processes to launch (default 4)
  --tasks T           O tasks in the job (default 2*ranks)
  --bytes-per-task B  minimum split size in bytes (default 4096)
  --o-parallelism N   worker threads per O task (default 1: sequential;
                      output is byte-identical at any setting)
  --seed S            input-generation seed (default 42)
  --backend B         tcp (default: real worker processes) or inproc
                      (threaded runtime in this process — same job,
                      same telemetry artifacts)
  --batch-bytes B     wire coalescing watermark in bytes (default 256
                      KiB): raw frame bytes packed into one wire batch
                      before it seals (tcp backend only)
  --compress ALGO     per-batch wire compression: none (default) or
                      lz4; output bytes are identical either way
  --spill-dir DIR     seal A-store spill runs to block-indexed files
                      under DIR/job-<pid>/ instead of keeping them in
                      memory; the subdirectory is removed when the job
                      ends (failed and elastic attempts included)
  --spill-compress    LZ4-compress spill-run blocks (implies nothing
                      about the wire; output bytes are identical)
  --out DIR           write each rank's partition to DIR/part-NNNNN
  --trace-out FILE    write a merged Chrome trace of all ranks (one
                      process row per rank, clock-offset corrected);
                      load it in chrome://tracing or ui.perfetto.dev
  --report-out FILE   write job-report.json (per-rank + aggregate
                      counters, latency histograms, per-peer byte
                      matrices, straggler timeline)
  --progress          live single-line job view on stderr
                      (records/sec, wire MB/s, per-rank lag)
  --verify-inproc     re-run in-process and require identical output
  --fail-rank R       (testing) rank R dies after the mesh is up
                      (on the first attempt only, under --elastic)
  --slow-rank R       (testing) rank R pauses before each O task
  --slow-ms M         the per-task pause for --slow-rank (default 100)
  --elastic           on a worker death, relaunch one rank narrower
                      under a bumped rank-table version instead of
                      failing the whole job
";

/// How often a worker ships a telemetry frame while the job runs.
const TELEMETRY_INTERVAL: Duration = Duration::from_millis(200);
/// How often the coordinator redraws the live progress line.
const PROGRESS_INTERVAL_US: u64 = 250_000;

#[derive(Clone)]
struct Options {
    workload: ExecWorkload,
    ranks: usize,
    tasks: usize,
    bytes_per_task: usize,
    o_parallelism: usize,
    seed: u64,
    backend: Backend,
    batch_bytes: Option<usize>,
    compression: WireCompression,
    spill_dir: Option<PathBuf>,
    spill_compress: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    report_out: Option<PathBuf>,
    progress: bool,
    verify_inproc: bool,
    fail_rank: Option<usize>,
    slow_rank: Option<usize>,
    slow_ms: u64,
    elastic: bool,
    worker: bool,
    /// Worker-mode only (set by the coordinator, not the user): run the
    /// job under an observer and ship telemetry frames.
    telemetry: bool,
}

impl Options {
    /// Whether this launch wants the telemetry plane at all.
    fn wants_telemetry(&self) -> bool {
        self.trace_out.is_some() || self.report_out.is_some() || self.progress
    }
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        workload: ExecWorkload::WordCount,
        ranks: 4,
        tasks: 0,
        bytes_per_task: 4096,
        o_parallelism: 1,
        seed: 42,
        backend: Backend::Tcp,
        batch_bytes: None,
        compression: WireCompression::None,
        spill_dir: None,
        spill_compress: false,
        out: None,
        trace_out: None,
        report_out: None,
        progress: false,
        verify_inproc: false,
        fail_rank: None,
        slow_rank: None,
        slow_ms: 100,
        elastic: false,
        worker: false,
        telemetry: false,
    };
    let mut workload: Option<ExecWorkload> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--ranks" | "-n" => {
                opts.ranks = value("--ranks")?.parse().map_err(|e| format!("{e}"))?
            }
            "--tasks" => opts.tasks = value("--tasks")?.parse().map_err(|e| format!("{e}"))?,
            "--bytes-per-task" => {
                opts.bytes_per_task = value("--bytes-per-task")?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--o-parallelism" => {
                opts.o_parallelism = value("--o-parallelism")?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--seed" => opts.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--backend" => {
                let name = value("--backend")?;
                opts.backend = Backend::parse(&name)
                    .ok_or_else(|| format!("unknown backend {name:?} (try tcp|inproc)"))?;
            }
            "--batch-bytes" => {
                opts.batch_bytes = Some(
                    value("--batch-bytes")?
                        .parse()
                        .map_err(|e| format!("{e}"))?,
                )
            }
            "--compress" => {
                let name = value("--compress")?;
                opts.compression = WireCompression::parse(&name)
                    .ok_or_else(|| format!("unknown compression {name:?} (try none|lz4)"))?;
            }
            "--spill-dir" => opts.spill_dir = Some(PathBuf::from(value("--spill-dir")?)),
            "--spill-compress" => opts.spill_compress = true,
            "--out" => opts.out = Some(PathBuf::from(value("--out")?)),
            "--trace-out" => opts.trace_out = Some(PathBuf::from(value("--trace-out")?)),
            "--report-out" => opts.report_out = Some(PathBuf::from(value("--report-out")?)),
            "--progress" => opts.progress = true,
            "--verify-inproc" => opts.verify_inproc = true,
            "--fail-rank" => {
                opts.fail_rank = Some(value("--fail-rank")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--slow-rank" => {
                opts.slow_rank = Some(value("--slow-rank")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--slow-ms" => {
                opts.slow_ms = value("--slow-ms")?.parse().map_err(|e| format!("{e}"))?
            }
            "--elastic" => opts.elastic = true,
            "--worker" => opts.worker = true,
            "--telemetry" => opts.telemetry = true,
            "--help" | "-h" => return Err(String::new()),
            other => {
                if workload.is_some() {
                    return Err(format!("unexpected argument {other:?}"));
                }
                workload = Some(ExecWorkload::parse(other).ok_or_else(|| {
                    format!("unknown workload {other:?} (try wordcount|sort|grep)")
                })?);
            }
        }
    }
    opts.workload = workload.ok_or_else(|| "no workload named".to_string())?;
    if opts.ranks == 0 {
        return Err("--ranks must be at least 1".into());
    }
    if opts.o_parallelism == 0 {
        return Err("--o-parallelism must be at least 1".into());
    }
    if opts.tasks == 0 {
        opts.tasks = 2 * opts.ranks;
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("dmpirun: {msg}");
            }
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if opts.worker {
        run_worker_process(&opts)
    } else if opts.backend == Backend::InProc {
        run_inproc_coordinator(&opts)
    } else {
        run_coordinator(&opts)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("dmpirun: {msg}");
            ExitCode::FAILURE
        }
    }
}

// --------------------------------------------------------- worker mode

fn env_usize(name: &str) -> Result<usize, String> {
    std::env::var(name)
        .map_err(|_| format!("worker mode requires {name}"))?
        .parse()
        .map_err(|e| format!("bad {name}: {e}"))
}

/// The one-shot job's id in the worker vocabulary: the whole launch is
/// job 0 of its mesh, as `datampi::distrib::run_worker` runs it.
const JOB: u64 = 0;

fn tlm(frame: TelemetryFrame) -> WorkerEvent {
    let frame = Box::new(frame);
    WorkerEvent::Tlm { job: JOB, frame }
}

/// Writes one event to the coordinator as one write: telemetry frames
/// and the result line share the stream, and the mutex keeps each whole.
fn send_event(stream: &Mutex<TcpStream>, event: &WorkerEvent) -> std::io::Result<()> {
    let line = event.wire_line() + "\n";
    let mut stream = stream.lock().expect("coord stream lock");
    stream.write_all(line.as_bytes())
}

fn run_worker_process(opts: &Options) -> Result<(), String> {
    let rank = env_usize(ENV_RANK)?;
    let ranks = env_usize(ENV_RANKS)?;
    // Attempt 0 unless an elastic relaunch says otherwise.
    let attempt = std::env::var(ENV_ATTEMPT)
        .ok()
        .and_then(|v| v.parse::<u32>().ok())
        .unwrap_or(0);
    let coord = std::env::var(ENV_COORD)
        .map_err(|_| format!("worker mode requires {ENV_COORD}"))?
        .parse()
        .map_err(|e| format!("bad {ENV_COORD}: {e}"))?;

    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind data port: {e}"))?;
    let port = listener.local_addr().map_err(|e| e.to_string())?.port();

    // With telemetry on, the worker's observer exists *before*
    // registration: its clock is the one the handshake syncs, so every
    // span it stamps can be offset-corrected onto the coordinator's
    // timeline.
    let observer = opts.telemetry.then(Observer::new);
    let epoch = std::time::Instant::now();
    let now_us = || match &observer {
        Some(obs) => obs.now_micros(),
        None => epoch.elapsed().as_micros() as u64,
    };
    let (coord_stream, table, sync) = register_with_coordinator(coord, rank, port, &now_us)
        .map_err(|e| format!("rank {rank}: rendezvous failed: {e}"))?;
    let peers = table.peers;
    if peers.len() != ranks {
        return Err(format!(
            "rank {rank}: table v{} has {} peers for {ranks} ranks",
            table.version,
            peers.len()
        ));
    }

    // The injected crash fires once: an elastic relaunch (attempt > 0)
    // must not keep re-killing the same rank of the shrunken mesh.
    if opts.fail_rank == Some(rank) && attempt == 0 {
        // Simulated crash for the recovery tests: bring the mesh up,
        // wait until every peer has spoken to us (a frame from rank p
        // proves p finished establishing its whole mesh), then die
        // without ever sending an EOF. The OS closes our sockets and
        // every peer's reader surfaces a RankDeath fault naming us.
        let mut endpoint =
            datampi::transport::establish_endpoint(rank, listener, &peers, &Default::default())
                .map_err(|e| format!("rank {rank}: mesh failed: {e}"))?;
        let receiver = endpoint.take_receiver();
        let mut heard = std::collections::HashSet::new();
        while heard.len() + 1 < ranks {
            match receiver.recv() {
                Ok(Some(frame)) => {
                    if frame.from_rank() != rank {
                        heard.insert(frame.from_rank());
                    }
                }
                Ok(None) | Err(_) => break,
            }
        }
        eprintln!("dmpirun: rank {rank} dying on purpose (--fail-rank)");
        // Leak rather than close: close would flush orderly EOF-less
        // shutdowns per-socket; a hard exit models a real crash.
        std::mem::forget(endpoint);
        std::process::exit(3);
    }

    let mut config = JobConfig::new(ranks)
        .with_o_parallelism(opts.o_parallelism)
        .with_wire_compression(opts.compression);
    if let Some(b) = opts.batch_bytes {
        config = config.with_wire_batch_bytes(b);
    }
    // In worker mode the coordinator already rewrote --spill-dir to the
    // per-job subdirectory it will clean up.
    if let Some(dir) = &opts.spill_dir {
        config = config.with_spill_dir(dir.clone());
    }
    if opts.spill_compress {
        config = config.with_spill_compression(WireCompression::Lz4);
    }
    if let Some(obs) = &observer {
        config = config.with_observer(obs.clone());
    }
    if let Some(slow) = opts.slow_rank {
        // This process becomes a real straggler, pausing before each of
        // its O tasks.
        config = config.with_faults(FaultPlan::new(opts.seed).slow_rank(slow, 0, opts.slow_ms));
    }
    let inputs = opts
        .workload
        .inputs(opts.tasks, opts.bytes_per_task, opts.seed);

    // The rendezvous stream now carries interleaved telemetry frames and
    // (eventually) the result line; the mutex keeps each line atomic.
    let coord_stream = Arc::new(Mutex::new(coord_stream));
    let stop = Arc::new(AtomicBool::new(false));
    let shipper = observer.as_ref().map(|obs| {
        let mut sink = TelemetrySink::new(obs.clone(), rank as u32, sync);
        let stream = Arc::clone(&coord_stream);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            'ship: loop {
                // Sleep in small slices so the stop flag is prompt.
                let slices = (TELEMETRY_INTERVAL.as_millis() / 10).max(1);
                for _ in 0..slices {
                    if stop.load(Ordering::Relaxed) {
                        break 'ship;
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
                if send_event(&stream, &tlm(sink.next_frame(false))).is_err() {
                    // Coordinator gone mid-job: stop shipping, let the
                    // job finish (the done line will fail on its own).
                    break 'ship;
                }
            }
            sink
        })
    });

    let outcome = opts
        .workload
        .run_worker(&config, rank, listener, &peers, &inputs);

    // Join the shipper before any result line: the final frame (and the
    // done line after it) must be the last things on the stream.
    stop.store(true, Ordering::Relaxed);
    let mut sink = shipper.map(|h| h.join().expect("telemetry shipper panicked"));

    // Drain-on-shutdown: the end-of-job frame ships on *every* outcome,
    // success or failure, before the terminal result line — the shipper
    // thread's 200 ms cadence would otherwise drop the last partial
    // interval (and a failing worker would drop its entire final state).
    // It must precede the terminal line because the coordinator's reader
    // stops at the first non-telemetry line.
    if let Some(sink) = sink.as_mut() {
        let _ = send_event(&coord_stream, &tlm(sink.next_frame(true)));
    }
    let report = match outcome {
        Ok(report) => report,
        Err(e) => {
            let (job, err) = (JOB, e.to_string());
            let _ = send_event(&coord_stream, &WorkerEvent::Fail { job, rank, err });
            return Err(format!("rank {rank}: job failed: {e}"));
        }
    };

    let done = report_partition(JOB, rank, &report, opts.out.as_deref(), epoch)
        .map_err(|e| format!("rank {rank}: {e}"))?;
    send_event(&coord_stream, &WorkerEvent::Done(done))
        .map_err(|e| format!("rank {rank}: report result: {e}"))
}

// ---------------------------------------------------- coordinator mode

/// Per-rank outcome of one attempt: each surviving rank's `jobdone`
/// report, plus the failure messages gathered from dead or erroring ones.
type AttemptResults = (Vec<Option<WorkerDone>>, Vec<String>);

/// Spawns `ranks` workers, runs one rendezvous at `version`, and
/// collects their telemetry and result lines. Each worker stream gets a
/// dedicated reader thread (telemetry frames arrive continuously, and a
/// serial read loop would let one slow rank block the live view of the
/// others) that forwards the rank's [`WorkerEvent`]s up to its terminal
/// one: its own `jobdone`, or a `Fail` saying what went wrong (the rank's
/// `jobfail` being one case). The calling thread absorbs frames into the
/// returned [`TelemetryAggregator`] and renders the progress line. Returns
/// per-rank results plus the failures observed (dead workers, bad
/// result lines, nonzero exits).
#[allow(clippy::too_many_arguments)] // internal: one call site, mirrors the attempt loop's state
fn launch_attempt(
    opts: &Options,
    listener: &TcpListener,
    coord_addr: std::net::SocketAddr,
    exe: &std::path::Path,
    ranks: usize,
    version: u64,
    attempt: u32,
    obs: &Observer,
) -> Result<(AttemptResults, TelemetryAggregator), String> {
    let mut children = Vec::with_capacity(ranks);
    for rank in 0..ranks {
        let mut cmd = Command::new(exe);
        cmd.arg("--worker")
            .arg("--tasks")
            .arg(opts.tasks.to_string())
            .arg("--bytes-per-task")
            .arg(opts.bytes_per_task.to_string())
            .arg("--o-parallelism")
            .arg(opts.o_parallelism.to_string())
            .arg("--seed")
            .arg(opts.seed.to_string());
        if opts.wants_telemetry() {
            cmd.arg("--telemetry");
        }
        if let Some(b) = opts.batch_bytes {
            cmd.arg("--batch-bytes").arg(b.to_string());
        }
        if opts.compression != WireCompression::None {
            cmd.arg("--compress").arg(opts.compression.name());
        }
        if let Some(dir) = &opts.spill_dir {
            cmd.arg("--spill-dir").arg(dir);
        }
        if opts.spill_compress {
            cmd.arg("--spill-compress");
        }
        if let Some(dir) = &opts.out {
            cmd.arg("--out").arg(dir);
        }
        if let Some(r) = opts.fail_rank {
            cmd.arg("--fail-rank").arg(r.to_string());
        }
        if let Some(r) = opts.slow_rank {
            cmd.arg("--slow-rank").arg(r.to_string());
            cmd.arg("--slow-ms").arg(opts.slow_ms.to_string());
        }
        cmd.arg(opts.workload.name())
            .env(ENV_RANK, rank.to_string())
            .env(ENV_RANKS, ranks.to_string())
            .env(ENV_COORD, coord_addr.to_string())
            .env(ENV_ATTEMPT, attempt.to_string())
            .stdout(Stdio::inherit())
            .stderr(Stdio::inherit());
        children.push(
            cmd.spawn()
                .map_err(|e| format!("spawn worker {rank}: {e}"))?,
        );
    }

    // The rendezvous replies each clock handshake with this
    // coordinator's observer clock: worker spans arrive pre-corrected
    // onto the same timeline the coordinator's own events use.
    let streams = coordinate_rank_table(listener, ranks, version, &|| obs.now_micros())
        .map_err(|e| format!("rendezvous failed: {e}"))?;

    let (tx, rx) = std::sync::mpsc::channel::<WorkerEvent>();
    let mut readers = Vec::with_capacity(ranks);
    for (rank, stream) in streams.into_iter().enumerate() {
        let tx = tx.clone();
        readers.push(std::thread::spawn(move || {
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            // Forward compatibility: a newer worker may emit verbs this
            // launcher does not know; the reader skips them.
            let known = |v: &str| matches!(v, "jobdone" | "jobfail" | "jobtlm");
            let err = loop {
                match read_known_line(&mut reader, &mut line, known) {
                    Ok(0) => break format!("rank {rank} died without reporting"),
                    Ok(_) => {}
                    Err(e) => break format!("rank {rank} result read failed: {e}"),
                }
                match WorkerEvent::parse(&line) {
                    Some(event @ WorkerEvent::Tlm { .. }) => {
                        let _ = tx.send(event);
                    }
                    Some(WorkerEvent::Done(done)) if done.rank == rank => {
                        let _ = tx.send(WorkerEvent::Done(done));
                        return;
                    }
                    Some(WorkerEvent::Fail { err, .. }) => {
                        break format!("rank {rank} failed: {err}")
                    }
                    // A malformed telemetry frame is dropped; a malformed
                    // or wrong-rank terminal line is still terminal.
                    None if line.starts_with("jobtlm") => {}
                    _ => break format!("rank {rank} failed: {}", line.trim_end()),
                }
            };
            let job = JOB;
            let _ = tx.send(WorkerEvent::Fail { job, rank, err });
        }));
    }
    drop(tx);

    // Absorb until every rank reached a terminal event, redrawing the
    // progress line as telemetry flows in.
    let mut agg = TelemetryAggregator::new(ranks);
    let mut results: Vec<Option<WorkerDone>> = vec![None; ranks];
    let mut failures = Vec::new();
    let mut terminal = 0usize;
    let mut last_progress = 0u64;
    while terminal < ranks {
        match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(WorkerEvent::Tlm { frame, .. }) => agg.absorb(*frame),
            Ok(WorkerEvent::Done(done)) => {
                let rank = done.rank;
                results[rank] = Some(done);
                terminal += 1;
            }
            Ok(WorkerEvent::Bye { .. }) => {} // not a verb the readers admit
            Ok(WorkerEvent::Fail { rank, err, .. }) => {
                agg.record(TraceEvent {
                    kind: SpanKind::Fault,
                    ts_us: obs.now_micros(),
                    dur_us: 0,
                    instant: true,
                    rank: rank as u32,
                    attempt,
                    task: None,
                    args: vec![("cause", "worker failed".into())],
                });
                failures.push(err);
                terminal += 1;
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {}
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
        }
        let now = obs.now_micros();
        if opts.progress && now.saturating_sub(last_progress) >= PROGRESS_INTERVAL_US {
            last_progress = now;
            let done = results.iter().filter(|r| r.is_some()).count();
            eprint!("\r{}", agg.progress_line(now, done));
        }
    }
    if opts.progress {
        let done = results.iter().filter(|r| r.is_some()).count();
        eprintln!("\r{}", agg.progress_line(obs.now_micros(), done));
    }
    for reader in readers {
        let _ = reader.join();
    }

    for (rank, child) in children.iter_mut().enumerate() {
        let status = child
            .wait()
            .map_err(|e| format!("wait for worker {rank}: {e}"))?;
        if !status.success() && results[rank].is_some() {
            failures.push(format!("rank {rank} exited with {status}"));
        }
    }
    Ok(((results, failures), agg))
}

/// Removes the coordinator's per-job spill subdirectory on exit — any
/// run files a killed or failed attempt left behind go with it.
struct SpillDirGuard(PathBuf);

impl Drop for SpillDirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Rewrites `--spill-dir` to a fresh `job-<pid>` subdirectory (so
/// concurrent launches sharing one spill root never collide) and
/// returns the guard that deletes it when the coordinator exits.
fn prepare_spill_dir(opts: &mut Options) -> Result<Option<SpillDirGuard>, String> {
    let Some(dir) = opts.spill_dir.take() else {
        return Ok(None);
    };
    let job_dir = dir.join(format!("job-{}", std::process::id()));
    std::fs::create_dir_all(&job_dir).map_err(|e| format!("create {}: {e}", job_dir.display()))?;
    opts.spill_dir = Some(job_dir.clone());
    Ok(Some(SpillDirGuard(job_dir)))
}

fn run_coordinator(opts: &Options) -> Result<(), String> {
    let mut opts = opts.clone();
    let _spill_guard = prepare_spill_dir(&mut opts)?;
    let opts = &opts;
    let listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind rendezvous port: {e}"))?;
    let coord_addr = listener.local_addr().map_err(|e| e.to_string())?;
    if let Some(dir) = &opts.out {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;

    // The coordinator's observer is the job's reference clock: clock
    // handshakes answer with it, worker spans arrive corrected onto it,
    // and coordinator-side events (attempt spans, retries) stamp from
    // it.
    let obs = Observer::new();
    // Coordinator events that must survive an elastic relaunch (the
    // per-attempt aggregator is rebuilt each time membership changes).
    let mut job_events: Vec<TraceEvent> = Vec::new();

    // Elastic membership at launcher scale: a worker death shrinks the
    // mesh by one rank and re-runs the rendezvous under a bumped table
    // version — the process-level mirror of the in-proc supervisor's
    // width shrink (without a cross-process checkpoint store the narrow
    // attempt recomputes, but the job still completes instead of
    // failing). Width 1 is the floor.
    let mut ranks = opts.ranks;
    let mut version = 0u64;
    let max_attempts: u32 = if opts.elastic { 3 } else { 1 };
    for attempt in 0..max_attempts {
        let attempt_start = obs.now_micros();
        let ((results, failures), mut agg) = launch_attempt(
            opts, &listener, coord_addr, &exe, ranks, version, attempt, &obs,
        )?;
        job_events.push(TraceEvent {
            kind: SpanKind::Attempt,
            ts_us: attempt_start,
            dur_us: obs.now_micros().saturating_sub(attempt_start),
            instant: false,
            rank: JOB_LANE,
            attempt,
            task: None,
            args: vec![("ranks", ranks.to_string())],
        });
        if !failures.is_empty() {
            // Keep the failed attempt's partial spans and fault instants:
            // the final trace should show what the dead mesh was doing.
            job_events.extend(agg.trace().events().iter().cloned());
            if opts.wants_telemetry()
                && (!opts.elastic || ranks <= 1 || attempt + 1 >= max_attempts)
            {
                // Terminal failure: still write the artifacts. Surviving
                // ranks' drain-on-shutdown final frames are in the
                // aggregator, so the report shows what the job managed
                // before it died; `status`/`finals_seen` say it failed.
                for ev in job_events.drain(..) {
                    agg.record(ev);
                }
                write_telemetry_artifacts(
                    opts,
                    &agg,
                    ranks,
                    version,
                    attempt,
                    obs.now_micros(),
                    "failed",
                )?;
            }
            if opts.elastic && ranks > 1 && attempt + 1 < max_attempts {
                eprintln!(
                    "dmpirun: attempt {attempt} failed ({}); relaunching {} ranks under table v{}",
                    failures.join("; "),
                    ranks - 1,
                    version + 1,
                );
                job_events.push(TraceEvent {
                    kind: SpanKind::Retry,
                    ts_us: obs.now_micros(),
                    dur_us: 0,
                    instant: true,
                    rank: JOB_LANE,
                    attempt,
                    task: None,
                    args: vec![("next_ranks", (ranks - 1).to_string())],
                });
                ranks -= 1;
                version += 1;
                continue;
            }
            return Err(failures.join("; "));
        }

        let total = |of: fn(&WorkerDone) -> u64| results.iter().flatten().map(of).sum::<u64>();
        let wire_sent = total(|d| d.wire_sent);
        println!(
            "dmpirun: {} over {} ranks ({} tasks, seed {}, table v{version}): \
             o_tasks_run={} records_emitted={} bytes_emitted={} frames={} groups={} \
             out_records={} wire_sent={wire_sent} wire_recv={}",
            opts.workload.name(),
            ranks,
            opts.tasks,
            opts.seed,
            total(|d| d.o_tasks_run),
            total(|d| d.records_emitted),
            total(|d| d.bytes_emitted),
            total(|d| d.frames),
            total(|d| d.groups),
            total(|d| d.out_records),
            total(|d| d.wire_recv),
        );

        if opts.wants_telemetry() {
            for ev in job_events.drain(..) {
                agg.record(ev);
            }
            // Telemetry's own consistency gate: the aggregate's wire
            // totals must equal the sum of the per-rank totals, and —
            // when every rank's final frame arrived — agree with the
            // independently-reported jobdone lines.
            let aggregate = agg.aggregate_counters()[Counter::WireBytesSent];
            let per_rank_wire: u64 = agg
                .per_rank()
                .iter()
                .map(|r| r.counters.as_ref().map_or(0, |c| c[Counter::WireBytesSent]))
                .sum();
            if aggregate != per_rank_wire {
                return Err(format!(
                    "telemetry invariant broken: aggregate wire_bytes_sent {aggregate} != \
                     per-rank sum {per_rank_wire}"
                ));
            }
            if agg.finals_seen() == ranks && aggregate != wire_sent {
                return Err(format!(
                    "telemetry disagrees with done lines: aggregate wire_bytes_sent \
                     {aggregate} != reported {wire_sent}"
                ));
            }
            write_telemetry_artifacts(opts, &agg, ranks, version, attempt, obs.now_micros(), "ok")?;
        }

        if opts.verify_inproc {
            verify_inproc(opts, ranks, &results)?;
            println!(
                "dmpirun: verified — {ranks} partitions byte-identical to the in-proc runtime"
            );
        }
        return Ok(());
    }
    Err("retry budget exhausted".into())
}

/// Writes `--trace-out` and `--report-out` from a finished attempt's
/// aggregator.
#[allow(clippy::too_many_arguments)]
fn write_telemetry_artifacts(
    opts: &Options,
    agg: &TelemetryAggregator,
    ranks: usize,
    version: u64,
    attempt: u32,
    elapsed_us: u64,
    status: &str,
) -> Result<(), String> {
    if let Some(path) = &opts.trace_out {
        let trace = agg.trace();
        std::fs::write(path, trace.to_chrome_json_by_rank())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!(
            "dmpirun: wrote merged trace ({} events from {ranks} ranks) to {}",
            trace.len(),
            path.display()
        );
    }
    if let Some(path) = &opts.report_out {
        let meta = [
            ("workload", format!("\"{}\"", opts.workload.name())),
            ("backend", format!("\"{}\"", opts.backend.name())),
            ("tasks", opts.tasks.to_string()),
            ("seed", opts.seed.to_string()),
            ("attempt", attempt.to_string()),
            ("table_version", version.to_string()),
            ("elapsed_us", elapsed_us.to_string()),
            ("status", format!("\"{status}\"")),
            ("finals_seen", agg.finals_seen().to_string()),
        ];
        std::fs::write(path, agg.report_json(&meta))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("dmpirun: wrote job report to {}", path.display());
    }
    Ok(())
}

/// `--backend inproc`: the same job on the threaded runtime in this
/// process, producing the same artifacts (summary line, merged trace,
/// job report). Counters and histograms are process-global on this
/// backend, so the report carries them under rank 0's entry; the
/// per-peer byte matrices are still per-rank exact.
fn run_inproc_coordinator(opts: &Options) -> Result<(), String> {
    let mut opts = opts.clone();
    let _spill_guard = prepare_spill_dir(&mut opts)?;
    let opts = &opts;
    if let Some(dir) = &opts.out {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let obs = Observer::new();
    let mut config = JobConfig::new(opts.ranks)
        .with_o_parallelism(opts.o_parallelism)
        .with_observer(obs.clone());
    if let Some(dir) = &opts.spill_dir {
        config = config.with_spill_dir(dir.clone());
    }
    if opts.spill_compress {
        config = config.with_spill_compression(WireCompression::Lz4);
    }
    let inputs = opts
        .workload
        .inputs(opts.tasks, opts.bytes_per_task, opts.seed);
    let start = obs.now_micros();
    let output = opts
        .workload
        .run_inproc(&config, inputs)
        .map_err(|e| format!("in-proc job failed: {e}"))?;
    let elapsed = obs.now_micros().saturating_sub(start);

    let mut out_records = 0u64;
    for (rank, partition) in output.partitions.iter().enumerate() {
        out_records += partition.len() as u64;
        if let Some(dir) = &opts.out {
            let mut writer = RecordWriter::new();
            for rec in partition.iter() {
                writer.write(rec);
            }
            let path = dir.join(format!("part-{rank:05}"));
            std::fs::write(&path, writer.into_bytes())
                .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
    }
    let s = &output.stats;
    println!(
        "dmpirun: {} in-proc over {} ranks ({} tasks, seed {}): o_tasks_run={} \
         records_emitted={} bytes_emitted={} frames={} groups={} out_records={out_records}",
        opts.workload.name(),
        opts.ranks,
        opts.tasks,
        opts.seed,
        s.o_tasks_run,
        s.records_emitted,
        s.bytes_emitted,
        s.frames,
        s.groups,
    );

    if opts.wants_telemetry() {
        // Assemble the aggregator from the shared in-process registry:
        // matrix rows split per rank; process-global counters,
        // histograms and spans land under rank 0 so the aggregate still
        // equals the per-rank sum.
        let mut agg = TelemetryAggregator::new(opts.ranks);
        let registry = obs.registry();
        let sent = registry.sent_matrix();
        let recv = registry.recv_matrix();
        for rank in 0..opts.ranks {
            let mut frame = TelemetryFrame {
                rank: rank as u32,
                is_final: true,
                ..TelemetryFrame::default()
            };
            frame.sent_row = sent.get(rank).cloned().unwrap_or_default();
            frame.recv_row = recv.get(rank).cloned().unwrap_or_default();
            if rank == 0 {
                frame.counters = registry.snapshot();
                frame.histograms = registry
                    .histograms()
                    .snapshot_all()
                    .into_iter()
                    .filter(|(_, h)| !h.is_empty())
                    .collect();
            }
            agg.absorb(frame);
        }
        for ev in obs.take_events() {
            agg.record(ev);
        }
        write_telemetry_artifacts(opts, &agg, opts.ranks, 0, 0, elapsed, "ok")?;
    }
    Ok(())
}

/// Re-runs the job on the in-process threaded runtime and checks that
/// every partition's framed bytes hash identically to what the worker
/// of that rank produced, and that the in-proc observer's record
/// counters agree with the aggregated worker counters.
fn verify_inproc(
    opts: &Options,
    ranks: usize,
    results: &[Option<WorkerDone>],
) -> Result<(), String> {
    let observer = Observer::new();
    // The reference run is always sequential (o_parallelism 1), so when
    // the workers ran with `--o-parallelism N` this check doubles as the
    // parallel-executor byte-identity gate across process boundaries.
    // `ranks` is the *final* width — under --elastic the reference must
    // match the shrunken mesh, not the width the job started at.
    let config = JobConfig::new(ranks).with_observer(observer.clone());
    let inputs = opts
        .workload
        .inputs(opts.tasks, opts.bytes_per_task, opts.seed);
    let output = opts
        .workload
        .run_inproc(&config, inputs)
        .map_err(|e| format!("in-proc verification run failed: {e}"))?;
    for (rank, partition) in output.partitions.iter().enumerate() {
        let mut writer = RecordWriter::new();
        for rec in partition.iter() {
            writer.write(rec);
        }
        let framed = writer.into_bytes();
        let result = results[rank].as_ref().ok_or("missing rank result")?;
        if crc32(&framed) != result.crc {
            return Err(format!(
                "partition {rank} differs from the in-proc runtime \
                 (in-proc {} records, worker {})",
                partition.len(),
                result.out_records,
            ));
        }
    }
    let emitted: u64 = results.iter().flatten().map(|r| r.records_emitted).sum();
    let observed = observer.registry().snapshot()[Counter::RecordsOut];
    if observed != emitted {
        return Err(format!(
            "record counters disagree: in-proc observer saw {observed} emitted, \
             workers reported {emitted}"
        ));
    }
    Ok(())
}
