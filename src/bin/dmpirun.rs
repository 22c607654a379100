//! `dmpirun` — a minimal `mpirun`-style launcher: runs a catalogue
//! workload as N real worker processes on localhost, connected by the
//! DataMPI TCP transport.
//!
//! ```text
//! dmpirun --ranks 4 --tasks 8 wordcount
//! ```
//!
//! A launch is a one-job session of the resident job service, the code
//! `dmpid` keeps running: the parent runs [`serve`] on a thread, spawns
//! one copy of itself per rank in worker mode (`DMPI_COORD` names the
//! coordinator), submits its job through [`submit`] as `dmpi submit`
//! does, drains once it is accepted, and prints the summed counters. Each
//! worker joins ([`Seat::join`]) and serves the job as job 0, as any
//! `dmpid` worker would, generating its splits from the shared seed.
//! With `--trace-out` / `--report-out` the coordinator writes the job's
//! report and merged trace (DESIGN.md §16) to a private directory, and
//! the launcher moves them to the paths asked for.
//!
//! `--verify-inproc` re-runs the same job on the in-process threaded
//! runtime and asserts the multi-process output is byte-identical per
//! partition (and that the record counters agree with the in-proc
//! observer) — the catalogue's determinism contract makes that exact.

use std::fmt::Display;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::str::FromStr;
use std::sync::Arc;

use datampi::service::{
    request, serve, submit, AdmissionConfig, JobSpec, Line, Seat, ServiceConfig,
};
use datampi::transport::{establish_endpoint, TcpOptions};
use datampi::{Counter, JobConfig, Observer, ENV_COORD};
use dmpi_common::crc::crc32;
use dmpi_common::kv::RecordBatch;
use dmpi_common::ser::frame_batch;
use dmpi_workloads::{CatalogueResolver, ExecWorkload};

const USAGE: &str = "\
usage: dmpirun [options] <workload>

Runs a catalogue workload (wordcount | sort | grep) as N worker
processes on localhost over the DataMPI TCP transport.

options:
  --ranks N, -n N     worker processes to launch (default 4)
  --tasks T           O tasks in the job (default 2*ranks)
  --bytes-per-task B  minimum split size in bytes (default 4096)
  --seed S            input-generation seed (default 42)
  --spill-dir DIR     seal A-store spill runs to files under
                      DIR/job-<pid>/, removed when the launch ends
  --out DIR           write each rank's partition to DIR/part-NNNNN
  --trace-out FILE    write a merged Chrome trace, one process row per
                      rank (chrome://tracing or ui.perfetto.dev)
  --report-out FILE   write job-report.json (per-rank and aggregate
                      counters, histograms, peer byte matrices, faults)
  --verify-inproc     re-run in-process and require identical output
  --fail-rank R       (testing) rank R dies after the mesh is up
";

struct Options {
    workload: ExecWorkload,
    /// The launch's one job: tasks, split size, seed, output and spill
    /// directories.
    spec: JobSpec,
    ranks: usize,
    trace_out: Option<PathBuf>,
    report_out: Option<PathBuf>,
    verify_inproc: bool,
    fail_rank: Option<usize>,
    worker: bool,
}

/// The value after flag `name`, parsed.
fn value<T: FromStr>(name: &str, next: Option<String>) -> Result<T, String>
where
    T::Err: Display,
{
    let value = next.ok_or_else(|| format!("{name} requires a value"))?;
    value.parse().map_err(|e| format!("{name}: {e}"))
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        workload: ExecWorkload::WordCount,
        spec: JobSpec {
            id: 0,
            tenant: "dmpirun".into(),
            workload: String::new(),
            tasks: 0,
            bytes_per_task: 4096,
            seed: 42,
            o_parallelism: 1,
            out: None,
            spill_dir: None,
            spill_compress: false,
        },
        ranks: 4,
        trace_out: None,
        report_out: None,
        verify_inproc: false,
        fail_rank: None,
        worker: false,
    };
    let mut workload: Option<ExecWorkload> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--ranks" | "-n" => opts.ranks = value(&arg, args.next())?,
            "--tasks" => opts.spec.tasks = value(&arg, args.next())?,
            "--bytes-per-task" => opts.spec.bytes_per_task = value(&arg, args.next())?,
            "--seed" => opts.spec.seed = value(&arg, args.next())?,
            "--spill-dir" => opts.spec.spill_dir = Some(value(&arg, args.next())?),
            "--out" => opts.spec.out = Some(value(&arg, args.next())?),
            "--trace-out" => opts.trace_out = Some(value(&arg, args.next())?),
            "--report-out" => opts.report_out = Some(value(&arg, args.next())?),
            "--verify-inproc" => opts.verify_inproc = true,
            "--fail-rank" => opts.fail_rank = Some(value(&arg, args.next())?),
            "--worker" => opts.worker = true,
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
    opts.spec.workload = opts.workload.name().into();
    if opts.ranks == 0 {
        return Err("--ranks must be at least 1".into());
    }
    if opts.spec.tasks == 0 {
        opts.spec.tasks = 2 * opts.ranks;
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let result = match parse_args() {
        Ok(opts) if opts.worker => serve_as_worker(&opts),
        Ok(opts) => launch(opts),
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("dmpirun: {msg}");
            }
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("dmpirun: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// A worker process: joins the session at `DMPI_COORD` and serves its
/// job, unless its seat is `--fail-rank`'s.
fn serve_as_worker(opts: &Options) -> Result<(), String> {
    let coord = value(ENV_COORD, std::env::var(ENV_COORD).ok())?;
    let seat = Seat::join(coord).map_err(|e| format!("join failed: {e}"))?;
    let rank = seat.rank;
    if opts.fail_rank == Some(rank) {
        // Simulated crash: bring the mesh up, wait for a frame from every
        // peer (proof it finished its mesh, so none sees a refused dial),
        // then die without an EOF. Every peer sees a RankDeath naming us;
        // the coordinator sees our control stream end.
        let peers = &seat.table.peers;
        let mut endpoint = establish_endpoint(rank, seat.listener, peers, &TcpOptions::default())
            .map_err(|e| format!("rank {rank}: mesh failed: {e}"))?;
        let receiver = endpoint.take_receiver();
        let mut heard = std::collections::HashSet::new();
        while heard.len() + 1 < peers.len() {
            match receiver.recv() {
                Ok(Some(frame)) if frame.from_rank() != rank => heard.insert(frame.from_rank()),
                Ok(Some(_)) => continue,
                Ok(None) | Err(_) => break,
            };
        }
        eprintln!("dmpirun: rank {rank} dying on purpose (--fail-rank)");
        std::mem::forget(endpoint); // a hard exit, not an orderly close
        std::process::exit(3);
    }
    // Train the catalogue's seed model (once per process) before the
    // mesh: on the job's own thread it costs more, and before the join
    // it takes a CPU from the launcher still spawning our siblings.
    opts.workload.input_for_task(0, 1, 0);
    seat.serve(Arc::new(CatalogueResolver))
        .map_err(|e| format!("rank {rank}: {e}"))
}

/// Removes a directory the launcher owns when it exits, whatever the
/// outcome: the per-job spill root and the session's report directory.
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A new directory, private to this user, for a session's reports.
/// Creation fails on any existing path, so a directory planted there or
/// left by an earlier launch is never written through or read back.
fn private_dir() -> Result<RemoveOnDrop, String> {
    use std::os::unix::fs::DirBuilderExt;
    let clock = std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH);
    let nonce = clock.map_or(0, |d| d.subsec_nanos());
    let dir = std::env::temp_dir().join(format!("dmpirun-{}-{nonce:08x}", std::process::id()));
    let created = std::fs::DirBuilder::new().mode(0o700).create(&dir);
    created.map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(RemoveOnDrop(dir))
}

/// Runs the job as a one-job session. `--spill-dir` becomes a fresh
/// `job-<pid>` subdirectory (so concurrent launches sharing one spill
/// root never collide), removed on exit with whatever run files a failed
/// job left behind.
fn launch(mut opts: Options) -> Result<(), String> {
    let _spill_root = match opts.spec.spill_dir.take() {
        Some(dir) => {
            let job_dir = Path::new(&dir).join(format!("job-{}", std::process::id()));
            std::fs::create_dir_all(&job_dir)
                .map_err(|e| format!("create {}: {e}", job_dir.display()))?;
            opts.spec.spill_dir = Some(job_dir.display().to_string());
            Some(RemoveOnDrop(job_dir))
        }
        None => None,
    };
    let traced = opts.trace_out.is_some() || opts.report_out.is_some();
    let reports = traced.then(private_dir).transpose()?;
    let report_dir = reports.as_ref().map(|d| d.0.clone());
    let mut outcome = run_session(&opts, report_dir);
    if let Some(dir) = &reports {
        let saved = save_artifacts(&opts, &dir.0);
        outcome = outcome.and_then(|done| saved.map(|()| done));
    }
    summarize(&opts, &outcome?)
}

/// Runs `spec` as job 0 of a one-job session over `--ranks` fresh worker
/// processes and returns its `jobdone` line, or why there is none. The
/// session is drained and every worker reaped either way.
fn run_session(opts: &Options, report_dir: Option<PathBuf>) -> Result<String, String> {
    let ranks = opts.ranks;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let coord = listener.local_addr().map_err(|e| e.to_string())?;
    let config = ServiceConfig {
        ranks,
        admission: AdmissionConfig {
            mesh_slots: 1,
            queue_limit: 1,
            default_quota: 1,
        },
        report_dir,
    };
    let mut workers = Vec::with_capacity(ranks);
    let mut spawned = Ok(());
    for _ in 0..ranks {
        let mut cmd = Command::new(&exe);
        cmd.arg("--worker").env(ENV_COORD, coord.to_string());
        if let Some(rank) = opts.fail_rank {
            cmd.args(["--fail-rank", &rank.to_string()]);
        }
        match cmd.arg(opts.workload.name()).spawn() {
            Ok(child) => workers.push(child),
            Err(e) => {
                spawned = Err(format!("spawn worker: {e}"));
                break;
            }
        }
    }
    // Workers first: their joins wait in the bound listener's backlog.
    let session = std::thread::spawn(move || serve(listener, config));
    // Drain once the job is accepted: the session then ends with the job,
    // whose terminal line waits on its own connection meanwhile.
    let job = spawned.and_then(|()| submit(coord, &opts.spec));
    let drained = request(coord, "drain", "drained");
    let _ = session.join();
    let mut outcome = job.and_then(|job| job.outcome());
    for mut child in workers {
        let status = child.wait().map_err(|e| format!("wait for worker: {e}"))?;
        if !status.success() && outcome.is_ok() {
            outcome = Err(format!("a worker exited with {status}"));
        }
    }
    outcome.and_then(|done| drained.map(|_| done))
}

/// Moves the session's job report and trace to `--report-out` /
/// `--trace-out`.
fn save_artifacts(opts: &Options, dir: &Path) -> Result<(), String> {
    let artifacts = [
        ("job-0.json", &opts.report_out, "job report"),
        ("job-0.trace.json", &opts.trace_out, "merged trace"),
    ];
    for (name, path, what) in artifacts {
        let Some(path) = path else { continue };
        let contents = std::fs::read(dir.join(name)).map_err(|e| format!("read {name}: {e}"))?;
        std::fs::write(path, contents).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("dmpirun: wrote {what} to {}", path.display());
    }
    Ok(())
}

/// Field `key` of a `jobdone` line, as written (`0` when absent).
fn field<'a>(done: &'a str, key: &str) -> &'a str {
    let line = Line::of(done, "jobdone");
    line.and_then(|line| line.get(key)).map_or("0", |v| v.0)
}

/// Prints the launch's summary line from the job's `jobdone` line and,
/// with `--verify-inproc`, checks the job against the in-proc runtime.
fn summarize(opts: &Options, done: &str) -> Result<(), String> {
    let ranks = opts.ranks;
    let keys = "o_tasks_run records_emitted bytes_emitted frames groups out_records wire_sent \
                wire_recv";
    let sums: Vec<String> = keys
        .split(' ')
        .map(|key| format!("{key}={}", field(done, key)))
        .collect();
    println!(
        "dmpirun: {} over {ranks} ranks ({} tasks, seed {}): {}",
        opts.workload.name(),
        opts.spec.tasks,
        opts.spec.seed,
        sums.join(" ")
    );
    if opts.verify_inproc {
        verify_inproc(opts, done)?;
        println!("dmpirun: verified — {ranks} partitions byte-identical to the in-proc runtime");
    }
    Ok(())
}

/// Re-runs the job on the in-process threaded runtime and checks that
/// every partition's framed bytes hash to the fingerprint the worker of
/// that rank reported in `done`, and that the in-proc observer's record
/// counter agrees with the workers' summed `records_emitted`.
fn verify_inproc(opts: &Options, done: &str) -> Result<(), String> {
    let observer = Observer::new();
    let config = JobConfig::new(opts.ranks).with_observer(observer.clone());
    let spec = &opts.spec;
    let inputs = opts
        .workload
        .inputs(spec.tasks, spec.bytes_per_task, spec.seed);
    let output = opts
        .workload
        .run_raw(&config, inputs)
        .map_err(|e| format!("in-proc verification run failed: {e}"))?;
    let crc = |p: &RecordBatch| crc32(&frame_batch(p)).to_string();
    let inproc: Vec<String> = output.partitions.iter().map(crc).collect();
    let (inproc, workers) = (inproc.join(","), field(done, "crcs"));
    if inproc != workers {
        return Err(format!(
            "partitions differ from the in-proc runtime: {workers} vs {inproc}"
        ));
    }
    let observed = observer.registry().snapshot()[Counter::RecordsOut].to_string();
    let emitted = field(done, "records_emitted");
    if observed != emitted {
        return Err(format!(
            "record counters disagree: in-proc observer saw {observed} emitted, \
             workers reported {emitted}"
        ));
    }
    Ok(())
}
