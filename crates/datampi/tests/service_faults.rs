//! A user-code panic inside a resident-service job, in its O or its A
//! function, must fail that job —
//! a `jobfail` line to its client — and nothing else: the mesh slot is
//! released, the next job on the same mesh completes, and drain joins
//! every service thread. So must a job that fails before it starts, and
//! whatever its error says — spaces, `=`, `%`, a newline — reaches the
//! client intact, escaped into the one `jobfail` line and un-escaped by
//! the client call `dmpi` and `dmpirun` make. A job's outcome waits for
//! every rank's: one rank failing early answers nobody and frees no slot
//! until the other rank has reported too. Every scenario runs under a
//! watchdog, so a hang (the rank's ingest thread waiting for an EOF its
//! panicked O phase, or a panicked peer's job thread, never sent) is a
//! test failure, not a stalled suite.

mod common;

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use datampi::service::protocol::Line;
use datampi::service::{
    run_resident_worker, serve, submit as client_submit, AdmissionConfig, JobResolver, JobSpec,
    PreparedJob, ServiceConfig,
};
use dmpi_common::group::{Collector, GroupedValues};
use dmpi_common::partition::{HashPartitioner, Partitioner};
use dmpi_common::ser::unframe_batch;
use dmpi_common::{Error, Result};

const RANKS: usize = 2;
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// What resolving workload `badspec` fails with: every character the
/// line protocol has a use for.
const BAD_SPEC: &str = "bad spec: tasks=4 is 100% wrong\nfor a,b;c:d";

/// Resolves every workload to a tiny WordCount; workload `boom` panics
/// in O task 0 (rank 0's under the static assignment), `aboom` panics in
/// the A function on key `shared`, `pboom` panics while resolving on
/// the one worker whose `prepare_panics` is set, so its peer runs alone,
/// and `badspec` does not resolve at all.
struct PanickyResolver {
    prepare_panics: bool,
}

impl JobResolver for PanickyResolver {
    fn prepare(&self, spec: &JobSpec) -> Result<PreparedJob> {
        if spec.workload == "badspec" {
            return Err(Error::Config(BAD_SPEC.into()));
        }
        if spec.workload == "pboom" && self.prepare_panics {
            panic!("resolver exploded");
        }
        let boom = spec.workload == "boom";
        let aboom = spec.workload == "aboom";
        Ok(PreparedJob {
            o_fn: Box::new(move |task, out| {
                if boom && task == 0 {
                    panic!("user code exploded");
                }
                let split = format!("w{task} shared w{}", task % 2);
                for word in split.as_bytes().split(|&b| b == b' ') {
                    out.collect(word, b"1");
                }
            }),
            a_fn: Box::new(move |g: &GroupedValues, out: &mut dyn Collector| {
                if aboom && &g.key[..] == b"shared" {
                    panic!("A user code exploded");
                }
                out.collect(&g.key, g.values.len().to_string().as_bytes());
            }),
        })
    }
}

fn request(
    addr: SocketAddr,
    line: &str,
    until: impl Fn(&str) -> bool,
) -> std::result::Result<String, String> {
    common::request(addr, line, until, READ_TIMEOUT)
}

fn spec(workload: &str, tasks: usize) -> JobSpec {
    JobSpec {
        id: 0,
        tenant: "t".into(),
        workload: workload.into(),
        tasks,
        bytes_per_task: 64,
        seed: 1,
        o_parallelism: 1,
        out: None,
        spill_dir: None,
        spill_compress: false,
    }
}

fn submit_with(addr: SocketAddr, spec: &JobSpec) -> std::result::Result<String, String> {
    request(addr, &spec.submit_line(), |l| {
        l.starts_with("jobdone") || l.starts_with("jobfail") || l.starts_with("rejected")
    })
}

fn submit(addr: SocketAddr, workload: &str) -> std::result::Result<String, String> {
    submit_with(addr, &spec(workload, 4))
}

fn wait_seated(addr: SocketAddr) -> std::result::Result<(), String> {
    let want = format!("ranks={RANKS}/{RANKS}");
    while !request(addr, "status", |l| l.starts_with("status"))?.contains(&want) {
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(())
}

fn scenario() -> std::result::Result<(), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let config = ServiceConfig {
        ranks: RANKS,
        admission: AdmissionConfig::default(),
        report_dir: None,
    };
    let coordinator = std::thread::spawn(move || serve(listener, config));
    let workers: Vec<_> = (0..RANKS)
        .map(|i| {
            let resolver = Arc::new(PanickyResolver {
                prepare_panics: i == 0,
            });
            std::thread::spawn(move || run_resident_worker(addr, resolver))
        })
        .collect();
    wait_seated(addr)?;

    // The panic becomes a fault after the rank's EOFs went out, so the
    // peer never hangs. The fault is structured and names task 0's rank,
    // rank 0.
    let failed = submit(addr, "boom")?;
    let err = Line::of(&failed, "jobfail").and_then(|l| l.get("err")?.text());
    if !err.is_some_and(|e| e.contains("panicked") && e.contains("task panic [task 0] [rank 0]")) {
        return Err(format!("panicking job must end in jobfail, got {failed:?}"));
    }
    // So does a panic in the A function, on the rank that owns the key,
    // and that rank leaves no part file behind, partial or whole.
    let out = std::env::temp_dir().join(format!("service-faults-out-{}", std::process::id()));
    let with_out = |workload| JobSpec {
        out: Some(out.display().to_string()),
        ..spec(workload, 4)
    };
    let part = |rank: usize| out.join(format!("part-{rank:05}"));
    let failed = submit_with(addr, &with_out("aboom"))?;
    let err = Line::of(&failed, "jobfail").and_then(|l| l.get("err")?.text());
    let owner = HashPartitioner::new(RANKS).partition(b"shared");
    let want = format!("task panic [rank {owner}] [attempt 0]: A function user code panicked");
    if !err.is_some_and(|e| e.contains(&want)) {
        return Err(format!("an A panic must end in jobfail, got {failed:?}"));
    }
    if part(owner).exists() {
        return Err(format!("a failed rank left {}", part(owner).display()));
    }
    // A panic that escapes the job on one rank only: its job thread still
    // sends the EOFs the peer's ingest waits for.
    let failed = submit(addr, "pboom")?;
    let err = Line::of(&failed, "jobfail").and_then(|l| l.get("err")?.text());
    if !err.is_some_and(|e| e.contains("task panic") && e.contains("job thread panicked")) {
        return Err(format!(
            "an escaped panic must end in jobfail, got {failed:?}"
        ));
    }
    let unresolved = submit(addr, "badspec")?;
    let err = Line::of(&unresolved, "jobfail")
        .and_then(|l| l.get("err"))
        .and_then(|v| v.text())
        .ok_or_else(|| format!("a job that cannot resolve must end in jobfail: {unresolved:?}"))?;
    if !err.contains(BAD_SPEC) || unresolved.trim_end().contains('\n') {
        return Err(format!("the error text must arrive intact: {err:?}"));
    }
    match client_submit(addr, &spec("badspec", 4)).and_then(|job| job.outcome()) {
        Err(err) if err.contains(BAD_SPEC) => {}
        other => {
            return Err(format!(
                "the client call must un-escape the error: {other:?}"
            ))
        }
    }
    let done = submit_with(addr, &with_out("fine"))?;
    if !done.starts_with("jobdone") || !done.contains("out_records=5") {
        return Err(format!("the next job must complete, got {done:?}"));
    }
    // Its two part files hold its five records: each word of the four
    // splits `w<t> shared w<t % 2>`, counted.
    let mut records = Vec::new();
    for rank in 0..RANKS {
        let bytes = std::fs::read(part(rank)).map_err(|e| format!("part {rank}: {e}"))?;
        let batch = unframe_batch(&bytes).map_err(|e| format!("part {rank}: {e}"))?;
        records.extend(batch.iter().map(|r| (r.key_utf8(), r.value_utf8())));
    }
    records.sort();
    let want = [
        ("shared", "4"),
        ("w0", "3"),
        ("w1", "3"),
        ("w2", "1"),
        ("w3", "1"),
    ];
    if records
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .ne(want)
    {
        return Err(format!(
            "the part files must hold the job's records: {records:?}"
        ));
    }
    let _ = std::fs::remove_dir_all(&out);

    request(addr, "drain", |l| l.starts_with("drained"))?;
    let summary = coordinator
        .join()
        .map_err(|_| "coordinator panicked".to_string())?
        .map_err(|e| e.to_string())?;
    if (summary.completed, summary.failed) != (1, 5) {
        return Err(format!("one job done and five failed, got {summary:?}"));
    }
    for worker in workers {
        worker
            .join()
            .map_err(|_| "worker panicked".to_string())?
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

#[test]
fn panicking_job_fails_alone_and_the_mesh_keeps_serving() {
    // A hang here is a job thread or a worker that never finished.
    common::under_watchdog(Duration::from_secs(60), scenario);
}

/// Workload `gated`: task 0 panics at once; task 1 says it has started,
/// waits for the test's word, then panics too. Anything else is a tiny
/// job that completes.
struct GatedResolver {
    started: Mutex<Sender<()>>,
    release: Arc<Mutex<Receiver<()>>>,
}

impl JobResolver for GatedResolver {
    fn prepare(&self, spec: &JobSpec) -> Result<PreparedJob> {
        let gated = spec.workload == "gated";
        let started = self.started.lock().unwrap().clone();
        let release = Arc::clone(&self.release);
        Ok(PreparedJob {
            o_fn: Box::new(move |task, out| {
                if gated && task == 0 {
                    panic!("task 0 fails at once");
                }
                if gated {
                    let _ = started.send(());
                    let _ = release.lock().unwrap().recv();
                    panic!("task 1 fails once released");
                }
                out.collect(format!("w{task}").as_bytes(), b"1");
            }),
            a_fn: Box::new(|g: &GroupedValues, out: &mut dyn Collector| {
                out.collect(&g.key, g.values.len().to_string().as_bytes());
            }),
        })
    }
}

/// Opens a client connection, submits `spec`, and returns the reader
/// once `accepted` has arrived.
fn accepted(addr: SocketAddr, spec: &JobSpec) -> std::result::Result<BufReader<TcpStream>, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("dial: {e}"))?;
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .map_err(|e| e.to_string())?;
    writeln!(stream, "{}", spec.submit_line()).map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).map_err(|e| e.to_string())?;
    if !line.starts_with("accepted") {
        return Err(format!("submission not accepted: {line:?}"));
    }
    Ok(reader)
}

fn outcome_waits_for_every_rank() -> std::result::Result<(), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let config = ServiceConfig {
        ranks: RANKS,
        admission: AdmissionConfig {
            mesh_slots: 1,
            queue_limit: 4,
            default_quota: 1,
        },
        report_dir: None,
    };
    let coordinator = std::thread::spawn(move || serve(listener, config));
    let (started_tx, started) = channel();
    let (release, release_rx) = channel();
    let resolver = Arc::new(GatedResolver {
        started: Mutex::new(started_tx),
        release: Arc::new(Mutex::new(release_rx)),
    });
    let workers: Vec<_> = (0..RANKS)
        .map(|_| {
            let resolver: Arc<dyn JobResolver> = resolver.clone();
            std::thread::spawn(move || run_resident_worker(addr, resolver))
        })
        .collect();
    wait_seated(addr)?;

    // tasks = ranks = 2: rank 0 fails task 0 at once, rank 1 holds task 1.
    let mut gated = accepted(addr, &spec("gated", RANKS))?;
    let mut next = accepted(addr, &spec("fine", RANKS))?;
    started
        .recv_timeout(READ_TIMEOUT)
        .map_err(|_| "task 1 never started".to_string())?;
    let status = request(addr, "status", |l| l.starts_with("status"))?;
    let field = |key: &str| {
        Line::of(&status, "status")
            .and_then(|l| l.get(key))
            .map(|v| v.0)
    };
    if (field("running"), field("queued")) != (Some("1"), Some("1")) {
        return Err(format!(
            "the job must hold its slot while rank 1 runs: {status:?}"
        ));
    }
    let stream = gated.get_ref();
    stream.set_nonblocking(true).map_err(|e| e.to_string())?;
    let silent = matches!(stream.peek(&mut [0u8; 1]), Err(e) if e.kind() == ErrorKind::WouldBlock);
    if !gated.buffer().is_empty() || !silent {
        return Err("no terminal line may reach the client while a rank runs".into());
    }
    stream.set_nonblocking(false).map_err(|e| e.to_string())?;

    release.send(()).map_err(|e| e.to_string())?;
    let mut line = String::new();
    gated.read_line(&mut line).map_err(|e| e.to_string())?;
    let err = Line::of(&line, "jobfail")
        .and_then(|l| l.get("err"))
        .and_then(|v| v.text())
        .ok_or_else(|| format!("the job must end in jobfail: {line:?}"))?;
    let (r0, r1) = (err.find("rank 0: "), err.find("rank 1: "));
    if !matches!((r0, r1), (Some(a), Some(b)) if a < b) || err.matches("panicked").count() != 2 {
        return Err(format!(
            "jobfail must name both ranks' failures in rank order: {err:?}"
        ));
    }
    line.clear();
    if gated.read_line(&mut line).map_err(|e| e.to_string())? != 0 {
        return Err(format!("exactly one terminal line, then close: {line:?}"));
    }
    line.clear();
    next.read_line(&mut line).map_err(|e| e.to_string())?;
    if !line.starts_with("jobdone") {
        return Err(format!(
            "the next job must be admitted and complete: {line:?}"
        ));
    }

    request(addr, "drain", |l| l.starts_with("drained"))?;
    let summary = coordinator
        .join()
        .map_err(|_| "coordinator panicked".to_string())?
        .map_err(|e| e.to_string())?;
    if (summary.completed, summary.failed) != (1, 1) {
        return Err(format!("one job done and one failed, got {summary:?}"));
    }
    for worker in workers {
        worker
            .join()
            .map_err(|_| "worker panicked".to_string())?
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

#[test]
fn a_job_outcome_waits_for_every_rank() {
    common::under_watchdog(Duration::from_secs(60), outcome_waits_for_every_rank);
}
