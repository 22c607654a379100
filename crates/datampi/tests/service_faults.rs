//! A user-code panic inside a resident-service job must fail that job —
//! a `jobfail` line to its client — and nothing else: the mesh slot is
//! released, the next job on the same mesh completes, and drain joins
//! every service thread. The whole scenario runs under a watchdog, so a
//! hang (the rank's ingest thread waiting for an EOF its panicked O
//! phase never sent) is a test failure, not a stalled suite.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use bytes::Bytes;

use datampi::service::{
    run_resident_worker, serve, AdmissionConfig, JobResolver, JobSpec, PreparedJob, ServiceConfig,
};
use dmpi_common::group::{Collector, GroupedValues};
use dmpi_common::Result;

const RANKS: usize = 2;
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Resolves every workload to a tiny WordCount; workload `boom` panics
/// in O task 0 (rank 0's under the static assignment).
struct PanickyResolver;

impl JobResolver for PanickyResolver {
    fn prepare(&self, spec: &JobSpec) -> Result<PreparedJob> {
        let boom = spec.workload == "boom";
        Ok(PreparedJob {
            inputs: (0..spec.tasks)
                .map(|t| Bytes::from(format!("w{t} shared w{}", t % 2)))
                .collect(),
            o_fn: Box::new(move |task, split, out| {
                if boom && task == 0 {
                    panic!("user code exploded");
                }
                for word in split.split(|&b| b == b' ') {
                    out.collect(word, b"1");
                }
            }),
            a_fn: Box::new(|g: &GroupedValues, out: &mut dyn Collector| {
                out.collect(&g.key, g.values.len().to_string().as_bytes());
            }),
            sorted: true,
        })
    }
}

/// Sends one line on a fresh connection and returns the first reply
/// line `until` accepts; a closed or silent (read timeout) peer is an
/// error.
fn request(
    addr: SocketAddr,
    line: &str,
    until: impl Fn(&str) -> bool,
) -> std::result::Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("dial: {e}"))?;
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .map_err(|e| e.to_string())?;
    writeln!(stream, "{line}").map_err(|e| format!("send {line}: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    loop {
        reply.clear();
        match reader.read_line(&mut reply) {
            Ok(0) => return Err(format!("{line}: peer closed without a reply")),
            Ok(_) if until(&reply) => return Ok(reply),
            Ok(_) => {}
            Err(e) => return Err(format!("{line}: no terminal line: {e}")),
        }
    }
}

fn submit(addr: SocketAddr, workload: &str) -> std::result::Result<String, String> {
    let spec = JobSpec {
        id: 0,
        tenant: "t".into(),
        workload: workload.into(),
        tasks: 4,
        bytes_per_task: 64,
        seed: 1,
        o_parallelism: 1,
        out: None,
        spill_dir: None,
        spill_compress: false,
    };
    request(addr, &spec.submit_line(), |l| {
        l.starts_with("jobdone") || l.starts_with("jobfail") || l.starts_with("rejected")
    })
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
        .map(|_| std::thread::spawn(move || run_resident_worker(addr, Arc::new(PanickyResolver))))
        .collect();
    let want = format!("ranks={RANKS}/{RANKS}");
    while !request(addr, "status", |l| l.starts_with("status"))?.contains(&want) {
        std::thread::sleep(Duration::from_millis(1));
    }

    let failed = submit(addr, "boom")?;
    if !failed.starts_with("jobfail") || !failed.contains("panicked") {
        return Err(format!("panicking job must end in jobfail, got {failed:?}"));
    }
    let done = submit(addr, "fine")?;
    if !done.starts_with("jobdone") || !done.contains("out_records=5") {
        return Err(format!("the next job must complete, got {done:?}"));
    }

    request(addr, "drain", |l| l.starts_with("drained"))?;
    let summary = coordinator
        .join()
        .map_err(|_| "coordinator panicked".to_string())?
        .map_err(|e| e.to_string())?;
    if (summary.completed, summary.failed) != (1, 1) {
        return Err(format!("one job each way, got {summary:?}"));
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
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(scenario()));
    match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(verdict) => verdict.unwrap(),
        Err(_) => panic!("service scenario hung: a job thread or worker never finished"),
    }
}
