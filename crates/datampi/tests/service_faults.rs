//! A user-code panic inside a resident-service job must fail that job —
//! a `jobfail` line to its client — and nothing else: the mesh slot is
//! released, the next job on the same mesh completes, and drain joins
//! every service thread. So must a job that fails before it starts, and
//! whatever its error says — spaces, `=`, `%`, a newline — reaches the
//! client intact, escaped into the one `jobfail` line. The whole scenario
//! runs under a watchdog, so a hang (the rank's ingest thread waiting for
//! an EOF its panicked O phase never sent) is a test failure, not a
//! stalled suite.

mod common;

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;

use datampi::service::protocol::Line;
use datampi::service::{
    run_resident_worker, serve, AdmissionConfig, JobResolver, JobSpec, PreparedJob, ServiceConfig,
};
use dmpi_common::group::{Collector, GroupedValues};
use dmpi_common::{Error, Result};

const RANKS: usize = 2;
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// What resolving workload `badspec` fails with: every character the
/// line protocol has a use for.
const BAD_SPEC: &str = "bad spec: tasks=4 is 100% wrong\nfor a,b;c:d";

/// Resolves every workload to a tiny WordCount; workload `boom` panics
/// in O task 0 (rank 0's under the static assignment), and `badspec`
/// does not resolve at all.
struct PanickyResolver;

impl JobResolver for PanickyResolver {
    fn prepare(&self, spec: &JobSpec) -> Result<PreparedJob> {
        if spec.workload == "badspec" {
            return Err(Error::Config(BAD_SPEC.into()));
        }
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

fn request(
    addr: SocketAddr,
    line: &str,
    until: impl Fn(&str) -> bool,
) -> std::result::Result<String, String> {
    common::request(addr, line, until, READ_TIMEOUT)
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
    let unresolved = submit(addr, "badspec")?;
    let err = Line::of(&unresolved, "jobfail")
        .and_then(|l| l.get("err"))
        .and_then(|v| v.text())
        .ok_or_else(|| format!("a job that cannot resolve must end in jobfail: {unresolved:?}"))?;
    if !err.contains(BAD_SPEC) || unresolved.trim_end().contains('\n') {
        return Err(format!("the error text must arrive intact: {err:?}"));
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
    if (summary.completed, summary.failed) != (1, 2) {
        return Err(format!("one job done and two failed, got {summary:?}"));
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
