//! What a traced resident session writes. With a `report_dir`, `serve`
//! asks its workers to trace their jobs and writes, per job, a
//! `dmpi-job-report/v1` document and a Chrome trace whose rank spans sit
//! on the coordinator's timeline. A resident worker outlives its jobs,
//! so each job's spans must be stamped on the clock its join handshake
//! synced — not on one that starts with the job, which would put a late
//! job's spans at the start of the session. The jobs' outputs match the
//! in-proc runtime byte for byte.

mod common;

use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;

use datampi::service::{
    run_resident_worker, serve, submit, AdmissionConfig, JobResolver, JobSpec, Line, PreparedJob,
    ServiceConfig,
};
use datampi::{run_job, JobConfig};
use dmpi_common::crc::crc32;
use dmpi_common::group::{Collector, GroupedValues};
use dmpi_common::ser::{frame_batch, Writable};
use dmpi_common::Result;

use common::{under_watchdog, Outcome};

const RANKS: usize = 2;
const TASKS: usize = 6;

fn wc_o(_task: usize, split: &[u8], out: &mut dyn Collector) {
    for word in split.split(|&b| b == b' ').filter(|w| !w.is_empty()) {
        out.collect(word, &1u64.to_bytes());
    }
}

fn wc_a(group: &GroupedValues, out: &mut dyn Collector) {
    let total: u64 = group
        .values
        .iter()
        .map(|v| u64::from_bytes(v).unwrap())
        .sum();
    out.collect(&group.key, &total.to_bytes());
}

fn inputs(seed: u64) -> Vec<Bytes> {
    (0..TASKS as u64)
        .map(|t| {
            Bytes::from(format!(
                "w{t} w{} shared s{seed} w{}",
                t % 3,
                (t + seed) % 5
            ))
        })
        .collect()
}

/// WordCount over [`inputs`] of the job's seed.
struct WordCount;

impl JobResolver for WordCount {
    fn prepare(&self, spec: &JobSpec) -> Result<PreparedJob> {
        let splits = inputs(spec.seed);
        Ok(PreparedJob {
            o_fn: Box::new(move |t, out| wc_o(t, &splits[t], out)),
            a_fn: Box::new(wc_a),
        })
    }
}

/// Every `"key": <number>` (or `"key":<number>`) in `json`, in order.
fn numbers(json: &str, key: &str) -> Vec<u64> {
    json.split(&format!("\"{key}\":"))
        .skip(1)
        .filter_map(|rest| {
            let digits: String = rest
                .trim_start()
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            digits.parse().ok()
        })
        .collect()
}

/// The complete (`"ph":"X"`) events of a Chrome trace: (name, pid, ts,
/// end).
fn spans(trace: &str) -> Vec<(String, u64, u64, u64)> {
    trace
        .split("{\"name\":\"")
        .filter(|event| event.contains("\"ph\":\"X\""))
        .map(|event| {
            let name = event.split('"').next().unwrap_or_default().to_string();
            let field = |key| numbers(event, key).first().copied().unwrap_or(0);
            let ts = field("ts");
            (name, field("pid"), ts, ts + field("dur"))
        })
        .collect()
}

/// The pid of the process row a Chrome trace names `coordinator`: the
/// lane of the job's own spans.
fn coordinator_pid(trace: &str) -> Option<u64> {
    trace
        .split("{\"name\":\"process_name\"")
        .find(|row| row.contains("\"args\":{\"name\":\"coordinator\"}"))
        .and_then(|row| numbers(row, "pid").first().copied())
}

/// The framed-partition fingerprints of the in-proc run of `seed`'s job.
fn inproc_crcs(seed: u64) -> Vec<String> {
    let config = JobConfig::new(RANKS);
    let output = run_job(&config, inputs(seed), wc_o, wc_a, None).unwrap();
    let framed = |partition| crc32(&frame_batch(partition)).to_string();
    output.partitions.iter().map(framed).collect()
}

fn check_job(dir: &Path, id: u64, seed: u64, done: &str) -> Outcome<()> {
    let crcs = Line::of(done, "jobdone")
        .and_then(|l| l.get("crcs"))
        .map(|v| v.0.to_string())
        .ok_or_else(|| format!("no crcs: {done}"))?;
    if crcs.split(',').collect::<Vec<_>>() != inproc_crcs(seed) {
        return Err(format!("job {id} differs from the in-proc runtime: {done}"));
    }
    let read = |name: String| {
        std::fs::read_to_string(dir.join(&name)).map_err(|e| format!("read {name}: {e}"))
    };
    let report = read(format!("job-{id}.json"))?;
    for needle in [
        "\"schema\": \"dmpi-job-report/v1\"",
        "\"status\": \"ok\"",
        "\"backend\": \"tcp\"",
        "\"finals_seen\": 2",
    ] {
        if !report.contains(needle) {
            return Err(format!("job {id}'s report lacks {needle}: {report}"));
        }
    }
    let wire = numbers(&report, "wire_bytes_sent");
    if wire.len() != RANKS + 1 || wire[..RANKS].contains(&0) {
        return Err(format!("every rank ships its wire bytes: {wire:?}"));
    }
    let rtt = numbers(&report, "clock_rtt_us")
        .into_iter()
        .max()
        .unwrap_or(0);

    let trace = read(format!("job-{id}.trace.json"))?;
    let lane = coordinator_pid(&trace)
        .ok_or_else(|| format!("job {id}'s trace has no coordinator row"))?;
    let trace = spans(&trace);
    let (from, to) = match trace.iter().find(|s| s.1 == lane) {
        Some((_, _, ts, end)) => (ts.saturating_sub(rtt), end + rtt),
        None => return Err(format!("job {id}'s trace has no coordinator span")),
    };
    for rank in 0..RANKS as u64 {
        for kind in ["o_task", "recv", "sort", "a_compute"] {
            if !trace.iter().any(|s| s.0 == kind && s.1 == rank) {
                return Err(format!("job {id}: rank {rank} traced no {kind} span"));
            }
        }
    }
    for (name, pid, ts, end) in trace.iter().filter(|s| s.1 != lane) {
        if *ts < from || *end > to {
            return Err(format!(
                "job {id}: rank {pid}'s {name} span [{ts}, {end}] lies outside the \
                 job's [{from}, {to}] (rtt {rtt})"
            ));
        }
    }
    Ok(())
}

fn two_traced_jobs() -> Outcome<()> {
    let dir = std::env::temp_dir().join(format!("dmpi-service-reports-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr: SocketAddr = listener.local_addr().map_err(|e| e.to_string())?;
    let config = ServiceConfig {
        ranks: RANKS,
        admission: AdmissionConfig::default(),
        report_dir: Some(dir.clone()),
    };
    let coordinator = std::thread::spawn(move || serve(listener, config));
    let workers: Vec<_> = (0..RANKS)
        .map(|_| std::thread::spawn(move || run_resident_worker(addr, Arc::new(WordCount))))
        .collect();
    for (id, seed) in [(0, 11), (1, 12)] {
        let spec = JobSpec {
            id: 0,
            tenant: "t".into(),
            workload: "wordcount".into(),
            tasks: TASKS,
            bytes_per_task: 64,
            seed,
            o_parallelism: 1,
            out: None,
            spill_dir: None,
            spill_compress: false,
        };
        let done = submit(addr, &spec)?.outcome()?;
        check_job(&dir, id, seed, &done)?;
    }
    common::request(
        addr,
        "drain",
        |l| l.starts_with("drained"),
        Duration::from_secs(10),
    )?;
    coordinator
        .join()
        .map_err(|_| "coordinator panicked".to_string())?
        .map_err(|e| e.to_string())?;
    for worker in workers {
        worker
            .join()
            .map_err(|_| "worker panicked".to_string())?
            .map_err(|e| e.to_string())?;
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

#[test]
fn resident_jobs_trace_onto_the_coordinator_timeline() {
    under_watchdog(Duration::from_secs(60), two_traced_jobs);
}
