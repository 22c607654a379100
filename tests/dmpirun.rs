//! End-to-end tests of the `dmpirun` launcher: real OS worker processes
//! connected by the TCP transport must produce byte-identical output to
//! the in-process runtime, and a killed worker must fail the job with a
//! structured rank-death report rather than a hang.

use std::path::PathBuf;
use std::process::Command;

use datampi::JobConfig;
use dmpi_common::ser::RecordWriter;
use dmpi_workloads::ExecWorkload;

const RANKS: usize = 4;
const TASKS: usize = 8;
const BYTES_PER_TASK: usize = 2000;
const SEED: u64 = 77;

fn dmpirun() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dmpirun"))
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dmpirun-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn multiprocess_wordcount_is_byte_identical_to_inproc() {
    let out_dir = scratch_dir("wc");
    let output = dmpirun()
        .args(["--ranks", &RANKS.to_string()])
        .args(["--tasks", &TASKS.to_string()])
        .args(["--bytes-per-task", &BYTES_PER_TASK.to_string()])
        .args(["--seed", &SEED.to_string()])
        .arg("--out")
        .arg(&out_dir)
        .arg("--verify-inproc")
        .arg("wordcount")
        .output()
        .expect("launcher must spawn");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "dmpirun failed.\nstdout: {stdout}\nstderr: {stderr}"
    );
    assert!(
        stdout.contains("verified"),
        "launcher must self-verify against in-proc: {stdout}"
    );

    // Independent check: re-run in-proc here and compare the part files
    // the workers wrote, byte for byte.
    let workload = ExecWorkload::WordCount;
    let inputs = workload.inputs(TASKS, BYTES_PER_TASK, SEED);
    let baseline = workload.run_raw(&JobConfig::new(RANKS), inputs).unwrap();
    assert!(baseline.stats.records_emitted > 0);
    for (rank, partition) in baseline.partitions.iter().enumerate() {
        let mut writer = RecordWriter::new();
        for rec in partition.iter() {
            writer.write(rec);
        }
        let expected = writer.into_bytes();
        let path = out_dir.join(format!("part-{rank:05}"));
        let actual =
            std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        assert_eq!(
            actual, expected,
            "part file of rank {rank} must equal the in-proc partition"
        );
    }
    let _ = std::fs::remove_dir_all(&out_dir);
}

#[test]
fn killed_worker_fails_the_job_with_rank_death() {
    let output = dmpirun()
        .args(["--ranks", "3", "--tasks", "6", "--fail-rank", "1"])
        .arg("wordcount")
        .output()
        .expect("launcher must spawn");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        !output.status.success(),
        "a dead worker must fail the whole job.\nstderr: {stderr}"
    );
    assert!(
        stderr.contains("rank death") && stderr.contains("rank 1"),
        "surviving ranks must report a structured rank-death fault \
         naming the dead rank: {stderr}"
    );
    assert!(
        stderr.contains("died without reporting"),
        "the coordinator must notice the missing result line: {stderr}"
    );
}

/// Minimal JSON scanner: every `"key": <number>` occurrence, in order.
fn number_fields(json: &str, key: &str) -> Vec<u64> {
    let needle = format!("\"{key}\":");
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(i) = rest.find(&needle) {
        rest = &rest[i + needle.len()..];
        let digits: String = rest
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .collect();
        if let Ok(v) = digits.parse() {
            out.push(v);
        }
    }
    out
}

#[test]
fn telemetry_artifacts_merge_all_ranks_onto_one_timeline() {
    let out_dir = scratch_dir("tlm");
    let trace_path = out_dir.join("trace.json");
    let report_path = out_dir.join("job-report.json");
    let output = dmpirun()
        .args(["--backend", "tcp", "-n", &RANKS.to_string()])
        .args(["--tasks", &TASKS.to_string()])
        .args(["--bytes-per-task", &BYTES_PER_TASK.to_string()])
        .args(["--seed", &SEED.to_string()])
        .arg("--trace-out")
        .arg(&trace_path)
        .arg("--report-out")
        .arg(&report_path)
        .arg("wordcount")
        .output()
        .expect("launcher must spawn");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "dmpirun failed.\nstdout: {stdout}\nstderr: {stderr}"
    );

    // The merged Chrome trace: one process row per rank (plus the
    // coordinator lane), and spans from every rank process on it.
    let trace = std::fs::read_to_string(&trace_path).expect("trace written");
    assert!(trace.starts_with("{\"traceEvents\":["));
    for rank in 0..RANKS {
        assert!(
            trace.contains(&format!("\"name\":\"rank {rank}\"")),
            "trace must name a process row for rank {rank}"
        );
    }
    assert!(trace.contains("\"name\":\"coordinator\""));
    let pids = number_fields(&trace, "pid");
    for rank in 0..RANKS as u64 {
        assert!(
            pids.contains(&rank),
            "trace must carry events from rank {rank}'s process"
        );
    }
    // Offset-corrected onto one timeline: with the coordinator's clock
    // as the epoch, no span can land outside a few minutes of it.
    let ts = number_fields(&trace, "ts");
    assert!(!ts.is_empty());
    assert!(
        ts.iter().all(|&t| t < 600_000_000),
        "all span timestamps sit on the coordinator epoch"
    );

    // The job report: schema marker, and the aggregate wire-byte totals
    // equal the sum of the per-rank totals.
    let report = std::fs::read_to_string(&report_path).expect("report written");
    assert!(report.contains("\"schema\": \"dmpi-job-report/v1\""));
    assert!(report.contains("\"backend\": \"tcp\""));
    // Every rank ships its final telemetry frame before its done line,
    // so the report must have all of them.
    assert!(
        report.contains(&format!("\"finals_seen\": {RANKS}")),
        "every rank's final telemetry frame must be flushed: {report}"
    );
    assert_eq!(
        report.matches("\"final_seen\": true").count(),
        RANKS,
        "each per-rank entry must record its flushed final frame: {report}"
    );
    for (key, done_key) in [
        ("wire_bytes_sent", "wire_sent"),
        ("wire_bytes_received", "wire_recv"),
    ] {
        let values = number_fields(&report, key);
        // One value per rank plus the aggregate (last, per report_json).
        assert_eq!(values.len(), RANKS + 1, "{key}: {values:?}");
        let (agg, per_rank) = values.split_last().unwrap();
        assert_eq!(
            *agg,
            per_rank.iter().sum::<u64>(),
            "{key}: aggregate must equal the per-rank sum"
        );
        assert!(*agg > 0, "{key}: a 4-rank exchange moves real bytes");
        // Every rank's final frame is in (finals_seen above), so the
        // telemetry must agree with the counters the ranks' `jobdone`
        // lines reported, which the summary line prints summed.
        let summary = summary_field(&stdout, done_key);
        assert_eq!(*agg, summary, "{key} vs the summary's {done_key}");
    }
    // The mesh's own send latencies reach the report: every rank's, and
    // the aggregate.
    let sends: Vec<u64> = report
        .split("\"send_latency_us\": ")
        .skip(1)
        .map(|hist| number_fields(hist, "count")[0])
        .collect();
    assert_eq!(sends.len(), RANKS + 1, "send_latency_us: {report}");
    assert!(
        sends.iter().all(|&n| n > 0),
        "send latency counts: {sends:?}"
    );
    let _ = std::fs::remove_dir_all(&out_dir);
}

/// `key=<n>` from dmpirun's summary line.
fn summary_field(stdout: &str, key: &str) -> u64 {
    let needle = format!(" {key}=");
    let at = stdout
        .find(&needle)
        .unwrap_or_else(|| panic!("{key} in {stdout}"))
        + needle.len();
    let digits: String = stdout[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().unwrap()
}

/// `(pid, dur)` of every `o_task` span in a Chrome trace: the pid is the
/// rank, the duration in µs.
fn o_task_spans(trace: &str) -> Vec<(u64, u64)> {
    trace
        .split("{\"name\":")
        .filter(|event| event.starts_with("\"o_task\""))
        .map(|event| {
            (
                number_fields(event, "pid")[0],
                number_fields(event, "dur")[0],
            )
        })
        .collect()
}

#[test]
fn slow_rank_paces_only_its_own_o_tasks() {
    const PAUSE_MS: u64 = 150;
    let out_dir = scratch_dir("slow");
    let trace_path = out_dir.join("trace.json");
    let output = dmpirun()
        .args(["--ranks", "2", "--tasks", "4", "--slow-rank", "1"])
        .args(["--slow-ms", &PAUSE_MS.to_string()])
        .arg("--trace-out")
        .arg(&trace_path)
        .arg("wordcount")
        .output()
        .expect("launcher must spawn");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let trace = std::fs::read_to_string(&trace_path).expect("trace written");
    let spans = o_task_spans(&trace);
    let pause_us = PAUSE_MS * 1000;
    let (slow, fast): (Vec<_>, Vec<_>) = spans.iter().partition(|&&(rank, _)| rank == 1);
    // Tasks go to ranks by `task % ranks`: two each.
    assert_eq!((slow.len(), fast.len()), (2, 2), "o_task spans: {spans:?}");
    assert!(
        slow.iter().all(|&&(_, dur)| dur >= pause_us),
        "every rank-1 task pauses {PAUSE_MS} ms: {spans:?}"
    );
    assert!(
        fast.iter().all(|&&(_, dur)| dur < pause_us),
        "rank 0's tasks do not pause: {spans:?}"
    );
    let _ = std::fs::remove_dir_all(&out_dir);
}

#[test]
fn inproc_backend_produces_the_same_artifacts() {
    let out_dir = scratch_dir("tlm-ip");
    let trace_path = out_dir.join("trace.json");
    let report_path = out_dir.join("job-report.json");
    let output = dmpirun()
        .args(["--backend", "inproc", "-n", "3", "--tasks", "6"])
        .arg("--trace-out")
        .arg(&trace_path)
        .arg("--report-out")
        .arg(&report_path)
        .arg("wordcount")
        .output()
        .expect("launcher must spawn");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let trace = std::fs::read_to_string(&trace_path).expect("trace written");
    assert!(trace.contains("\"name\":\"rank 0\""));
    let report = std::fs::read_to_string(&report_path).expect("report written");
    assert!(report.contains("\"schema\": \"dmpi-job-report/v1\""));
    assert!(report.contains("\"backend\": \"inproc\""));
    let _ = std::fs::remove_dir_all(&out_dir);
}

#[test]
fn failed_job_still_flushes_survivor_telemetry() {
    // A worker dies mid-job; the survivors must still ship their final
    // frames with their failures, and the coordinator must still write
    // the report — marked failed, with the survivors' finals.
    let out_dir = scratch_dir("tlm-fail");
    let report_path = out_dir.join("job-report.json");
    let output = dmpirun()
        .args(["--ranks", "3", "--tasks", "6", "--fail-rank", "1"])
        .arg("--report-out")
        .arg(&report_path)
        .arg("wordcount")
        .output()
        .expect("launcher must spawn");
    assert!(
        !output.status.success(),
        "a dead worker must still fail the job"
    );
    let report = std::fs::read_to_string(&report_path)
        .expect("report must be written even for a failed job");
    assert!(report.contains("\"schema\": \"dmpi-job-report/v1\""));
    assert!(
        report.contains("\"status\": \"failed\""),
        "report must record the failed outcome: {report}"
    );
    assert!(
        report.contains("\"finals_seen\": 2"),
        "both surviving ranks' shutdown flushes must land: {report}"
    );
    let _ = std::fs::remove_dir_all(&out_dir);
}

#[test]
fn a_killed_worker_leaves_no_spill_files() {
    let spill_root = scratch_dir("spill-fail");
    let output = dmpirun()
        .args(["--ranks", "3", "--tasks", "6", "--fail-rank", "1"])
        .arg("--spill-dir")
        .arg(&spill_root)
        .arg("wordcount")
        .output()
        .expect("launcher must spawn");
    assert!(!output.status.success(), "a dead worker fails the job");
    let left: Vec<_> = std::fs::read_dir(&spill_root).unwrap().collect();
    assert!(left.is_empty(), "the spill root must be empty: {left:?}");
    let _ = std::fs::remove_dir_all(&spill_root);
}

#[test]
fn elastic_relaunch_keeps_the_failed_attempts_report() {
    let out_dir = scratch_dir("elastic");
    let report_path = out_dir.join("job-report.json");
    let output = dmpirun()
        .args([
            "--ranks",
            "3",
            "--tasks",
            "6",
            "--fail-rank",
            "1",
            "--elastic",
        ])
        .arg("--report-out")
        .arg(&report_path)
        .arg("wordcount")
        .output()
        .expect("launcher must spawn");
    assert!(
        output.status.success(),
        "the narrower relaunch must succeed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let report = std::fs::read_to_string(&report_path).expect("final report written");
    assert!(report.contains("\"status\": \"ok\""), "{report}");
    let failed = std::fs::read_to_string(out_dir.join("job-report.json.attempt-0"))
        .expect("the failed attempt's report is kept");
    assert!(failed.contains("\"status\": \"failed\""), "{failed}");
    let _ = std::fs::remove_dir_all(&out_dir);
}

#[test]
fn usage_errors_exit_with_code_two() {
    let output = dmpirun().arg("mystery-workload").output().unwrap();
    assert_eq!(output.status.code(), Some(2));
    let output = dmpirun().output().unwrap();
    assert_eq!(output.status.code(), Some(2), "workload is required");
}
