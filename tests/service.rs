//! End-to-end tests of the resident job service: a real `dmpid`
//! coordinator with self-hosted worker processes must run concurrent
//! jobs from distinct tenants, produce part files byte-identical to
//! one-shot `dmpirun` runs of the same seeds, serve `dmpi status`, and
//! drain gracefully leaving per-job reports behind.

use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::time::{Duration, Instant};

const RANKS: usize = 2;
const TASKS: usize = 4;
const BYTES_PER_TASK: usize = 2000;

fn dmpid() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dmpid"))
}

fn dmpi() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dmpi"))
}

fn dmpirun() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dmpirun"))
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dmpi-service-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Starts a self-hosted resident mesh and returns the coordinator child
/// plus its dialable address (read from the port file).
fn start_mesh(root: &Path, report_dir: Option<&Path>) -> (Child, String) {
    let port_file = root.join("dmpid.addr");
    let mut cmd = dmpid();
    cmd.arg("--coordinator")
        .args(["--ranks", &RANKS.to_string()])
        .arg("--spawn-workers")
        .arg("--port-file")
        .arg(&port_file);
    if let Some(dir) = report_dir {
        cmd.arg("--report-dir").arg(dir);
    }
    let child = cmd.spawn().expect("dmpid must spawn");
    let deadline = Instant::now() + Duration::from_secs(30);
    let addr = loop {
        if let Ok(addr) = std::fs::read_to_string(&port_file) {
            if !addr.trim().is_empty() {
                break addr.trim().to_string();
            }
        }
        assert!(Instant::now() < deadline, "dmpid never wrote its port file");
        std::thread::sleep(Duration::from_millis(20));
    };
    (child, addr)
}

fn submit(addr: &str, tenant: &str, workload: &str, seed: u64, out: &Path) -> std::process::Output {
    dmpi()
        .arg("submit")
        .args(["--coord", addr])
        .args(["--tenant", tenant])
        .args(["--tasks", &TASKS.to_string()])
        .args(["--bytes-per-task", &BYTES_PER_TASK.to_string()])
        .args(["--seed", &seed.to_string()])
        .arg("--out")
        .arg(out)
        .arg(workload)
        .output()
        .expect("dmpi must spawn")
}

/// One-shot baseline: the same job through `dmpirun`, fresh processes
/// and fresh mesh, writing part files to `out`.
fn oneshot(workload: &str, seed: u64, out: &Path) {
    let output = dmpirun()
        .args(["--ranks", &RANKS.to_string()])
        .args(["--tasks", &TASKS.to_string()])
        .args(["--bytes-per-task", &BYTES_PER_TASK.to_string()])
        .args(["--seed", &seed.to_string()])
        .arg("--out")
        .arg(out)
        .arg(workload)
        .output()
        .expect("dmpirun must spawn");
    assert!(
        output.status.success(),
        "one-shot baseline failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
}

fn assert_parts_identical(resident: &Path, oneshot_dir: &Path, label: &str) {
    for rank in 0..RANKS {
        let name = format!("part-{rank:05}");
        let a = std::fs::read(resident.join(&name))
            .unwrap_or_else(|e| panic!("{label}: read resident {name}: {e}"));
        let b = std::fs::read(oneshot_dir.join(&name))
            .unwrap_or_else(|e| panic!("{label}: read one-shot {name}: {e}"));
        assert!(!a.is_empty(), "{label}: {name} must not be empty");
        assert_eq!(
            a, b,
            "{label}: resident-mesh {name} must be byte-identical to the one-shot run"
        );
    }
}

fn drain(addr: &str) {
    let output = dmpi()
        .arg("drain")
        .args(["--coord", addr])
        .output()
        .expect("dmpi drain must spawn");
    assert!(
        output.status.success(),
        "drain failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        String::from_utf8_lossy(&output.stdout).contains("drained"),
        "drain must report the drained summary"
    );
}

#[test]
fn concurrent_tenants_match_oneshot_byte_for_byte() {
    let root = scratch_dir("concurrent");
    let reports = root.join("reports");
    let (mut child, addr) = start_mesh(&root, Some(&reports));

    // Two tenants, two workloads, submitted concurrently onto the same
    // resident mesh.
    let alice_out = root.join("alice-wc");
    let bob_out = root.join("bob-sort");
    let (a_addr, b_addr) = (addr.clone(), addr.clone());
    let (a_out, b_out) = (alice_out.clone(), bob_out.clone());
    let alice = std::thread::spawn(move || submit(&a_addr, "alice", "wordcount", 71, &a_out));
    let bob = std::thread::spawn(move || submit(&b_addr, "bob", "sort", 72, &b_out));
    let alice_result = alice.join().unwrap();
    let bob_result = bob.join().unwrap();
    for (tenant, result) in [("alice", &alice_result), ("bob", &bob_result)] {
        let stdout = String::from_utf8_lossy(&result.stdout);
        assert!(
            result.status.success(),
            "{tenant} submit failed.\nstdout: {stdout}\nstderr: {}",
            String::from_utf8_lossy(&result.stderr)
        );
        assert!(
            stdout.contains("accepted job=") && stdout.contains("jobdone job="),
            "{tenant} must see accept + terminal done lines: {stdout}"
        );
    }

    // status must answer while the mesh is up.
    let status = dmpi()
        .arg("status")
        .args(["--coord", &addr])
        .output()
        .expect("dmpi status must spawn");
    let status_line = String::from_utf8_lossy(&status.stdout).to_string();
    assert!(status.status.success(), "status failed: {status_line}");
    assert!(
        status_line.contains(&format!("ranks={RANKS}/{RANKS}")),
        "status must show the full resident mesh: {status_line}"
    );
    assert!(
        status_line.contains("completed=2"),
        "status must count both completed jobs: {status_line}"
    );

    // Byte-identity against one-shot dmpirun runs of the same seeds.
    let alice_ref = root.join("ref-wc");
    let bob_ref = root.join("ref-sort");
    oneshot("wordcount", 71, &alice_ref);
    oneshot("sort", 72, &bob_ref);
    assert_parts_identical(&alice_out, &alice_ref, "alice/wordcount");
    assert_parts_identical(&bob_out, &bob_ref, "bob/sort");

    // Graceful drain: coordinator exits cleanly, workers deregister.
    drain(&addr);
    let status = child.wait().expect("dmpid must exit after drain");
    assert!(status.success(), "dmpid must exit 0 after a clean drain");

    // Per-job reports: one dmpi-job-report/v1 document per job, tenants
    // recorded, each beside its job's trace.
    let (mut docs, mut traces) = (Vec::new(), 0);
    for entry in std::fs::read_dir(&reports).expect("report dir must exist") {
        let path = entry.unwrap().path();
        let text = std::fs::read_to_string(&path).unwrap();
        if path.to_string_lossy().ends_with(".trace.json") {
            assert!(text.contains("\"name\":\"coordinator\""), "{text}");
            traces += 1;
        } else {
            docs.push(text);
        }
    }
    assert_eq!(docs.len(), 2, "one report per completed job");
    assert_eq!(traces, 2, "one trace per completed job");
    let all = docs.join("\n");
    for needle in [
        "\"schema\": \"dmpi-job-report/v1\"",
        "\"tenant\": \"alice\"",
        "\"tenant\": \"bob\"",
        "\"workload\": \"wordcount\"",
        "\"workload\": \"sort\"",
    ] {
        assert!(all.contains(needle), "reports must contain {needle}: {all}");
    }

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn drain_rejects_new_submissions() {
    let root = scratch_dir("drain-reject");
    let (mut child, addr) = start_mesh(&root, None);

    // Run one job so the mesh is known-good, then drain.
    let out = root.join("out");
    let result = submit(&addr, "alice", "wordcount", 5, &out);
    assert!(
        result.status.success(),
        "pre-drain submit failed: {}",
        String::from_utf8_lossy(&result.stderr)
    );
    drain(&addr);
    assert!(child.wait().expect("dmpid exits").success());

    // The coordinator is gone: a new submission must fail loudly, not
    // hang.
    let late = submit(&addr, "bob", "wordcount", 6, &root.join("late"));
    assert!(
        !late.status.success(),
        "submitting to a drained service must fail"
    );

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn dmpi_usage_errors_exit_with_code_two() {
    // A coordinator that hangs up on the two requests that get as far as
    // dialling it; a usage error never dials.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let hang_up = std::thread::spawn(move || {
        for stream in listener.incoming().take(2) {
            drop(stream.unwrap());
        }
    });
    let usage_errors: [&[&str]; 7] = [
        &[],
        &["status"],
        &["status", "--coord", &addr, "--bogus"],
        &["status", "--coord", &addr, "--tasks"],
        &["submit", "--coord", &addr, "wordcount"],
        &["submit", "--coord", &addr, "--tenant", "alice"],
        &["frobnicate", "--coord", &addr],
    ];
    for args in usage_errors {
        let output = dmpi().args(args).output().unwrap();
        assert_eq!(output.status.code(), Some(2), "dmpi {args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("dmpi submit --coord"), "{args:?}: {stderr}");
    }
    // A well-formed request whose coordinator hangs up failed, and says
    // so with 1.
    for args in [
        &["status", "--coord", &addr][..],
        &["submit", "--coord", &addr, "--tenant", "alice", "wordcount"],
    ] {
        let output = dmpi().args(args).output().unwrap();
        assert_eq!(output.status.code(), Some(1), "dmpi {args:?}");
    }
    hang_up.join().unwrap();
}
