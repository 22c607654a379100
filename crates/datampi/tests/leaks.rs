//! Every in-proc failure path gives back what it took. After a failed
//! job returns and its checkpoint store is dropped, the process has the
//! threads and open file descriptors it had before, and the spill
//! directory holds what it held — less the `/dev/full` links a full-disk
//! case plants, which the seals that fail through them remove. The rank and ingest threads are scoped
//! or joined before the runner returns, so the counts are exact.
//! Only the thread count is polled, for at most `SETTLE`, because a
//! thread can stay listed for a moment after its `join` returned. The
//! file holds one `#[test]`, so no sibling test's threads share the
//! process while it counts.

mod common;

use std::path::{Path, PathBuf};
use std::time::Duration;

use bytes::Bytes;

use common::Residue;
use datampi::{supervise_job, Backend, CheckpointStore, FaultPlan, JobConfig, RetryPolicy};
use dmpi_common::group::{Collector, GroupedValues};
use dmpi_common::ser::Writable;
use dmpi_common::FaultKind;

/// How long the thread count may take to come back to the baseline's.
const SETTLE: Duration = Duration::from_secs(5);

type OFn = fn(usize, &[u8], &mut dyn Collector);
type AFn = fn(&GroupedValues, &mut dyn Collector);

fn wc_o(_task: usize, split: &[u8], out: &mut dyn Collector) {
    for word in split.split(|b| b.is_ascii_whitespace()) {
        if !word.is_empty() {
            out.collect(word, &1u64.to_bytes());
        }
    }
}

fn wc_a(g: &GroupedValues, out: &mut dyn Collector) {
    let n: u64 = g.values.iter().map(|v| u64::from_bytes(v).unwrap()).sum();
    out.collect(&g.key, &n.to_bytes());
}

fn panicking_o(task: usize, split: &[u8], out: &mut dyn Collector) {
    wc_o(task, split, out);
    assert!(task != 3, "O user code fails on task 3");
}

fn panicking_a(g: &GroupedValues, out: &mut dyn Collector) {
    assert!(&g.key[..] != b"w7", "A user code fails on w7");
    wc_a(g, out);
}

/// One failure point: a fault plan (firing on both attempts the
/// supervisor allows), the spill directory and the user functions, and
/// a fragment of the error the job must fail with. A `full_disk` case's
/// first seals write into `/dev/full`.
struct Case {
    name: &'static str,
    error: &'static str,
    faults: FaultPlan,
    spill_dir: PathBuf,
    full_disk: bool,
    o: OFn,
    a: AFn,
}

/// Links each rank's and attempt's first run file in `dir` to
/// `/dev/full`, where every write fails with ENOSPC, and returns the
/// links. A seal opens its file through the link and removes the link
/// when its write fails.
fn plant_dev_full(dir: &Path) -> Vec<PathBuf> {
    let mut links = Vec::new();
    for rank in 0..2 {
        for attempt in 0..2 {
            let link = dir.join(format!("r{rank}-a{attempt}-0.spill"));
            std::os::unix::fs::symlink("/dev/full", &link).unwrap();
            links.push(link);
        }
    }
    links
}

#[test]
fn failed_jobs_leave_no_threads_fds_or_spill_files() {
    let root = std::env::temp_dir().join(format!("dmpi-leaks-{}", std::process::id()));
    let spill = root.join("spill");
    std::fs::create_dir_all(&spill).unwrap();
    // A directory cannot be created beneath a regular file, even by root.
    let blocker = root.join("blocker");
    std::fs::write(&blocker, b"a file, not a directory").unwrap();
    let full = root.join("full");
    std::fs::create_dir_all(&full).unwrap();
    // No job has run yet: every thread listed now is the harness's.
    let idle_threads = Residue::of(&root).threads;
    // Twelve splits over 300 distinct words: each rank merges well past
    // the 40 groups a merge death allows, and a 256-byte budget spills.
    let inputs: Vec<Bytes> = (0..12)
        .map(|t| {
            let words: Vec<String> = (0..50)
                .map(|i| format!("w{}", (t * 37 + i) % 300))
                .collect();
            Bytes::from(words.join(" "))
        })
        .collect();
    let twice = |plan: fn(FaultPlan, u32) -> FaultPlan| plan(plan(FaultPlan::new(7), 0), 1);
    let cases = [
        Case {
            name: "fail_o_task",
            error: "scheduled O-task failure",
            faults: twice(|p, a| p.fail_o_task(5, a)),
            spill_dir: spill.clone(),
            full_disk: false,
            o: wc_o,
            a: wc_a,
        },
        Case {
            name: "panicking O function",
            error: "O task user code panicked",
            faults: FaultPlan::new(7),
            spill_dir: spill.clone(),
            full_disk: false,
            o: panicking_o,
            a: wc_a,
        },
        Case {
            name: "rank_panic",
            error: "injected rank death",
            faults: twice(|p, a| p.rank_panic(1, a)),
            spill_dir: spill.clone(),
            full_disk: false,
            o: wc_o,
            a: wc_a,
        },
        Case {
            name: "merge_panic",
            error: "injected merge death",
            faults: twice(|p, a| p.merge_panic(0, a, 40)),
            spill_dir: spill.clone(),
            full_disk: false,
            o: wc_o,
            a: wc_a,
        },
        Case {
            name: "panicking A function",
            error: "A function user code panicked",
            faults: FaultPlan::new(7),
            spill_dir: spill.clone(),
            full_disk: false,
            o: wc_o,
            a: panicking_a,
        },
        Case {
            name: "spill dir beneath a regular file",
            error: "Not a directory",
            faults: FaultPlan::new(7),
            spill_dir: blocker.join("spill"),
            full_disk: false,
            o: wc_o,
            a: wc_a,
        },
        Case {
            name: "full spill dir",
            error: "No space left on device",
            faults: FaultPlan::new(7),
            spill_dir: full.clone(),
            full_disk: true,
            o: wc_o,
            a: wc_a,
        },
    ];
    let policy = RetryPolicy::new(2).with_backoff(Duration::ZERO);
    for backend in [Backend::InProc, Backend::Tcp] {
        let config = |case: &Case| {
            JobConfig::new(2)
                .with_transport(backend)
                .with_memory_budget(256)
                .with_spill_dir(&case.spill_dir)
                .with_faults(case.faults.clone())
        };
        // A clean job first, so a one-time lazy initialisation is not
        // counted against the first failure.
        let clean = &cases[0];
        let plain = config(clean).with_faults(FaultPlan::new(7));
        let out = supervise_job(&plain, &policy, inputs.clone(), wc_o, wc_a, None).unwrap();
        assert!(out.stats.spills > 0, "the jobs spill to files");
        let baseline = Residue::settled(&root, idle_threads, SETTLE);
        assert_eq!(baseline.threads, idle_threads, "{backend:?}: a clean job");
        for case in &cases {
            let planted = if case.full_disk {
                plant_dev_full(&case.spill_dir)
            } else {
                Vec::new()
            };
            let cp = CheckpointStore::new();
            let run = supervise_job(
                &config(case),
                &policy,
                inputs.clone(),
                case.o,
                case.a,
                Some(&cp),
            );
            let err = run.expect_err(case.name);
            let text = err.to_string();
            assert!(
                text.contains(case.error),
                "{backend:?} / {}: {text}",
                case.name
            );
            // No case corrupts a record, so none may fail as a decode fault.
            let kind = err.fault_cause().map(|cause| cause.kind);
            assert!(
                kind != Some(FaultKind::CorruptFrame) && !text.contains("decode failed"),
                "{backend:?} / {}: {text}",
                case.name
            );
            drop(cp);
            let mut residue = Residue::settled(&root, baseline.threads, SETTLE);
            // The failed seal whose error the job reports removed its link;
            // a link no seal reached may stay, and goes before the next run.
            // Its fault names the rank and attempt the link was planted for.
            if let Some(link) = text.split("spill write ").nth(1) {
                let link = Path::new(link.split(": ").next().unwrap_or_default());
                assert!(planted.iter().any(|p| p == link), "{text}");
                assert!(link.symlink_metadata().is_err(), "{link:?} is left");
                let cause = err.fault_cause().expect("a seal failure is a fault");
                assert_eq!(cause.kind, FaultKind::Spill, "{text}");
                let (rank, attempt) = (cause.rank.unwrap(), cause.attempt.unwrap());
                let name = format!("r{rank}-a{attempt}-0.spill");
                assert!(link.ends_with(name), "{text}");
                assert_eq!(attempt, 1, "the last of two attempts fails last: {text}");
            }
            assert!(case.full_disk == text.contains("spill write"), "{text}");
            residue.spill_entries.retain(|p| !planted.contains(p));
            for link in planted.iter().filter(|p| p.symlink_metadata().is_ok()) {
                std::fs::remove_file(link).unwrap();
            }
            assert_eq!(residue, baseline, "{backend:?} / {}", case.name);
        }
    }
    std::fs::remove_dir_all(&root).unwrap();
}
