//! Integration: failure injection across the stack — DataMPI
//! checkpoint/restart, RDD lineage recovery, and DFS datanode loss.

use bytes::Bytes;
use datampi_suite::common::ser::Writable;
use datampi_suite::datagen::{SeedModel, TextGenerator};
use datampi_suite::datampi::{run_job, CheckpointStore, FaultPlan, JobConfig, JobOutput};
use datampi_suite::dcsim::NodeId;
use datampi_suite::dfs::{DfsConfig, MiniDfs};
use datampi_suite::workloads::wordcount;

fn corpus(seed: u64, n: usize) -> Vec<Bytes> {
    let mut gen = TextGenerator::new(SeedModel::lda_wiki1w(), seed);
    (0..n)
        .map(|_| Bytes::from(gen.generate_bytes(2_000)))
        .collect()
}

#[test]
fn datampi_survives_a_mid_job_failure_via_checkpoint() {
    let inputs = corpus(11, 10);
    let cp = CheckpointStore::new();

    // Attempt 0 fails on task 6 (single rank for deterministic ordering).
    let config = JobConfig::new(1).with_faults(FaultPlan::new(0).fail_o_task(6, 0));
    run_job(
        &config,
        inputs.clone(),
        wordcount::map,
        wordcount::reduce,
        Some(&cp),
    )
    .unwrap_err();
    assert_eq!(cp.completed_count(), 6);
    assert!(cp.total_bytes() > 0, "pairs were checkpointed");

    // Restart recovers the six finished tasks without re-running them:
    // the same job against the same store is attempt 1.
    let out = run_job(
        &config,
        inputs.clone(),
        wordcount::map,
        wordcount::reduce,
        Some(&cp),
    )
    .unwrap();
    assert_eq!(out.stats.o_tasks_recovered, 6);
    assert_eq!(out.stats.o_tasks_run, 4);

    // And the answer equals a clean run's.
    let clean = run_job(
        &JobConfig::new(1),
        inputs,
        wordcount::map,
        wordcount::reduce,
        None,
    )
    .unwrap();
    let decode = |o: JobOutput| {
        o.into_single_batch()
            .into_records()
            .into_iter()
            .map(|r| (r.key_utf8(), u64::from_bytes(&r.value).unwrap()))
            .collect::<std::collections::BTreeMap<_, _>>()
    };
    assert_eq!(decode(out), decode(clean));
}

#[test]
fn repeated_failures_make_monotone_progress() {
    // Fail a different task on every attempt; each restart recovers
    // strictly more work until the job completes.
    let inputs = corpus(12, 6);
    let cp = CheckpointStore::new();
    let mut recovered_last = 0;
    for attempt in 0..3u32 {
        let plan = FaultPlan::new(0).fail_o_task(2 + attempt as usize, attempt);
        let result = run_job(
            &JobConfig::new(1).with_faults(plan),
            inputs.clone(),
            wordcount::map,
            wordcount::reduce,
            Some(&cp),
        );
        assert!(result.is_err(), "attempt {attempt} should fail");
        assert!(cp.completed_count() > recovered_last);
        recovered_last = cp.completed_count();
    }
    // Final attempt (the store's fourth) with no fault completes from
    // mostly recovered state.
    let out = run_job(
        &JobConfig::new(1),
        inputs,
        wordcount::map,
        wordcount::reduce,
        Some(&cp),
    )
    .unwrap();
    // Attempts 0-2 failed at tasks 2, 3, 4 — so tasks 0-3 are recovered
    // (each attempt banks one more) and tasks 4-5 still need to run.
    assert_eq!(out.stats.o_tasks_recovered, 4);
    assert_eq!(out.stats.o_tasks_run, 2);
}

/// Files in `dir` (0 if it does not exist).
fn files_in(dir: &std::path::Path) -> usize {
    std::fs::read_dir(dir).map(|it| it.count()).unwrap_or(0)
}

/// A one-rank config that spills tiny blocks to `dir` past `budget`.
fn spilling_config(dir: &std::path::Path, budget: usize) -> JobConfig {
    JobConfig::new(1)
        .with_memory_budget(budget)
        .with_spill_dir(dir.to_path_buf())
        .with_spill_block_bytes(128)
}

#[test]
fn a_mid_merge_death_restarts_from_the_banked_frames() {
    // Kill the rank *inside* the A-phase merge. The restart must recover
    // every O task from the checkpoint, re-merge the replayed frames from
    // the top and produce the clean answer; the failed attempt's run
    // files die with it instead of being pinned by the store.
    let inputs = corpus(16, 10);
    let spill_dir = std::env::temp_dir().join(format!("dmpi-merge-death-{}", std::process::id()));
    let cp = CheckpointStore::new();
    let config =
        spilling_config(&spill_dir, 2048).with_faults(FaultPlan::new(7).merge_panic(0, 0, 300));
    run_job(
        &config,
        inputs.clone(),
        wordcount::map,
        wordcount::reduce,
        Some(&cp),
    )
    .unwrap_err();
    assert_eq!(
        files_in(&spill_dir),
        0,
        "the live store must not pin a failed attempt's run files"
    );

    let out = run_job(
        &config,
        inputs.clone(),
        wordcount::map,
        wordcount::reduce,
        Some(&cp),
    )
    .unwrap();
    // Every O task was banked before the merge death.
    assert_eq!(out.stats.o_tasks_recovered as usize, inputs.len());
    assert_eq!(out.stats.o_tasks_run, 0);

    // Byte-identical to a clean, checkpoint-free run.
    let clean = run_job(
        &JobConfig::new(1),
        inputs,
        wordcount::map,
        wordcount::reduce,
        None,
    )
    .unwrap();
    assert_eq!(out.stats.groups, clean.stats.groups);
    for (p, q) in out.partitions.iter().zip(&clean.partitions) {
        assert_eq!(p.records(), q.records());
    }
    assert_eq!(
        files_in(&spill_dir),
        0,
        "run files must self-delete after success"
    );
    let _ = std::fs::remove_dir_all(&spill_dir);
}

#[test]
fn a_checkpoint_store_leaves_spilling_unchanged() {
    // A store only banks O-task frames: the A side spills, seals and
    // merges exactly what it would without one. The budget holds a few
    // tasks' output, so the job ends with records in its forming run.
    const BUDGET: usize = 6000;
    let inputs = corpus(17, 10);
    let run = |store: Option<&CheckpointStore>| {
        let dir = std::env::temp_dir().join(format!(
            "dmpi-store-spill-{}-{}",
            std::process::id(),
            store.is_some()
        ));
        let out = run_job(
            &spilling_config(&dir, BUDGET),
            inputs.clone(),
            wordcount::map,
            wordcount::reduce,
            store,
        )
        .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        out
    };
    let plain = run(None);
    let stored = run(Some(&CheckpointStore::new()));
    assert!(plain.stats.spills > 0, "the budget forces spills");
    assert_eq!(stored.stats.spills, plain.stats.spills);
    assert_eq!(stored.stats.spilled_bytes, plain.stats.spilled_bytes);
    assert_eq!(
        stored.stats.spill_blocks_read,
        plain.stats.spill_blocks_read
    );
    for (p, q) in stored.partitions.iter().zip(&plain.partitions) {
        assert_eq!(p.records(), q.records());
    }
}

#[test]
fn rdd_lineage_recovers_lost_partitions() {
    let ctx = datampi_suite::rddsim::SparkContext::new(datampi_suite::rddsim::SparkConfig::new(4))
        .unwrap();
    let inputs = corpus(13, 4);
    let cached = ctx.text_source(inputs).cache();
    let before = cached.collect().unwrap();
    // Lose two partitions ("executor crash"), then read again.
    ctx.evict_partition(&cached, 0);
    ctx.evict_partition(&cached, 3);
    let after = cached.collect().unwrap();
    assert_eq!(before.len(), after.len());
    for (a, b) in before.iter().zip(&after) {
        assert_eq!(a.records(), b.records());
    }
}

#[test]
fn dfs_heals_after_datanode_loss_and_serves_reads() {
    let dfs = MiniDfs::new(6, DfsConfig::paper_tuned().with_block_size(512)).unwrap();
    let mut gen = TextGenerator::new(SeedModel::lda_wiki1w(), 14);
    let data = gen.generate_bytes(8_192);
    dfs.write_file("/f", NodeId(2), &data).unwrap();

    dfs.kill_node(NodeId(2));
    assert!(!dfs.under_replicated().is_empty());
    let plan = dfs.re_replicate();
    assert!(!plan.is_empty());
    assert!(dfs.under_replicated().is_empty());

    // All blocks still readable; every replica set excludes the dead node
    // and meets the replication factor.
    assert_eq!(dfs.read_file("/f").unwrap(), data);
    for split in dfs.splits("/f").unwrap() {
        assert!(!split.block.replicas.contains(&NodeId(2)));
        assert_eq!(split.block.replicas.len(), 3);
    }
}

#[test]
fn spark_oom_is_an_error_not_a_wrong_answer() {
    let ctx = datampi_suite::rddsim::SparkContext::new(
        datampi_suite::rddsim::SparkConfig::new(2).with_memory_budget(256),
    )
    .unwrap();
    let inputs = corpus(15, 2);
    let err = ctx
        .text_source(inputs)
        .sort_by_key(2)
        .collect()
        .unwrap_err();
    assert!(err.is_oom());
}
