//! Integration: failure injection across the stack — DataMPI
//! checkpoint/restart, RDD lineage recovery, and DFS datanode loss.

use bytes::Bytes;
use datampi_suite::common::ser::Writable;
use datampi_suite::datagen::{SeedModel, TextGenerator};
use datampi_suite::datampi::checkpoint::CheckpointStore;
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
    let failing = datampi_suite::datampi::JobConfig::new(1)
        .with_checkpointing(true)
        .with_o_task_fault(6, 0);
    datampi_suite::datampi::runtime::run_job_attempt(
        &failing,
        inputs.clone(),
        wordcount::map,
        wordcount::reduce,
        Some(&cp),
        0,
    )
    .unwrap_err();
    assert_eq!(cp.completed_count(), 6);
    assert!(cp.total_bytes() > 0, "pairs were checkpointed");

    // Restart recovers the six finished tasks without re-running them.
    let retry = datampi_suite::datampi::JobConfig::new(1).with_checkpointing(true);
    let out = datampi_suite::datampi::runtime::run_job_attempt(
        &retry,
        inputs.clone(),
        wordcount::map,
        wordcount::reduce,
        Some(&cp),
        1,
    )
    .unwrap();
    assert_eq!(out.stats.o_tasks_recovered, 6);
    assert_eq!(out.stats.o_tasks_run, 4);

    // And the answer equals a clean run's.
    let clean = datampi_suite::datampi::run_job(
        &datampi_suite::datampi::JobConfig::new(1),
        inputs,
        wordcount::map,
        wordcount::reduce,
        None,
    )
    .unwrap();
    let decode = |o: datampi_suite::datampi::JobOutput| {
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
        let config = datampi_suite::datampi::JobConfig::new(1)
            .with_checkpointing(true)
            .with_o_task_fault(2 + attempt as usize, attempt);
        let result = datampi_suite::datampi::runtime::run_job_attempt(
            &config,
            inputs.clone(),
            wordcount::map,
            wordcount::reduce,
            Some(&cp),
            attempt,
        );
        assert!(result.is_err(), "attempt {attempt} should fail");
        assert!(cp.completed_count() > recovered_last);
        recovered_last = cp.completed_count();
    }
    // Final attempt with no fault completes from mostly recovered state.
    let out = datampi_suite::datampi::runtime::run_job_attempt(
        &datampi_suite::datampi::JobConfig::new(1).with_checkpointing(true),
        inputs,
        wordcount::map,
        wordcount::reduce,
        Some(&cp),
        3,
    )
    .unwrap();
    // Attempts 0-2 failed at tasks 2, 3, 4 — so tasks 0-3 are recovered
    // (each attempt banks one more) and tasks 4-5 still need to run.
    assert_eq!(out.stats.o_tasks_recovered, 4);
    assert_eq!(out.stats.o_tasks_run, 2);
}

#[test]
fn merge_resumes_from_block_frontier_after_mid_merge_death() {
    // Kill the rank *inside* the A-phase merge, after the checkpoint has
    // recorded a block frontier. The restart must (a) recover every O
    // task, (b) resume the merge from the recorded block boundary
    // instead of re-merging from the top — proven by the spill-read
    // counters, not vibes — and (c) still produce the clean answer.
    let inputs = corpus(16, 10);
    let spill_dir = std::env::temp_dir().join(format!("dmpi-merge-resume-{}", std::process::id()));
    let cp = CheckpointStore::new();
    let base = datampi_suite::datampi::JobConfig::new(1)
        .with_checkpointing(true)
        .with_memory_budget(2048)
        .with_spill_dir(spill_dir.clone())
        .with_spill_compression(datampi_suite::datampi::WireCompression::Lz4)
        .with_spill_block_bytes(128);

    // Attempt 0 dies after 300 groups; the frontier interval is 32, so
    // the last boundary recorded before the death is group 288.
    let failing = base
        .clone()
        .with_faults(datampi_suite::datampi::FaultPlan::new(7).merge_panic(0, 0, 300));
    datampi_suite::datampi::runtime::run_job_attempt(
        &failing,
        inputs.clone(),
        wordcount::map,
        wordcount::reduce,
        Some(&cp),
        0,
    )
    .unwrap_err();

    // The checkpoint holds the sealed runs and the recorded boundary.
    let mcp = cp.merge_checkpoint(0, 1).expect("merge frontier recorded");
    assert_eq!(mcp.groups_emitted, 288);
    let total_blocks: u64 = mcp.runs.iter().map(|r| r.index().blocks.len() as u64).sum();
    let frontier_blocks: u64 = mcp.frontier.iter().map(|&b| b as u64).sum();
    assert!(
        mcp.runs.iter().all(|r| r.is_disk()),
        "runs spilled to files"
    );
    assert!(frontier_blocks > 0, "a mid-run boundary was recorded");

    let out = datampi_suite::datampi::runtime::run_job_attempt(
        &base,
        inputs.clone(),
        wordcount::map,
        wordcount::reduce,
        Some(&cp),
        1,
    )
    .unwrap();
    // Every O task was banked before the merge death.
    assert_eq!(out.stats.o_tasks_recovered as usize, inputs.len());
    assert_eq!(out.stats.o_tasks_run, 0);
    // The resume visited every block exactly once — as a read or an
    // index skip — and skipped at least the blocks before the frontier.
    assert_eq!(
        out.stats.spill_blocks_read + out.stats.spill_blocks_skipped,
        total_blocks
    );
    assert!(out.stats.spill_blocks_skipped >= frontier_blocks);
    assert!(
        out.stats.spill_blocks_read <= total_blocks - frontier_blocks,
        "restart re-read a block before the recorded boundary: read {} of {} (frontier {})",
        out.stats.spill_blocks_read,
        total_blocks,
        frontier_blocks
    );

    // Byte-identical to a clean, checkpoint-free run.
    let clean = datampi_suite::datampi::run_job(
        &datampi_suite::datampi::JobConfig::new(1),
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
    // Success reclaimed the merge checkpoint; dropping it releases the
    // last handles on the run files, which then self-delete.
    assert!(cp.merge_checkpoint(0, 1).is_none());
    drop(mcp);
    let leftovers = std::fs::read_dir(&spill_dir)
        .map(|it| it.count())
        .unwrap_or(0);
    assert_eq!(leftovers, 0, "run files must self-delete after success");
    let _ = std::fs::remove_dir_all(&spill_dir);
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
