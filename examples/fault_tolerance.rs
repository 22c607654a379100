//! Fault tolerance end to end: a seeded `FaultPlan`, the self-healing
//! supervisor, and the simulator's node-failure recovery comparison.
//!
//! ```text
//! cargo run --example fault_tolerance
//! ```
//!
//! Part 1 runs a WordCount whose `FaultPlan` kills O task 2 on the first
//! two attempts and flips a byte in one frame (caught by the per-frame
//! CRC-32C). `supervise_job` retries until the job
//! completes; every retry runs against the same `CheckpointStore`, so it
//! replays checkpointed O output instead of re-running it.
//!
//! Part 2 kills a node mid-job in the cluster simulator and reports the
//! recovery-time overhead of DataMPI-style checkpoint/restart vs
//! Hadoop-style re-execution of lost outputs.

use bytes::Bytes;
use datampi_suite::common::group::{Collector, GroupedValues};
use datampi_suite::common::ser::Writable;
use datampi_suite::datampi::{
    supervise_job, CheckpointStore, Counter, FaultPlan, JobConfig, Observer, RetryPolicy,
};
use datampi_suite::dcsim::{Activity, ClusterSpec, NodeId, RecoveryModel, Simulation, TaskSpec};
use std::time::Duration;

fn wc_o(_task: usize, split: &[u8], out: &mut dyn Collector) {
    for w in split.split(|&b| b == b' ').filter(|w| !w.is_empty()) {
        out.collect(w, &1u64.to_bytes());
    }
}

fn wc_a(g: &GroupedValues, out: &mut dyn Collector) {
    let total: u64 = g.values.iter().map(|v| u64::from_bytes(v).unwrap()).sum();
    out.collect(&g.key, &total.to_bytes());
}

fn main() {
    // ---- Part 1: the runtime survives a multi-fault plan ----
    let plan = FaultPlan::new(42)
        .fail_o_task(2, 0) // O task 2 errors on attempt 0...
        .fail_o_task(2, 1) // ...and again on attempt 1
        .corrupt_frame(3, 1); // one of task 3's frames arrives corrupted
    let observer = Observer::new();
    let config = JobConfig::new(2)
        .with_faults(plan)
        .with_observer(observer.clone());
    let policy = RetryPolicy::new(5).with_backoff(Duration::from_millis(1));
    let inputs: Vec<Bytes> = (0..6)
        .map(|i| Bytes::from(format!("w{i} shared fault tolerant")))
        .collect();

    let store = CheckpointStore::new();
    let out = supervise_job(&config, &policy, inputs, wc_o, wc_a, Some(&store))
        .expect("supervisor heals");
    println!("-- supervised job --");
    println!(
        "attempts {} | O run {} | O recovered from checkpoint {} | wasted bytes {}",
        out.stats.attempts,
        out.stats.o_tasks_run,
        out.stats.o_tasks_recovered,
        out.stats.wasted_bytes
    );
    println!("phase wall-time totals across all attempts:");
    for (name, us) in out.stats.phase_us.rows() {
        println!("  {name:<10} {:>8.3} ms", us as f64 / 1e3);
    }
    let trace = observer.trace();
    println!(
        "trace: {} events over attempts {:?} ({} retries recorded)",
        trace.len(),
        trace.attempts(),
        observer.registry().snapshot()[Counter::Retries]
    );

    // ---- Part 2: recovery-time overhead in the simulator ----
    // A toy two-stage DAG on each of 2 nodes: "map" feeds "reduce".
    let build = || {
        let mut sim = Simulation::new(ClusterSpec::tiny());
        for n in 0..2u16 {
            let map = sim
                .add_task(
                    TaskSpec::builder(format!("map-{n}"), NodeId(n))
                        .phase("map")
                        .activity(Activity::compute(NodeId(n), 10.0))
                        .build(),
                )
                .unwrap();
            sim.add_task(
                TaskSpec::builder(format!("reduce-{n}"), NodeId(n))
                    .phase("reduce")
                    .dep(map)
                    .activity(Activity::compute(NodeId(n), 10.0))
                    .build(),
            )
            .unwrap();
        }
        sim
    };
    let baseline = build().run().expect("clean run");
    println!("\n-- simulated node failure at t=15 (5 s reboot) --");
    println!("failure-free makespan {:.1} s", baseline.makespan);
    for model in [
        RecoveryModel::CheckpointRestart,
        RecoveryModel::RerunCompleted,
    ] {
        let mut sim = build();
        sim.inject_node_failure(NodeId(1), 15.0, 5.0, model)
            .unwrap();
        let r = sim.run().expect("recovered run");
        println!(
            "{model:?}: makespan {:.1} s, overhead {:.1} s, re-run {}, recovered {}, wasted {:.1} s",
            r.makespan,
            r.recovery_overhead_secs(&baseline),
            r.recovery.tasks_rerun,
            r.recovery.tasks_recovered,
            r.recovery.wasted_secs
        );
    }
}
