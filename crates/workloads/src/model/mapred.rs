//! Hadoop jobs as `dmpi-dcsim` task graphs.
//!
//! The compilation is deliberately **staged** — each map task reads, then
//! computes+sorts, then writes its materialized output; reducers then
//! shuffle, then merge/reduce, then write replicated output. Stage
//! durations add up, which is the structural reason Hadoop trails DataMPI
//! in the paper even when both move the same bytes.

use dmpi_common::Result;
use dmpi_dcsim::{Activity, Demand, NodeId, Resource, Simulation, SlotKind, TaskSpec};
use dmpi_dfs::{simio, InputSplit};

use super::{barrier, cluster_nodes, replicated_write};
use crate::calib;
use crate::runner::Workload;

/// Slot kind for map tasks.
const MAP_SLOT: SlotKind = SlotKind(20);
/// Slot kind for reduce tasks.
const REDUCE_SLOT: SlotKind = SlotKind(21);

/// Cost/shape description of one Hadoop job for the simulator. CPU costs
/// are core-seconds per logical byte; ratios are bytes per logical input
/// byte.
#[derive(Clone, Debug)]
pub struct SimJobProfile {
    /// Job name prefix.
    pub name: String,
    /// Job submission + jobtracker scheduling + input split computation.
    /// Hadoop 1.x pays this once per job; it dominates Figure 5.
    pub startup_secs: f64,
    /// Per-task JVM launch (Hadoop 1.x starts a fresh JVM per task).
    pub task_launch_secs: f64,
    /// Map computation per logical input byte.
    pub map_cpu_per_byte: f64,
    /// Sort CPU per emitted byte (the map-side sort).
    pub sort_cpu_per_byte: f64,
    /// Intermediate bytes per logical input byte (after any combiner).
    pub emit_ratio: f64,
    /// Spill amplification: how many times each emitted byte is written to
    /// local disk on the map side (1.0 = single spill; >1 = multi-pass
    /// merges because emitted data exceeded `io.sort.mb`).
    pub spill_factor: f64,
    /// Reduce computation per intermediate byte.
    pub reduce_cpu_per_byte: f64,
    /// Output bytes per logical input byte.
    pub output_ratio: f64,
    /// Input compression ratio (logical/physical).
    pub input_compression: f64,
    /// Decompression CPU per physical byte.
    pub decompress_cpu_per_byte: f64,
    /// Map slots per node (the paper tunes 4).
    pub tasks_per_node: u32,
    /// Reduce tasks per node.
    pub reducers_per_node: u32,
    /// TaskTracker + DataNode daemons resident per node (bytes).
    pub daemon_mem_per_node: i64,
    /// JVM heap per concurrently running task (bytes).
    pub task_mem: i64,
    /// Fraction of shuffled data the reducer must re-spill to disk during
    /// the shuffle merge (Hadoop merges to disk when the in-memory shuffle
    /// buffer fills).
    pub shuffle_spill_fraction: f64,
    /// JVM overhead factor: CPU burned per core-second of productive work
    /// (GC, serialization service threads) — the reason the paper measures
    /// 80% CPU on Hadoop against ~40-47% for Spark/DataMPI doing the same
    /// WordCount.
    pub cpu_overhead: f64,
}

impl SimJobProfile {
    /// A job with the calibrated Hadoop costs (startup, per-task launch,
    /// daemon and task JVM memory) running `tasks_per_node` map and reduce
    /// tasks per node, with no per-byte costs and an intermediate small
    /// enough that the shuffle never spills.
    pub fn new(name: impl Into<String>, tasks_per_node: u32) -> Self {
        SimJobProfile {
            name: name.into(),
            startup_secs: calib::HADOOP_STARTUP_SECS,
            task_launch_secs: calib::HADOOP_TASK_LAUNCH_SECS,
            map_cpu_per_byte: 0.0,
            sort_cpu_per_byte: 0.0,
            emit_ratio: 1.0,
            spill_factor: 1.0,
            reduce_cpu_per_byte: 0.0,
            output_ratio: 1.0,
            input_compression: 1.0,
            decompress_cpu_per_byte: 0.0,
            tasks_per_node,
            reducers_per_node: tasks_per_node,
            daemon_mem_per_node: calib::HADOOP_DAEMON_MEM,
            task_mem: calib::HADOOP_TASK_MEM,
            shuffle_spill_fraction: 0.0,
            cpu_overhead: 1.0,
        }
    }
}

/// The Hadoop profile of one `workload` job (for Naive Bayes, one job of
/// its chain; for K-means, the first iteration).
pub fn profile(workload: Workload, tasks_per_node: u32) -> SimJobProfile {
    let name = format!("{}-hadoop", super::job_name(workload));
    let mut p = SimJobProfile::new(name, tasks_per_node);
    let (map_rate, reduce_rate, emit_ratio, output_ratio) = match workload {
        Workload::NormalSort | Workload::TextSort => {
            (calib::SORT_PIPELINE_RATE, calib::SORT_SORT_RATE, 1.0, 1.0)
        }
        Workload::WordCount => (
            calib::WC_HADOOP_MAP_RATE,
            calib::WC_AGGREGATE_RATE,
            calib::WC_EMIT_RATIO,
            calib::WC_OUTPUT_RATIO,
        ),
        Workload::Grep => (
            calib::GREP_HADOOP_RATE,
            calib::GREP_HADOOP_RATE,
            calib::GREP_EMIT_RATIO,
            calib::GREP_EMIT_RATIO,
        ),
        Workload::KMeans => (
            calib::KMEANS_HADOOP_RATE,
            calib::KMEANS_HADOOP_RATE,
            calib::KMEANS_EMIT_RATIO,
            calib::KMEANS_EMIT_RATIO,
        ),
        Workload::NaiveBayes => (
            calib::BAYES_HADOOP_RATE,
            calib::BAYES_HADOOP_RATE,
            calib::BAYES_EMIT_RATIO,
            calib::BAYES_EMIT_RATIO,
        ),
    };
    p.map_cpu_per_byte = 1.0 / map_rate;
    p.reduce_cpu_per_byte = 1.0 / reduce_rate;
    p.emit_ratio = emit_ratio;
    p.output_ratio = output_ratio;
    p.input_compression = super::input_compression(workload);
    p.decompress_cpu_per_byte = super::decompress_cpu_per_byte(workload);
    if super::is_sort(workload) {
        p.sort_cpu_per_byte = 1.0 / calib::HADOOP_SORT_RATE;
        // Map output exceeds io.sort.mb: multiple spills plus one merge pass.
        p.spill_factor = 1.3;
        p.shuffle_spill_fraction = 0.8;
    }
    p
}

/// Compiles a Hadoop job over `splits` into `sim`.
pub fn compile(sim: &mut Simulation, profile: &SimJobProfile, splits: &[InputSplit]) -> Result<()> {
    let n = cluster_nodes(sim)?;
    sim.configure_slots(MAP_SLOT, profile.tasks_per_node);
    sim.configure_slots(REDUCE_SLOT, profile.reducers_per_node);

    // Job submission and scheduling, plus resident daemons.
    let startup = barrier(
        sim,
        &profile.name,
        "startup",
        &[],
        profile.startup_secs,
        profile.daemon_mem_per_node,
    )?;

    let total_physical: f64 = splits.iter().map(|s| s.len() as f64).sum();
    let total_logical = total_physical * profile.input_compression;
    let emitted_total = total_logical * profile.emit_ratio;

    // ---- Map tasks: launch -> read -> compute+sort -> materialize ----
    let mut map_tasks = Vec::with_capacity(splits.len());
    for (i, split) in splits.iter().enumerate() {
        let node = split.choose_replica(split.block.replicas[0]);
        let physical = split.len() as f64;
        let logical = physical * profile.input_compression;
        let emitted = logical * profile.emit_ratio;
        let map_cpu =
            logical * profile.map_cpu_per_byte + physical * profile.decompress_cpu_per_byte;
        let sort_cpu = emitted * profile.sort_cpu_per_byte;

        // Hadoop streams its input while mapping (read and map CPU
        // overlap), but the sort/spill runs behind a buffer barrier and
        // the final merge materializes to disk — those stay staged.
        let mut read_and_map = simio::block_read_demands(node, &split.block);
        if map_cpu > 0.0 {
            read_and_map.push(Demand::new(Resource::Cpu(node), map_cpu));
        }
        let mut builder = TaskSpec::builder(format!("{}-map-{i}", profile.name), node)
            .phase("map")
            .dep(startup)
            .slot(MAP_SLOT)
            .activity(Activity::MemChange {
                node,
                delta: profile.task_mem,
            })
            .delay(profile.task_launch_secs)
            .activity(Activity::work_with_overhead(
                read_and_map,
                profile.cpu_overhead,
            ));
        let mut sort_spill = Vec::new();
        if sort_cpu > 0.0 {
            sort_spill.push(Demand::new(Resource::Cpu(node), sort_cpu));
        }
        if emitted > 0.0 {
            sort_spill.push(Demand::write(node, emitted * profile.spill_factor.max(1.0)));
        }
        if !sort_spill.is_empty() {
            builder = builder.activity(Activity::work_with_overhead(
                sort_spill,
                profile.cpu_overhead,
            ));
        }
        builder = builder.activity(Activity::MemChange {
            node,
            delta: -profile.task_mem,
        });
        map_tasks.push(sim.add_task(builder.build())?);
    }

    // ---- Reduce tasks: launch -> shuffle -> merge+reduce -> output ----
    let reduce_count = n * profile.reducers_per_node as usize;
    let partition_bytes = emitted_total / reduce_count.max(1) as f64;
    let output_total = total_logical * profile.output_ratio;
    let out_per_reducer = output_total / reduce_count.max(1) as f64;
    for r in 0..reduce_count {
        let node = NodeId((r % n) as u16);
        let remote_fraction = (n - 1) as f64 / n as f64;
        let remote_bytes = partition_bytes * remote_fraction;

        // Shuffle: read segments from the map-side disks (spread across the
        // cluster), move remote bytes over the network, write the spill
        // fraction locally.
        let mut shuffle = Vec::new();
        if partition_bytes > 0.0 {
            // Source disks: every node serves its share of map output.
            let per_source = partition_bytes / n as f64;
            for src in sim.spec().node_ids() {
                shuffle.push(Demand::read(src, per_source));
            }
            if remote_bytes > 0.0 {
                let per_remote = remote_bytes / (n - 1).max(1) as f64;
                for src in sim.spec().node_ids() {
                    if src != node {
                        shuffle.push(Demand::new(Resource::NetOut(src), per_remote));
                    }
                }
                shuffle.push(Demand::new(Resource::NetIn(node), remote_bytes));
            }
            if profile.shuffle_spill_fraction > 0.0 {
                shuffle.push(Demand::write(
                    node,
                    partition_bytes * profile.shuffle_spill_fraction,
                ));
            }
        }

        // Merge + reduce: re-read the spilled fraction, compute.
        let mut reduce_work = Vec::new();
        let spill_read = partition_bytes * profile.shuffle_spill_fraction;
        if spill_read > 0.0 {
            reduce_work.push(Demand::read(node, spill_read));
        }
        let cpu = partition_bytes * profile.reduce_cpu_per_byte;
        if cpu > 0.0 {
            reduce_work.push(Demand::new(Resource::Cpu(node), cpu));
        }

        let mut builder = TaskSpec::builder(format!("{}-reduce-{r}", profile.name), node)
            .phase("reduce")
            .deps(map_tasks.iter().copied())
            .slot(REDUCE_SLOT)
            .activity(Activity::MemChange {
                node,
                delta: profile.task_mem,
            })
            .delay(profile.task_launch_secs);
        if !shuffle.is_empty() {
            builder = builder.activity(Activity::Work(shuffle));
        }
        if !reduce_work.is_empty() {
            builder = builder.activity(Activity::work_with_overhead(
                reduce_work,
                profile.cpu_overhead,
            ));
        }
        if out_per_reducer > 0.0 {
            builder = builder.activity(Activity::Work(replicated_write(node, n, out_per_reducer)));
        }
        builder = builder.activity(Activity::MemChange {
            node,
            delta: -profile.task_mem,
        });
        sim.add_task(builder.build())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{datampi, tests::splits};
    use dmpi_common::units::{GB, MB};
    use dmpi_dcsim::ClusterSpec;

    fn run_profile(profile: &SimJobProfile, bytes: u64) -> dmpi_dcsim::SimReport {
        let mut sim = Simulation::new(ClusterSpec::paper_testbed());
        compile(&mut sim, profile, &splits(bytes)).unwrap();
        sim.run().unwrap()
    }

    #[test]
    fn phases_are_sequential() {
        let mut p = SimJobProfile::new("h", 4);
        p.map_cpu_per_byte = 1.0 / (100.0 * MB as f64);
        p.reduce_cpu_per_byte = 1.0 / (200.0 * MB as f64);
        let r = run_profile(&p, 4 * GB);
        let (map_start, _map_end) = r.phase_span("map").unwrap();
        let (red_start, red_end) = r.phase_span("reduce").unwrap();
        assert!(map_start >= p.startup_secs - 1e-6);
        // Reducers depend on all maps.
        let (_, map_end) = r.phase_span("map").unwrap();
        assert!(red_start >= map_end - 1e-6);
        assert!((red_end - r.makespan).abs() < 1e-6);
    }

    #[test]
    fn hadoop_is_slower_than_datampi_on_identical_shape() {
        // Same data volume, same per-byte CPU costs: Hadoop's staging,
        // startup, materialization and shuffle spills must cost more.
        let bytes = 8 * GB;
        let mut h = SimJobProfile::new("h", 4);
        h.map_cpu_per_byte = 1.0 / (150.0 * MB as f64);
        h.reduce_cpu_per_byte = 1.0 / (300.0 * MB as f64);
        h.shuffle_spill_fraction = 0.7;
        let hadoop = run_profile(&h, bytes);

        let mut d = datampi::SimJobProfile::new("d", 4);
        d.o_cpu_per_byte = 1.0 / (150.0 * MB as f64);
        d.a_cpu_per_byte = 1.0 / (300.0 * MB as f64);
        let mut sim = Simulation::new(ClusterSpec::paper_testbed());
        datampi::compile(&mut sim, &d, &splits(bytes)).unwrap();
        let dmpi = sim.run().unwrap();

        assert!(
            hadoop.makespan > dmpi.makespan * 1.2,
            "hadoop {} vs datampi {}",
            hadoop.makespan,
            dmpi.makespan
        );
    }

    #[test]
    fn spill_factor_increases_runtime() {
        let mut p = SimJobProfile::new("spill", 4);
        p.emit_ratio = 1.0;
        let single = run_profile(&p, 8 * GB);
        p.spill_factor = 2.0;
        p.name = "spill2".into();
        let double = run_profile(&p, 8 * GB);
        assert!(double.makespan > single.makespan);
    }

    #[test]
    fn startup_dominates_small_jobs() {
        let mut p = SimJobProfile::new("small", 4);
        p.emit_ratio = 0.1;
        p.output_ratio = 0.01;
        let r = run_profile(&p, 128 * MB);
        // A 128 MB job should be mostly startup + task launch.
        assert!(r.makespan > p.startup_secs);
        assert!(
            r.makespan < p.startup_secs + 25.0,
            "tiny job should finish quickly after startup: {}",
            r.makespan
        );
    }

    #[test]
    fn memory_shows_daemons_plus_tasks() {
        let mut p = SimJobProfile::new("mem", 4);
        p.map_cpu_per_byte = 1.0 / (50.0 * MB as f64);
        let r = run_profile(&p, 8 * GB);
        let peak = r.profile.mem_gb.iter().cloned().fold(0.0, f64::max);
        // 2 GB daemons + up to 4 x 1.75 GB task JVMs = up to ~9 GB.
        assert!(peak > 3.0, "peak {peak}");
        assert!(peak < 12.0, "peak {peak}");
    }
}
