//! Spark jobs as `dmpi-dcsim` task graphs.
//!
//! A Spark job is an explicit list of **stages**. Within a stage, narrow
//! work is pipelined (one coupled activity per task); between stages sits a
//! shuffle whose write/read really touches disk (Spark 0.8 materializes
//! shuffle files). Two Spark-specific behaviours the paper observes are
//! modeled here:
//!
//! * **imperfect input locality** — unlike Hadoop's and DataMPI's
//!   fully-local scheduling in §4.4, Spark's delay scheduler misses some
//!   local reads, producing the network traffic visible in Figure 4(g);
//! * **memory-or-die** — jobs whose resident set exceeds the executors'
//!   budget fail with `OutOfMemory` *before* running, reproducing the
//!   missing Spark bars in Figures 3(a)/(b).

use dmpi_common::{Error, Result};
use dmpi_dcsim::{Activity, Demand, NodeId, Resource, Simulation, SlotKind, TaskId, TaskSpec};
use dmpi_dfs::InputSplit;

use super::{barrier, cluster_nodes, replicated_write};
use crate::calib;
use crate::runner::Workload;

/// Slot kind for Spark tasks (executor worker threads).
const WORKER_SLOT: SlotKind = SlotKind(30);

/// Where a stage reads its input from.
#[derive(Clone, Debug)]
pub enum StageInput {
    /// DFS splits; `local_fraction` of the bytes are read from a local
    /// replica, the rest stream over the network.
    Dfs {
        /// The splits (one task each).
        splits: Vec<InputSplit>,
        /// Fraction of reads served locally (Hadoop ≈ 1.0; Spark lower).
        local_fraction: f64,
    },
    /// Shuffle output of the previous stage: read from every node's disk
    /// and moved across the network.
    Shuffle {
        /// Total shuffled bytes.
        bytes: f64,
    },
    /// Cached RDD partitions: read from memory, no I/O.
    Cached {
        /// Total cached bytes (sets the compute volume).
        bytes: f64,
    },
}

/// One stage of a Spark job.
#[derive(Clone, Debug)]
pub struct StageProfile {
    /// Stage label (`"stage0"`, `"stage1"`, …) used in the trace.
    pub name: String,
    /// Input source.
    pub input: StageInput,
    /// CPU per input byte.
    pub cpu_per_byte: f64,
    /// Bytes written to local shuffle files per input byte (consumed by a
    /// following `StageInput::Shuffle`).
    pub shuffle_write_ratio: f64,
    /// Bytes written to DFS (replicated) per input byte.
    pub output_dfs_ratio: f64,
    /// Bytes retained in the block-manager cache per input byte.
    pub cache_ratio: f64,
    /// If true, the stage's input fetch, computation, and output run as
    /// sequential steps instead of one pipelined activity (Spark 0.8's
    /// sort: fetch everything, sort in memory, then write).
    pub staged: bool,
}

impl StageProfile {
    /// A no-cost stage skeleton.
    pub fn new(name: impl Into<String>, input: StageInput) -> Self {
        StageProfile {
            name: name.into(),
            input,
            cpu_per_byte: 0.0,
            shuffle_write_ratio: 0.0,
            output_dfs_ratio: 0.0,
            cache_ratio: 0.0,
            staged: false,
        }
    }
}

/// Cost/shape description of one Spark job.
#[derive(Clone, Debug)]
pub struct SimJobProfile {
    /// Job name prefix.
    pub name: String,
    /// Driver + executor launch (well under Hadoop's, above zero).
    pub startup_secs: f64,
    /// The stages, in order. Stage `k+1` depends on stage `k`.
    pub stages: Vec<StageProfile>,
    /// Executor worker threads per node (the paper tunes 4 workers/node).
    pub tasks_per_node: u32,
    /// Executor + daemon resident memory per node (bytes).
    pub runtime_mem_per_node: i64,
    /// Memory the job's resident set needs per node (bytes) — cached RDDs
    /// plus in-flight sort/shuffle buffers, after Java object expansion.
    pub mem_required_per_node: f64,
    /// Executor memory budget per node (bytes). If
    /// `mem_required_per_node` exceeds it, compilation fails with OOM.
    pub executor_mem_per_node: f64,
    /// JVM overhead factor (see the mapred/datampi profiles).
    pub cpu_overhead: f64,
}

impl SimJobProfile {
    /// A job with no stages yet on the calibrated Spark deployment
    /// (driver startup, executor memory and its usable budget) running
    /// `tasks_per_node` worker threads per node.
    pub fn new(name: impl Into<String>, tasks_per_node: u32) -> Self {
        SimJobProfile {
            name: name.into(),
            startup_secs: calib::SPARK_STARTUP_SECS,
            stages: Vec::new(),
            tasks_per_node,
            runtime_mem_per_node: calib::SPARK_RUNTIME_MEM,
            mem_required_per_node: 0.0,
            executor_mem_per_node: calib::SPARK_EXECUTOR_MEM,
            cpu_overhead: 1.0,
        }
    }
}

/// The Spark profile of one `workload` job over `splits` on a cluster of
/// `nodes`. Sorts hold their whole input in executor memory, so their
/// profiles carry the requirement that fails compilation with the
/// paper's OOM; BigDataBench 2.1 has no Spark Naive Bayes, which is an
/// `Error::Config`.
pub fn profile(
    workload: Workload,
    splits: Vec<InputSplit>,
    tasks_per_node: u32,
    nodes: u16,
) -> Result<SimJobProfile> {
    let physical: f64 = splits.iter().map(|s| s.len() as f64).sum();
    let name = format!("{}-spark", super::job_name(workload));
    let mut p = SimJobProfile::new(name, tasks_per_node);
    let load = StageProfile::new(
        "stage0",
        StageInput::Dfs {
            splits,
            local_fraction: calib::SPARK_INPUT_LOCALITY,
        },
    );
    p.stages = match workload {
        Workload::NormalSort | Workload::TextSort => {
            let compression = super::input_compression(workload);
            let logical = physical * compression;
            // Spark 0.8's sort holds the dataset in memory (Java-expanded).
            p.mem_required_per_node = logical * calib::JAVA_EXPANSION / nodes as f64;
            let mut s0 = load;
            s0.cpu_per_byte =
                super::decompress_cpu_per_byte(workload) + 1.0 / calib::SORT_SPARK_RATE;
            s0.shuffle_write_ratio = compression; // logical bytes out
            let mut s1 = StageProfile::new("stage1", StageInput::Shuffle { bytes: logical });
            s1.cpu_per_byte = 1.0 / calib::SPARK_SORT_MERGE_RATE;
            s1.output_dfs_ratio = 1.0;
            // Spark 0.8 sorts the whole partition in memory before writing.
            s1.staged = true;
            vec![s0, s1]
        }
        Workload::WordCount | Workload::Grep => {
            let (rate, emit_ratio, output_dfs_ratio) = if workload == Workload::WordCount {
                (
                    calib::WC_AGGREGATE_RATE,
                    calib::WC_EMIT_RATIO,
                    calib::WC_OUTPUT_RATIO / calib::WC_EMIT_RATIO,
                )
            } else {
                (calib::GREP_SPARK_RATE, calib::GREP_EMIT_RATIO, 1.0)
            };
            // Counting and matching stay in hash maps: the resident set is
            // the (small) intermediate data.
            p.mem_required_per_node = physical * emit_ratio * calib::JAVA_EXPANSION / nodes as f64;
            let mut s0 = load;
            s0.cpu_per_byte = 1.0 / rate;
            s0.shuffle_write_ratio = emit_ratio;
            let mut s1 = StageProfile::new(
                "stage1",
                StageInput::Shuffle {
                    bytes: physical * emit_ratio,
                },
            );
            s1.cpu_per_byte = 1.0 / rate;
            s1.output_dfs_ratio = output_dfs_ratio;
            vec![s0, s1]
        }
        Workload::KMeans => {
            // Caching is best-effort (MEMORY_ONLY evicts, it does not OOM),
            // so K-means never hits the sort engines' hard memory wall.
            // Stage 0: load + deserialize + build and cache the RDD (the
            // paper notes this stage is what makes Spark's *first*
            // iteration slow).
            let mut s0 = load;
            s0.cpu_per_byte = 1.0 / calib::KMEANS_SPARK_LOAD_RATE;
            s0.cache_ratio = 1.2;
            // Iteration stage: assignment over the cache, tiny shuffle.
            let mut s1 = StageProfile::new("iter0", StageInput::Cached { bytes: physical });
            s1.cpu_per_byte = 1.0 / calib::KMEANS_SPARK_RATE;
            s1.shuffle_write_ratio = calib::KMEANS_EMIT_RATIO;
            s1.output_dfs_ratio = calib::KMEANS_EMIT_RATIO;
            vec![s0, s1]
        }
        Workload::NaiveBayes => {
            return Err(Error::Config(
                "BigDataBench 2.1 has no Spark Naive Bayes implementation".into(),
            ))
        }
    };
    Ok(p)
}

/// Compiles a Spark job into `sim`. Fails with `Error::OutOfMemory` if the
/// job's resident set cannot fit the executors — the paper's Spark sort
/// behaviour.
pub fn compile(sim: &mut Simulation, profile: &SimJobProfile) -> Result<()> {
    let n = cluster_nodes(sim)?;
    if profile.mem_required_per_node > profile.executor_mem_per_node {
        return Err(Error::OutOfMemory {
            context: format!("{}: spark executors", profile.name),
            requested: profile.mem_required_per_node as u64,
            available: profile.executor_mem_per_node as u64,
        });
    }
    sim.configure_slots(WORKER_SLOT, profile.tasks_per_node);

    let startup = barrier(
        sim,
        &profile.name,
        "startup",
        &[],
        profile.startup_secs,
        profile.runtime_mem_per_node,
    )?;
    let mut prev_stage: Vec<TaskId> = vec![startup];

    for stage in &profile.stages {
        let mut tasks = Vec::new();
        // Determine per-task input placements and volumes.
        let task_inputs: Vec<(NodeId, f64, Option<&InputSplit>)> = match &stage.input {
            StageInput::Dfs { splits, .. } => splits
                .iter()
                .map(|s| {
                    (
                        s.choose_replica(s.block.replicas[0]),
                        s.len() as f64,
                        Some(s),
                    )
                })
                .collect(),
            StageInput::Shuffle { bytes } | StageInput::Cached { bytes } => {
                let count = n * profile.tasks_per_node as usize;
                (0..count)
                    .map(|i| (NodeId((i % n) as u16), bytes / count as f64, None))
                    .collect()
            }
        };

        for (i, (node, input_bytes, split)) in task_inputs.iter().enumerate() {
            let node = *node;
            let input_bytes = *input_bytes;
            let mut demands: Vec<Demand> = Vec::new();

            match &stage.input {
                StageInput::Dfs { local_fraction, .. } => {
                    let split = split.expect("dfs input has splits");
                    let local = input_bytes * local_fraction;
                    let remote = input_bytes - local;
                    if local > 0.0 {
                        demands.push(Demand::read(node, local));
                    }
                    if remote > 0.0 {
                        // Remote read: served by another replica's disk and
                        // both NICs.
                        let serving = split
                            .block
                            .replicas
                            .iter()
                            .copied()
                            .find(|r| *r != node)
                            .unwrap_or(NodeId(((node.index() + 1) % n) as u16));
                        demands.push(Demand::read(serving, remote));
                        demands.push(Demand::new(Resource::NetOut(serving), remote));
                        demands.push(Demand::new(Resource::NetIn(node), remote));
                    }
                }
                StageInput::Shuffle { .. } => {
                    // Fetch from every node's shuffle files.
                    let per_source = input_bytes / n as f64;
                    let remote_fraction = (n - 1) as f64 / n as f64;
                    for src in sim.spec().node_ids() {
                        demands.push(Demand::read(src, per_source));
                        if src != node {
                            demands.push(Demand::new(
                                Resource::NetOut(src),
                                per_source * remote_fraction.min(1.0),
                            ));
                        }
                    }
                    demands.push(Demand::new(
                        Resource::NetIn(node),
                        input_bytes * remote_fraction,
                    ));
                }
                StageInput::Cached { .. } => {
                    // Memory reads: no I/O demand.
                }
            }

            let mut compute = Vec::new();
            let cpu = input_bytes * stage.cpu_per_byte;
            if cpu > 0.0 {
                compute.push(Demand::new(Resource::Cpu(node), cpu));
            }
            let mut output = Vec::new();
            let shuffle_out = input_bytes * stage.shuffle_write_ratio;
            if shuffle_out > 0.0 {
                output.push(Demand::write(node, shuffle_out));
            }
            let dfs_out = input_bytes * stage.output_dfs_ratio;
            if dfs_out > 0.0 {
                output.extend(replicated_write(node, n, dfs_out));
            }

            let mut builder =
                TaskSpec::builder(format!("{}-{}-{i}", profile.name, stage.name), node)
                    .phase(stage.name.clone())
                    .deps(prev_stage.iter().copied())
                    .slot(WORKER_SLOT)
                    .delay(0.15); // task dispatch latency (threads, not JVMs)
            if stage.staged {
                if !demands.is_empty() {
                    builder = builder.activity(Activity::Work(demands));
                }
                if !compute.is_empty() {
                    builder = builder
                        .activity(Activity::work_with_overhead(compute, profile.cpu_overhead));
                }
                if !output.is_empty() {
                    builder = builder.activity(Activity::Work(output));
                }
            } else {
                demands.extend(compute);
                demands.extend(output);
                builder =
                    builder.activity(Activity::work_with_overhead(demands, profile.cpu_overhead));
            }
            let cached = input_bytes * stage.cache_ratio;
            if cached > 0.5 {
                builder = builder.activity(Activity::MemChange {
                    node,
                    delta: cached as i64,
                });
            }
            tasks.push(sim.add_task(builder.build())?);
        }
        prev_stage = tasks;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::tests::splits;
    use dmpi_common::units::{GB, MB};
    use dmpi_dcsim::ClusterSpec;
    use dmpi_dfs::{DfsConfig, MiniDfs};

    fn two_stage_profile(bytes: u64) -> SimJobProfile {
        let mut p = SimJobProfile::new("spark", 4);
        p.executor_mem_per_node = 10.0 * GB as f64;
        let emitted = (bytes / 2) as f64;
        let mut s0 = StageProfile::new(
            "stage0",
            StageInput::Dfs {
                splits: splits(bytes),
                local_fraction: 0.7,
            },
        );
        s0.cpu_per_byte = 1.0 / (200.0 * MB as f64);
        s0.shuffle_write_ratio = 0.5;
        let mut s1 = StageProfile::new("stage1", StageInput::Shuffle { bytes: emitted });
        s1.cpu_per_byte = 1.0 / (300.0 * MB as f64);
        s1.output_dfs_ratio = 0.5;
        p.stages = vec![s0, s1];
        p
    }

    #[test]
    fn stages_run_in_order() {
        let p = two_stage_profile(4 * GB);
        let mut sim = Simulation::new(ClusterSpec::paper_testbed());
        compile(&mut sim, &p).unwrap();
        let r = sim.run().unwrap();
        let (s0s, s0e) = r.phase_span("stage0").unwrap();
        let (s1s, _) = r.phase_span("stage1").unwrap();
        assert!(s0s >= p.startup_secs - 1e-6);
        assert!(s1s >= s0e - 1e-6, "stage1 waits for stage0");
    }

    #[test]
    fn oom_fails_at_compile_like_the_paper() {
        let mut p = two_stage_profile(16 * GB);
        p.mem_required_per_node = 12.0 * GB as f64; // > 10 GB executors
        let mut sim = Simulation::new(ClusterSpec::paper_testbed());
        let err = compile(&mut sim, &p).unwrap_err();
        assert!(err.is_oom());
    }

    #[test]
    fn within_memory_succeeds() {
        let mut p = two_stage_profile(8 * GB);
        p.mem_required_per_node = 5.0 * GB as f64;
        let mut sim = Simulation::new(ClusterSpec::paper_testbed());
        compile(&mut sim, &p).unwrap();
        assert!(sim.run().unwrap().makespan > 0.0);
    }

    #[test]
    fn imperfect_locality_shows_network_traffic() {
        let mk = |local: f64| {
            let mut p = SimJobProfile::new("loc", 4);
            let mut s0 = StageProfile::new(
                "stage0",
                StageInput::Dfs {
                    splits: splits(4 * GB),
                    local_fraction: local,
                },
            );
            s0.cpu_per_byte = 1.0 / (500.0 * MB as f64);
            p.stages = vec![s0];
            let mut sim = Simulation::new(ClusterSpec::paper_testbed());
            compile(&mut sim, &p).unwrap();
            sim.run().unwrap()
        };
        let local = mk(1.0);
        let mixed = mk(0.5);
        let net = |r: &dmpi_dcsim::SimReport| -> f64 { r.profile.net_mb_s.iter().sum() };
        assert!(net(&local) < 1e-6, "fully local reads move no bytes");
        assert!(net(&mixed) > 1.0, "half-remote reads show on the NIC");
    }

    #[test]
    fn cached_stage_is_io_free_and_fast() {
        // First stage loads and caches; second iterates over the cache.
        let bytes = 4 * GB;
        let mut p = SimJobProfile::new("iter", 4);
        let mut s0 = StageProfile::new(
            "stage0",
            StageInput::Dfs {
                splits: splits(bytes),
                local_fraction: 0.8,
            },
        );
        s0.cpu_per_byte = 1.0 / (300.0 * MB as f64);
        s0.cache_ratio = 1.0;
        let mut s1 = StageProfile::new(
            "iter1",
            StageInput::Cached {
                bytes: bytes as f64,
            },
        );
        s1.cpu_per_byte = 1.0 / (300.0 * MB as f64);
        p.stages = vec![s0, s1];
        let mut sim = Simulation::new(ClusterSpec::paper_testbed());
        compile(&mut sim, &p).unwrap();
        let r = sim.run().unwrap();
        let d0 = r.phase_duration("stage0");
        let d1 = r.phase_duration("iter1");
        assert!(
            d1 < d0,
            "cached iteration beats the loading stage: {d1} vs {d0}"
        );
    }

    #[test]
    fn spark_oom_boundary_in_profiles() {
        let dfs = MiniDfs::new(8, DfsConfig::paper_tuned()).unwrap();
        dfs.create_virtual("/8g", NodeId(0), 8 * GB).unwrap();
        dfs.create_virtual("/16g", NodeId(0), 16 * GB).unwrap();
        let text = |path| profile(Workload::TextSort, dfs.splits(path).unwrap(), 4, 8).unwrap();
        let p8 = text("/8g");
        let p16 = text("/16g");
        assert!(
            p8.mem_required_per_node <= p8.executor_mem_per_node,
            "8 GB fits"
        );
        assert!(
            p16.mem_required_per_node > p16.executor_mem_per_node,
            "16 GB OOMs like Figure 3(b)"
        );
        // Normal Sort: even 4 GB compressed OOMs (Figure 3(a)).
        dfs.create_virtual("/4gz", NodeId(0), 4 * GB).unwrap();
        let pz = profile(Workload::NormalSort, dfs.splits("/4gz").unwrap(), 4, 8).unwrap();
        assert!(pz.mem_required_per_node > pz.executor_mem_per_node);
    }
}
