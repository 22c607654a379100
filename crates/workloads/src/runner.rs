//! The simulation runner: one call per `(workload, engine, size)` cell of
//! the paper's figures, through the engine model in [`crate::model`].

use dmpi_common::units::GB;
use dmpi_common::Result;
use dmpi_dcsim::{ClusterSpec, NodeId, SimReport, Simulation};
use dmpi_dfs::{DfsConfig, InputSplit, MiniDfs};

use crate::{calib, model};

/// Which system executes the workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Engine {
    /// Apache-Hadoop-like MapReduce.
    Hadoop,
    /// Apache-Spark-like RDD engine.
    Spark,
    /// The DataMPI library.
    DataMpi,
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Engine::Hadoop => write!(f, "Hadoop"),
            Engine::Spark => write!(f, "Spark"),
            Engine::DataMpi => write!(f, "DataMPI"),
        }
    }
}

/// Which benchmark runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Sort over compressed sequence-file input.
    NormalSort,
    /// Sort over raw text input.
    TextSort,
    /// WordCount.
    WordCount,
    /// Grep.
    Grep,
    /// K-means (first training iteration, loading included).
    KMeans,
    /// Naive Bayes (vectorize + train job chain).
    NaiveBayes,
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Workload::NormalSort => write!(f, "Normal Sort"),
            Workload::TextSort => write!(f, "Text Sort"),
            Workload::WordCount => write!(f, "WordCount"),
            Workload::Grep => write!(f, "Grep"),
            Workload::KMeans => write!(f, "K-means"),
            Workload::NaiveBayes => write!(f, "Naive Bayes"),
        }
    }
}

/// One simulated experiment's outcome.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// The job finished.
    Finished {
        /// Job execution time, seconds.
        seconds: f64,
        /// Full simulator report (time series, phases).
        report: Box<SimReport>,
    },
    /// The job failed with OutOfMemory (the Spark sort cases).
    OutOfMemory,
}

impl Outcome {
    /// Seconds if finished.
    pub fn seconds(&self) -> Option<f64> {
        match self {
            Outcome::Finished { seconds, .. } => Some(*seconds),
            Outcome::OutOfMemory => None,
        }
    }

    /// The report if finished.
    pub fn report(&self) -> Option<&SimReport> {
        match self {
            Outcome::Finished { report, .. } => Some(report),
            Outcome::OutOfMemory => None,
        }
    }
}

/// Builds the virtual input for a workload of `input_bytes` **physical**
/// bytes and returns its splits.
fn make_splits(cluster: &ClusterSpec, input_bytes: u64) -> Result<Vec<InputSplit>> {
    let dfs = MiniDfs::new(cluster.nodes, DfsConfig::paper_tuned())?;
    // BigDataBench generates the corpus with one generator task per node,
    // so primaries rotate over the cluster.
    let files = cluster.nodes as u64;
    let per_file = input_bytes / files;
    for i in 0..files {
        dfs.create_virtual(
            &format!("/input/part-{i:05}"),
            NodeId((i % cluster.nodes as u64) as u16),
            per_file,
        )?;
    }
    dfs.splits_for_prefix("/input/")
}

/// Runs one simulated experiment.
///
/// * `input_bytes` — physical input size (the paper's x-axes; for Normal
///   Sort this is the *compressed* size, matching the paper).
/// * `tasks_per_node` — concurrent tasks/workers per node (§4.2 tunes 4).
pub fn run_sim(
    workload: Workload,
    engine: Engine,
    input_bytes: u64,
    tasks_per_node: u32,
) -> Result<Outcome> {
    let cluster = ClusterSpec::paper_testbed();
    let splits = make_splits(&cluster, input_bytes)?;

    // Job chains: Naive Bayes runs several counting jobs back to back.
    let jobs: u32 = match (workload, engine) {
        (Workload::NaiveBayes, Engine::Hadoop) => calib::BAYES_HADOOP_JOBS,
        (Workload::NaiveBayes, Engine::DataMpi) => calib::BAYES_DATAMPI_JOBS,
        _ => 1,
    };

    let mut total = 0.0;
    let mut last_report: Option<SimReport> = None;
    for job in 0..jobs {
        // Later jobs of the Bayes chain work on the (small) derived data;
        // model them at a fraction of the input volume.
        let job_bytes = if job == 0 {
            input_bytes
        } else {
            (input_bytes as f64 * 0.3) as u64
        };
        let job_splits = if job == 0 {
            splits.clone()
        } else {
            make_splits(&cluster, job_bytes.max(GB / 4))?
        };

        let mut sim = Simulation::new(cluster.clone());
        match engine {
            Engine::DataMpi => {
                let pressure = calib::concurrency_pressure(
                    tasks_per_node,
                    calib::DATAMPI_TASK_MEM,
                    calib::DATAMPI_RUNTIME_MEM,
                );
                let mut profile = model::datampi::profile(workload, tasks_per_node);
                profile.name = format!("{}-{}", profile.name, job);
                profile.o_cpu_per_byte *= pressure;
                profile.a_cpu_per_byte *= pressure;
                profile.decompress_cpu_per_byte *= pressure;
                profile.cpu_overhead = calib::DATAMPI_CPU_OVERHEAD;
                model::datampi::compile(&mut sim, &profile, &job_splits)?;
            }
            Engine::Hadoop => {
                let pressure = calib::concurrency_pressure(
                    tasks_per_node,
                    calib::HADOOP_TASK_MEM,
                    calib::HADOOP_DAEMON_MEM,
                );
                let mut profile = model::mapred::profile(workload, tasks_per_node);
                profile.name = format!("{}-{}", profile.name, job);
                profile.map_cpu_per_byte *= pressure;
                profile.sort_cpu_per_byte *= pressure;
                profile.reduce_cpu_per_byte *= pressure;
                profile.decompress_cpu_per_byte *= pressure;
                profile.cpu_overhead = calib::HADOOP_CPU_OVERHEAD;
                model::mapred::compile(&mut sim, &profile, &job_splits)?;
            }
            Engine::Spark => {
                let pressure = calib::concurrency_pressure(
                    tasks_per_node,
                    calib::SPARK_TASK_MEM,
                    calib::SPARK_RUNTIME_MEM,
                );
                let mut profile =
                    model::spark::profile(workload, job_splits, tasks_per_node, cluster.nodes)?;
                for stage in profile.stages.iter_mut() {
                    stage.cpu_per_byte *= pressure;
                }
                profile.cpu_overhead = calib::SPARK_CPU_OVERHEAD;
                match model::spark::compile(&mut sim, &profile) {
                    Ok(()) => {}
                    Err(e) if e.is_oom() => return Ok(Outcome::OutOfMemory),
                    Err(e) => return Err(e),
                }
            }
        }
        let report = sim.run()?;
        total += report.makespan;
        last_report = Some(report);
    }

    Ok(Outcome::Finished {
        seconds: total,
        report: Box::new(last_report.expect("at least one job ran")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmpi_common::units::GB;

    fn secs(w: Workload, e: Engine, gb: u64) -> Option<f64> {
        run_sim(w, e, gb * GB, 4).unwrap().seconds()
    }

    #[test]
    fn text_sort_8gb_ordering_matches_figure_3b() {
        let d = secs(Workload::TextSort, Engine::DataMpi, 8).unwrap();
        let h = secs(Workload::TextSort, Engine::Hadoop, 8).unwrap();
        let s = secs(Workload::TextSort, Engine::Spark, 8).unwrap();
        assert!(
            d < s && d < h,
            "DataMPI fastest: d={d:.0} h={h:.0} s={s:.0}"
        );
        // Paper: DataMPI 69 s, Hadoop 117 s, Spark 114 s — check the
        // improvement band rather than absolutes (34-42% vs Hadoop).
        let imp = 1.0 - d / h;
        assert!(
            (0.25..0.55).contains(&imp),
            "improvement vs hadoop {imp:.2} (d={d:.0} h={h:.0})"
        );
    }

    #[test]
    fn spark_ooms_on_big_sorts_like_figure_3() {
        assert!(matches!(
            run_sim(Workload::TextSort, Engine::Spark, 16 * GB, 4).unwrap(),
            Outcome::OutOfMemory
        ));
        assert!(matches!(
            run_sim(Workload::NormalSort, Engine::Spark, 4 * GB, 4).unwrap(),
            Outcome::OutOfMemory
        ));
        assert!(secs(Workload::TextSort, Engine::Spark, 8).is_some());
    }

    #[test]
    fn wordcount_32gb_matches_figure_3c_shape() {
        let d = secs(Workload::WordCount, Engine::DataMpi, 32).unwrap();
        let h = secs(Workload::WordCount, Engine::Hadoop, 32).unwrap();
        let s = secs(Workload::WordCount, Engine::Spark, 32).unwrap();
        // Paper: DataMPI ≈ Spark ≈ 130 s, Hadoop ≈ 275 s.
        assert!((d - s).abs() / d < 0.2, "DataMPI ~ Spark: {d:.0} vs {s:.0}");
        let imp = 1.0 - d / h;
        assert!(
            (0.4..0.62).contains(&imp),
            "47-55% improvement expected, got {imp:.2} (d={d:.0} h={h:.0})"
        );
    }

    #[test]
    fn grep_ordering_matches_figure_3d() {
        let d = secs(Workload::Grep, Engine::DataMpi, 16).unwrap();
        let h = secs(Workload::Grep, Engine::Hadoop, 16).unwrap();
        let s = secs(Workload::Grep, Engine::Spark, 16).unwrap();
        assert!(d < s, "DataMPI beats Spark: {d:.0} vs {s:.0}");
        assert!(s < h, "Spark beats Hadoop: {s:.0} vs {h:.0}");
    }

    #[test]
    fn kmeans_ordering_matches_figure_6a() {
        let d = secs(Workload::KMeans, Engine::DataMpi, 16).unwrap();
        let h = secs(Workload::KMeans, Engine::Hadoop, 16).unwrap();
        let s = secs(Workload::KMeans, Engine::Spark, 16).unwrap();
        assert!(d < h && d < s, "d={d:.0} h={h:.0} s={s:.0}");
    }

    #[test]
    fn bayes_runs_hadoop_and_datampi_only() {
        let d = secs(Workload::NaiveBayes, Engine::DataMpi, 8).unwrap();
        let h = secs(Workload::NaiveBayes, Engine::Hadoop, 8).unwrap();
        assert!(d < h);
        assert!(run_sim(Workload::NaiveBayes, Engine::Spark, 8 * GB, 4).is_err());
    }

    #[test]
    fn bigger_inputs_take_longer() {
        let small = secs(Workload::TextSort, Engine::DataMpi, 8).unwrap();
        let large = secs(Workload::TextSort, Engine::DataMpi, 32).unwrap();
        assert!(large > small * 2.0);
    }
}
