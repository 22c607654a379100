//! Extension experiment: recovery-time overhead of a single node failure.
//!
//! The paper's testbed never loses a node mid-run, but the fault-tolerance
//! story is the classic argument for Hadoop's materialize-everything
//! design. This experiment quantifies it in the simulator: the same Text
//! Sort job is run failure-free and with one node dying mid-job, under the
//! two recovery disciplines of [`dmpi_dcsim::RecoveryModel`]:
//!
//! * **DataMPI-style checkpoint/restart** — finished tasks' key-value
//!   output was checkpointed (the supervisor's `CheckpointStore` in the
//!   real execution path), so only in-flight work re-executes;
//! * **Hadoop-style re-execution** — completed map output lived on the
//!   dead node's local disk, so completed tasks whose consumers are
//!   unfinished re-execute as well.
//!
//! The headline number per row is `makespan(with failure) −
//! makespan(failure-free)`, i.e. [`SimReport::recovery_overhead_secs`].

use dmpi_common::units::GB;
use dmpi_common::Result;
use dmpi_dcsim::{ClusterSpec, NodeId, RecoveryModel, SimReport, Simulation};
use dmpi_dfs::{DfsConfig, MiniDfs};
use dmpi_workloads::model::{datampi, mapred};
use dmpi_workloads::Workload;

use crate::table::Table;

/// Node taken down mid-run.
const VICTIM: NodeId = NodeId(1);
/// Reboot time — a paper-scale "machine power-cycles and daemons rejoin".
const DOWNTIME_SECS: f64 = 30.0;
/// Failure instant as a fraction of the failure-free makespan. 0.7 lands
/// in the reduce/A phase of Text Sort: the node's map/O work is complete
/// (so the recovery disciplines actually diverge over its fate) while its
/// reducers are mid-flight.
const FAILURE_POINT: f64 = 0.7;

/// Which engine's Text Sort DAG a run is built from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Plan {
    /// The Hadoop-like staged MapReduce plan.
    Hadoop,
    /// The DataMPI pipelined O/A plan.
    DataMpi,
}

/// One (plan, recovery model) measurement: the failure-free baseline and
/// the run with the injected failure.
pub struct RecoveryRun {
    /// Row label for the table.
    pub label: &'static str,
    /// Which DAG.
    pub plan: Plan,
    /// Recovery discipline applied at the failure.
    pub model: RecoveryModel,
    /// Failure-free run.
    pub baseline: SimReport,
    /// Run with the node failure.
    pub failed: SimReport,
}

impl RecoveryRun {
    /// Extra seconds the failure cost end to end.
    pub fn overhead_secs(&self) -> f64 {
        self.failed.recovery_overhead_secs(&self.baseline)
    }
}

fn build_sim(
    plan: Plan,
    cluster: &ClusterSpec,
    splits: &[dmpi_dfs::InputSplit],
) -> Result<Simulation> {
    let mut sim = Simulation::new(cluster.clone());
    match plan {
        Plan::Hadoop => {
            let p = mapred::profile(Workload::TextSort, 4);
            mapred::compile(&mut sim, &p, splits)?;
        }
        Plan::DataMpi => {
            let p = datampi::profile(Workload::TextSort, 4);
            datampi::compile(&mut sim, &p, splits)?;
        }
    }
    Ok(sim)
}

/// Runs the three measurements on a Text Sort of `input_gb` GB:
///
/// 1. Hadoop plan, Hadoop-style re-execution (the real Hadoop story);
/// 2. Hadoop plan, checkpoint/restart (what checkpointing saves the *same*
///    DAG — the like-for-like comparison of the two disciplines);
/// 3. DataMPI plan, checkpoint/restart (the real DataMPI story).
pub fn run_recovery(input_gb: u64) -> Result<Vec<RecoveryRun>> {
    let cluster = ClusterSpec::paper_testbed();
    let dfs = MiniDfs::new(cluster.nodes, DfsConfig::paper_tuned())?;
    let per_file = input_gb * GB / cluster.nodes as u64;
    for i in 0..cluster.nodes {
        dfs.create_virtual(&format!("/sort/part-{i:05}"), NodeId(i), per_file)?;
    }
    let splits = dfs.splits_for_prefix("/sort/")?;

    let cases: [(&'static str, Plan, RecoveryModel); 3] = [
        (
            "Hadoop, re-execute lost maps",
            Plan::Hadoop,
            RecoveryModel::RerunCompleted,
        ),
        (
            "Hadoop, checkpointed outputs",
            Plan::Hadoop,
            RecoveryModel::CheckpointRestart,
        ),
        (
            "DataMPI, checkpointed O output",
            Plan::DataMpi,
            RecoveryModel::CheckpointRestart,
        ),
    ];
    let mut runs = Vec::with_capacity(cases.len());
    for (label, plan, model) in cases {
        let baseline = build_sim(plan, &cluster, &splits)?.run()?;
        let mut sim = build_sim(plan, &cluster, &splits)?;
        sim.inject_node_failure(
            VICTIM,
            baseline.makespan * FAILURE_POINT,
            DOWNTIME_SECS,
            model,
        )?;
        let failed = sim.run()?;
        runs.push(RecoveryRun {
            label,
            plan,
            model,
            baseline,
            failed,
        });
    }
    Ok(runs)
}

/// Renders [`run_recovery`] as a table for EXPERIMENTS.md.
pub fn fig_ext_recovery(input_gb: u64) -> Result<Table> {
    let runs = run_recovery(input_gb)?;
    let mut t = Table::new(
        "fig-ext-recovery",
        format!(
            "Extension: one node fails at 70% of a {input_gb} GB Text Sort \
             (30 s reboot; checkpoint/restart vs re-execution recovery)"
        ),
        &[
            "Engine / recovery",
            "No failure (s)",
            "With failure (s)",
            "Overhead (s)",
            "Tasks re-run",
            "Wasted compute (s)",
        ],
    );
    for r in &runs {
        t.push_row(vec![
            r.label.to_string(),
            format!("{:.1}", r.baseline.makespan),
            format!("{:.1}", r.failed.makespan),
            format!("{:.1}", r.overhead_secs()),
            r.failed.recovery.tasks_rerun.to_string(),
            format!("{:.1}", r.failed.recovery.wasted_secs),
        ]);
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_costs_time_under_both_disciplines() {
        let runs = run_recovery(4).unwrap();
        assert_eq!(runs.len(), 3);
        for r in &runs {
            assert_eq!(r.failed.recovery.failures, 1, "{}", r.label);
            assert!(
                r.overhead_secs() > 0.0,
                "{}: overhead {}",
                r.label,
                r.overhead_secs()
            );
            assert!(r.baseline.recovery.is_clean());
        }
    }

    #[test]
    fn reexecution_costs_at_least_as_much_as_checkpointing() {
        let runs = run_recovery(4).unwrap();
        let rerun = runs
            .iter()
            .find(|r| r.plan == Plan::Hadoop && r.model == RecoveryModel::RerunCompleted)
            .unwrap();
        let ckpt = runs
            .iter()
            .find(|r| r.plan == Plan::Hadoop && r.model == RecoveryModel::CheckpointRestart)
            .unwrap();
        // Same DAG, same failure point: losing completed map output can
        // only add work.
        assert!(
            rerun.overhead_secs() >= ckpt.overhead_secs() - 1e-6,
            "rerun {} vs checkpoint {}",
            rerun.overhead_secs(),
            ckpt.overhead_secs()
        );
        assert!(rerun.failed.recovery.tasks_rerun >= ckpt.failed.recovery.tasks_rerun);
        // Re-execution invalidated at least one completed map.
        assert!(rerun.failed.recovery.wasted_secs > ckpt.failed.recovery.wasted_secs);
    }

    #[test]
    fn table_renders_all_rows() {
        let t = fig_ext_recovery(4).unwrap();
        let text = t.render_markdown();
        assert!(text.contains("Hadoop, re-execute lost maps"));
        assert!(text.contains("DataMPI, checkpointed O output"));
    }
}
