//! Integration: the simulator's conclusions must agree with the real
//! runtimes' observable mechanics. Each test pairs a *mechanism* measured
//! on the executing engines (counters) with the *consequence* the
//! simulator predicts at paper scale (time), so the calibration cannot
//! drift away from what the code actually does.

use bytes::Bytes;
use dmpi_common::units::GB;

use datampi_suite::datagen::{SeedModel, TextGenerator};
use datampi_suite::dcsim::{ClusterSpec, NodeId, Simulation};
use datampi_suite::dfs::{DfsConfig, MiniDfs};
use datampi_suite::workloads::model::{datampi, mapred};
use datampi_suite::workloads::{wordcount, Workload};

fn corpus(seed: u64) -> Vec<Bytes> {
    let mut gen = TextGenerator::new(SeedModel::lda_wiki1w(), seed);
    (0..6)
        .map(|_| Bytes::from(gen.generate_bytes(20_000)))
        .collect()
}

fn sim_sort_report(profile: &datampi::SimJobProfile) -> datampi_suite::dcsim::SimReport {
    let dfs = MiniDfs::new(8, DfsConfig::paper_tuned()).unwrap();
    dfs.create_virtual("/in", NodeId(0), 8 * GB).unwrap();
    let splits = dfs.splits("/in").unwrap();
    let mut sim = Simulation::new(ClusterSpec::paper_testbed());
    datampi::compile(&mut sim, profile, &splits).unwrap();
    sim.run().unwrap()
}

fn sim_sort_makespan(profile: &datampi::SimJobProfile) -> f64 {
    sim_sort_report(profile).makespan
}

#[test]
fn pipelining_mechanism_and_consequence() {
    // Mechanism (real runtime): pipelined jobs ship frames early; staged
    // jobs ship everything at task end.
    let inputs = corpus(31);
    let piped = datampi_suite::datampi::run_job(
        &datampi_suite::datampi::JobConfig::new(4).with_flush_threshold(512),
        inputs.clone(),
        wordcount::map,
        wordcount::reduce,
        None,
    )
    .unwrap();
    let staged = datampi_suite::datampi::run_job(
        &datampi_suite::datampi::JobConfig::new(4).with_pipelined(false),
        inputs,
        wordcount::map,
        wordcount::reduce,
        None,
    )
    .unwrap();
    assert!(piped.stats.early_flushes > 0);
    assert_eq!(staged.stats.early_flushes, 0);
    assert!(piped.stats.frames > staged.stats.frames);

    // Consequence (simulator): at paper scale, disabling pipelining slows
    // the job down.
    let base = datampi::profile(Workload::TextSort, 4);
    let mut no_pipe = base.clone();
    no_pipe.pipelined = false;
    assert!(sim_sort_makespan(&no_pipe) > sim_sort_makespan(&base) * 1.05);
}

#[test]
fn combiner_mechanism_and_consequence() {
    // Mechanism: the combiner shrinks what the map side materializes.
    // Use large splits with a single spill per task so combining can
    // deduplicate across each task's whole output (spill-local combining
    // is weaker the smaller the spills).
    let mut gen = TextGenerator::new(SeedModel::lda_wiki1w(), 32);
    let inputs: Vec<Bytes> = (0..4)
        .map(|_| Bytes::from(gen.generate_bytes(120_000)))
        .collect();
    let with = datampi_suite::mapred::run_mapreduce(
        &datampi_suite::mapred::MapRedConfig::new(4),
        inputs.clone(),
        wordcount::map,
        Some(&wordcount::reduce),
        wordcount::reduce,
    )
    .unwrap();
    let without = datampi_suite::mapred::run_mapreduce(
        &datampi_suite::mapred::MapRedConfig::new(4).with_combiner(false),
        inputs,
        wordcount::map,
        None,
        wordcount::reduce,
    )
    .unwrap();
    assert!(
        with.stats.materialized_bytes < without.stats.materialized_bytes / 3,
        "{} vs {}",
        with.stats.materialized_bytes,
        without.stats.materialized_bytes
    );

    // Consequence: a Hadoop profile with a Sort-like emit ratio (no
    // combining possible) is far slower than the WordCount profile whose
    // emit ratio reflects combining.
    let dfs = MiniDfs::new(8, DfsConfig::paper_tuned()).unwrap();
    dfs.create_virtual("/in", NodeId(0), 8 * GB).unwrap();
    let splits = dfs.splits("/in").unwrap();
    let run = |emit_ratio: f64| {
        let mut p = mapred::profile(Workload::WordCount, 4);
        p.emit_ratio = emit_ratio;
        let mut sim = Simulation::new(ClusterSpec::paper_testbed());
        mapred::compile(&mut sim, &p, &splits).unwrap();
        sim.run().unwrap().makespan
    };
    assert!(run(1.0) > run(0.004) * 1.1, "combining pays at paper scale");
}

#[test]
fn memory_budget_mechanism_and_consequence() {
    // Mechanism: a starved A-side store spills to disk but stays correct.
    let inputs = corpus(33);
    let spill_dir = std::env::temp_dir().join(format!("dmpi-sim-budget-{}", std::process::id()));
    let starved = datampi_suite::datampi::run_job(
        &datampi_suite::datampi::JobConfig::new(2)
            .with_memory_budget(4096)
            .with_spill_dir(&spill_dir),
        inputs.clone(),
        wordcount::map,
        wordcount::reduce,
        None,
    )
    .unwrap();
    let roomy = datampi_suite::datampi::run_job(
        &datampi_suite::datampi::JobConfig::new(2),
        inputs,
        wordcount::map,
        wordcount::reduce,
        None,
    )
    .unwrap();
    let _ = std::fs::remove_dir_all(&spill_dir);
    assert!(starved.stats.spills > 0);
    assert_eq!(roomy.stats.spills, 0);

    // Consequence: shrinking the simulated intermediate budget adds disk
    // round trips. (Latency may hide behind the CPU-bound O phase, but
    // the extra disk traffic cannot: compare disk-write volume.)
    let base = datampi::profile(Workload::TextSort, 4);
    let mut starved_sim = base.clone();
    starved_sim.intermediate_mem_budget = 64.0 * (1u64 << 20) as f64;
    let writes =
        |r: &datampi_suite::dcsim::SimReport| -> f64 { r.profile.disk_write_mb_s.iter().sum() };
    let base_report = sim_sort_report(&base);
    let starved_report = sim_sort_report(&starved_sim);
    assert!(
        writes(&starved_report) > writes(&base_report) * 1.3,
        "spilling must add disk writes: {} vs {}",
        writes(&starved_report),
        writes(&base_report)
    );
    assert!(starved_report.makespan >= base_report.makespan - 1e-6);
}

#[test]
fn engine_ranking_consistent_between_real_and_sim() {
    use std::time::Instant;
    // Real runtimes on a CPU-heavy corpus: measure wall time (coarse, so
    // only assert the extremes after averaging a few runs).
    let inputs = corpus(34);
    let time = |f: &dyn Fn()| {
        // Warm-up + three timed runs.
        f();
        let t = Instant::now();
        for _ in 0..3 {
            f();
        }
        t.elapsed().as_secs_f64() / 3.0
    };
    let dm = time(&|| {
        wordcount::run_datampi(&datampi_suite::datampi::JobConfig::new(4), inputs.clone())
            .map(|_| ())
            .unwrap()
    });
    let mr = time(&|| {
        wordcount::run_mapred(&datampi_suite::mapred::MapRedConfig::new(4), inputs.clone())
            .map(|_| ())
            .unwrap()
    });
    // The MapReduce engine does strictly more work (sort + materialize +
    // merge) than DataMPI's hash-grouping path on the same input. Allow a
    // generous factor for scheduler noise — the sign must hold.
    assert!(
        mr > dm * 0.8,
        "mapred ({mr:.4}s) should not be dramatically faster than datampi ({dm:.4}s)"
    );

    // Simulated ranking at paper scale is strict.
    let d = datampi_suite::workloads::run_sim(
        datampi_suite::workloads::Workload::WordCount,
        datampi_suite::workloads::Engine::DataMpi,
        8 * GB,
        4,
    )
    .unwrap()
    .seconds()
    .unwrap();
    let h = datampi_suite::workloads::run_sim(
        datampi_suite::workloads::Workload::WordCount,
        datampi_suite::workloads::Engine::Hadoop,
        8 * GB,
        4,
    )
    .unwrap()
    .seconds()
    .unwrap();
    assert!(d < h);
}
