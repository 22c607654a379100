//! One benchmark run: set-up, warm-up, timed trials with every output
//! checked, and the metrics that come out — end to end with tracing
//! off, or per layer in the separate traced run.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use bytes::Bytes;
use datampi::{JobConfig, JobStats, Observer};
use dmpi_workloads::ExecWorkload;

use crate::host::{peak_rss_mb, process_cpu_seconds, reset_peak_rss};
use crate::layers::stage_budget;
use crate::reference::{expected, observed, Fingerprint};
use crate::service::{self, seed_pool, Session};
use crate::spec::{data_spec, DataSpec, END_TO_END, PER_LAYER, RANKS, SERVICE, SERVICE_SPEC};
use crate::stats::{highest, lowest, median, percentile};
use crate::trace::{Layers, Spans};

/// Where result files, trace files and temp dirs go: `benchmark/out`
/// when run from the repository root (as the driver and the README do),
/// `out` when run from inside the package (as `cargo test` does).
pub fn out_dir() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

/// Set-up is timed this many times, spread over the run so that the
/// repeats do not all fall into one slow stretch of the host, and the
/// fastest is reported (see `end_to_end` on why the fastest).
const SETUP_REPEATS: usize = 4;

/// Timed trials (or traced/untraced pairs) a run makes at least, however
/// short `--seconds` is.
const MIN_TRIALS: usize = 3;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// One reported metric: the summary value and the raw samples behind it.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: Vec<f64>,
}

/// What a run produced.
#[derive(Default)]
pub struct Outcome {
    /// Timed jobs started.
    pub attempted: u64,
    /// Jobs that errored, were rejected or were cut off.
    pub failed: u64,
    /// Completed jobs whose output disagreed with the reference.
    pub mismatched: u64,
    pub metrics: Vec<Metric>,
    pub first_error: Option<String>,
    /// The traced run's span log.
    pub spans: Option<Spans>,
    /// The traced run's budget rows: stage metrics on the job's path.
    pub on_path: Vec<&'static str>,
}

impl Outcome {
    /// Share of attempted jobs whose output disagreed with the reference.
    pub fn mismatch_frac(&self) -> f64 {
        self.mismatched as f64 / self.attempted.max(1) as f64
    }

    /// Share of attempted jobs that errored, were rejected or cut off.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    fn note(&mut self, verdict: &Verdict) {
        self.attempted += 1;
        let error = match verdict {
            Verdict::Match => return,
            Verdict::Mismatch(e) => {
                self.mismatched += 1;
                e
            }
            Verdict::Failed(e) => {
                self.failed += 1;
                e
            }
        };
        self.first_error.get_or_insert_with(|| error.clone());
    }
}

/// A temp dir under [`out_dir`], removed when dropped — after a failed
/// trial or a panic too. Holds spill runs, service `out=` files and the
/// spill-format stage's run files.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new() -> Result<Scratch, String> {
        // Unique per call as well as per process: tests make several.
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir().join(format!("tmp-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A data workload's generated input and expected result, with when
/// each was made.
struct Prepared {
    inputs: Vec<Bytes>,
    want: Fingerprint,
    gen: (Instant, Instant),
    reference: (Instant, Instant),
}

fn prepare(workload: ExecWorkload, tasks: usize, split_bytes: usize, seed: u64) -> Prepared {
    let t0 = Instant::now();
    let inputs = workload.inputs(tasks, split_bytes, seed);
    let t1 = Instant::now();
    let want = expected(workload, &inputs);
    Prepared {
        inputs,
        want,
        gen: (t0, t1),
        reference: (t1, Instant::now()),
    }
}

fn seconds_between((start, end): (Instant, Instant)) -> f64 {
    (end - start).as_secs_f64()
}

enum Verdict {
    Match,
    Mismatch(String),
    Failed(String),
}

struct Trial {
    wall_s: f64,
    cpu_s: f64,
    /// Peak RSS during this trial (inputs and reference included).
    rss_mb: f64,
    /// Counters of a job that completed, matching or not.
    stats: Option<JobStats>,
    verdict: Verdict,
}

/// Runs the job once through the public `run_raw` surface and checks
/// its output. Only the job itself is timed.
fn trial(workload: ExecWorkload, config: &JobConfig, prepared: &Prepared) -> Trial {
    reset_peak_rss();
    let cpu0 = process_cpu_seconds();
    let t0 = Instant::now();
    let result = workload.run_raw(config, prepared.inputs.clone());
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_seconds() - cpu0;
    let rss_mb = peak_rss_mb();
    let (stats, verdict) = match result {
        Err(e) => (None, Verdict::Failed(e.to_string())),
        Ok(out) => {
            let verdict = match observed(workload, &out.partitions) {
                Ok(got) if got == prepared.want => Verdict::Match,
                Ok(got) => Verdict::Mismatch(format!(
                    "output {got:?} differs from reference {:?}",
                    prepared.want
                )),
                Err(e) => Verdict::Mismatch(e),
            };
            (Some(out.stats), verdict)
        }
    };
    Trial {
        wall_s,
        cpu_s,
        rss_mb,
        stats,
        verdict,
    }
}

/// The untimed warm-up job: the first run of a job is 1.3–2× slower
/// (page faults, thread-pool start, socket buffers), which users of a
/// resident runtime do not pay per job.
fn warm_up(workload: ExecWorkload, config: &JobConfig, prepared: &Prepared) -> Result<(), String> {
    match trial(workload, config, prepared).verdict {
        Verdict::Match => Ok(()),
        Verdict::Mismatch(e) | Verdict::Failed(e) => Err(format!("warm-up job: {e}")),
    }
}

/// One value per trial for each end-to-end metric but set-up. A data
/// trial is one job; a service trial is one slice of the stream.
#[derive(Default)]
struct TrialSamples {
    job_s: Vec<f64>,
    cpu_s: Vec<f64>,
    rss_mb: Vec<f64>,
    jobs_per_s: Vec<f64>,
}

/// The six end-to-end metrics from a run's samples.
///
/// Times and rates report the run's **best** trial or set-up, not the
/// median: on
/// a shared host a neighbour inflates a job's time by up to 40% for
/// seconds at a stretch (README, "Why the best trial"), trials fall
/// into a fast and a slow mode, and a median flips between the two
/// from run to run. Interference only ever adds time, so the fastest
/// trial is the steadiest estimate of what the code costs. Memory is
/// one-sided too: the allocator keeps what earlier trials freed, so a
/// trial's peak creeps up with the number of trials before it, and the
/// lowest peak is the one that does not depend on how many there were.
fn end_to_end(setup: Vec<f64>, trials: TrialSamples) -> Vec<Metric> {
    let latencies_ms: Vec<f64> = trials.job_s.iter().map(|s| s * 1e3).collect();
    let values = [
        ("setup_s", lowest(&setup), setup),
        ("job_s", lowest(&trials.job_s), trials.job_s),
        ("cpu_s", lowest(&trials.cpu_s), trials.cpu_s),
        ("peak_rss_mb", lowest(&trials.rss_mb), trials.rss_mb),
        ("job_latency_p50_ms", lowest(&latencies_ms), latencies_ms),
        ("jobs_per_s", highest(&trials.jobs_per_s), trials.jobs_per_s),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(table_name, unit), (name, value, samples))| {
            assert_eq!(table_name, name, "END_TO_END order changed");
            Metric {
                name,
                unit,
                value,
                samples,
            }
        })
        .collect()
}

fn per_layer(layers: &Layers) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: layers.get(name),
            samples: Vec::new(),
        })
        .collect()
}

fn run_data(spec: &DataSpec, args: &RunArgs, scratch: &Scratch) -> Result<Outcome, String> {
    let config = spec.config(scratch.path());
    let mut setup = Vec::new();
    let mut timed_prepare = || {
        let start = Instant::now();
        let prepared = prepare(spec.workload, spec.tasks, spec.split_bytes, args.seed);
        setup.push(start.elapsed().as_secs_f64());
        prepared
    };
    let prepared = timed_prepare();
    warm_up(spec.workload, &config, &prepared)?;

    let mut outcome = Outcome::default();
    let mut samples = TrialSamples::default();
    let mut setups_done = 1;
    let loop_start = Instant::now();
    loop {
        let t = trial(spec.workload, &config, &prepared);
        outcome.note(&t.verdict);
        if !matches!(t.verdict, Verdict::Failed(_)) {
            samples.job_s.push(t.wall_s);
            samples.cpu_s.push(t.cpu_s);
            samples.rss_mb.push(t.rss_mb);
            samples.jobs_per_s.push(ratio(1.0, t.wall_s));
        }
        let elapsed = loop_start.elapsed().as_secs_f64();
        // The next repeat of the set-up is due at an even share of the
        // run; its copy of the input is dropped before the next trial.
        if setups_done < SETUP_REPEATS
            && elapsed >= args.seconds * setups_done as f64 / SETUP_REPEATS as f64
        {
            drop(timed_prepare());
            setups_done += 1;
        }
        let enough = outcome.attempted as usize >= MIN_TRIALS && elapsed >= args.seconds;
        if args.smoke || enough {
            break;
        }
    }
    for _ in setups_done..SETUP_REPEATS {
        drop(timed_prepare());
    }
    outcome.metrics = end_to_end(setup, samples);
    Ok(outcome)
}

/// Alternates untraced and observer-traced runs of the same job and
/// fills in the `runtime.*` metrics: the traced job's phase times and
/// counters, what tracing costs, and how much of the job's CPU the
/// stage budget leaves unexplained.
fn paired_trials(
    workload: ExecWorkload,
    config: &JobConfig,
    prepared: &Prepared,
    keep_going: impl Fn(usize) -> bool,
    spans: &mut Spans,
    layers: &mut Layers,
    outcome: &mut Outcome,
) {
    let root = spans.open("runtime", None);
    let mut plain: Vec<Trial> = Vec::new();
    let mut traced: Vec<Trial> = Vec::new();
    loop {
        let span = spans.open("runtime.job", Some(root));
        plain.push(trial(workload, config, prepared));
        spans.close(span);
        let traced_config = config.clone().with_observer(Observer::new());
        let span = spans.open("runtime.traced_job", Some(root));
        traced.push(trial(workload, &traced_config, prepared));
        spans.close(span);
        for t in [&plain, &traced] {
            outcome.note(&t.last().expect("just pushed").verdict);
        }
        if !keep_going(plain.len()) {
            break;
        }
    }
    spans.close(root);

    let med = |trials: &[Trial], f: fn(&Trial) -> f64| {
        let ok: Vec<f64> = trials.iter().filter(|t| t.stats.is_some()).map(f).collect();
        median(&ok)
    };
    let job_s = med(&plain, |t| t.wall_s);
    let traced_job_s = med(&traced, |t| t.wall_s);
    let cpu_s = med(&plain, |t| t.cpu_s);
    layers.set("runtime.job_s", job_s);
    layers.set("runtime.traced_job_s", traced_job_s);
    layers.set("runtime.trace_overhead_ratio", ratio(traced_job_s, job_s));
    layers.set("runtime.cpu_s", cpu_s);
    let input_mb = prepared.inputs.iter().map(Bytes::len).sum::<usize>() as f64 / 1e6;
    layers.set("runtime.input_mb_s", ratio(input_mb, job_s));
    layers.set(
        "runtime.unattributed_cpu_frac",
        ratio(cpu_s - layers.get("runtime.stage_sum_s"), cpu_s),
    );

    let stats: Vec<JobStats> = traced.iter().filter_map(|t| t.stats).collect();
    let phase = |f: fn(&JobStats) -> u64| {
        let us: Vec<f64> = stats.iter().map(|s| f(s) as f64).collect();
        median(&us) / 1e6
    };
    layers.set("runtime.phase_o_task_s", phase(|s| s.phase_us.o_task_us));
    layers.set("runtime.phase_send_s", phase(|s| s.phase_us.send_us));
    layers.set("runtime.phase_recv_s", phase(|s| s.phase_us.recv_us));
    layers.set("runtime.phase_sort_s", phase(|s| s.phase_us.sort_us));
    layers.set("runtime.phase_spill_s", phase(|s| s.phase_us.spill_us));
    layers.set(
        "runtime.phase_a_compute_s",
        phase(|s| s.phase_us.a_compute_us),
    );
    if let Some(s) = stats.last() {
        layers.set("runtime.records_emitted", s.records_emitted as f64);
        layers.set("runtime.bytes_emitted", s.bytes_emitted as f64);
        layers.set("runtime.frames", s.frames as f64);
        layers.set("runtime.early_flushes", s.early_flushes as f64);
        layers.set("runtime.spills", s.spills as f64);
        layers.set("runtime.spilled_bytes", s.spilled_bytes as f64);
        layers.set("runtime.spilled_wire_bytes", s.spilled_wire_bytes as f64);
        layers.set("runtime.groups", s.groups as f64);
        layers.set("runtime.combiner_records_in", s.combiner_records_in as f64);
        layers.set(
            "runtime.combiner_records_out",
            s.combiner_records_out as f64,
        );
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// The layer probes that do not depend on the workload's input.
fn fixed_probes(prepared: &Prepared, spans: &mut Spans, layers: &mut Layers) {
    let root = spans.record("setup", None, prepared.gen.0, prepared.reference.1);
    spans.record(
        "datagen.generate",
        Some(root),
        prepared.gen.0,
        prepared.gen.1,
    );
    spans.record(
        "reference",
        Some(root),
        prepared.reference.0,
        prepared.reference.1,
    );
    let input_bytes = prepared.inputs.iter().map(Bytes::len).sum::<usize>() as f64;
    layers.set("datagen.input_bytes", input_bytes);
    layers.set(
        "datagen.gen_mb_s",
        ratio(input_bytes / 1e6, seconds_between(prepared.gen)),
    );
    layers.set("datagen.reference_s", seconds_between(prepared.reference));
    let (ops, _) = spans.time("service.admission_loop", None, service::admission_ops_per_s);
    layers.set("service.admission_ops_per_s", ops);
    let (ns, _) = spans.time(
        "service.protocol_loop",
        None,
        service::protocol_roundtrip_ns,
    );
    layers.set("service.protocol_roundtrip_ns", ns);
}

fn trace_data(spec: &DataSpec, args: &RunArgs, scratch: &Scratch) -> Result<Outcome, String> {
    let config = spec.config(scratch.path());
    let mut spans = Spans::new();
    let mut layers = Layers::default();
    let prepared = prepare(spec.workload, spec.tasks, spec.split_bytes, args.seed);
    fixed_probes(&prepared, &mut spans, &mut layers);

    let start = Instant::now();
    stage_budget(
        spec.workload,
        &config,
        &prepared.inputs,
        scratch.path(),
        &mut spans,
        &mut layers,
    )?;
    warm_up(spec.workload, &config, &prepared)?;
    let mut outcome = Outcome::default();
    let keep_going = |pairs: usize| {
        !args.smoke && (pairs < MIN_TRIALS || start.elapsed().as_secs_f64() < args.seconds)
    };
    paired_trials(
        spec.workload,
        &config,
        &prepared,
        keep_going,
        &mut spans,
        &mut layers,
        &mut outcome,
    );
    outcome.metrics = per_layer(&layers);
    outcome.spans = Some(spans);
    outcome.on_path = layers.on_path;
    Ok(outcome)
}

/// The service stream cut into its trials: per full slice, the median
/// latency of the jobs that finished in it, the CPU they cost per job
/// and their rate. A stream shorter than one slice is its own slice.
fn stream_slices(stream: &service::Stream, timings: &[service::JobTiming]) -> TrialSamples {
    let mut slices: Vec<_> = stream.marks.windows(2).map(|w| (w[0], w[1])).collect();
    if slices.is_empty() {
        slices.push((stream.marks[0], stream.end));
    }
    let mut samples = TrialSamples::default();
    for ((from, cpu_from), (to, cpu_to)) in slices {
        let done: Vec<f64> = timings
            .iter()
            .filter(|t| from <= t.done && t.done < to)
            .map(|t| t.latency_ms() / 1e3)
            .collect();
        if done.is_empty() {
            continue;
        }
        let jobs = done.len() as f64;
        samples.job_s.push(median(&done));
        samples.cpu_s.push((cpu_to - cpu_from) / jobs);
        samples.jobs_per_s.push(jobs / (to - from).as_secs_f64());
    }
    // Memory only grows over the stream (finished jobs' threads are
    // kept until drain), so the one meaningful peak is the last.
    samples.rss_mb.push(peak_rss_mb());
    samples
}

/// Both modes of the service workload. The stream is the same with
/// tracing on: the client-side timestamps are taken either way, and the
/// traced run additionally keeps them as spans and drives the data-path
/// layers over one small job's input, where they are expected to be
/// negligible.
fn run_service(args: &RunArgs, scratch: &Scratch) -> Result<Outcome, String> {
    let spec = &SERVICE_SPEC;
    let mut setup = Vec::new();
    let mut mesh_setup_s = 0.0;
    let mut timed_start = || -> Result<(Session, Vec<service::PoolJob>), String> {
        let start = Instant::now();
        let pool = seed_pool(spec, args.seed);
        let mesh_start = Instant::now();
        let session = Session::start()?;
        mesh_setup_s = mesh_start.elapsed().as_secs_f64();
        setup.push(start.elapsed().as_secs_f64());
        Ok((session, pool))
    };
    // Half of the set-up repeats come before the stream and half after
    // it, for the same reason the data workloads spread theirs.
    for _ in 1..SETUP_REPEATS / 2 {
        timed_start()?.0.drain()?;
    }
    let (session, pool) = timed_start()?;
    let seconds = if args.smoke {
        args.seconds.min(1.0)
    } else {
        args.seconds
    };
    let jobs_per_client = (spec.jobs_per_client_second * seconds).ceil().max(1.0) as usize;
    let stream = service::run_stream(&session, spec, &pool, jobs_per_client, scratch.path());
    let summary = session.drain();
    let (stream, summary) = (stream?, summary?);
    for _ in SETUP_REPEATS / 2..SETUP_REPEATS {
        timed_start()?.0.drain()?;
    }

    let mut outcome = Outcome::default();
    let mut timings = Vec::new();
    for client in &stream.clients {
        outcome.attempted += client.attempted;
        outcome.failed += client.failed;
        outcome.mismatched += client.mismatched;
        if outcome.first_error.is_none() {
            outcome.first_error = client.first_error.clone();
        }
        timings.extend(client.timings.iter().copied());
    }
    if !args.trace {
        outcome.metrics = end_to_end(setup, stream_slices(&stream, &timings));
        return Ok(outcome);
    }

    let mut spans = Spans::new();
    let mut layers = Layers::default();
    let root = spans.record("service.stream", None, stream.marks[0].0, stream.end.0);
    for t in &timings {
        let job = spans.record("service.job", Some(root), t.submit, t.done);
        spans.record("service.accept", Some(job), t.submit, t.accepted);
        spans.record("service.run", Some(job), t.accepted, t.done);
    }
    let latencies_ms: Vec<f64> = timings.iter().map(|t| t.latency_ms()).collect();
    let accept_ms: Vec<f64> = timings.iter().map(|t| t.accept_ms()).collect();
    let run_ms: Vec<f64> = timings.iter().map(|t| t.run_ms()).collect();
    let wall_s = (stream.end.0 - stream.marks[0].0).as_secs_f64();
    layers.set("service.latency_p50_ms", median(&latencies_ms));
    layers.set("service.latency_p99_ms", percentile(&latencies_ms, 99.0));
    layers.set("service.accept_ms_p50", median(&accept_ms));
    layers.set("service.run_ms_p50", median(&run_ms));
    layers.set("service.mesh_setup_s", mesh_setup_s);
    layers.set("service.jobs_per_s", ratio(timings.len() as f64, wall_s));
    // Warm-up jobs complete too; the coordinator counts them all.
    layers.set("service.completed", summary.completed as f64);
    layers.set("service.rejected", summary.rejected as f64);

    // One pool job's input through the data-path stages and the
    // in-proc runtime, configured as a resident worker configures it.
    let config = JobConfig::new(RANKS).with_o_parallelism(1);
    let small = prepare(
        ExecWorkload::WordCount,
        spec.tasks,
        spec.split_bytes,
        pool[0].seed,
    );
    fixed_probes(&small, &mut spans, &mut layers);
    stage_budget(
        ExecWorkload::WordCount,
        &config,
        &small.inputs,
        scratch.path(),
        &mut spans,
        &mut layers,
    )?;
    let mut in_proc = Outcome::default();
    let keep_going = |pairs: usize| pairs < 20;
    paired_trials(
        ExecWorkload::WordCount,
        &config,
        &small,
        keep_going,
        &mut spans,
        &mut layers,
        &mut in_proc,
    );
    if let Some(e) = in_proc.first_error {
        return Err(format!("in-proc run of a pool job: {e}"));
    }
    outcome.metrics = per_layer(&layers);
    outcome.spans = Some(spans);
    outcome.on_path = layers.on_path;
    Ok(outcome)
}

/// Runs `args.workload` in the mode `args.trace` selects.
pub fn run_workload(args: &RunArgs) -> Result<Outcome, String> {
    let scratch = Scratch::new()?;
    if args.workload == SERVICE {
        return run_service(args, &scratch);
    }
    let spec = data_spec(&args.workload, args.smoke)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    if args.trace {
        trace_data(&spec, args, &scratch)
    } else {
        run_data(&spec, args, &scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn generated_inputs_repeat_for_one_seed_and_differ_across_seeds() {
        let a = prepare(ExecWorkload::TextSort, 3, 2048, 42);
        let b = prepare(ExecWorkload::TextSort, 3, 2048, 42);
        let c = prepare(ExecWorkload::TextSort, 3, 2048, 43);
        assert_eq!(a.inputs, b.inputs);
        assert_eq!(a.want, b.want);
        assert_ne!(a.inputs, c.inputs);
        assert_ne!(a.want, c.want);
    }

    /// Every data workload at a few KiB: the job's output passes the
    /// independent check, and the traced run sets every stage metric
    /// through a name the table knows (`Layers::set` panics otherwise).
    #[test]
    fn tiny_runs_pass_the_integrity_check_in_both_modes() {
        for name in WORKLOADS.into_iter().filter(|w| *w != SERVICE) {
            let scratch = Scratch::new().unwrap();
            let spec = DataSpec {
                split_bytes: 8 << 10,
                memory_budget: data_spec(name, false)
                    .unwrap()
                    .memory_budget
                    .map(|b| b.min(8 << 10)),
                ..data_spec(name, false).unwrap()
            };
            for trace in [false, true] {
                let args = RunArgs {
                    workload: name.to_string(),
                    seed: 7,
                    seconds: 0.0,
                    trace,
                    smoke: true,
                };
                let outcome = if trace {
                    trace_data(&spec, &args, &scratch)
                } else {
                    run_data(&spec, &args, &scratch)
                }
                .unwrap();
                assert!(outcome.attempted >= 1, "{name}");
                assert_eq!(
                    (outcome.failed, outcome.mismatched),
                    (0, 0),
                    "{name}: {:?}",
                    outcome.first_error
                );
                let want = if trace {
                    PER_LAYER.len()
                } else {
                    END_TO_END.len()
                };
                assert_eq!(outcome.metrics.len(), want, "{name}");
            }
            let dir = scratch.path().to_path_buf();
            drop(scratch);
            assert!(!dir.exists(), "scratch dir is removed on drop");
        }
    }

    #[test]
    fn a_wrong_reference_is_reported_as_a_mismatch() {
        let spec = data_spec("wordcount-inproc", true).unwrap();
        let mut prepared = prepare(spec.workload, 2, 4096, 1);
        prepared.want.digest ^= 1;
        let t = trial(spec.workload, &spec.config(Path::new("unused")), &prepared);
        assert!(matches!(t.verdict, Verdict::Mismatch(_)));
        let mut outcome = Outcome::default();
        outcome.note(&t.verdict);
        assert_eq!(
            (outcome.attempted, outcome.mismatched, outcome.failed),
            (1, 1, 0)
        );
    }
}
