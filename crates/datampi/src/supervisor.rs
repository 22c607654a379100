//! Self-healing job supervision: bounded retries over checkpoint-backed
//! restarts.
//!
//! The paper credits DataMPI's production-worthiness to key-value-pair
//! checkpoint/restart (§2.3) — but a checkpoint is only half of fault
//! tolerance; something has to *drive* the restart. A restart is the
//! same job run again against the same [`CheckpointStore`], and
//! [`supervise_job`] does exactly that under a [`RetryPolicy`]: it runs
//! the job against the caller's store, and on a fault runs it again, so
//! each retry is the store's next attempt and recovers the O tasks
//! earlier attempts completed instead of re-executing them. A job whose faults
//! are transient — an injected
//! [`FaultPlan`](crate::fault::FaultPlan) that stops firing after attempt
//! *k*, say — completes without caller intervention, and its
//! [`JobStats`](crate::runtime::JobStats) reports the recovery
//! telemetry: total `attempts`,
//! `o_tasks_recovered` vs `o_tasks_run`, and `wasted_bytes` (emitted
//! work that no checkpoint banked and that had to be redone).
//!
//! Without a store the supervisor still retries (numbering the attempts
//! itself, so a fault plan still advances), but every failed attempt's
//! output is wasted — exactly Hadoop's re-execution
//! model, which makes the two recovery strategies directly comparable on
//! the same workload (see `dmpi-bench`'s recovery experiment for the
//! simulated, paper-scale version of that comparison).

use std::time::Duration;

use bytes::Bytes;

use dmpi_common::{Error, FaultKind, Result};

use crate::checkpoint::CheckpointStore;
use crate::config::JobConfig;
use crate::observe::{Counter, SpanKind};
use crate::runtime::{run_job_core, JobOutput};
use crate::task::{Collector, GroupedValues};

/// Bounded-retry policy for [`supervise_job`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum job attempts (first run included). Must be at least 1.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles on every further retry.
    pub backoff: Duration,
    /// Upper bound on the (doubling) backoff.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(100),
        }
    }
}

impl RetryPolicy {
    /// A policy with `max_attempts` and the default backoff.
    pub fn new(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts,
            ..Default::default()
        }
    }

    /// Builder: base backoff (doubles per retry).
    pub fn with_backoff(mut self, backoff: Duration) -> Self {
        self.backoff = backoff;
        self
    }

    /// Builder: backoff cap.
    pub fn with_max_backoff(mut self, cap: Duration) -> Self {
        self.max_backoff = cap;
        self
    }

    /// The pause before retry number `retry` (1-based), exponentially
    /// grown from the base and clamped to the cap.
    pub fn backoff_before(&self, retry: u32) -> Duration {
        let doublings = retry.saturating_sub(1).min(16);
        let grown = self.backoff.saturating_mul(1u32 << doublings);
        grown.min(self.max_backoff)
    }

    fn validate(&self) -> Result<()> {
        if self.max_attempts == 0 {
            return Err(Error::Config(
                "retry policy needs at least one attempt".into(),
            ));
        }
        Ok(())
    }
}

/// Runs a byte-split job under supervision: retries faulted attempts up
/// to the policy's budget, each retry restarting from `checkpoint` when
/// the caller passes one. See the module docs for the telemetry the
/// returned [`JobStats`](crate::runtime::JobStats) carries.
///
/// # Examples
/// ```
/// use datampi::checkpoint::CheckpointStore;
/// use datampi::fault::FaultPlan;
/// use datampi::supervisor::{supervise_job, RetryPolicy};
/// use datampi::JobConfig;
/// use dmpi_common::group::{Collector, GroupedValues};
///
/// // Task 1 fails on attempts 0 and 1; the supervisor absorbs both.
/// let config =
///     JobConfig::new(2).with_faults(FaultPlan::new(7).fail_o_task(1, 0).fail_o_task(1, 1));
/// let o = |_t: usize, s: &[u8], out: &mut dyn Collector| out.collect(s, b"1");
/// let a = |g: &GroupedValues, out: &mut dyn Collector| out.collect(&g.key, b"1");
/// let out = supervise_job(
///     &config,
///     &RetryPolicy::new(4),
///     vec!["a".into(), "b".into(), "c".into()],
///     o,
///     a,
///     Some(&CheckpointStore::new()),
/// )
/// .unwrap();
/// assert_eq!(out.stats.attempts, 3);
/// assert!(out.stats.o_tasks_recovered > 0);
/// ```
pub fn supervise_job<O, A>(
    config: &JobConfig,
    policy: &RetryPolicy,
    inputs: Vec<Bytes>,
    o_fn: O,
    a_fn: A,
    checkpoint: Option<&CheckpointStore>,
) -> Result<JobOutput>
where
    O: Fn(usize, &[u8], &mut dyn Collector) + Send + Sync,
    A: Fn(&GroupedValues, &mut dyn Collector) + Send + Sync,
{
    // Fixed width is the elastic loop with the floor at the job's own
    // width and no growth, so a rank death is a plain full-width restart.
    let fixed = ElasticPolicy::default().with_min_ranks(config.ranks);
    supervise(config, policy, &fixed, inputs, o_fn, a_fn, checkpoint).map(|out| out.output)
}

/// Elastic-membership policy for [`supervise_job_elastic`]: how the
/// supervisor reshapes the rank table between attempts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ElasticPolicy {
    /// Floor on the mesh width: the supervisor never shrinks below this
    /// many ranks (a final-width-1 job is always still a valid job, so
    /// the default floor is 1).
    pub min_ranks: usize,
    /// Simulated replacement: on attempt `.0` the mesh grows to `.1`
    /// ranks (bumping the table version), modelling a spare rank joining
    /// the job.
    pub grow_on_attempt: Option<(u32, usize)>,
}

impl Default for ElasticPolicy {
    fn default() -> Self {
        ElasticPolicy {
            min_ranks: 1,
            grow_on_attempt: None,
        }
    }
}

impl ElasticPolicy {
    /// Builder: set the shrink floor.
    pub fn with_min_ranks(mut self, min: usize) -> Self {
        self.min_ranks = min;
        self
    }

    /// Builder: grow the mesh to `ranks` on attempt `attempt`.
    pub fn with_grow_on_attempt(mut self, attempt: u32, ranks: usize) -> Self {
        self.grow_on_attempt = Some((attempt, ranks));
        self
    }

    fn validate(&self) -> Result<()> {
        if self.min_ranks == 0 {
            return Err(Error::Config(
                "elastic floor must be at least 1 rank".into(),
            ));
        }
        Ok(())
    }
}

/// What an elastic supervision run produced, beyond the job output: the
/// final shape of the mesh and how it got there.
#[derive(Debug)]
pub struct ElasticOutput {
    /// The successful attempt's output.
    pub output: JobOutput,
    /// Width of the mesh on the successful attempt.
    pub final_ranks: usize,
    /// Rank-table version after the last membership change (0 = the
    /// original table survived untouched).
    pub table_version: u64,
    /// Width reductions taken (one per absorbed rank death).
    pub shrinks: u32,
    /// Width increases taken (replacement registrations honoured).
    pub grows: u32,
}

/// Supervision with **elastic membership**: like [`supervise_job`], but
/// the mesh width may change between attempts instead of every restart
/// replaying the original fixed-width job.
///
/// * **Shrink on rank death** — when an attempt fails with a
///   [`FaultKind::RankDeath`] *and* the run has a checkpoint store (so the
///   completed tasks' key-value pairs cover what the lost rank would
///   have re-emitted), the next attempt runs one rank narrower: graceful
///   degradation instead of waiting for a replacement. The checkpoint
///   store re-buckets recovered frames to the new width
///   ([`CheckpointStore::recover_frames_for`]), so the narrow attempt's
///   output is byte-identical to a clean run at that width. Without a
///   checkpoint the supervisor retries at full width (a plain restart) —
///   there is nothing banked to degrade gracefully *from*.
/// * **Grow on replacement** — [`ElasticPolicy::grow_on_attempt`] models
///   a spare rank joining between attempts: the chosen attempt runs
///   wider, again recovering re-bucketed checkpoints.
///
/// Every membership change bumps `table_version`, so each attempt's
/// width is named by the version it ran under. (`dmpirun --elastic` is
/// the process-level cousin: whole one-job sessions, each one rank
/// narrower, with no checkpoint carried across.)
pub fn supervise_job_elastic<O, A>(
    config: &JobConfig,
    policy: &RetryPolicy,
    elastic: &ElasticPolicy,
    inputs: Vec<Bytes>,
    o_fn: O,
    a_fn: A,
    checkpoint: Option<&CheckpointStore>,
) -> Result<ElasticOutput>
where
    O: Fn(usize, &[u8], &mut dyn Collector) + Send + Sync,
    A: Fn(&GroupedValues, &mut dyn Collector) + Send + Sync,
{
    elastic.validate()?;
    supervise(config, policy, elastic, inputs, o_fn, a_fn, checkpoint)
}

/// The retry loop: runs the job, and on a fault runs it again as the
/// next attempt, at the width `elastic` allows. One store shared across
/// attempts is the entire restart mechanism: attempt N+1 recovers what
/// attempts 0..=N banked.
fn supervise<O, A>(
    config: &JobConfig,
    policy: &RetryPolicy,
    elastic: &ElasticPolicy,
    inputs: Vec<Bytes>,
    o_fn: O,
    a_fn: A,
    store: Option<&CheckpointStore>,
) -> Result<ElasticOutput>
where
    O: Fn(usize, &[u8], &mut dyn Collector) + Send + Sync,
    A: Fn(&GroupedValues, &mut dyn Collector) + Send + Sync,
{
    policy.validate()?;
    let o_fn = move |task: usize, split: &Bytes, out: &mut dyn Collector| o_fn(task, split, out);
    let mut ranks = config.ranks;
    let mut table_version = 0u64;
    let mut shrinks = 0u32;
    let mut grows = 0u32;
    let mut wasted = 0u64;
    let mut last_err: Option<Error> = None;

    for retry in 0..policy.max_attempts {
        if retry > 0 {
            let pause = policy.backoff_before(retry);
            if !pause.is_zero() {
                std::thread::sleep(pause);
            }
        }
        // Without a store nothing else numbers the attempts, but a fault
        // plan must still see them advance.
        let attempt = store.map_or(retry, CheckpointStore::begin_attempt);
        // A replacement registered: widen the mesh under a new table
        // version before launching this attempt.
        if let Some((on, to)) = elastic.grow_on_attempt {
            if on == attempt && to > ranks {
                ranks = to;
                table_version += 1;
                grows += 1;
            }
        }
        let attempt_config = config.clone().with_ranks(ranks);
        match run_job_core(&attempt_config, &inputs, &o_fn, &a_fn, store, attempt) {
            Ok(mut out) => {
                out.stats.attempts = retry + 1;
                out.stats.wasted_bytes += wasted;
                return Ok(ElasticOutput {
                    output: out,
                    final_ranks: ranks,
                    table_version,
                    shrinks,
                    grows,
                });
            }
            Err(boxed) => {
                let (err, partial) = *boxed;
                // Partial flushes of the failing task are always waste;
                // completed tasks' bytes are waste only when no checkpoint
                // banked them for recovery.
                wasted += partial.wasted_bytes;
                if store.is_none() {
                    wasted += partial.bytes_emitted;
                }
                // Shrink the active width when a rank died and the
                // checkpoint covers the lost partitions' data.
                let rank_died = err
                    .fault_cause()
                    .is_some_and(|c| c.kind == FaultKind::RankDeath);
                let shrunk = rank_died && store.is_some() && ranks > elastic.min_ranks;
                if shrunk {
                    ranks -= 1;
                    table_version += 1;
                    shrinks += 1;
                }
                // Recovery decisions get their own trace events: without
                // them a merged trace shows attempts failing and restarting
                // for no visible reason.
                if let Some(obs) = config.observer.as_ref() {
                    if retry + 1 < policy.max_attempts {
                        obs.registry().add(Counter::Retries, 1);
                        let jt = obs.job_tracer(attempt);
                        jt.instant(
                            SpanKind::Retry,
                            vec![
                                ("cause", err.to_string()),
                                ("next_attempt", (attempt + 1).to_string()),
                                ("next_ranks", ranks.to_string()),
                                ("shrunk", shrunk.to_string()),
                            ],
                        );
                        obs.absorb(&jt);
                    }
                }
                last_err = Some(err);
            }
        }
    }
    Err(last_err.unwrap_or_else(|| Error::fault_msg("retry budget exhausted")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use dmpi_common::ser::Writable;
    use dmpi_common::FaultKind;

    fn wc_o(_t: usize, split: &[u8], out: &mut dyn Collector) {
        for w in split.split(|&b| b == b' ').filter(|w| !w.is_empty()) {
            out.collect(w, &1u64.to_bytes());
        }
    }

    fn wc_a(g: &GroupedValues, out: &mut dyn Collector) {
        let total: u64 = g.values.iter().map(|v| u64::from_bytes(v).unwrap()).sum();
        out.collect(&g.key, &total.to_bytes());
    }

    fn inputs(n: usize) -> Vec<Bytes> {
        (0..n)
            .map(|i| Bytes::from(format!("w{i} shared")))
            .collect()
    }

    fn counts(out: JobOutput) -> std::collections::BTreeMap<String, u64> {
        out.into_single_batch()
            .into_records()
            .into_iter()
            .map(|r| (r.key_utf8(), u64::from_bytes(&r.value).unwrap()))
            .collect()
    }

    #[test]
    fn transient_fault_job_completes_with_recovery_counters() {
        // The ISSUE's acceptance scenario: O task 2 fails on attempts 0
        // and 1; the supervisor absorbs both and reports the telemetry.
        let config =
            JobConfig::new(1).with_faults(FaultPlan::new(3).fail_o_task(2, 0).fail_o_task(2, 1));
        let policy = RetryPolicy::new(4).with_backoff(Duration::ZERO);
        let cp = CheckpointStore::new();
        let out = supervise_job(&config, &policy, inputs(5), wc_o, wc_a, Some(&cp)).unwrap();
        assert_eq!(out.stats.attempts, 3);
        assert!(
            out.stats.o_tasks_recovered > 0,
            "checkpointed tasks replayed"
        );
        assert_eq!(out.stats.wasted_bytes, 0, "checkpoint banked everything");
        let clean = crate::run_job(&JobConfig::new(1), inputs(5), wc_o, wc_a, None).unwrap();
        assert_eq!(counts(out), counts(clean));
    }

    #[test]
    fn corrupt_frame_triggers_retry_and_correct_output() {
        let config = JobConfig::new(2).with_faults(FaultPlan::new(11).corrupt_frame(1, 0));
        let policy = RetryPolicy::new(3).with_backoff(Duration::ZERO);
        let cp = CheckpointStore::new();
        let out = supervise_job(&config, &policy, inputs(4), wc_o, wc_a, Some(&cp)).unwrap();
        assert_eq!(out.stats.attempts, 2, "one corrupt attempt, one clean");
        let clean = crate::run_job(&JobConfig::new(2), inputs(4), wc_o, wc_a, None).unwrap();
        assert_eq!(counts(out), counts(clean));
    }

    #[test]
    fn rank_death_is_survived() {
        let config = JobConfig::new(3).with_faults(FaultPlan::new(0).rank_panic(2, 0));
        let policy = RetryPolicy::new(3).with_backoff(Duration::ZERO);
        let cp = CheckpointStore::new();
        let out = supervise_job(&config, &policy, inputs(6), wc_o, wc_a, Some(&cp)).unwrap();
        assert_eq!(out.stats.attempts, 2);
        let clean = crate::run_job(&JobConfig::new(3), inputs(6), wc_o, wc_a, None).unwrap();
        assert_eq!(counts(out), counts(clean));
    }

    #[test]
    fn uncheckpointed_retries_count_wasted_bytes() {
        // Single rank: tasks 0..2 complete (and emit) before task 3
        // fails. Without a checkpoint those bytes are all re-emitted.
        let config = JobConfig::new(1).with_faults(FaultPlan::new(0).fail_o_task(3, 0));
        let policy = RetryPolicy::new(2).with_backoff(Duration::ZERO);
        let out = supervise_job(&config, &policy, inputs(4), wc_o, wc_a, None).unwrap();
        assert_eq!(out.stats.attempts, 2);
        assert_eq!(out.stats.o_tasks_recovered, 0);
        assert!(out.stats.wasted_bytes > 0, "re-executed work is waste");
    }

    #[test]
    fn permanent_fault_exhausts_the_budget() {
        let plan = (0..3).fold(FaultPlan::new(0), |p, a| p.fail_o_task(0, a));
        let config = JobConfig::new(1).with_faults(plan);
        let policy = RetryPolicy::new(3).with_backoff(Duration::ZERO);
        let cp = CheckpointStore::new();
        let err = supervise_job(&config, &policy, inputs(2), wc_o, wc_a, Some(&cp)).unwrap_err();
        let cause = err.fault_cause().expect("structured cause");
        assert_eq!(cause.kind, FaultKind::InjectedError);
        assert_eq!(cause.attempt, Some(2), "the last attempt's fault");
    }

    #[test]
    fn zero_attempt_policy_is_a_config_error() {
        let err = supervise_job(
            &JobConfig::new(1),
            &RetryPolicy::new(0),
            inputs(1),
            wc_o,
            wc_a,
            None,
        )
        .unwrap_err();
        assert!(matches!(err, Error::Config(_)));
    }

    #[test]
    fn backoff_doubles_and_clamps() {
        let p = RetryPolicy::new(5)
            .with_backoff(Duration::from_millis(10))
            .with_max_backoff(Duration::from_millis(35));
        assert_eq!(p.backoff_before(1), Duration::from_millis(10));
        assert_eq!(p.backoff_before(2), Duration::from_millis(20));
        assert_eq!(p.backoff_before(3), Duration::from_millis(35), "clamped");
    }

    #[test]
    fn rank_death_shrinks_the_mesh_and_recovers_checkpoints() {
        // Attempt 0 (width 3) banks most tasks before O task 10 fails;
        // attempt 1 loses rank 2 → the supervisor degrades to width 2
        // instead of restarting; attempt 2 recovers the width-3
        // checkpoints re-bucketed for the narrower mesh and finishes.
        let config =
            JobConfig::new(3).with_faults(FaultPlan::new(7).fail_o_task(10, 0).rank_panic(2, 1));
        let policy = RetryPolicy::new(4).with_backoff(Duration::ZERO);
        let elastic = ElasticPolicy::default();
        let cp = CheckpointStore::new();
        let out = supervise_job_elastic(
            &config,
            &policy,
            &elastic,
            inputs(12),
            wc_o,
            wc_a,
            Some(&cp),
        )
        .unwrap();
        assert_eq!(out.final_ranks, 2, "one rank absorbed");
        assert_eq!(out.shrinks, 1);
        assert_eq!(out.grows, 0);
        assert_eq!(out.table_version, 1, "one membership change");
        assert_eq!(out.output.stats.attempts, 3);
        assert!(
            out.output.stats.o_tasks_recovered > 0,
            "shrink replayed checkpoints instead of re-running everything"
        );
        // Byte-identical per partition to a clean run at the final width:
        // width-portable recovery re-buckets, content-sort does the rest.
        let clean = crate::run_job(&JobConfig::new(2), inputs(12), wc_o, wc_a, None).unwrap();
        for (pa, pb) in out.output.partitions.iter().zip(&clean.partitions) {
            assert_eq!(pa.records(), pb.records());
        }
    }

    #[test]
    fn replacement_registration_grows_the_mesh() {
        let config = JobConfig::new(2).with_faults(FaultPlan::new(5).fail_o_task(5, 0));
        let policy = RetryPolicy::new(3).with_backoff(Duration::ZERO);
        let elastic = ElasticPolicy::default().with_grow_on_attempt(1, 4);
        let cp = CheckpointStore::new();
        let out =
            supervise_job_elastic(&config, &policy, &elastic, inputs(8), wc_o, wc_a, Some(&cp))
                .unwrap();
        assert_eq!(out.final_ranks, 4, "replacement widened the mesh");
        assert_eq!(out.grows, 1);
        assert_eq!(out.shrinks, 0);
        assert_eq!(out.table_version, 1);
        let clean = crate::run_job(&JobConfig::new(4), inputs(8), wc_o, wc_a, None).unwrap();
        for (pa, pb) in out.output.partitions.iter().zip(&clean.partitions) {
            assert_eq!(pa.records(), pb.records());
        }
    }

    #[test]
    fn shrink_respects_the_width_floor() {
        let config = JobConfig::new(2).with_faults(FaultPlan::new(0).rank_panic(1, 0));
        let policy = RetryPolicy::new(3).with_backoff(Duration::ZERO);
        let elastic = ElasticPolicy::default().with_min_ranks(2);
        let cp = CheckpointStore::new();
        let out =
            supervise_job_elastic(&config, &policy, &elastic, inputs(4), wc_o, wc_a, Some(&cp))
                .unwrap();
        assert_eq!(out.final_ranks, 2, "floor held: plain full-width retry");
        assert_eq!(out.shrinks, 0);
        assert_eq!(out.table_version, 0);
    }

    #[test]
    fn without_checkpoints_rank_death_restarts_at_full_width() {
        // Nothing banked covers the lost partitions, so graceful
        // degradation is off the table: retry at the original width.
        // The death fires in rank 1's A phase — after every O task has
        // emitted — so the waste is exactly one clean run's emissions.
        let config = JobConfig::new(2).with_faults(FaultPlan::new(0).merge_panic(1, 0, 1));
        let policy = RetryPolicy::new(3).with_backoff(Duration::ZERO);
        let elastic = ElasticPolicy::default();
        let out =
            supervise_job_elastic(&config, &policy, &elastic, inputs(4), wc_o, wc_a, None).unwrap();
        assert_eq!(out.final_ranks, 2);
        assert_eq!(out.shrinks, 0);
        assert_eq!(out.output.stats.attempts, 2);
        let clean = crate::run_job(&JobConfig::new(2), inputs(4), wc_o, wc_a, None).unwrap();
        assert_eq!(
            out.output.stats.wasted_bytes, clean.stats.bytes_emitted,
            "restart re-emits everything"
        );
    }

    #[test]
    fn fixed_width_is_the_elastic_loop_with_the_floor_at_the_job_width() {
        // The same seeded plan through both front ends must give the same
        // output bytes, attempts and waste. Each plan ends in a RankDeath,
        // which the floor must turn into a plain full-width restart.
        let same = |config: JobConfig, checkpointed: bool, attempts: u32| {
            let policy = RetryPolicy::new(5).with_backoff(Duration::ZERO);
            let store = || checkpointed.then(CheckpointStore::new);
            let fixed =
                supervise_job(&config, &policy, inputs(6), wc_o, wc_a, store().as_ref()).unwrap();
            let floor = ElasticPolicy::default().with_min_ranks(config.ranks);
            let (o, a) = (wc_o, wc_a);
            let elastic =
                supervise_job_elastic(&config, &policy, &floor, inputs(6), o, a, store().as_ref())
                    .unwrap();
            assert_eq!(
                (elastic.final_ranks, elastic.shrinks, elastic.grows),
                (2, 0, 0)
            );
            assert_eq!(elastic.table_version, 0);
            assert_eq!(fixed.stats.attempts, attempts);
            assert_eq!(elastic.output.stats.attempts, attempts);
            assert_eq!(fixed.stats.wasted_bytes, elastic.output.stats.wasted_bytes);
            for (pa, pb) in fixed.partitions.iter().zip(&elastic.output.partitions) {
                assert_eq!(pa.records(), pb.records());
            }
            fixed.stats.wasted_bytes
        };
        // Checkpointed: O-task errors, then a death the elastic loop
        // would shrink on were the floor lower. Everything that completed
        // was banked, however far the other rank got: no waste.
        let plan = FaultPlan::new(9)
            .fail_o_task(4, 0)
            .fail_o_task(4, 1)
            .merge_panic(1, 2, 1);
        assert_eq!(same(JobConfig::new(2).with_faults(plan), true, 4), 0);
        // Not checkpointed: both deaths fire in an A phase, after every O
        // task has emitted, so each failed attempt wastes one clean run.
        let plan = FaultPlan::new(9).merge_panic(1, 0, 1).merge_panic(0, 1, 1);
        let clean = crate::run_job(&JobConfig::new(2), inputs(6), wc_o, wc_a, None).unwrap();
        assert_eq!(
            same(JobConfig::new(2).with_faults(plan), false, 3),
            2 * clean.stats.bytes_emitted
        );
    }

    #[test]
    fn zero_rank_floor_is_a_config_error() {
        let err = supervise_job_elastic(
            &JobConfig::new(1),
            &RetryPolicy::new(1),
            &ElasticPolicy::default().with_min_ranks(0),
            inputs(1),
            wc_o,
            wc_a,
            None,
        )
        .unwrap_err();
        assert!(matches!(err, Error::Config(_)));
    }
}
