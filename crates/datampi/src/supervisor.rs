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

use dmpi_common::{Error, Result};

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
/// to the policy's budget, each retry restarting from `store` when the
/// caller passes one. One store shared across attempts is the entire
/// restart mechanism: attempt N+1 recovers what attempts 0..=N banked.
/// A store first used at another width fails at once with
/// [`Error::Config`], without a retry. See the module docs for the
/// telemetry the returned [`JobStats`](crate::runtime::JobStats) carries.
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
    store: Option<&CheckpointStore>,
) -> Result<JobOutput>
where
    O: Fn(usize, &[u8], &mut dyn Collector) + Send + Sync,
    A: Fn(&GroupedValues, &mut dyn Collector) + Send + Sync,
{
    policy.validate()?;
    let o_fn = |t: usize, out: &mut dyn Collector| o_fn(t, &inputs[t], out);
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
        // plan must still see them advance. A store pinned to another
        // width is refused here, and no retry can change that.
        let attempt = store.map_or(Ok(retry), |s| s.begin_attempt(config.ranks))?;
        match run_job_core(config, inputs.len(), &o_fn, &a_fn, store, attempt) {
            Ok(mut out) => {
                out.stats.attempts = retry + 1;
                out.stats.wasted_bytes += wasted;
                return Ok(out);
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
    fn without_checkpoints_rank_death_restarts_at_full_width() {
        // Nothing banked covers the lost partitions: retry the whole job.
        // The death fires in rank 1's A phase — after every O task has
        // emitted — so the waste is exactly one clean run's emissions.
        let config = JobConfig::new(2).with_faults(FaultPlan::new(0).merge_panic(1, 0, 1));
        let policy = RetryPolicy::new(3).with_backoff(Duration::ZERO);
        let out = supervise_job(&config, &policy, inputs(4), wc_o, wc_a, None).unwrap();
        assert_eq!(out.stats.attempts, 2);
        let clean = crate::run_job(&JobConfig::new(2), inputs(4), wc_o, wc_a, None).unwrap();
        assert_eq!(
            out.stats.wasted_bytes, clean.stats.bytes_emitted,
            "restart re-emits everything"
        );
        assert_eq!(counts(out), counts(clean));
    }

    #[test]
    fn seeded_plans_ending_in_a_rank_death_recover_byte_identically() {
        let clean = crate::run_job(&JobConfig::new(2), inputs(6), wc_o, wc_a, None).unwrap();
        let run = |plan: FaultPlan, store: Option<&CheckpointStore>, attempts: u32| {
            let config = JobConfig::new(2).with_faults(plan);
            let policy = RetryPolicy::new(5).with_backoff(Duration::ZERO);
            let out = supervise_job(&config, &policy, inputs(6), wc_o, wc_a, store).unwrap();
            assert_eq!(out.stats.attempts, attempts);
            for (pa, pb) in out.partitions.iter().zip(&clean.partitions) {
                assert_eq!(pa.records(), pb.records());
            }
            out.stats.wasted_bytes
        };
        // Checkpointed: O-task errors, then a death. Everything that
        // completed was banked, however far the other rank got: no waste.
        let plan = FaultPlan::new(9)
            .fail_o_task(4, 0)
            .fail_o_task(4, 1)
            .merge_panic(1, 2, 1);
        assert_eq!(run(plan, Some(&CheckpointStore::new()), 4), 0);
        // Not checkpointed: both deaths fire in an A phase, after every O
        // task has emitted, so each failed attempt wastes one clean run.
        let plan = FaultPlan::new(9).merge_panic(1, 0, 1).merge_panic(0, 1, 1);
        assert_eq!(run(plan, None, 3), 2 * clean.stats.bytes_emitted);
    }

    #[test]
    fn a_store_pinned_to_another_width_fails_without_a_retry() {
        // Width-2 frames replayed into a width-3 mesh would land in the
        // wrong partitions without any error, so the run is refused.
        let cp = CheckpointStore::new();
        crate::run_job(&JobConfig::new(2), inputs(3), wc_o, wc_a, Some(&cp)).unwrap();
        let observer = crate::Observer::new();
        let config = JobConfig::new(3).with_observer(observer.clone());
        let policy = RetryPolicy::new(3).with_backoff(Duration::ZERO);
        let err = supervise_job(&config, &policy, inputs(3), wc_o, wc_a, Some(&cp)).unwrap_err();
        assert!(matches!(err, Error::Config(_)), "{err}");
        assert_eq!(observer.registry().snapshot()[Counter::Retries], 0);
        assert_eq!(cp.begin_attempt(2).unwrap(), 1, "no attempt was begun");
    }
}
