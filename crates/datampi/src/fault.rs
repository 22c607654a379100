//! Deterministic fault injection for the executing runtime.
//!
//! A [`FaultPlan`] is a *seeded schedule* of faults for one job: every
//! event names its target (an O task or a rank) and the job attempt on
//! which it fires, so a plan replays identically run after run — the
//! property the self-healing supervisor tests and the byte-identical
//! output property test depend on. Four fault kinds are supported:
//!
//! * **O-task errors** — the task returns an injected
//!   [`Error::Fault`](dmpi_common::Error::Fault) before running user code
//!   (the original `FaultSpec` behaviour);
//! * **rank panics** — a whole worker rank dies at the start of its O
//!   phase (it still tears its streams down cleanly so peers do not
//!   deadlock, exactly like a real process whose connections are closed
//!   by the OS);
//! * **mid-merge deaths** — a rank dies after emitting a set number of A
//!   groups; the restart replays its banked O-task frames and re-merges;
//! * **frame corruption** — one wire frame of the task gets a byte
//!   flipped *after* its CRC-32C is computed, so the receiving A partition
//!   detects the mismatch and fails the attempt rather than silently
//!   producing wrong output.
//!
//! The seed drives the *details* the events leave open (which byte of
//! which frame gets flipped, and with what XOR mask) through a splitmix64
//! hash, so two plans with the same seed and events are byte-for-byte
//! identical in effect.

/// One scheduled fault in a [`FaultPlan`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// O task `task` fails with an injected error on attempt `on_attempt`.
    OTaskError {
        /// Target O task (split index).
        task: usize,
        /// 0-based job attempt on which the error fires.
        on_attempt: u32,
    },
    /// Rank `rank` dies at the start of its O phase on attempt
    /// `on_attempt`.
    RankPanic {
        /// Target worker rank.
        rank: usize,
        /// 0-based job attempt on which the rank dies.
        on_attempt: u32,
    },
    /// The first wire frame flushed by O task `task` has one byte flipped
    /// on attempt `on_attempt` (checkpointed copies stay clean — the
    /// corruption models the network, not the stable store).
    CorruptFrame {
        /// Target O task (split index).
        task: usize,
        /// 0-based job attempt on which the corruption applies.
        on_attempt: u32,
    },
    /// Rank `rank` dies during its A-phase merge on attempt `on_attempt`,
    /// after emitting `after_groups` groups.
    MergePanic {
        /// Target worker rank.
        rank: usize,
        /// 0-based job attempt on which the rank dies mid-merge.
        on_attempt: u32,
        /// Number of groups the rank emits before dying.
        after_groups: u64,
    },
}

impl FaultEvent {
    /// The attempt on which this event fires.
    pub fn on_attempt(&self) -> u32 {
        match *self {
            FaultEvent::OTaskError { on_attempt, .. }
            | FaultEvent::RankPanic { on_attempt, .. }
            | FaultEvent::CorruptFrame { on_attempt, .. }
            | FaultEvent::MergePanic { on_attempt, .. } => on_attempt,
        }
    }
}

/// A deterministic byte flip derived from a plan's seed: XOR `mask` into
/// the byte at `offset_seed % payload_len`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Corruption {
    /// Reduced modulo the payload length to pick the victim byte.
    pub offset_seed: u64,
    /// Non-zero XOR mask, so the flip always changes the byte.
    pub mask: u8,
}

impl Corruption {
    /// Flips the chosen byte in `payload`; returns the flipped index, or
    /// `None` for an empty payload.
    pub fn apply(&self, payload: &mut [u8]) -> Option<usize> {
        if payload.is_empty() {
            return None;
        }
        let idx = (self.offset_seed % payload.len() as u64) as usize;
        payload[idx] ^= self.mask;
        Some(idx)
    }
}

/// A seeded, deterministic schedule of faults for one job.
///
/// # Examples
/// ```
/// use datampi::FaultPlan;
///
/// // Task 2 fails on attempts 0 and 1, and one of task 0's frames is
/// // corrupted on attempt 0 — a supervisor with 3+ attempts survives.
/// let plan = FaultPlan::new(42)
///     .fail_o_task(2, 0)
///     .fail_o_task(2, 1)
///     .corrupt_frame(0, 0);
/// assert!(plan.o_task_error(2, 1));
/// assert!(!plan.o_task_error(2, 2));
/// assert_eq!(plan.last_faulty_attempt(), Some(1));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// Builder: schedule an O-task error.
    pub fn fail_o_task(mut self, task: usize, on_attempt: u32) -> Self {
        self.events
            .push(FaultEvent::OTaskError { task, on_attempt });
        self
    }

    /// Builder: schedule a rank death.
    pub fn rank_panic(mut self, rank: usize, on_attempt: u32) -> Self {
        self.events.push(FaultEvent::RankPanic { rank, on_attempt });
        self
    }

    /// Builder: schedule a frame corruption.
    pub fn corrupt_frame(mut self, task: usize, on_attempt: u32) -> Self {
        self.events
            .push(FaultEvent::CorruptFrame { task, on_attempt });
        self
    }

    /// Builder: schedule a mid-merge rank death after `after_groups`
    /// emitted groups.
    pub fn merge_panic(mut self, rank: usize, on_attempt: u32, after_groups: u64) -> Self {
        self.events.push(FaultEvent::MergePanic {
            rank,
            on_attempt,
            after_groups,
        });
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled events.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True if no fault is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The highest attempt any event fires on: a supervisor allowed to
    /// retry past it is guaranteed a fault-free attempt. `None` for an
    /// empty plan.
    pub fn last_faulty_attempt(&self) -> Option<u32> {
        self.events.iter().map(FaultEvent::on_attempt).max()
    }

    /// Should O task `task` fail with an injected error on `attempt`?
    pub fn o_task_error(&self, task: usize, attempt: u32) -> bool {
        self.events.iter().any(|e| {
            matches!(e, FaultEvent::OTaskError { task: t, on_attempt }
                if *t == task && *on_attempt == attempt)
        })
    }

    /// Should rank `rank` die on `attempt`?
    pub fn rank_panics(&self, rank: usize, attempt: u32) -> bool {
        self.events.iter().any(|e| {
            matches!(e, FaultEvent::RankPanic { rank: r, on_attempt }
                if *r == rank && *on_attempt == attempt)
        })
    }

    /// If rank `rank` is scheduled to die mid-merge on `attempt`, the
    /// number of groups it emits first (the earliest matching event wins).
    pub fn merge_panic_after(&self, rank: usize, attempt: u32) -> Option<u64> {
        self.events.iter().find_map(|e| match e {
            FaultEvent::MergePanic {
                rank: r,
                on_attempt,
                after_groups,
            } if *r == rank && *on_attempt == attempt => Some(*after_groups),
            _ => None,
        })
    }

    /// The deterministic corruption to apply to O task `task`'s first
    /// flushed frame on `attempt`, if scheduled.
    pub fn corruption(&self, task: usize, attempt: u32) -> Option<Corruption> {
        let scheduled = self.events.iter().any(|e| {
            matches!(e, FaultEvent::CorruptFrame { task: t, on_attempt }
                if *t == task && *on_attempt == attempt)
        });
        scheduled.then(|| {
            let h = splitmix64(
                self.seed
                    .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(task as u64 + 1))
                    .wrapping_add(attempt as u64),
            );
            Corruption {
                offset_seed: h,
                // Never zero: a zero mask would be a no-op "corruption".
                mask: ((h >> 17) as u8) | 1,
            }
        })
    }
}

/// The splitmix64 finalizer — a tiny, dependency-free deterministic hash.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queries_match_scheduled_events() {
        let plan = FaultPlan::new(7)
            .fail_o_task(3, 1)
            .rank_panic(0, 0)
            .corrupt_frame(5, 2);
        assert!(plan.o_task_error(3, 1));
        assert!(!plan.o_task_error(3, 0));
        assert!(!plan.o_task_error(2, 1));
        assert!(plan.rank_panics(0, 0));
        assert!(!plan.rank_panics(1, 0));
        assert!(plan.corruption(5, 2).is_some());
        assert!(plan.corruption(5, 1).is_none());
        assert_eq!(plan.last_faulty_attempt(), Some(2));
        assert_eq!(plan.events().len(), 3);
        assert!(!plan.is_empty());
    }

    #[test]
    fn corruption_is_deterministic_per_seed_and_nonzero() {
        let a = FaultPlan::new(1).corrupt_frame(0, 0);
        let b = FaultPlan::new(1).corrupt_frame(0, 0);
        let c = FaultPlan::new(2).corrupt_frame(0, 0);
        assert_eq!(a.corruption(0, 0), b.corruption(0, 0));
        assert_ne!(a.corruption(0, 0), c.corruption(0, 0));
        let corr = a.corruption(0, 0).unwrap();
        assert_ne!(corr.mask, 0);
        let mut payload = vec![0u8; 16];
        let idx = corr.apply(&mut payload).unwrap();
        assert!(idx < 16);
        assert_ne!(payload[idx], 0, "the flip must change the byte");
        assert_eq!(corr.apply(&mut []), None);
    }

    #[test]
    fn merge_panic_targets_rank_attempt_and_reports_group_budget() {
        let plan = FaultPlan::new(0).merge_panic(1, 0, 5).merge_panic(1, 1, 9);
        assert_eq!(plan.merge_panic_after(1, 0), Some(5));
        assert_eq!(plan.merge_panic_after(1, 1), Some(9));
        assert_eq!(plan.merge_panic_after(1, 2), None);
        assert_eq!(plan.merge_panic_after(0, 0), None);
        assert_eq!(plan.last_faulty_attempt(), Some(1));
    }

    #[test]
    fn empty_plan_schedules_nothing() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        assert_eq!(plan.last_faulty_attempt(), None);
        assert!(!plan.o_task_error(0, 0));
    }
}
