//! Straggler defense: progress tracking, speculative duplicate attempts,
//! and O-task work stealing.
//!
//! The paper's measurements assume a healthy cluster; this module is the
//! runtime's answer to the slow-node reality. Three cooperating pieces:
//!
//! * a [`ProgressBoard`] every rank reports per-task heartbeats into
//!   (start / finish / abort). It doubles as the **first-writer-wins
//!   commit ledger**: exactly one attempt of each O task may commit its
//!   output, so duplicates can never double-emit;
//! * a deterministic **outlier detector** ([`ProgressBoard::claim_speculation`]):
//!   once enough tasks have completed to establish a median duration, an
//!   inflight task lagging past `max(slow_factor × median, min_lag)` is
//!   eligible for one speculative duplicate. Ties are broken by a seeded
//!   splitmix64 hash, so the same run claims the same victims;
//! * [`TaskQueues`] — the split dispenser. `Dynamic` is the classic
//!   shared deque; `Static` pins task *t* to rank `t % ranks` (the exact
//!   assignment `dmpirun` workers use), and with `work_stealing` enabled
//!   an idle rank steals not-yet-started splits from the *back* of other
//!   ranks' queues in a seeded order. Because every split is derived from
//!   `(seed, task)` alone, stealing moves no data and the A-side
//!   content-sorted output stays byte-identical to the static schedule.
//!
//! Commit rules (DESIGN.md §7): an attempt runs the user's
//! O function into a capture buffer *without* touching the interconnect,
//! then calls [`ProgressBoard::try_commit`]. The single winner replays
//! its capture through a real [`crate::buffer::KvBuffer`] (producing
//! frames byte-identical to direct emission); every loser charges its
//! capture length to `wasted_bytes` and ships nothing.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dmpi_common::{Error, Result};
use parking_lot::Mutex;

/// Knobs of the speculative-execution layer. Disabled by default — the
/// board, capture indirection, and polling only exist when `enabled`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpeculationConfig {
    /// Master switch. When off, the runtime keeps its direct-emission
    /// hot path and none of the other fields matter.
    pub enabled: bool,
    /// An inflight task is an outlier once its elapsed time exceeds
    /// `slow_factor × median(completed durations)`.
    pub slow_factor: f64,
    /// Floor on the outlier threshold: tasks are never speculated before
    /// lagging at least this long, however fast the median is.
    pub min_lag: Duration,
    /// Completed-task observations required before the median is trusted.
    pub min_completed: usize,
    /// How long an idle rank sleeps between speculation scans, and the
    /// slice length for abortable injected delays.
    pub poll: Duration,
    /// Seed for deterministic victim tie-breaking.
    pub seed: u64,
}

impl Default for SpeculationConfig {
    fn default() -> Self {
        SpeculationConfig {
            enabled: false,
            slow_factor: 4.0,
            min_lag: Duration::from_millis(25),
            min_completed: 2,
            poll: Duration::from_millis(2),
            seed: 0xD05E,
        }
    }
}

impl SpeculationConfig {
    /// An enabled config with default detector tuning.
    pub fn enabled() -> Self {
        SpeculationConfig {
            enabled: true,
            ..Default::default()
        }
    }

    /// Builder: set the outlier factor.
    pub fn with_slow_factor(mut self, factor: f64) -> Self {
        self.slow_factor = factor;
        self
    }

    /// Builder: set the lag floor.
    pub fn with_min_lag(mut self, lag: Duration) -> Self {
        self.min_lag = lag;
        self
    }

    /// Builder: set the observation quorum.
    pub fn with_min_completed(mut self, n: usize) -> Self {
        self.min_completed = n;
        self
    }

    /// Builder: set the idle poll interval.
    pub fn with_poll(mut self, poll: Duration) -> Self {
        self.poll = poll;
        self
    }

    /// Builder: set the tie-break seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates invariants.
    pub fn validate(&self) -> Result<()> {
        if !self.enabled {
            return Ok(());
        }
        if self.slow_factor < 1.0 {
            return Err(Error::Config(
                "speculation slow_factor must be >= 1.0".into(),
            ));
        }
        if self.poll.is_zero() {
            return Err(Error::Config("speculation poll must be positive".into()));
        }
        if self.min_completed == 0 {
            return Err(Error::Config(
                "speculation min_completed must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// How O-task splits are assigned to ranks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Scheduling {
    /// One shared queue; any free rank takes the next split. The runtime's
    /// historical behaviour and still the default.
    #[default]
    Dynamic,
    /// Task `t` is pinned to rank `t % ranks` — the assignment `dmpirun`
    /// workers compute locally. Models a static cluster schedule.
    Static {
        /// When `true`, an idle rank steals queued, not-yet-started
        /// splits from the back of other ranks' queues (seeded victim
        /// order). Output is byte-identical either way.
        work_stealing: bool,
    },
}

impl Scheduling {
    /// Stable name for CLI flags and artifact JSON.
    pub fn name(self) -> &'static str {
        match self {
            Scheduling::Dynamic => "dynamic",
            Scheduling::Static {
                work_stealing: false,
            } => "static",
            Scheduling::Static {
                work_stealing: true,
            } => "static+steal",
        }
    }
}

/// The split dispenser: shared deque (dynamic) or per-rank deques with
/// optional stealing (static).
pub struct TaskQueues {
    mode: Scheduling,
    shared: Mutex<VecDeque<usize>>,
    per_rank: Vec<Mutex<VecDeque<usize>>>,
    seed: u64,
}

/// One dispensed split: the task index and whether it was stolen from
/// another rank's queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Dispensed {
    /// The O task (split index).
    pub task: usize,
    /// True when the split came off another rank's queue.
    pub stolen: bool,
}

impl TaskQueues {
    /// Builds the dispenser for `tasks` splits across `ranks` ranks.
    pub fn new(mode: Scheduling, tasks: usize, ranks: usize, seed: u64) -> Self {
        let mut shared = VecDeque::new();
        let mut per_rank: Vec<VecDeque<usize>> = vec![VecDeque::new(); ranks];
        match mode {
            Scheduling::Dynamic => shared.extend(0..tasks),
            Scheduling::Static { .. } => {
                for t in 0..tasks {
                    per_rank[t % ranks].push_back(t);
                }
            }
        }
        TaskQueues {
            mode,
            shared: Mutex::new(shared),
            per_rank: per_rank.into_iter().map(Mutex::new).collect(),
            seed,
        }
    }

    /// The scheduling mode this dispenser was built with.
    pub fn mode(&self) -> Scheduling {
        self.mode
    }

    /// Dispenses the next split for `rank`, or `None` when nothing is
    /// available to it (its own queue is drained and stealing is off or
    /// found every victim empty).
    pub fn next(&self, rank: usize) -> Option<Dispensed> {
        match self.mode {
            Scheduling::Dynamic => self.shared.lock().pop_front().map(|task| Dispensed {
                task,
                stolen: false,
            }),
            Scheduling::Static { work_stealing } => {
                if let Some(task) = self.per_rank[rank].lock().pop_front() {
                    return Some(Dispensed {
                        task,
                        stolen: false,
                    });
                }
                if !work_stealing {
                    return None;
                }
                for victim in self.steal_order(rank) {
                    if let Some(task) = self.per_rank[victim].lock().pop_back() {
                        return Some(Dispensed { task, stolen: true });
                    }
                }
                None
            }
        }
    }

    /// The seeded order in which `rank` visits victims: every other rank,
    /// sorted by `splitmix64(seed ⊕ rank·victim mix)` — deterministic per
    /// seed, decorrelated per thief so idle ranks fan out instead of
    /// dog-piling one victim.
    fn steal_order(&self, rank: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.per_rank.len()).filter(|&v| v != rank).collect();
        order.sort_by_key(|&v| {
            splitmix64(
                self.seed
                    .wrapping_add((rank as u64) << 32)
                    .wrapping_add(v as u64),
            )
        });
        order
    }
}

#[derive(Debug)]
struct Inflight {
    started: Instant,
    speculated: bool,
}

#[derive(Default)]
struct BoardInner {
    inflight: HashMap<usize, Inflight>,
    durations_us: Vec<u64>,
    committed: HashSet<usize>,
}

/// Shared progress board: heartbeat sink, outlier detector, and the
/// first-writer-wins commit ledger. Clone-cheap (`Arc` inside).
#[derive(Clone)]
pub struct ProgressBoard {
    inner: Arc<Mutex<BoardInner>>,
    cfg: SpeculationConfig,
    total: usize,
}

impl ProgressBoard {
    /// A board for a job of `total` O tasks.
    pub fn new(cfg: SpeculationConfig, total: usize) -> Self {
        ProgressBoard {
            inner: Arc::new(Mutex::new(BoardInner::default())),
            cfg,
            total,
        }
    }

    /// The configured idle-poll interval.
    pub fn poll(&self) -> Duration {
        self.cfg.poll
    }

    /// Heartbeat: the primary attempt of `task` has started.
    pub fn start(&self, task: usize) {
        self.inner.lock().inflight.insert(
            task,
            Inflight {
                started: Instant::now(),
                speculated: false,
            },
        );
    }

    /// First-writer-wins: returns `true` exactly once per task — for the
    /// attempt allowed to ship its output. Every later caller is a loser
    /// and must discard its capture.
    pub fn try_commit(&self, task: usize) -> bool {
        self.inner.lock().committed.insert(task)
    }

    /// True once some attempt of `task` has committed.
    pub fn is_committed(&self, task: usize) -> bool {
        self.inner.lock().committed.contains(&task)
    }

    /// Number of committed tasks.
    pub fn committed_count(&self) -> usize {
        self.inner.lock().committed.len()
    }

    /// True when every task of the job has committed — the ranks' exit
    /// condition while speculation is on.
    pub fn all_done(&self) -> bool {
        self.committed_count() >= self.total
    }

    /// Heartbeat: the primary attempt of `task` finished (win or lose);
    /// its duration feeds the median.
    pub fn finish(&self, task: usize) {
        let mut inner = self.inner.lock();
        if let Some(f) = inner.inflight.remove(&task) {
            let us = f.started.elapsed().as_micros() as u64;
            inner.durations_us.push(us);
        }
    }

    /// Heartbeat: the primary attempt of `task` aborted before running
    /// user code (a duplicate already committed). Not a duration sample —
    /// the task's true cost was paid elsewhere.
    pub fn abort(&self, task: usize) {
        self.inner.lock().inflight.remove(&task);
    }

    /// Number of tasks currently inflight (started, not finished).
    pub fn inflight_count(&self) -> usize {
        self.inner.lock().inflight.len()
    }

    /// The deterministic outlier detector. Returns a task to speculate
    /// on, at most once per task: the median of completed durations must
    /// rest on at least `min_completed` observations, the candidate must
    /// have been running longer than `max(slow_factor × median, min_lag)`,
    /// and ties break by seeded splitmix64 so identical runs claim
    /// identical victims.
    pub fn claim_speculation(&self) -> Option<usize> {
        let mut inner = self.inner.lock();
        if inner.durations_us.len() < self.cfg.min_completed {
            return None;
        }
        let mut sorted = inner.durations_us.clone();
        sorted.sort_unstable();
        let median_us = sorted[sorted.len() / 2];
        let threshold = Duration::from_micros((median_us as f64 * self.cfg.slow_factor) as u64)
            .max(self.cfg.min_lag);
        let seed = self.cfg.seed;
        let victim = inner
            .inflight
            .iter()
            .filter(|(_, f)| !f.speculated && f.started.elapsed() > threshold)
            .map(|(&t, _)| t)
            .min_by_key(|&t| splitmix64(seed ^ t as u64))?;
        inner
            .inflight
            .get_mut(&victim)
            .expect("victim chosen from inflight")
            .speculated = true;
        Some(victim)
    }
}

/// The splitmix64 finalizer (same constants as `fault.rs`).
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
    fn config_validates() {
        SpeculationConfig::default().validate().unwrap();
        SpeculationConfig::enabled().validate().unwrap();
        assert!(SpeculationConfig::enabled()
            .with_slow_factor(0.5)
            .validate()
            .is_err());
        assert!(SpeculationConfig::enabled()
            .with_poll(Duration::ZERO)
            .validate()
            .is_err());
        assert!(SpeculationConfig::enabled()
            .with_min_completed(0)
            .validate()
            .is_err());
        // Disabled configs skip the knob checks entirely.
        SpeculationConfig::default()
            .with_slow_factor(0.0)
            .validate()
            .unwrap();
    }

    #[test]
    fn commit_is_first_writer_wins() {
        let board = ProgressBoard::new(SpeculationConfig::enabled(), 3);
        assert!(board.try_commit(1));
        assert!(!board.try_commit(1), "second writer must lose");
        assert!(board.is_committed(1));
        assert!(!board.is_committed(0));
        assert_eq!(board.committed_count(), 1);
        assert!(!board.all_done());
        assert!(board.try_commit(0));
        assert!(board.try_commit(2));
        assert!(board.all_done());
    }

    #[test]
    fn detector_requires_quorum_and_lag() {
        let cfg = SpeculationConfig::enabled()
            .with_min_completed(2)
            .with_min_lag(Duration::from_millis(5))
            .with_slow_factor(2.0);
        let board = ProgressBoard::new(cfg, 8);
        board.start(7);
        // No completed observations yet: never speculate.
        assert_eq!(board.claim_speculation(), None);
        // Two instant completions establish a ~zero median…
        for t in [0, 1] {
            board.start(t);
            board.finish(t);
        }
        // …but task 7 has not lagged past the min_lag floor yet.
        assert_eq!(board.claim_speculation(), None);
        std::thread::sleep(Duration::from_millis(8));
        assert_eq!(board.claim_speculation(), Some(7));
        // Each task is speculated at most once.
        assert_eq!(board.claim_speculation(), None);
        board.finish(7);
        assert_eq!(board.inflight_count(), 0);
    }

    #[test]
    fn detector_victim_choice_is_seeded_and_deterministic() {
        let pick = |seed: u64| {
            let cfg = SpeculationConfig::enabled()
                .with_min_completed(1)
                .with_min_lag(Duration::from_millis(1))
                .with_seed(seed);
            let board = ProgressBoard::new(cfg, 8);
            board.start(3);
            board.start(5);
            board.start(6);
            board.start(0);
            board.finish(0);
            std::thread::sleep(Duration::from_millis(3));
            board.claim_speculation().unwrap()
        };
        assert_eq!(pick(1), pick(1), "same seed, same victim");
        // The three lagging candidates are equally old; a seeded hash
        // picks among {3, 5, 6}.
        assert!([3usize, 5, 6].contains(&pick(42)));
    }

    #[test]
    fn abort_drops_inflight_without_a_duration_sample() {
        let cfg = SpeculationConfig::enabled().with_min_completed(1);
        let board = ProgressBoard::new(cfg, 2);
        board.start(0);
        board.abort(0);
        assert_eq!(board.inflight_count(), 0);
        // The abort contributed no observation, so the quorum of 1 is
        // still unmet.
        board.start(1);
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(board.claim_speculation(), None);
    }

    #[test]
    fn dynamic_queue_dispenses_in_order_to_any_rank() {
        let q = TaskQueues::new(Scheduling::Dynamic, 4, 2, 0);
        let d = q.next(1).unwrap();
        assert_eq!((d.task, d.stolen), (0, false));
        assert_eq!(q.next(0).unwrap().task, 1);
        assert_eq!(q.next(1).unwrap().task, 2);
        assert_eq!(q.next(0).unwrap().task, 3);
        assert_eq!(q.next(0), None);
    }

    #[test]
    fn static_queue_pins_tasks_modulo_ranks() {
        let q = TaskQueues::new(
            Scheduling::Static {
                work_stealing: false,
            },
            6,
            2,
            0,
        );
        // Rank 0 owns 0, 2, 4; rank 1 owns 1, 3, 5; no crossover.
        for expect in [0usize, 2, 4] {
            let d = q.next(0).unwrap();
            assert_eq!((d.task, d.stolen), (expect, false));
        }
        assert_eq!(q.next(0), None, "no stealing: rank 0 is done");
        for expect in [1usize, 3, 5] {
            assert_eq!(q.next(1).unwrap().task, expect);
        }
        assert_eq!(q.next(1), None);
    }

    #[test]
    fn stealing_takes_from_the_back_of_a_victim() {
        let q = TaskQueues::new(
            Scheduling::Static {
                work_stealing: true,
            },
            6,
            2,
            7,
        );
        // Rank 0 drains its own queue…
        for _ in 0..3 {
            assert!(!q.next(0).unwrap().stolen);
        }
        // …then steals rank 1's *last* task, leaving the victim its
        // front-of-queue work.
        let d = q.next(0).unwrap();
        assert_eq!((d.task, d.stolen), (5, true));
        assert_eq!(q.next(1).unwrap().task, 1);
        assert_eq!(q.next(1).unwrap().task, 3);
        assert_eq!(q.next(1), None);
        assert_eq!(q.next(0), None);
    }

    #[test]
    fn scheduling_names_are_stable() {
        assert_eq!(Scheduling::Dynamic.name(), "dynamic");
        assert_eq!(
            Scheduling::Static {
                work_stealing: false
            }
            .name(),
            "static"
        );
        assert_eq!(
            Scheduling::Static {
                work_stealing: true
            }
            .name(),
            "static+steal"
        );
    }
}
