//! Observability for the real runtime: structured tracing, a metrics
//! registry, and a sampling profiler.
//!
//! The paper's evidence is profiles, not just end-to-end times: dstat-style
//! CPU/disk/network/memory curves (Figure 4) and per-phase breakdowns that
//! show *where* DataMPI's pipelining buys its win. The simulator has had
//! those since day one (`dcsim::MetricsRecorder`); this module gives the
//! executing runtime the same eyes:
//!
//! * [`Observer`] — the shared sink. Clone it into a
//!   [`JobConfig`](crate::JobConfig) via `with_observer` and every rank
//!   records spans ([`TraceEvent`]) and counters ([`MetricsRegistry`]).
//!   When no observer is installed the runtime's hooks are `Option` checks
//!   on a `None` — the layer costs nothing when disabled.
//! * [`Tracer`] — a per-rank, thread-local recording handle
//!   (`Rc<RefCell<…>>`, deliberately `!Send`): pushing a span is a vector
//!   push, no locks, no allocation beyond the event itself. Buffers are
//!   merged into the job-wide [`Trace`] when each rank finishes.
//! * [`Profiler`] — a background thread sampling process CPU/RSS plus the
//!   registry into the simulator's own `ResourceProfile`, so real runs and
//!   simulated runs emit comparable Figure-4 curves.
//! * [`Clock`] / [`ManualClock`] — injectable time, so tests drive spans
//!   deterministically.
//!
//! Export a merged trace with [`Trace::to_chrome_json`] and load it in
//! `chrome://tracing` or <https://ui.perfetto.dev>: ranks appear as
//! process rows, attempts as thread rows, recovery events as instants.

mod clock;
mod histogram;
mod metrics;
mod profiler;
mod telemetry;
mod trace;

pub use clock::{Clock, ManualClock};
pub use histogram::{
    bucket_bound, bucket_index, HistKind, HistogramSnapshot, Histograms, LogHistogram,
    HISTOGRAM_BUCKETS,
};
pub use metrics::{Counter, MetricsRegistry, MetricsSnapshot};
pub use profiler::{
    integrate, process_cpu_secs, process_rss_bytes, ProfileSource, Profiler, Sample, SampleSeries,
};
pub use telemetry::{ClockSync, RankTelemetry, TelemetryAggregator, TelemetryFrame};
pub use trace::{PhaseTotals, SpanKind, Trace, TraceEvent, JOB_LANE};

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use parking_lot::Mutex;

#[derive(Debug)]
struct Inner {
    clock: Clock,
    registry: MetricsRegistry,
    events: Mutex<Vec<TraceEvent>>,
}

/// The shared observability sink for one job (or one supervised run).
///
/// Cheap to clone (an `Arc`); all recording goes through per-rank
/// [`Tracer`]s or the atomic [`MetricsRegistry`], so cloning and passing
/// it around costs nothing on hot paths.
#[derive(Clone, Debug)]
pub struct Observer {
    inner: Arc<Inner>,
}

impl Default for Observer {
    fn default() -> Self {
        Self::new()
    }
}

impl Observer {
    /// An observer on the real (monotonic) clock.
    pub fn new() -> Self {
        Self::with_clock(Clock::real())
    }

    /// An observer on an explicit clock — pass a
    /// [`ManualClock`](Clock::Manual) for deterministic tests.
    pub fn with_clock(clock: Clock) -> Self {
        Observer {
            inner: Arc::new(Inner {
                clock,
                registry: MetricsRegistry::new(),
                events: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Sizes the registry's per-peer matrices before ranks start.
    pub fn begin_job(&self, ranks: usize) {
        self.inner.registry.begin_job(ranks);
    }

    /// The live counters.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.inner.registry
    }

    /// Microseconds since the observer's epoch.
    pub fn now_micros(&self) -> u64 {
        self.inner.clock.now_micros()
    }

    /// A recording handle for worker rank `rank` of `attempt`. Create it
    /// *inside* the rank's thread: the tracer is `!Send` by design.
    pub fn rank_tracer(&self, rank: u32, attempt: u32) -> Tracer {
        Tracer {
            inner: Arc::clone(&self.inner),
            buf: Rc::new(RefCell::new(Vec::new())),
            rank,
            attempt,
            task: None,
        }
    }

    /// A recording handle for job-level events (attempt spans, retries).
    pub fn job_tracer(&self, attempt: u32) -> Tracer {
        self.rank_tracer(JOB_LANE, attempt)
    }

    /// Merges a tracer's buffered events into the job-wide log and returns
    /// the per-phase wall-time totals of just the drained events.
    pub fn absorb(&self, tracer: &Tracer) -> PhaseTotals {
        let mut drained = tracer.buf.borrow_mut();
        let mut totals = PhaseTotals::default();
        for ev in drained.iter() {
            totals.add_event(ev);
        }
        self.inner.events.lock().append(&mut drained);
        totals
    }

    /// Records one event directly into the job-wide log (used by the
    /// supervisor, which runs outside any rank thread).
    pub fn record(&self, ev: TraceEvent) {
        self.inner.events.lock().push(ev);
    }

    /// A snapshot of everything absorbed so far, sorted by start time.
    pub fn trace(&self) -> Trace {
        Trace::new(self.inner.events.lock().clone())
    }

    /// Drains the absorbed events, leaving the log empty. The telemetry
    /// shipper uses this so each span crosses the wire exactly once.
    pub fn take_events(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.inner.events.lock())
    }
}

/// A per-rank (or job-level) recording handle. Pushing an event is a
/// `RefCell` borrow and a `Vec::push` — no locking, no syscalls.
///
/// `!Send` on purpose: each rank thread builds its own, and the
/// [`Observer`] merges buffers at rank exit via [`Observer::absorb`].
#[derive(Clone, Debug)]
pub struct Tracer {
    inner: Arc<Inner>,
    buf: Rc<RefCell<Vec<TraceEvent>>>,
    rank: u32,
    attempt: u32,
    task: Option<u64>,
}

impl Tracer {
    /// A handle scoped to O task `task`, sharing this tracer's buffer.
    pub fn for_task(&self, task: u64) -> Tracer {
        Tracer {
            inner: Arc::clone(&self.inner),
            buf: Rc::clone(&self.buf),
            rank: self.rank,
            attempt: self.attempt,
            task: Some(task),
        }
    }

    /// Current clock reading, for bracketing a span.
    pub fn start(&self) -> u64 {
        self.inner.clock.now_micros()
    }

    /// Records a span that began at `start_us` (from [`Tracer::start`])
    /// and ends now.
    pub fn span(&self, kind: SpanKind, start_us: u64, args: Vec<(&'static str, String)>) {
        let now = self.inner.clock.now_micros();
        self.push(TraceEvent {
            kind,
            ts_us: start_us,
            dur_us: now.saturating_sub(start_us),
            instant: false,
            rank: self.rank,
            attempt: self.attempt,
            task: self.task,
            args,
        });
    }

    /// Records a point event at the current time.
    pub fn instant(&self, kind: SpanKind, args: Vec<(&'static str, String)>) {
        let now = self.inner.clock.now_micros();
        self.push(TraceEvent {
            kind,
            ts_us: now,
            dur_us: 0,
            instant: true,
            rank: self.rank,
            attempt: self.attempt,
            task: self.task,
            args,
        });
    }

    /// The registry shared with the observer, for counter updates next to
    /// span recording.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.inner.registry
    }

    /// Events buffered but not yet absorbed.
    pub fn pending(&self) -> usize {
        self.buf.borrow().len()
    }

    fn push(&self, ev: TraceEvent) {
        self.buf.borrow_mut().push(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_through_manual_clock() {
        let clock = ManualClock::new();
        let obs = Observer::with_clock(Clock::Manual(clock.clone()));
        let t = obs.rank_tracer(0, 0);
        let start = t.start();
        clock.advance_micros(40);
        t.span(SpanKind::OTask, start, vec![]);
        clock.advance_micros(5);
        t.instant(SpanKind::Fault, vec![("cause", "test".into())]);
        assert_eq!(t.pending(), 2);
        let totals = obs.absorb(&t);
        assert_eq!(totals.o_task_us, 40);
        assert_eq!(t.pending(), 0);
        let trace = obs.trace();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.events()[0].dur_us, 40);
        assert_eq!(trace.events()[1].ts_us, 45);
        assert!(trace.events()[1].instant);
    }

    #[test]
    fn task_scoped_tracers_share_one_buffer() {
        let obs = Observer::with_clock(Clock::Manual(ManualClock::new()));
        let t = obs.rank_tracer(3, 1);
        let tt = t.for_task(7);
        tt.span(SpanKind::Send, tt.start(), vec![]);
        t.span(SpanKind::Recv, t.start(), vec![]);
        assert_eq!(t.pending(), 2);
        obs.absorb(&t);
        let trace = obs.trace();
        assert_eq!(trace.events()[0].task, Some(7));
        assert_eq!(trace.events()[1].task, None);
        assert!(trace.events().iter().all(|e| e.rank == 3 && e.attempt == 1));
    }

    #[test]
    fn a_panic_holding_the_events_lock_leaves_the_observer_usable() {
        let obs = Observer::with_clock(Clock::Manual(ManualClock::new()));
        let held = obs.clone();
        let died = std::thread::spawn(move || {
            let _events = held.inner.events.lock();
            panic!("die holding the events lock");
        })
        .join();
        assert!(died.is_err());
        let t = obs.rank_tracer(0, 0);
        t.span(SpanKind::OTask, t.start(), vec![]);
        obs.absorb(&t);
        assert_eq!(obs.trace().len(), 1);
    }

    #[test]
    fn job_tracer_uses_job_lane() {
        let obs = Observer::new();
        let jt = obs.job_tracer(2);
        jt.instant(SpanKind::Retry, vec![]);
        obs.absorb(&jt);
        assert_eq!(obs.trace().events()[0].rank, JOB_LANE);
    }
}
