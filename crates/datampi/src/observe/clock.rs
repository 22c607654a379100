//! Injectable time source for the observability layer.
//!
//! Spans and profiler samples are timestamped through a [`Clock`] so that
//! tests can drive time deterministically: the real clock measures
//! microseconds since the observer was created (monotonic, `Instant`-based),
//! while [`ManualClock`] is an atomic counter tests advance by hand.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A monotonic microsecond clock, real or manual.
#[derive(Clone, Debug)]
pub enum Clock {
    /// Wall time since an epoch fixed at observer creation.
    Real(Instant),
    /// Test time: whatever the shared counter says.
    Manual(ManualClock),
}

impl Clock {
    /// A real clock whose epoch is "now".
    pub fn real() -> Self {
        Clock::Real(Instant::now())
    }

    /// Microseconds since the clock's epoch.
    pub fn now_micros(&self) -> u64 {
        match self {
            Clock::Real(epoch) => epoch.elapsed().as_micros() as u64,
            Clock::Manual(m) => m.now_micros(),
        }
    }
}

/// A hand-advanced clock shared between a test and the observer.
#[derive(Clone, Debug, Default)]
pub struct ManualClock {
    micros: Arc<AtomicU64>,
}

impl ManualClock {
    /// A manual clock starting at 0 µs.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current reading in microseconds.
    pub fn now_micros(&self) -> u64 {
        self.micros.load(Ordering::SeqCst)
    }

    /// Advances the clock by `us` microseconds.
    pub fn advance_micros(&self, us: u64) {
        self.micros.fetch_add(us, Ordering::SeqCst);
    }

    /// Sets the clock to an absolute reading (must not move backwards for
    /// the trace to stay well-formed, but this is not enforced).
    pub fn set_micros(&self, us: u64) {
        self.micros.store(us, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_clock_is_monotonic() {
        let c = Clock::real();
        let a = c.now_micros();
        let b = c.now_micros();
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_only_moves_when_told() {
        let m = ManualClock::new();
        let c = Clock::Manual(m.clone());
        assert_eq!(c.now_micros(), 0);
        m.advance_micros(10);
        m.advance_micros(5);
        assert_eq!(m.now_micros(), 15);
        assert_eq!(c.now_micros(), 15);
        m.set_micros(100);
        assert_eq!(c.now_micros(), 100);
    }
}
