//! Lock-free log-bucketed latency/size histograms.
//!
//! The telemetry plane needs distribution shape, not just totals:
//! "recv_us dominates" is diagnosable only when per-frame recv latency
//! splits into a fast mode and a stalled tail. A [`LogHistogram`] buckets
//! `u64` samples by bit length (bucket `i` covers `[2^(i-1), 2^i)`), so
//! recording is two relaxed `fetch_add`s and a `fetch_max` — cheap enough
//! to sit on the per-frame hot paths — and a snapshot merges across ranks
//! by plain bucket addition, which is what lets the coordinator fold N
//! worker histograms into one job-wide distribution without resampling.
//!
//! Quantile estimates come from the bucket boundaries: the reported value
//! is the upper bound of the bucket holding the target rank, so an
//! estimate is always within one bucket bound (a factor of two) of the
//! exact order statistic. The property tests in this module assert both
//! that bound and the algebra (merge is associative and commutative).

use std::sync::atomic::{AtomicU64, Ordering};

/// Bucket count: bucket 0 holds zeros, bucket `i >= 1` holds values with
/// bit length `i`, up to the full `u64` range.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// The fixed histogram channels the runtime records into.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum HistKind {
    /// Per-frame socket write duration on the TCP writer threads, µs.
    SendLatency,
    /// Per-frame wait in the A-side ingest loop (time blocked on the
    /// mailbox until the next frame arrives), µs. Both backends.
    RecvLatency,
    /// Data-frame payload sizes as ingested, bytes.
    FramePayload,
    /// Time producers spent blocked on a full per-peer send window
    /// before a frame was accepted, µs.
    WindowWait,
    /// Spill-run seal duration (sort + write into the run file), µs.
    SpillSeal,
    /// Stored sizes of sealed spill-run blocks (post-compression),
    /// bytes.
    SpillBlock,
}

impl HistKind {
    /// Every channel, in wire/report order.
    pub const ALL: [HistKind; 6] = [
        HistKind::SendLatency,
        HistKind::RecvLatency,
        HistKind::FramePayload,
        HistKind::WindowWait,
        HistKind::SpillSeal,
        HistKind::SpillBlock,
    ];

    /// Stable snake_case name used in telemetry frames and reports.
    pub fn name(self) -> &'static str {
        match self {
            HistKind::SendLatency => "send_latency_us",
            HistKind::RecvLatency => "recv_latency_us",
            HistKind::FramePayload => "frame_payload_bytes",
            HistKind::WindowWait => "window_wait_us",
            HistKind::SpillSeal => "spill_seal_us",
            HistKind::SpillBlock => "spill_block_bytes",
        }
    }

    /// Parses a wire name back to the channel.
    pub fn parse(name: &str) -> Option<HistKind> {
        HistKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Index of the bucket holding `value`: 0 for zero, else the bit length.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Largest value bucket `index` can hold (its inclusive upper bound) —
/// the representative a quantile estimate reports.
#[inline]
pub fn bucket_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= 64 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

/// A lock-free log-bucketed histogram. All updates are relaxed atomics:
/// any number of rank/transport threads record concurrently, and the
/// profiler or telemetry shipper snapshots without stopping them.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records the elapsed time of `start` (an `Instant`) in µs.
    #[inline]
    pub fn record_elapsed_us(&self, start: std::time::Instant) {
        self.record(start.elapsed().as_micros() as u64);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Folds a snapshot's samples in, as if each had been recorded here.
    pub fn record_snapshot(&self, snap: &HistogramSnapshot) {
        for (bucket, n) in self.buckets.iter().zip(snap.buckets) {
            bucket.fetch_add(n, Ordering::Relaxed);
        }
        self.count.fetch_add(snap.count, Ordering::Relaxed);
        self.sum.fetch_add(snap.sum, Ordering::Relaxed);
        self.max.fetch_max(snap.max, Ordering::Relaxed);
    }

    /// A point-in-time copy, mergeable and serializable.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A plain-number copy of a [`LogHistogram`]: what telemetry frames
/// carry and what the coordinator merges by bucket addition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`bucket_index`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all sample values.
    pub sum: u64,
    /// Largest sample seen.
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Folds `other` in: buckets, counts and sums add; max takes max.
    /// This is the cross-rank aggregation step — associative and
    /// commutative, so the coordinator may fold frames in any arrival
    /// order.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b = b.saturating_add(*o);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The samples recorded since `earlier`, a snapshot of the same
    /// histogram (the live atomics wrap, so the differences do too). A
    /// maximum cannot be taken apart, so the result keeps this
    /// snapshot's (exact when `earlier` is empty).
    pub fn since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let count = self.count.wrapping_sub(earlier.count);
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].wrapping_sub(earlier.buckets[i])),
            count,
            sum: self.sum.wrapping_sub(earlier.sum),
            max: if count == 0 { 0 } else { self.max },
        }
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) as the upper bound of
    /// the bucket containing that rank. For the recorded exact value `v`
    /// at that rank, the estimate `e` satisfies `v <= e < 2 * max(v, 1)`
    /// — within one log bucket. Returns `max` at `q >= 1`, 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        // Rank of the target sample, 1-based, clamped into range.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                // The top bucket's bound can overshoot the data; the
                // recorded max is the tighter upper bound.
                return bucket_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// `(p50, p95, p99, max)` in one call — the report's summary row.
    pub fn summary(&self) -> (u64, u64, u64, u64) {
        (
            self.quantile(0.50),
            self.quantile(0.95),
            self.quantile(0.99),
            self.max,
        )
    }

    /// Compact wire form: `count;sum;max;idx:cnt,idx:cnt,…` with only
    /// non-empty buckets listed.
    pub fn encode(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!("{};{};{};", self.count, self.sum, self.max);
        let mut first = true;
        for (i, b) in self.buckets.iter().enumerate() {
            if *b > 0 {
                if !first {
                    out.push(',');
                }
                let _ = write!(out, "{i}:{b}");
                first = false;
            }
        }
        out
    }

    /// Parses the [`encode`](Self::encode) form.
    pub fn parse(s: &str) -> Option<HistogramSnapshot> {
        let mut parts = s.splitn(4, ';');
        let count = parts.next()?.parse().ok()?;
        let sum = parts.next()?.parse().ok()?;
        let max = parts.next()?.parse().ok()?;
        let mut snap = HistogramSnapshot {
            count,
            sum,
            max,
            ..HistogramSnapshot::default()
        };
        let buckets = parts.next()?;
        if !buckets.is_empty() {
            for pair in buckets.split(',') {
                let (idx, cnt) = pair.split_once(':')?;
                let idx: usize = idx.parse().ok()?;
                if idx >= HISTOGRAM_BUCKETS {
                    return None;
                }
                snap.buckets[idx] = cnt.parse().ok()?;
            }
        }
        Some(snap)
    }

    /// Renders the summary + sparse buckets as a JSON object.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let (p50, p95, p99, max) = self.summary();
        let mut out = format!(
            "{{\"count\":{},\"sum\":{},\"mean\":{:.1},\"p50\":{},\"p95\":{},\"p99\":{},\
             \"max\":{},\"buckets\":{{",
            self.count,
            self.sum,
            self.mean(),
            p50,
            p95,
            p99,
            max
        );
        let mut first = true;
        for (i, b) in self.buckets.iter().enumerate() {
            if *b > 0 {
                if !first {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":{}", bucket_bound(i), b);
                first = false;
            }
        }
        out.push_str("}}");
        out
    }
}

/// The registry's fixed set of histogram channels. Handles are `Arc`s so
/// hot paths (transport threads, the store's ingest thread) clone one
/// channel out once and record without touching the registry again.
#[derive(Clone, Debug)]
pub struct Histograms {
    inner: [std::sync::Arc<LogHistogram>; HistKind::ALL.len()],
}

impl Default for Histograms {
    fn default() -> Self {
        Histograms {
            inner: std::array::from_fn(|_| std::sync::Arc::new(LogHistogram::new())),
        }
    }
}

impl Histograms {
    /// A cloneable handle to one channel.
    pub fn handle(&self, kind: HistKind) -> std::sync::Arc<LogHistogram> {
        std::sync::Arc::clone(&self.inner[Self::slot(kind)])
    }

    /// Records one sample into `kind`.
    #[inline]
    pub fn record(&self, kind: HistKind, value: u64) {
        self.inner[Self::slot(kind)].record(value);
    }

    /// Snapshots every channel, in [`HistKind::ALL`] order.
    pub fn snapshot_all(&self) -> Vec<(HistKind, HistogramSnapshot)> {
        HistKind::ALL
            .into_iter()
            .map(|k| (k, self.inner[Self::slot(k)].snapshot()))
            .collect()
    }

    fn slot(kind: HistKind) -> usize {
        HistKind::ALL
            .iter()
            .position(|k| *k == kind)
            .expect("kind in ALL")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift stream for the property tests (no external
    /// proptest dependency; the repo vendors everything).
    fn rng(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed.max(1);
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        }
    }

    fn random_snapshot(next: &mut impl FnMut() -> u64, samples: usize) -> HistogramSnapshot {
        let h = LogHistogram::new();
        for _ in 0..samples {
            // Mix magnitudes: shift by a random amount so buckets across
            // the whole range get hit.
            let v = next() >> (next() % 60);
            h.record(v);
        }
        h.snapshot()
    }

    #[test]
    fn bucket_index_and_bounds_partition_the_range() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 0..HISTOGRAM_BUCKETS {
            let hi = bucket_bound(i);
            assert_eq!(bucket_index(hi), i, "upper bound stays in bucket {i}");
            if i + 1 < HISTOGRAM_BUCKETS {
                assert_eq!(bucket_index(hi + 1), i + 1, "bound + 1 moves up");
            }
        }
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let mut next = rng(0xD1CE);
        for case in 0..20 {
            let a = random_snapshot(&mut next, 50 + case);
            let b = random_snapshot(&mut next, 30);
            let c = random_snapshot(&mut next, 70);

            // Commutative: a+b == b+a.
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            assert_eq!(ab, ba, "case {case}: merge must commute");

            // Associative: (a+b)+c == a+(b+c).
            let mut ab_c = ab.clone();
            ab_c.merge(&c);
            let mut bc = b.clone();
            bc.merge(&c);
            let mut a_bc = a.clone();
            a_bc.merge(&bc);
            assert_eq!(ab_c, a_bc, "case {case}: merge must associate");

            assert_eq!(ab_c.count, a.count + b.count + c.count);
            assert_eq!(ab_c.sum, a.sum.saturating_add(b.sum).saturating_add(c.sum));
        }
    }

    #[test]
    fn samples_since_a_snapshot_replay_to_the_same_histogram() {
        let mut next = rng(0xBEEF);
        for case in 0..10 {
            let (live, alone) = (LogHistogram::new(), LogHistogram::new());
            for _ in 0..case * 7 {
                live.record(next() >> (next() % 60));
            }
            let before = live.snapshot();
            for _ in 0..40 {
                let v = next() >> (next() % 60);
                live.record(v);
                alone.record(v);
            }
            let delta = live.snapshot().since(&before);
            let expect = alone.snapshot();
            assert_eq!(
                (delta.buckets, delta.count, delta.sum),
                (expect.buckets, expect.count, expect.sum)
            );
            assert!(
                delta.max >= expect.max,
                "case {case}: max is an upper bound"
            );
            let replay = LogHistogram::new();
            replay.record_snapshot(&delta);
            assert_eq!(replay.snapshot(), delta, "case {case}");
        }
        let empty = LogHistogram::new().snapshot();
        let one = LogHistogram::new();
        one.record(9);
        assert_eq!(
            one.snapshot().since(&empty),
            one.snapshot(),
            "exact from empty"
        );
        assert_eq!(
            one.snapshot().since(&one.snapshot()),
            empty,
            "nothing new is empty"
        );
    }

    #[test]
    fn quantiles_are_within_one_bucket_of_exact() {
        let mut next = rng(0xFACE);
        for case in 0..20 {
            let n = 1 + (next() % 500) as usize;
            let values: Vec<u64> = (0..n).map(|_| next() >> (next() % 60)).collect();
            let h = LogHistogram::new();
            for v in &values {
                h.record(*v);
            }
            let snap = h.snapshot();
            let mut sorted = values.clone();
            sorted.sort_unstable();
            for &q in &[0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
                let est = snap.quantile(q);
                let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
                let exact = sorted[rank - 1];
                // One log-bucket bound: exact <= est < 2 * max(exact, 1),
                // except at q>=1 where est is the recorded max itself.
                assert!(
                    est >= exact,
                    "case {case} q={q}: estimate {est} below exact {exact}"
                );
                let bound = exact.max(1).saturating_mul(2);
                assert!(
                    est < bound || est == snap.max,
                    "case {case} q={q}: estimate {est} beyond bucket bound {bound} (exact {exact})"
                );
            }
        }
    }

    #[test]
    fn wire_encoding_round_trips() {
        let mut next = rng(7);
        for case in 0..10 {
            let snap = random_snapshot(&mut next, case * 17);
            let parsed = HistogramSnapshot::parse(&snap.encode()).expect("parse own encoding");
            assert_eq!(parsed, snap, "case {case}");
        }
        assert_eq!(
            HistogramSnapshot::parse(&HistogramSnapshot::default().encode()),
            Some(HistogramSnapshot::default())
        );
        assert!(HistogramSnapshot::parse("not a histogram").is_none());
        assert!(HistogramSnapshot::parse("1;2;3;99:1").is_none(), "bad idx");
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(LogHistogram::new());
        let threads = 8;
        let per = 1000;
        std::thread::scope(|s| {
            for t in 0..threads {
                let h = std::sync::Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..per {
                        h.record((t * per + i) as u64);
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count, (threads * per) as u64);
        assert_eq!(snap.max, (threads * per - 1) as u64);
        assert_eq!(snap.buckets.iter().sum::<u64>(), snap.count);
    }

    #[test]
    fn kinds_round_trip_names() {
        for k in HistKind::ALL {
            assert_eq!(HistKind::parse(k.name()), Some(k));
        }
        assert!(HistKind::parse("nope").is_none());
    }

    #[test]
    fn summary_and_json_render() {
        let h = LogHistogram::new();
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        let snap = h.snapshot();
        let (p50, _, _, max) = snap.summary();
        assert_eq!(max, 1000);
        assert!(p50 >= 3);
        let json = snap.to_json();
        assert!(json.contains("\"count\":5"));
        assert!(json.contains("\"max\":1000"));
    }
}
