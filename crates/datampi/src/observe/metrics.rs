//! Per-rank counters and gauges with cheap atomic updates.
//!
//! [`Counter`] is the one declaration of the job counters; the registry
//! is shared (behind the observer's `Arc`) by every rank thread and by
//! the sampling profiler, and all updates are single relaxed atomic ops
//! so the hot emit/recv paths pay a few nanoseconds at most. Per-peer
//! byte matrices are sized once by [`MetricsRegistry::begin_job`] before
//! ranks start, so the recording paths never allocate.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

use super::histogram::Histograms;

/// Declares the job counters: variant, wire name, unit, and whether the
/// cross-rank aggregate sums it (`flow`) or takes the maximum (`gauge`).
/// The order here is the order of the `tlm` line and of
/// `job-report.json`. Both carry each counter by name, so adding or
/// removing one changes no other counter's meaning for a reader; the
/// files under `tests/golden/` pin the bytes.
macro_rules! counters {
    ($($(#[$doc:meta])* $variant:ident $name:literal $unit:literal $kind:ident,)*) => {
        /// One job counter. This enum is the single declaration of the
        /// counter set: the registry, its snapshots, the telemetry wire
        /// form, the job report and DESIGN.md §16 all iterate
        /// [`Counter::ALL`].
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        pub enum Counter {
            $($(#[$doc])* $variant,)*
        }

        impl Counter {
            /// How many counters there are.
            pub const COUNT: usize = Self::SPECS.len();
            /// Every counter, in wire/report order.
            pub const ALL: [Counter; Self::COUNT] = [$(Counter::$variant),*];
            const SPECS: &'static [(&'static str, &'static str, &'static str)] =
                &[$(($name, $unit, stringify!($kind))),*];
        }
    };
}

counters! {
    /// KV pairs produced by O tasks.
    RecordsOut "records_out" "records" flow,
    /// KV pairs ingested by A partitions.
    RecordsIn "records_in" "records" flow,
    /// Data frames shipped.
    FramesSent "frames_sent" "frames" flow,
    /// Payload bytes sent: the `sent` peer matrix's total, filled in by `snapshot`.
    BytesSent "bytes_sent" "bytes" flow,
    /// Payload bytes received: the `recv` peer matrix's total, filled in by `snapshot`.
    BytesReceived "bytes_received" "bytes" flow,
    /// A-store spills.
    Spills "spills" "runs" flow,
    /// Framed-record bytes written by spills.
    SpillBytes "spill_bytes" "bytes" flow,
    /// High-water mark of any single O-side partition buffer.
    BufferHwmBytes "buffer_hwm_bytes" "bytes" gauge,
    /// Supervisor retries scheduled.
    Retries "retries" "attempts" flow,
    /// O tasks replayed from checkpoint instead of re-running.
    RecoveredTasks "recovered_tasks" "tasks" flow,
    /// Encoded bytes written to transport sockets, as sent. Zero in-proc.
    WireBytesSent "wire_bytes_sent" "bytes" flow,
    /// Encoded bytes decoded from transport sockets. Zero in-proc.
    WireBytesReceived "wire_bytes_received" "bytes" flow,
    /// Records fed into O-side combiners (zero without a combiner).
    CombinerRecordsIn "combiner_records_in" "records" flow,
    /// Records O-side combiners shipped after folding `in - out` pairs away.
    CombinerRecordsOut "combiner_records_out" "records" flow,
    /// Pre-batching frame bytes handed to the wire encoders; `wire_bytes_sent`
    /// exceeds this by the batch headers.
    WireRawBytesSent "wire_raw_bytes_sent" "bytes" flow,
    /// Logical frames the wire encoders packed into batches.
    WireFramesSent "wire_frames_sent" "frames" flow,
    /// Coalesced wire batches sealed; `wire_frames_sent` over this is the
    /// achieved coalescing factor.
    WireBatchesSent "wire_batches_sent" "batches" flow,
    /// Socket write syscalls issued by transport pollers.
    WireSendSyscalls "wire_send_syscalls" "syscalls" flow,
    /// Logical frames decoded from inbound wire batches.
    WireFramesReceived "wire_frames_received" "frames" flow,
    /// Inbound wire batches decoded.
    WireBatchesReceived "wire_batches_received" "batches" flow,
    /// Socket read syscalls issued by transport pollers.
    WireRecvSyscalls "wire_recv_syscalls" "syscalls" flow,
    /// Bytes sealed runs occupy on disk (blocks plus footer index and
    /// trailer); the excess over `spill_bytes` is the index overhead.
    SpillWireBytes "spill_wire_bytes" "bytes" flow,
    /// Spill-run blocks loaded and decoded by merges and lookups.
    SpillBlocksRead "spill_blocks_read" "blocks" flow,
    /// Spill-run blocks skipped whole via the footer index.
    SpillBlocksSkipped "spill_blocks_skipped" "blocks" flow,
    /// Non-sequential spill-run block loads.
    SpillSeeks "spill_seeks" "seeks" flow,
}

impl Counter {
    /// Stable snake_case name used in telemetry frames and reports.
    pub fn name(self) -> &'static str {
        Self::SPECS[self as usize].0
    }

    /// What one increment counts.
    pub fn unit(self) -> &'static str {
        Self::SPECS[self as usize].1
    }

    /// True for a level (ranks aggregate by maximum), false for a flow
    /// (ranks aggregate by sum).
    pub fn is_gauge(self) -> bool {
        Self::SPECS[self as usize].2 == "gauge"
    }

    /// Parses a wire name back to the counter.
    pub fn parse(name: &str) -> Option<Counter> {
        Counter::ALL.into_iter().find(|c| c.name() == name)
    }
}

/// `matrix[row][col]` payload bytes between ranks, sized by `begin_job`.
type PeerMatrix = RwLock<Vec<Vec<AtomicU64>>>;

/// Shared counters/gauges updated live by the runtime and snapshotted by
/// the profiler.
#[derive(Debug)]
pub struct MetricsRegistry {
    counters: [AtomicU64; Counter::COUNT],
    /// `sent[from][to]`.
    sent: PeerMatrix,
    /// `recv[at][from]`.
    recv: PeerMatrix,
    /// Latency/size distributions (see [`HistKind`](super::HistKind)).
    histograms: Histograms,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            sent: RwLock::default(),
            recv: RwLock::default(),
            histograms: Histograms::default(),
        }
    }
}

/// A point-in-time copy of the registry's counters, taken by the
/// profiler and by end-of-job reporting; read with `snap[Counter::…]`.
#[derive(Clone, PartialEq, Eq)]
pub struct MetricsSnapshot([u64; Counter::COUNT]);

impl Default for MetricsSnapshot {
    fn default() -> Self {
        MetricsSnapshot([0; Counter::COUNT])
    }
}

impl MetricsSnapshot {
    /// Every counter with its value, in wire/report order.
    pub fn iter(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        Counter::ALL.into_iter().zip(self.0.iter().copied())
    }
}

impl std::ops::Index<Counter> for MetricsSnapshot {
    type Output = u64;
    fn index(&self, counter: Counter) -> &u64 {
        &self.0[counter as usize]
    }
}

impl std::ops::IndexMut<Counter> for MetricsSnapshot {
    fn index_mut(&mut self, counter: Counter) -> &mut u64 {
        &mut self.0[counter as usize]
    }
}

impl std::fmt::Debug for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let named = self.iter().map(|(c, v)| (c.name(), v));
        f.debug_map().entries(named).finish()
    }
}

impl MetricsRegistry {
    /// Fresh registry with empty peer matrices.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to a flow counter.
    pub fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Raises a gauge to at least `value`: a true monotonic maximum, so
    /// concurrent observers can never regress it.
    pub fn raise(&self, counter: Counter, value: u64) {
        self.counters[counter as usize].fetch_max(value, Ordering::Relaxed);
    }

    /// (Re)sizes the per-peer byte matrices for a job of `ranks` ranks.
    /// Existing readings are preserved, so a supervised job's attempts
    /// accumulate into the same matrix.
    pub fn begin_job(&self, ranks: usize) {
        for matrix in [&self.sent, &self.recv] {
            let mut rows = matrix.write();
            if rows.len() < ranks {
                rows.resize_with(ranks, Vec::new);
            }
            for row in rows.iter_mut().filter(|row| row.len() < ranks) {
                row.resize_with(ranks, || AtomicU64::new(0));
            }
        }
    }

    fn add_to_cell(matrix: &PeerMatrix, row: usize, col: usize, n: u64) {
        if let Some(cell) = matrix.read().get(row).and_then(|r| r.get(col)) {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Counts one shipped data frame of `payload` bytes from `from` to `to`.
    pub fn add_frame_sent(&self, from: usize, to: usize, payload: u64) {
        self.add(Counter::FramesSent, 1);
        Self::add_to_cell(&self.sent, from, to, payload);
    }

    /// Counts `payload` bytes received at rank `at` from rank `from`.
    pub fn add_bytes_received(&self, at: usize, from: usize, payload: u64) {
        Self::add_to_cell(&self.recv, at, from, payload);
    }

    /// Folds a merge's spill-read tally (block reads/skips and seeks)
    /// into the registry.
    pub fn add_spill_reads(&self, reads: &crate::spillfmt::SpillReadSnapshot) {
        self.add(Counter::SpillBlocksRead, reads.blocks_read);
        self.add(Counter::SpillBlocksSkipped, reads.blocks_skipped);
        self.add(Counter::SpillSeeks, reads.seeks);
    }

    /// The histogram channels, for snapshotting or cloning out handles.
    pub fn histograms(&self) -> &Histograms {
        &self.histograms
    }

    /// Records one endpoint's wire-level traffic, as reported by
    /// [`Endpoint::close`](crate::transport::Endpoint).
    pub fn add_wire_stats(&self, wire: &crate::transport::WireStats) {
        self.add(Counter::WireBytesSent, wire.bytes_sent);
        self.add(Counter::WireBytesReceived, wire.bytes_received);
        self.add(Counter::WireRawBytesSent, wire.raw_bytes_sent);
        self.add(Counter::WireFramesSent, wire.frames_sent);
        self.add(Counter::WireBatchesSent, wire.batches_sent);
        self.add(Counter::WireSendSyscalls, wire.send_syscalls);
        self.add(Counter::WireFramesReceived, wire.frames_received);
        self.add(Counter::WireBatchesReceived, wire.batches_received);
        self.add(Counter::WireRecvSyscalls, wire.recv_syscalls);
    }

    /// `sent[from][to]` matrix as plain numbers.
    pub fn sent_matrix(&self) -> Vec<Vec<u64>> {
        Self::matrix_values(&self.sent)
    }

    /// `recv[at][from]` matrix as plain numbers.
    pub fn recv_matrix(&self) -> Vec<Vec<u64>> {
        Self::matrix_values(&self.recv)
    }

    fn matrix_values(matrix: &PeerMatrix) -> Vec<Vec<u64>> {
        let rows = matrix.read();
        rows.iter()
            .map(|row| row.iter().map(|c| c.load(Ordering::Relaxed)).collect())
            .collect()
    }

    /// A consistent-enough point-in-time copy (individual counters are
    /// loaded relaxed; the profiler only needs monotone readings).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot(std::array::from_fn(|i| {
            self.counters[i].load(Ordering::Relaxed)
        }));
        snap[Counter::BytesSent] = self.sent_matrix().iter().flatten().sum();
        snap[Counter::BytesReceived] = self.recv_matrix().iter().flatten().sum();
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn peer_matrix_accumulates() {
        let reg = MetricsRegistry::new();
        reg.begin_job(3);
        reg.add_frame_sent(0, 2, 100);
        reg.add_frame_sent(0, 2, 50);
        reg.add_frame_sent(1, 0, 7);
        reg.add_bytes_received(2, 0, 150);
        assert_eq!(reg.snapshot()[Counter::BytesSent], 157);
        assert_eq!(reg.snapshot()[Counter::BytesReceived], 150);
        assert_eq!(reg.sent_matrix()[0][2], 150);
        assert_eq!(reg.recv_matrix()[2][0], 150);
        assert_eq!(reg.snapshot()[Counter::FramesSent], 3);
    }

    #[test]
    fn begin_job_grows_without_losing_counts() {
        let reg = MetricsRegistry::new();
        reg.begin_job(2);
        reg.add_frame_sent(0, 1, 10);
        reg.begin_job(4);
        reg.add_frame_sent(0, 3, 5);
        reg.add_frame_sent(3, 0, 2);
        assert_eq!(reg.sent_matrix()[0][1], 10);
        assert_eq!(reg.snapshot()[Counter::BytesSent], 17);
        // Shrinking never happens: a smaller begin_job keeps the matrix.
        reg.begin_job(2);
        assert_eq!(reg.sent_matrix().len(), 4);
    }

    #[test]
    fn hwm_is_a_max_not_a_sum() {
        let reg = MetricsRegistry::new();
        reg.raise(Counter::BufferHwmBytes, 10);
        reg.raise(Counter::BufferHwmBytes, 4);
        reg.raise(Counter::BufferHwmBytes, 12);
        assert_eq!(reg.snapshot()[Counter::BufferHwmBytes], 12);
    }

    #[test]
    fn hwm_is_monotonic_under_concurrent_observers() {
        // Regression: racing O workers reporting interleaved levels must
        // settle on the true maximum — a lost update (last-write-wins)
        // would leave a smaller value behind.
        let reg = Arc::new(MetricsRegistry::new());
        let threads = 8u64;
        let per = 2000u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let reg = Arc::clone(&reg);
                s.spawn(move || {
                    // Every thread sweeps down from its own peak, so low
                    // observations constantly chase high ones.
                    let peak = (t + 1) * per;
                    for v in (1..=peak).rev() {
                        reg.raise(Counter::BufferHwmBytes, v);
                    }
                });
            }
        });
        assert_eq!(reg.snapshot()[Counter::BufferHwmBytes], threads * per);
    }

    #[test]
    fn every_counter_accumulates_in_its_own_slot() {
        let reg = MetricsRegistry::new();
        for (i, c) in Counter::ALL.into_iter().enumerate() {
            reg.add(c, i as u64 + 1);
            reg.add(c, 100);
        }
        let snap = reg.snapshot();
        for (i, (c, v)) in snap.iter().enumerate() {
            // The two matrix totals are overwritten at snapshot time.
            let want = match c {
                Counter::BytesSent | Counter::BytesReceived => 0,
                _ => i as u64 + 101,
            };
            assert_eq!((v, snap[c]), (want, want), "{}", c.name());
        }
    }

    #[test]
    fn names_are_unique_parse_back_and_exactly_one_gauge() {
        for c in Counter::ALL {
            assert_eq!(Counter::parse(c.name()), Some(c));
            assert!(!c.unit().is_empty());
        }
        assert_eq!(Counter::parse("no_such_counter"), None);
        let gauges: Vec<_> = Counter::ALL.into_iter().filter(|c| c.is_gauge()).collect();
        assert_eq!(gauges, [Counter::BufferHwmBytes]);
        assert_eq!(Counter::ALL.len(), 25);
        assert_eq!(Counter::ALL[24] as usize, 24, "ALL is in declaration order");
    }

    /// DESIGN.md prints the counter table; its rows must be the
    /// declaration's, in order, so the document cannot drift.
    #[test]
    fn design_doc_lists_every_counter() {
        let documented: Vec<Vec<String>> = crate::design_table("| counter |")
            .into_iter()
            .map(|row| row[..3].to_vec())
            .collect();
        let declared: Vec<Vec<String>> = Counter::ALL
            .into_iter()
            .map(|c| {
                let kind = if c.is_gauge() { "gauge" } else { "flow" };
                vec![c.name().into(), c.unit().into(), kind.into()]
            })
            .collect();
        assert_eq!(documented, declared);
    }
}
