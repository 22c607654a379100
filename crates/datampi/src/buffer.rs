//! Partitioned key-value send buffers — the pipelining mechanism.
//!
//! An O task emits key-value pairs through a [`KvBuffer`]: pairs are
//! hash-partitioned to their destination A partition and framed into
//! per-destination byte buffers. In pipelined mode a buffer is shipped the
//! moment it crosses the flush threshold, so communication proceeds while
//! the O task keeps computing — the overlap the paper identifies as
//! DataMPI's main advantage. In staged mode (the Hadoop-like ablation)
//! everything is held until [`KvBuffer::finish`].

use bytes::Bytes;

use dmpi_common::group::HashGrouper;
use dmpi_common::partition::{HashPartitioner, Partitioner};
use dmpi_common::ser;
use dmpi_common::Record;

use crate::checkpoint::CheckpointStore;
use crate::comm::Frame;
use crate::fault::Corruption;
use crate::observe::{Counter, SpanKind, Tracer};
use crate::task::{Collector, Combiner};
use crate::transport::FrameSender;

/// Counters reported by a finished buffer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Records emitted by user code (pre-combiner).
    pub records: u64,
    /// Framed bytes shipped (post-combiner when one is installed).
    pub bytes: u64,
    /// Frames shipped before `finish` (the pipelined flushes).
    pub early_flushes: u64,
    /// Total frames shipped.
    pub frames: u64,
    /// Records fed into the combiner (0 without one).
    pub combiner_records_in: u64,
    /// Records the combiner emitted for shipping (0 without one).
    pub combiner_records_out: u64,
}

/// A partitioned, flush-on-threshold emit buffer bound to one O task.
pub struct KvBuffer {
    partitioner: HashPartitioner,
    senders: Vec<FrameSender>,
    buffers: Vec<Vec<u8>>,
    from_rank: usize,
    o_task: usize,
    flush_threshold: usize,
    pipelined: bool,
    stats: BufferStats,
    /// Checkpoint tee: every shipped frame is also recorded here so a
    /// completed task's output can be replayed after a restart.
    tee: Option<CheckpointStore>,
    /// Fault injection: flip one byte of the next flushed frame *after*
    /// its CRC is computed and *after* the tee records the clean copy —
    /// wire corruption, not stable-store corruption.
    corruption: Option<Corruption>,
    /// Observability: when set, flushes record `Send` spans and feed the
    /// per-peer byte counters; `finish` reports the occupancy high-water
    /// mark. `None` costs one branch per emit.
    tracer: Option<Tracer>,
    /// Largest single-partition buffer occupancy seen, bytes.
    hwm_bytes: usize,
    /// O-side pre-aggregation: when set, emits are staged per
    /// destination and key-folded through this function right before
    /// their frame is built, so repeated keys collapse locally instead
    /// of crossing the wire.
    combiner: Option<Combiner>,
    /// Per-destination staging for the combiner (empty when none): the
    /// window's pairs as framed bytes, exactly what the plain path
    /// writes into `buffers`, so its length is the threshold measure.
    staged: Vec<Vec<u8>>,
}

/// Frames a combiner's output records straight into a destination
/// buffer, counting them.
struct FrameCollector<'a> {
    buf: &'a mut Vec<u8>,
    records: u64,
}

impl Collector for FrameCollector<'_> {
    fn collect(&mut self, key: &[u8], value: &[u8]) {
        ser::frame_kv(self.buf, key, value);
        self.records += 1;
    }
}

impl KvBuffer {
    /// Creates a buffer for O task `o_task` running on `from_rank`.
    /// `senders[p]` ships to partition `p` over whichever transport the
    /// job selected; a full destination (bounded mailbox or TCP send
    /// window) blocks the emitting task — that is the backpressure.
    pub fn new(
        senders: Vec<FrameSender>,
        from_rank: usize,
        o_task: usize,
        flush_threshold: usize,
        pipelined: bool,
    ) -> Self {
        let parts = senders.len();
        KvBuffer {
            partitioner: HashPartitioner::new(parts),
            buffers: (0..parts).map(|_| Vec::new()).collect(),
            senders,
            from_rank,
            o_task,
            flush_threshold,
            pipelined,
            stats: BufferStats::default(),
            tee: None,
            corruption: None,
            tracer: None,
            hwm_bytes: 0,
            combiner: None,
            staged: Vec::new(),
        }
    }

    /// Installs an O-side combiner; see
    /// [`JobConfig::with_combiner`](crate::JobConfig::with_combiner).
    pub fn set_combiner(&mut self, combiner: Combiner) {
        self.staged = vec![Vec::new(); self.buffers.len()];
        self.combiner = Some(combiner);
    }

    /// Enables the checkpoint tee.
    pub fn set_tee(&mut self, tee: CheckpointStore) {
        self.tee = Some(tee);
    }

    /// Arms wire corruption of the next flushed frame (fault injection).
    pub fn set_corruption(&mut self, corruption: Corruption) {
        self.corruption = Some(corruption);
    }

    /// Installs an observability tracer (usually task-scoped via
    /// [`Tracer::for_task`]).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    /// Emits one key-value pair.
    pub fn emit(&mut self, record: &Record) {
        self.emit_kv(&record.key, &record.value);
    }

    /// Emits a raw key/value pair without constructing a `Record`: the
    /// pair is framed into its destination's frame buffer, or, with a
    /// combiner, into the destination's staging window, which is folded
    /// and shipped once its framed bytes cross the flush threshold.
    pub fn emit_kv(&mut self, key: &[u8], value: &[u8]) {
        let p = self.partitioner.partition(key);
        let combining = self.combiner.is_some();
        let buf = if combining {
            &mut self.staged[p]
        } else {
            &mut self.buffers[p]
        };
        let before = buf.len();
        ser::frame_kv(buf, key, value);
        let level = buf.len();
        self.stats.records += 1;
        if !combining {
            self.stats.bytes += (level - before) as u64;
        }
        self.hwm_bytes = self.hwm_bytes.max(level);
        if self.pipelined && level >= self.flush_threshold {
            if combining {
                self.combine_partition(p);
            }
            // More is coming for this destination: start its next frame
            // at the size this one reached instead of regrowing from
            // nothing by doublings.
            let reached = self.buffers[p].capacity();
            self.flush_partition(p);
            self.buffers[p] = Vec::with_capacity(reached);
            self.stats.early_flushes += 1;
        }
    }

    /// Folds destination `p`'s staged window through the combiner into
    /// its frame buffer: group by key (first-appearance order — the
    /// A side regroups anyway) and let the combiner collapse each group.
    fn combine_partition(&mut self, p: usize) {
        if self.staged[p].is_empty() {
            return;
        }
        let combiner = self.combiner.clone().expect("staging requires a combiner");
        // The combiner takes refcounted keys and values: one shared copy
        // of the window, sliced per pair, and the arena keeps its
        // capacity for the next window.
        let window = Bytes::copy_from_slice(&self.staged[p]);
        self.staged[p].clear();
        let mut grouper = HashGrouper::default();
        for span in ser::framed_kv_spans(&window) {
            let span = span.expect("the staging window holds only pairs this buffer framed");
            grouper.push_slices(&window, span.key(), span.value());
            self.stats.combiner_records_in += 1;
        }
        let before = self.buffers[p].len();
        let mut out = FrameCollector {
            buf: &mut self.buffers[p],
            records: 0,
        };
        for group in &grouper.finish() {
            combiner.apply(group, &mut out);
        }
        self.stats.combiner_records_out += out.records;
        self.stats.bytes += (self.buffers[p].len() - before) as u64;
    }

    fn flush_partition(&mut self, p: usize) {
        if self.buffers[p].is_empty() {
            return;
        }
        let send_start = self.tracer.as_ref().map(Tracer::start);
        let payload = Bytes::from(std::mem::take(&mut self.buffers[p]));
        self.stats.frames += 1;
        if let Some(tee) = &self.tee {
            tee.record_frame(self.o_task, p, payload.clone());
        }
        // The CRC is stamped over the clean payload; an armed corruption
        // then flips a wire byte, so the receiver's verify must fail.
        let mut frame = Frame::data(self.from_rank, self.o_task, payload);
        if let Some(corruption) = self.corruption.take() {
            if let Frame::Data { payload, .. } = &mut frame {
                // This copy is unavoidable: `Bytes` is immutable shared
                // storage (the checkpoint tee above may hold the clean
                // payload), so flipping a wire byte needs its own buffer.
                // It only runs on injected-corruption frames, never the
                // hot path.
                let mut bytes = payload.to_vec();
                corruption.apply(&mut bytes);
                *payload = Bytes::from(bytes);
            }
        }
        // A false return means the peer is gone and the job is tearing
        // down (a failure is propagating); dropping the frame is correct.
        let bytes = frame.payload_len();
        self.senders[p].send(frame);
        if let Some(t) = &self.tracer {
            t.registry().add_frame_sent(self.from_rank, p, bytes as u64);
            t.span(
                SpanKind::Send,
                send_start.unwrap_or(0),
                vec![("peer", p.to_string()), ("bytes", bytes.to_string())],
            );
        }
    }

    /// Flushes all remaining data (folding staged records through the
    /// combiner first, when one is installed) and returns the task's
    /// counters.
    pub fn finish(mut self) -> BufferStats {
        for p in 0..self.buffers.len() {
            if self.combiner.is_some() {
                self.combine_partition(p);
            }
            self.flush_partition(p);
        }
        if let Some(t) = &self.tracer {
            let r = t.registry();
            r.add(Counter::RecordsOut, self.stats.records);
            r.raise(Counter::BufferHwmBytes, self.hwm_bytes as u64);
            r.add(Counter::CombinerRecordsIn, self.stats.combiner_records_in);
            r.add(Counter::CombinerRecordsOut, self.stats.combiner_records_out);
        }
        self.stats
    }

    /// Current counters (non-consuming view).
    pub fn stats(&self) -> BufferStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Interconnect;

    fn frame_senders(net: &Interconnect) -> Vec<FrameSender> {
        net.senders()
            .into_iter()
            .map(FrameSender::from_channel)
            .collect()
    }

    fn drain(rx: &crossbeam::channel::Receiver<Frame>) -> Vec<Frame> {
        let mut frames = Vec::new();
        while let Ok(f) = rx.try_recv() {
            frames.push(f);
        }
        frames
    }

    #[test]
    fn records_land_in_consistent_partitions() {
        let mut net = Interconnect::new(4);
        let senders = frame_senders(&net);
        let rxs: Vec<_> = (0..4).map(|r| net.take_receiver(r)).collect();
        let mut buf = KvBuffer::new(senders, 0, 0, usize::MAX, true);
        let part = HashPartitioner::new(4);
        let mut expected = [0u64; 4];
        for i in 0..100 {
            let r = Record::from_strs(&format!("key{i}"), "v");
            expected[part.partition(&r.key)] += 1;
            buf.emit(&r);
        }
        let stats = buf.finish();
        assert_eq!(stats.records, 100);
        assert_eq!(stats.early_flushes, 0, "threshold never crossed");
        for (p, rx) in rxs.iter().enumerate() {
            let frames = drain(rx);
            let records: u64 = frames
                .iter()
                .map(|f| match f {
                    Frame::Data { payload, .. } => {
                        ser::unframe_batch(payload).unwrap().len() as u64
                    }
                    _ => 0,
                })
                .sum();
            assert_eq!(records, expected[p], "partition {p}");
        }
    }

    #[test]
    fn pipelined_mode_flushes_early() {
        let mut net = Interconnect::new(1);
        let senders = frame_senders(&net);
        let rx = net.take_receiver(0);
        let mut buf = KvBuffer::new(senders, 0, 0, 64, true);
        for i in 0..100 {
            buf.emit_kv(format!("k{i}").as_bytes(), b"value-bytes");
        }
        let stats = buf.finish();
        assert!(stats.early_flushes > 0, "should flush during emission");
        assert!(stats.frames > 1);
        let total: usize = drain(&rx).iter().map(Frame::payload_len).sum();
        assert_eq!(total as u64, stats.bytes);
    }

    #[test]
    fn early_flush_starts_the_next_frame_at_the_flushed_capacity() {
        let mut net = Interconnect::new(1);
        let senders = frame_senders(&net);
        let rx = net.take_receiver(0);
        let mut buf = KvBuffer::new(senders, 0, 0, 4096, true);
        while buf.stats().early_flushes == 0 {
            buf.emit_kv(b"some-key", b"some-value-bytes");
        }
        assert!(buf.buffers[0].is_empty());
        assert!(buf.buffers[0].capacity() >= 4096, "regrows from nothing");
        let flushed = drain(&rx);
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].payload_len() as u64, buf.stats().bytes);
        // `finish` has nothing more to come and reserves nothing.
        buf.emit_kv(b"k", b"v");
        let stats = buf.finish();
        assert_eq!((stats.frames, stats.early_flushes), (2, 1));
    }

    #[test]
    fn staged_mode_ships_once_at_finish() {
        let mut net = Interconnect::new(1);
        let senders = frame_senders(&net);
        let rx = net.take_receiver(0);
        let mut buf = KvBuffer::new(senders, 0, 3, 64, false);
        for i in 0..100 {
            buf.emit_kv(format!("k{i}").as_bytes(), b"value-bytes");
        }
        assert!(drain(&rx).is_empty(), "nothing shipped before finish");
        let stats = buf.finish();
        assert_eq!(stats.early_flushes, 0);
        assert_eq!(stats.frames, 1);
        let frames = drain(&rx);
        assert_eq!(frames.len(), 1);
        match &frames[0] {
            Frame::Data { o_task, .. } => assert_eq!(*o_task, 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn armed_corruption_flips_the_wire_but_not_the_checkpoint() {
        let mut net = Interconnect::new(1);
        let senders = frame_senders(&net);
        let rx = net.take_receiver(0);
        let cp = crate::checkpoint::CheckpointStore::new();
        let mut buf = KvBuffer::new(senders, 0, 4, usize::MAX, false);
        buf.set_tee(cp.clone());
        buf.set_corruption(Corruption {
            offset_seed: 3,
            mask: 0x10,
        });
        buf.emit_kv(b"key", b"value");
        buf.finish();
        let frame = rx.try_recv().unwrap();
        let err = frame.verify().unwrap_err();
        assert_eq!(
            err.fault_cause().unwrap().kind,
            dmpi_common::FaultKind::CorruptFrame
        );
        // The checkpointed copy is the clean payload.
        cp.mark_complete_at(4, 1);
        let clean = &cp.recover_frames(4)[0].1;
        match frame {
            Frame::Data { payload, .. } => assert_ne!(&payload[..], &clean[..]),
            other => panic!("unexpected {other:?}"),
        }
        Frame::data(0, 4, clean.clone()).verify().unwrap();
    }

    /// The WordCount-style sum combiner used by the tests below.
    fn sum_combiner() -> Combiner {
        use dmpi_common::ser::Writable;
        Combiner::new(|g, out| {
            let total: u64 = g.values.iter().map(|v| u64::from_bytes(v).unwrap()).sum();
            out.collect(&g.key, &total.to_bytes());
        })
    }

    #[test]
    fn combiner_collapses_repeated_keys_before_the_wire() {
        use dmpi_common::ser::Writable;
        let mut net = Interconnect::new(1);
        let senders = frame_senders(&net);
        let rx = net.take_receiver(0);
        let mut buf = KvBuffer::new(senders, 0, 0, usize::MAX, true);
        buf.set_combiner(sum_combiner());
        for _ in 0..50 {
            buf.emit_kv(b"apple", &1u64.to_bytes());
            buf.emit_kv(b"pear", &1u64.to_bytes());
        }
        let stats = buf.finish();
        assert_eq!(stats.records, 100, "user emits counted pre-combine");
        assert_eq!(stats.combiner_records_in, 100);
        assert_eq!(stats.combiner_records_out, 2);
        let frames = drain(&rx);
        let records: Vec<Record> = frames
            .iter()
            .filter_map(|f| match f {
                Frame::Data { payload, .. } => Some(ser::unframe_batch(payload).unwrap()),
                _ => None,
            })
            .flat_map(|b| b.into_records())
            .collect();
        assert_eq!(records.len(), 2, "only folded records cross the wire");
        let total_payload: usize = frames.iter().map(Frame::payload_len).sum();
        assert_eq!(total_payload as u64, stats.bytes, "bytes count the wire");
        for r in records {
            assert_eq!(u64::from_bytes(&r.value).unwrap(), 50);
        }
    }

    #[test]
    fn combiner_respects_the_flush_threshold() {
        use dmpi_common::ser::Writable;
        let mut net = Interconnect::new(1);
        let senders = frame_senders(&net);
        let rx = net.take_receiver(0);
        let mut buf = KvBuffer::new(senders, 0, 0, 256, true);
        buf.set_combiner(sum_combiner());
        for i in 0..200 {
            buf.emit_kv(format!("key{:02}", i % 10).as_bytes(), &1u64.to_bytes());
        }
        let stats = buf.finish();
        assert!(
            stats.early_flushes > 0,
            "staged bytes must trip the threshold"
        );
        assert!(stats.frames > 1);
        // Each early flush folds its own window, so per-key partial sums
        // appear once per flushed frame — still far fewer than 200.
        assert!(stats.combiner_records_out < stats.combiner_records_in);
        let shipped: u64 = drain(&rx)
            .iter()
            .filter_map(|f| match f {
                Frame::Data { payload, .. } => {
                    Some(ser::unframe_batch(payload).unwrap().len() as u64)
                }
                _ => None,
            })
            .sum();
        assert_eq!(shipped, stats.combiner_records_out);
    }

    /// The staging this buffer replaced, kept as the reference: each
    /// destination's window is a `Vec<Record>`, closed on its framed
    /// size, grouped by `group_hashed` and folded into one frame.
    struct RecordStaging {
        combiner: Combiner,
        threshold: usize,
        pending: Vec<Vec<Record>>,
        pending_bytes: Vec<usize>,
        frames: Vec<Vec<Vec<u8>>>,
        stats: BufferStats,
    }

    impl RecordStaging {
        fn emit(&mut self, part: &HashPartitioner, key: &[u8], value: &[u8]) {
            let p = part.partition(key);
            let record = Record::new(key.to_vec(), value.to_vec());
            self.stats.records += 1;
            self.pending_bytes[p] += record.framed_len();
            self.pending[p].push(record);
            if self.pending_bytes[p] >= self.threshold {
                self.close(p);
                self.stats.early_flushes += 1;
            }
        }

        fn close(&mut self, p: usize) {
            let staged = std::mem::take(&mut self.pending[p]);
            self.pending_bytes[p] = 0;
            if staged.is_empty() {
                return;
            }
            self.stats.combiner_records_in += staged.len() as u64;
            let mut buf = Vec::new();
            let mut out = FrameCollector {
                buf: &mut buf,
                records: 0,
            };
            for group in &dmpi_common::group::group_hashed(staged) {
                self.combiner.apply(group, &mut out);
            }
            self.stats.combiner_records_out += out.records;
            self.stats.bytes += buf.len() as u64;
            self.stats.frames += 1;
            self.frames[p].push(buf);
        }
    }

    #[test]
    fn arena_staging_ships_the_frames_record_staging_did() {
        use dmpi_common::ser::Writable;
        const PARTS: usize = 3;
        let mut state = 0x2545f4914f6cdd1du64;
        let mut step = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for (seed_round, threshold) in [48usize, 200, 1000, usize::MAX].into_iter().enumerate() {
            let mut net = Interconnect::new(PARTS);
            let rxs: Vec<_> = (0..PARTS).map(|r| net.take_receiver(r)).collect();
            let mut buf = KvBuffer::new(frame_senders(&net), 0, 0, threshold, true);
            buf.set_combiner(sum_combiner());
            let mut reference = RecordStaging {
                combiner: sum_combiner(),
                threshold,
                pending: vec![Vec::new(); PARTS],
                pending_bytes: vec![0; PARTS],
                frames: vec![Vec::new(); PARTS],
                stats: BufferStats::default(),
            };
            let part = HashPartitioner::new(PARTS);
            for _ in 0..(1500 + 300 * seed_round) {
                // Skewed keys of uneven length, the empty key included.
                let id = step() % 40;
                let key = "k".repeat((id % 7) as usize) + &id.to_string();
                let key = if id == 0 { String::new() } else { key };
                let value = (step() % 1000).to_bytes();
                buf.emit_kv(key.as_bytes(), &value);
                reference.emit(&part, key.as_bytes(), &value);
            }
            let stats = buf.finish();
            for p in 0..PARTS {
                reference.close(p);
            }
            assert_eq!(stats, reference.stats, "threshold {threshold}");
            if threshold < usize::MAX {
                assert!(
                    stats.early_flushes as usize > 2 * PARTS,
                    "threshold {threshold} must close several windows per destination"
                );
            }
            for (p, rx) in rxs.iter().enumerate() {
                let shipped: Vec<Vec<u8>> = drain(rx)
                    .iter()
                    .filter_map(|f| match f {
                        Frame::Data { payload, .. } => Some(payload.to_vec()),
                        _ => None,
                    })
                    .collect();
                assert_eq!(
                    shipped, reference.frames[p],
                    "threshold {threshold} dest {p}"
                );
            }
        }
    }

    #[test]
    fn combiner_emit_and_emit_kv_agree() {
        let mut net_a = Interconnect::new(2);
        let mut net_b = Interconnect::new(2);
        let rx_a: Vec<_> = (0..2).map(|r| net_a.take_receiver(r)).collect();
        let rx_b: Vec<_> = (0..2).map(|r| net_b.take_receiver(r)).collect();
        let mut a = KvBuffer::new(frame_senders(&net_a), 0, 0, usize::MAX, true);
        let mut b = KvBuffer::new(frame_senders(&net_b), 0, 0, usize::MAX, true);
        a.set_combiner(sum_combiner());
        b.set_combiner(sum_combiner());
        use dmpi_common::ser::Writable;
        for i in 0..40 {
            let rec = Record::new(format!("k{}", i % 5).into_bytes(), 1u64.to_bytes().to_vec());
            a.emit(&rec);
            b.emit_kv(&rec.key, &rec.value);
        }
        assert_eq!(a.finish(), b.finish());
        for (ra, rb) in rx_a.iter().zip(&rx_b) {
            let payload = |rx: &crossbeam::channel::Receiver<Frame>| -> Vec<u8> {
                drain(rx)
                    .iter()
                    .flat_map(|f| match f {
                        Frame::Data { payload, .. } => payload.to_vec(),
                        _ => vec![],
                    })
                    .collect()
            };
            assert_eq!(payload(ra), payload(rb));
        }
    }

    #[test]
    fn emit_and_emit_kv_agree() {
        let mut net_a = Interconnect::new(2);
        let mut net_b = Interconnect::new(2);
        let rx_a: Vec<_> = (0..2).map(|r| net_a.take_receiver(r)).collect();
        let rx_b: Vec<_> = (0..2).map(|r| net_b.take_receiver(r)).collect();
        let mut a = KvBuffer::new(frame_senders(&net_a), 0, 0, usize::MAX, true);
        let mut b = KvBuffer::new(frame_senders(&net_b), 0, 0, usize::MAX, true);
        for i in 0..20 {
            let rec = Record::from_strs(&format!("k{i}"), &format!("v{i}"));
            a.emit(&rec);
            b.emit_kv(&rec.key, &rec.value);
        }
        let sa = a.finish();
        let sb = b.finish();
        assert_eq!(sa, sb);
        for (ra, rb) in rx_a.iter().zip(&rx_b) {
            let da: Vec<u8> = drain(ra)
                .iter()
                .flat_map(|f| match f {
                    Frame::Data { payload, .. } => payload.to_vec(),
                    _ => vec![],
                })
                .collect();
            let db: Vec<u8> = drain(rb)
                .iter()
                .flat_map(|f| match f {
                    Frame::Data { payload, .. } => payload.to_vec(),
                    _ => vec![],
                })
                .collect();
            assert_eq!(da, db);
        }
    }
}
