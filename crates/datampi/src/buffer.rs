//! Partitioned key-value send buffers — the pipelining mechanism.
//!
//! An O task emits key-value pairs through a [`KvBuffer`]: pairs are
//! hash-partitioned to their destination A partition and framed into
//! per-destination byte buffers. In pipelined mode a buffer is shipped the
//! moment it crosses the flush threshold, so communication proceeds while
//! the O task keeps computing — the overlap the paper identifies as
//! DataMPI's main advantage. In staged mode (the Hadoop-like ablation)
//! everything is held until [`KvBuffer::finish`].
//!
//! With a combiner installed, a destination's pairs are clustered by key
//! in a window as they are emitted, and the window is folded into a frame
//! when it closes — on the same emit that would have flushed the framed
//! pairs.

use bytes::Bytes;

use dmpi_common::hashing::fnv1a;
use dmpi_common::partition::{HashPartitioner, Partitioner};
use dmpi_common::Record;
use dmpi_common::{ser, varint};

use crate::checkpoint::CheckpointStore;
use crate::comm::Frame;
use crate::fault::Corruption;
use crate::observe::{Counter, SpanKind, Tracer};
use crate::task::{Collector, Combiner, GroupedValues};
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
    /// O-side pre-aggregation: when set, emits are clustered per
    /// destination and key-folded through the combiner right before
    /// their frame is built, so repeated keys collapse locally instead
    /// of crossing the wire.
    combining: Option<Combining>,
}

/// A combiner with its per-destination windows and the scratch a closing
/// window is folded through. Built once per task: closing a window
/// clears its tables without freeing them.
struct Combining {
    combiner: Combiner,
    windows: Vec<Window>,
    /// Counting-sort scratch: per group id, where its pairs end in
    /// `sorted`.
    ends: Vec<usize>,
    /// Counting-sort scratch: the closing window's pairs as positions in
    /// its `values`, by group id and in arrival order within a group.
    sorted: Vec<usize>,
    /// The group handed to the combiner, refilled for each key.
    group: GroupedValues,
}

impl Combining {
    fn new(combiner: Combiner, parts: usize) -> Self {
        Combining {
            combiner,
            windows: (0..parts).map(|_| Window::default()).collect(),
            ends: Vec::new(),
            sorted: Vec::new(),
            group: GroupedValues::default(),
        }
    }

    /// Folds destination `p`'s window through the combiner into `out`,
    /// one group per distinct key in first-appearance order with its
    /// values in arrival order, and empties the window. Returns the
    /// number of pairs folded.
    fn close(&mut self, p: usize, out: &mut dyn Collector) -> u64 {
        let window = &mut self.windows[p];
        if window.pairs.is_empty() {
            return 0;
        }
        // Counting sort by group id: count each group's pairs, turn the
        // counts into start offsets, then place every pair at its group's
        // cursor, which leaves `ends[g]` where group `g` ends.
        self.ends.clear();
        self.ends.resize(window.groups.len(), 0);
        for &g in &window.pairs {
            self.ends[g] += 1;
        }
        let mut start = 0;
        for end in &mut self.ends {
            let count = *end;
            *end = start;
            start += count;
        }
        self.sorted.clear();
        self.sorted.resize(window.pairs.len(), 0);
        let mut at = 0;
        for &g in &window.pairs {
            self.sorted[self.ends[g]] = at;
            self.ends[g] += 1;
            let len = read_varint(&window.values, &mut at);
            at += len;
        }
        // The combiner takes refcounted keys and values: one shared copy
        // of each arena, sliced per key and per value, while the arenas
        // keep their capacity for the next window.
        let keys = Bytes::copy_from_slice(&window.keys);
        let values = Bytes::copy_from_slice(&window.values);
        let mut start = 0;
        for (group, &end) in window.groups.iter().zip(&self.ends) {
            self.group.key = keys.slice(group.key_start..group.key_end);
            self.group.values.clear();
            self.group
                .values
                .extend(self.sorted[start..end].iter().map(|&prefix| {
                    let mut at = prefix;
                    let len = read_varint(&values, &mut at);
                    values.slice(at..at + len)
                }));
            self.combiner.apply(&self.group, out);
            start = end;
        }
        // Drop the last group's slices, so the copies go now.
        self.group.key = Bytes::new();
        self.group.values.clear();
        let folded = window.pairs.len() as u64;
        window.clear();
        folded
    }
}

/// A free slot of [`Window::index`].
const EMPTY: usize = usize::MAX;

/// Slots a window's index opens with.
const MIN_INDEX_SLOTS: usize = 16;

/// One destination's open combiner window: its pairs clustered by key as
/// they arrive.
#[derive(Default)]
struct Window {
    /// Each distinct key once, in first-appearance order.
    keys: Vec<u8>,
    /// Per group id (first-appearance order): its key's hash and span in
    /// `keys`.
    groups: Vec<Group>,
    /// Key → group id by open addressing with linear probing: a power of
    /// two of slots, at most half of them taken, `EMPTY` where free.
    index: Vec<usize>,
    /// Per pair, in arrival order: its group id.
    pairs: Vec<usize>,
    /// Per pair, in arrival order: its value's length as a varint, then
    /// the value. The prefix delimits the values in place of a value end
    /// per pair, which would double `pairs`.
    values: Vec<u8>,
    /// The bytes the pairs would take framed — varint lengths, key and
    /// value — which is the flush-threshold measure.
    framed: usize,
}

#[derive(Clone, Copy)]
struct Group {
    hash: u64,
    key_start: usize,
    key_end: usize,
}

impl Window {
    /// Adds a pair whose key hashes to `hash`; returns the window's
    /// framed size.
    fn push(&mut self, hash: u64, key: &[u8], value: &[u8]) -> usize {
        let group = self.group_of(hash, key);
        self.pairs.push(group);
        let prefix = varint::write_u64(&mut self.values, value.len() as u64);
        self.values.extend_from_slice(value);
        self.framed += varint::encoded_len(key.len() as u64) + key.len() + prefix + value.len();
        self.framed
    }

    /// The id of `key`'s group, opened if this is the key's first pair.
    fn group_of(&mut self, hash: u64, key: &[u8]) -> usize {
        if 2 * (self.groups.len() + 1) > self.index.len() {
            self.grow();
        }
        let mask = self.index.len() - 1;
        let mut slot = home_slot(hash, self.index.len());
        loop {
            let g = self.index[slot];
            if g == EMPTY {
                break;
            }
            let group = self.groups[g];
            if group.hash == hash && self.keys[group.key_start..group.key_end] == *key {
                return g;
            }
            slot = (slot + 1) & mask;
        }
        let g = self.groups.len();
        let key_start = self.keys.len();
        self.keys.extend_from_slice(key);
        self.groups.push(Group {
            hash,
            key_start,
            key_end: self.keys.len(),
        });
        self.index[slot] = g;
        g
    }

    /// Doubles the index (or opens it) and re-seats every group from its
    /// kept hash; no key is hashed again.
    fn grow(&mut self) {
        let slots = (2 * self.index.len()).max(MIN_INDEX_SLOTS);
        self.index.clear();
        self.index.resize(slots, EMPTY);
        for (g, group) in self.groups.iter().enumerate() {
            let mut slot = home_slot(group.hash, slots);
            while self.index[slot] != EMPTY {
                slot = (slot + 1) & (slots - 1);
            }
            self.index[slot] = g;
        }
    }

    /// Empties the window, keeping every table's capacity.
    fn clear(&mut self) {
        self.keys.clear();
        self.groups.clear();
        self.index.fill(EMPTY);
        self.pairs.clear();
        self.values.clear();
        self.framed = 0;
    }
}

/// Decodes the varint at `bytes[*at..]` — a value length a window wrote
/// with `varint::write_u64` — and moves `at` past it. Unlike
/// `varint::read_u64` it trusts its input, which is the window's own.
fn read_varint(bytes: &[u8], at: &mut usize) -> usize {
    let mut value = 0;
    let mut shift = 0;
    loop {
        let byte = bytes[*at];
        *at += 1;
        value |= usize::from(byte & 0x7f) << shift;
        if byte < 0x80 {
            return value;
        }
        shift += 7;
    }
}

/// The slot a key hashing to `hash` probes first in an index of `slots`
/// slots (a power of two): the hash's top bits. Every key of one window
/// shares `hash % parts`, and FNV-1a mixes its low bits least.
fn home_slot(hash: u64, slots: usize) -> usize {
    (hash >> (64 - slots.trailing_zeros())) as usize
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

/// An O task's user code emits straight into its task's buffer.
impl Collector for KvBuffer {
    fn collect(&mut self, key: &[u8], value: &[u8]) {
        self.emit_kv(key, value);
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
            combining: None,
        }
    }

    /// Installs an O-side combiner; see
    /// [`JobConfig::with_combiner`](crate::JobConfig::with_combiner).
    pub fn set_combiner(&mut self, combiner: Combiner) {
        self.combining = Some(Combining::new(combiner, self.buffers.len()));
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
    /// combiner, added to the destination's window, which is folded and
    /// shipped once its framed size crosses the flush threshold.
    pub fn emit_kv(&mut self, key: &[u8], value: &[u8]) {
        self.stats.records += 1;
        let (p, level) = match &mut self.combining {
            Some(combining) => {
                // One hash serves twice: the destination is what
                // `HashPartitioner::partition` returns, and the window
                // probes with the same hash.
                let hash = fnv1a(key);
                let p = (hash % self.partitioner.num_partitions() as u64) as usize;
                (p, combining.windows[p].push(hash, key, value))
            }
            None => {
                let p = self.partitioner.partition(key);
                let buf = &mut self.buffers[p];
                let before = buf.len();
                ser::frame_kv(buf, key, value);
                self.stats.bytes += (buf.len() - before) as u64;
                (p, buf.len())
            }
        };
        self.hwm_bytes = self.hwm_bytes.max(level);
        if self.pipelined && level >= self.flush_threshold {
            self.combine_partition(p);
            // More is coming for this destination: start its next frame
            // at the size this one reached instead of regrowing from
            // nothing by doublings.
            let reached = self.buffers[p].capacity();
            self.flush_partition(p);
            self.buffers[p] = Vec::with_capacity(reached);
            self.stats.early_flushes += 1;
        }
    }

    /// Folds destination `p`'s combiner window, if a combiner is
    /// installed, into its frame buffer: one group per key, in
    /// first-appearance order (the A side regroups anyway), each
    /// collapsed by the combiner.
    fn combine_partition(&mut self, p: usize) {
        let Some(combining) = &mut self.combining else {
            return;
        };
        let before = self.buffers[p].len();
        let mut out = FrameCollector {
            buf: &mut self.buffers[p],
            records: 0,
        };
        self.stats.combiner_records_in += combining.close(p, &mut out);
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

    /// Flushes all remaining data (folding each open window through the
    /// combiner first, when one is installed) and returns the task's
    /// counters.
    pub fn finish(mut self) -> BufferStats {
        for p in 0..self.buffers.len() {
            self.combine_partition(p);
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
    use crate::comm::DEFAULT_MAILBOX_CAPACITY;
    use crate::transport::inproc::mailboxes;
    use crossbeam::channel::Receiver;

    fn drain(rx: &Receiver<Frame>) -> Vec<Frame> {
        let mut frames = Vec::new();
        while let Ok(f) = rx.try_recv() {
            frames.push(f);
        }
        frames
    }

    #[test]
    fn records_land_in_consistent_partitions() {
        let (senders, rxs) = mailboxes(4, DEFAULT_MAILBOX_CAPACITY);
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
        let (senders, rxs) = mailboxes(1, DEFAULT_MAILBOX_CAPACITY);
        let rx = &rxs[0];
        let mut buf = KvBuffer::new(senders, 0, 0, 64, true);
        for i in 0..100 {
            buf.emit_kv(format!("k{i}").as_bytes(), b"value-bytes");
        }
        let stats = buf.finish();
        assert!(stats.early_flushes > 0, "should flush during emission");
        assert!(stats.frames > 1);
        let total: usize = drain(rx).iter().map(Frame::payload_len).sum();
        assert_eq!(total as u64, stats.bytes);
    }

    #[test]
    fn early_flush_starts_the_next_frame_at_the_flushed_capacity() {
        let (senders, rxs) = mailboxes(1, DEFAULT_MAILBOX_CAPACITY);
        let rx = &rxs[0];
        let mut buf = KvBuffer::new(senders, 0, 0, 4096, true);
        while buf.stats().early_flushes == 0 {
            buf.emit_kv(b"some-key", b"some-value-bytes");
        }
        assert!(buf.buffers[0].is_empty());
        assert!(buf.buffers[0].capacity() >= 4096, "regrows from nothing");
        let flushed = drain(rx);
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].payload_len() as u64, buf.stats().bytes);
        // `finish` has nothing more to come and reserves nothing.
        buf.emit_kv(b"k", b"v");
        let stats = buf.finish();
        assert_eq!((stats.frames, stats.early_flushes), (2, 1));
    }

    #[test]
    fn staged_mode_ships_once_at_finish() {
        let (senders, rxs) = mailboxes(1, DEFAULT_MAILBOX_CAPACITY);
        let rx = &rxs[0];
        let mut buf = KvBuffer::new(senders, 0, 3, 64, false);
        for i in 0..100 {
            buf.emit_kv(format!("k{i}").as_bytes(), b"value-bytes");
        }
        assert!(drain(rx).is_empty(), "nothing shipped before finish");
        let stats = buf.finish();
        assert_eq!(stats.early_flushes, 0);
        assert_eq!(stats.frames, 1);
        let frames = drain(rx);
        assert_eq!(frames.len(), 1);
        match &frames[0] {
            Frame::Data { o_task, .. } => assert_eq!(*o_task, 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn armed_corruption_flips_the_wire_but_not_the_checkpoint() {
        let (senders, rxs) = mailboxes(1, DEFAULT_MAILBOX_CAPACITY);
        let rx = &rxs[0];
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
        cp.mark_complete(4);
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
        let (senders, rxs) = mailboxes(1, DEFAULT_MAILBOX_CAPACITY);
        let rx = &rxs[0];
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
        let frames = drain(rx);
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
        let (senders, rxs) = mailboxes(1, DEFAULT_MAILBOX_CAPACITY);
        let rx = &rxs[0];
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
        let shipped: u64 = drain(rx)
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
        pipelined: bool,
        part: HashPartitioner,
        pending: Vec<Vec<Record>>,
        pending_bytes: Vec<usize>,
        frames: Vec<Vec<Vec<u8>>>,
        stats: BufferStats,
        /// Largest window, framed bytes: the buffer's `hwm_bytes`.
        hwm_bytes: usize,
        /// Most distinct keys a closed window held.
        widest: usize,
    }

    impl RecordStaging {
        fn new(combiner: Combiner, parts: usize, threshold: usize, pipelined: bool) -> Self {
            RecordStaging {
                combiner,
                threshold,
                pipelined,
                part: HashPartitioner::new(parts),
                pending: vec![Vec::new(); parts],
                pending_bytes: vec![0; parts],
                frames: vec![Vec::new(); parts],
                stats: BufferStats::default(),
                hwm_bytes: 0,
                widest: 0,
            }
        }

        fn emit(&mut self, key: &[u8], value: &[u8]) {
            let p = self.part.partition(key);
            let record = Record::new(key.to_vec(), value.to_vec());
            self.stats.records += 1;
            self.pending_bytes[p] += record.framed_len();
            self.hwm_bytes = self.hwm_bytes.max(self.pending_bytes[p]);
            self.pending[p].push(record);
            if self.pipelined && self.pending_bytes[p] >= self.threshold {
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
            let groups = dmpi_common::group::group_hashed(staged);
            self.widest = self.widest.max(groups.len());
            let mut buf = Vec::new();
            let mut out = FrameCollector {
                buf: &mut buf,
                records: 0,
            };
            for group in &groups {
                self.combiner.apply(group, &mut out);
            }
            self.stats.combiner_records_out += out.records;
            self.stats.bytes += buf.len() as u64;
            self.stats.frames += 1;
            self.frames[p].push(buf);
        }
    }

    /// Feeds `pairs` to a combining buffer and to [`RecordStaging`] and
    /// asserts that both ship the same frames to every destination, with
    /// the same counters and occupancy high-water mark. Returns the
    /// reference for the caller's own checks.
    fn assert_ships_what_record_staging_did(
        pairs: &[(Vec<u8>, Vec<u8>)],
        parts: usize,
        threshold: usize,
        pipelined: bool,
        combiner: fn() -> Combiner,
    ) -> RecordStaging {
        // Room for every frame: a pair closes at most one window.
        let (senders, rxs) = mailboxes(parts, pairs.len() + 1);
        let mut buf = KvBuffer::new(senders, 0, 0, threshold, pipelined);
        buf.set_combiner(combiner());
        let mut reference = RecordStaging::new(combiner(), parts, threshold, pipelined);
        for (key, value) in pairs {
            buf.emit_kv(key, value);
            reference.emit(key, value);
        }
        let hwm_bytes = buf.hwm_bytes;
        let stats = buf.finish();
        for p in 0..parts {
            reference.close(p);
        }
        let case = format!("threshold {threshold}, pipelined {pipelined}");
        assert_eq!(stats, reference.stats, "{case}");
        assert_eq!(hwm_bytes, reference.hwm_bytes, "{case}");
        for (p, rx) in rxs.iter().enumerate() {
            let shipped: Vec<Vec<u8>> = drain(rx)
                .iter()
                .filter_map(|f| match f {
                    Frame::Data { payload, .. } => Some(payload.to_vec()),
                    _ => None,
                })
                .collect();
            assert_eq!(shipped, reference.frames[p], "{case}, dest {p}");
        }
        reference
    }

    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    #[test]
    fn arena_staging_ships_the_frames_record_staging_did() {
        use dmpi_common::ser::Writable;
        const PARTS: usize = 3;
        let mut step = xorshift(0x2545f4914f6cdd1d);
        for (seed_round, threshold) in [48usize, 200, 1000, usize::MAX].into_iter().enumerate() {
            let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..(1500 + 300 * seed_round))
                .map(|_| {
                    // Skewed keys of uneven length, the empty key included.
                    let id = step() % 40;
                    let key = "k".repeat((id % 7) as usize) + &id.to_string();
                    let key = if id == 0 { String::new() } else { key };
                    (key.into_bytes(), (step() % 1000).to_bytes())
                })
                .collect();
            let reference =
                assert_ships_what_record_staging_did(&pairs, PARTS, threshold, true, sum_combiner);
            if threshold < usize::MAX {
                assert!(
                    reference.stats.early_flushes as usize > 2 * PARTS,
                    "threshold {threshold} must close several windows per destination"
                );
            }
        }
    }

    /// A combiner that keeps every value in its order — the group's
    /// values length-prefixed back to back — so a value moved to another
    /// group or position changes the frame.
    fn concat_combiner() -> Combiner {
        Combiner::new(|g, out| {
            let mut joined = Vec::new();
            for v in &g.values {
                varint::write_u64(&mut joined, v.len() as u64);
                joined.extend_from_slice(v);
            }
            out.collect(&g.key, &joined);
        })
    }

    #[test]
    fn arena_staging_matches_record_staging_while_the_index_grows() {
        const PARTS: usize = 3;
        let mut step = xorshift(0x9e37_79b9_7f4a_7c15);
        // Four pairs in five carry a fresh 3-byte key, so a large window
        // gathers thousands of distinct keys and its index doubles while
        // it is open; the rest repeat a hot set that holds the empty key.
        // A third of the values are empty.
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..60_000)
            .map(|_| {
                let key = if step().is_multiple_of(5) {
                    match step() % 40 {
                        0 => Vec::new(),
                        hot => format!("hot{hot}").into_bytes(),
                    }
                } else {
                    step().to_le_bytes()[..3].to_vec()
                };
                let value = (0..step() % 3).map(|_| step() as u8).collect();
                (key, value)
            })
            .collect();
        for threshold in [48, 200, 1000, 64 * 1024, usize::MAX] {
            let reference = assert_ships_what_record_staging_did(
                &pairs,
                PARTS,
                threshold,
                true,
                concat_combiner,
            );
            if threshold >= 64 * 1024 {
                assert!(
                    reference.widest >= 5000,
                    "threshold {threshold}: widest window {}",
                    reference.widest
                );
            }
        }
        let staged =
            assert_ships_what_record_staging_did(&pairs, PARTS, 48, false, concat_combiner);
        assert_eq!(staged.stats.early_flushes, 0);
        assert_eq!(staged.stats.frames, PARTS as u64);
        assert!(staged.widest >= 5000);
    }

    #[test]
    fn a_second_window_over_the_same_keys_rebuilds_no_table() {
        use dmpi_common::ser::Writable;
        let one = 1u64.to_bytes();
        let keys: Vec<Vec<u8>> = (0..1000).map(|i| format!("key{i}").into_bytes()).collect();
        let window_bytes: usize = keys
            .iter()
            .map(|k| Record::new(k.clone(), one.clone()).framed_len())
            .sum();
        let (senders, rxs) = mailboxes(1, DEFAULT_MAILBOX_CAPACITY);
        let mut buf = KvBuffer::new(senders, 0, 0, window_bytes, true);
        buf.set_combiner(sum_combiner());
        let tables = |buf: &KvBuffer| {
            let w = &buf.combining.as_ref().unwrap().windows[0];
            (
                (w.index.len(), w.index.as_ptr()),
                (w.keys.capacity(), w.keys.as_ptr()),
                (w.groups.capacity(), w.groups.as_ptr()),
                (w.pairs.capacity(), w.pairs.as_ptr()),
                (w.values.capacity(), w.values.as_ptr()),
            )
        };
        for key in &keys {
            buf.emit_kv(key, &one);
        }
        assert_eq!(buf.stats().early_flushes, 1, "closes on its last pair");
        let first = tables(&buf);
        assert!(
            first.0 .0 >= 2 * keys.len(),
            "the index grew to hold the window"
        );
        for key in &keys {
            buf.emit_kv(key, &one);
        }
        assert_eq!(buf.stats().early_flushes, 2);
        assert_eq!(tables(&buf), first, "the second window reuses every table");
        let stats = buf.finish();
        assert_eq!(stats.frames, 2);
        assert_eq!(stats.combiner_records_out, 2 * keys.len() as u64);
        assert_eq!(drain(&rxs[0]).len(), 2);
    }

    #[test]
    fn combiner_emit_and_emit_kv_agree() {
        let (senders_a, rx_a) = mailboxes(2, DEFAULT_MAILBOX_CAPACITY);
        let (senders_b, rx_b) = mailboxes(2, DEFAULT_MAILBOX_CAPACITY);
        let mut a = KvBuffer::new(senders_a, 0, 0, usize::MAX, true);
        let mut b = KvBuffer::new(senders_b, 0, 0, usize::MAX, true);
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
            let payload = |rx: &Receiver<Frame>| -> Vec<u8> {
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
        let (senders_a, rx_a) = mailboxes(2, DEFAULT_MAILBOX_CAPACITY);
        let (senders_b, rx_b) = mailboxes(2, DEFAULT_MAILBOX_CAPACITY);
        let mut a = KvBuffer::new(senders_a, 0, 0, usize::MAX, true);
        let mut b = KvBuffer::new(senders_b, 0, 0, usize::MAX, true);
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
