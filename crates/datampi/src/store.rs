//! The A-side intermediate store — DataMPI's "data-centric" leg, as a
//! **streaming run-formation + external-merge pipeline**.
//!
//! Frames arriving at an A partition are **kept as they arrived** and
//! indexed *as they arrive* (concurrently with the O phase — the ingest
//! thread does this work while O tasks are still computing): the forming
//! in-memory **run** is the frame payloads plus one 24-byte
//! [`IndexEntry`] per record (key prefix, frame number, offsets), never
//! an owned `Record` per pair. Sorting the run sorts the index; the
//! frame bytes do not move. When the partition outgrows its memory
//! budget the run is sorted and sealed through the indexed,
//! block-compressed run format of [`crate::spillfmt`], key and value
//! slices streaming straight from the frames into blocks — to a file
//! under the configured spill directory (the genuinely external-memory
//! path), or to an in-memory image in the identical format (the default
//! for small jobs).
//!
//! Groups leave the store one way, in key order, through
//! [`PartitionStore::into_group_stream`]. A partition that never spilled
//! walks its sorted index directly, each group's key and values being
//! slices of the frames. Once sealed runs exist, grouping is a k-way
//! external merge over them and the last forming run via a [loser
//! tree], so a spilled job never re-materializes the full record set in
//! memory: at any moment the merge holds one decoded block per run plus
//! the group under construction, and the runs' footer indexes let a
//! checkpoint-resumed merge ([`resume_group_stream`]) *skip* whole
//! blocks instead of scanning them.
//!
//! Sorting overlaps the O phase *and* the ingest thread itself: a run
//! crossing the budget is handed to a background sealing thread while
//! ingest keeps indexing the next run; only the final in-memory run
//! (bounded by the budget) is sorted at merge time. Sealed images are
//! collected in spill order, so the k-way merge's `(key, value, run)`
//! tiebreak sees the exact run sequence a synchronous sealer would have
//! produced.
//!
//! [loser tree]: https://en.wikipedia.org/wiki/K-way_merge_algorithm
use std::cmp::Ordering;

use bytes::Bytes;

use dmpi_common::compare::{
    index_frame, sort_index, BytesComparator, IndexEntry, RawComparator, SortKernel,
};
use dmpi_common::group::GroupedValues;
use dmpi_common::{Error, Record, Result};

use crate::observe::{Counter, HistKind, Observer, PhaseTotals, SpanKind, Tracer};
use crate::spillfmt::{RunReader, SpillConfig, SpillReadCounters};

/// Runs at or below this size seal inline on the ingest thread — a
/// thread spawn costs more than sorting and framing a few KiB.
const SEAL_INLINE_MAX: u64 = 64 * 1024;

/// Background sealing threads allowed in flight per partition before a
/// new spill joins the oldest one first (bounds thread count and the
/// memory pinned by unsealed runs under heavy spill pressure).
const MAX_INFLIGHT_SEALS: usize = 4;

/// Counters for one partition's store.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Bytes currently resident in memory (the forming run).
    pub mem_bytes: u64,
    /// High-water mark of `mem_bytes` — the external-sort residency
    /// proof: under a tight budget this stays near the budget no matter
    /// how large the input grows.
    pub peak_mem_bytes: u64,
    /// Raw (uncompressed, framed-record) bytes spilled to disk.
    pub spilled_bytes: u64,
    /// Bytes the sealed runs actually occupy on disk / in their images
    /// (blocks post-compression, plus footer index and trailer) —
    /// compare against `spilled_bytes` to see the compression win.
    pub spilled_wire_bytes: u64,
    /// Number of spill events (= number of sealed sorted runs).
    pub spills: u64,
    /// Frames ingested.
    pub frames: u64,
    /// Records decoded from ingested frames.
    pub records: u64,
    /// Largest number of records the forming run ever indexed at
    /// once — the proof that grouping streams instead of materializing:
    /// under spill pressure this stays far below `records`.
    pub peak_resident_records: u64,
}

/// The forming run: the ingested frame payloads, untouched, and one
/// index entry per record in them. A frame lives exactly as long as the
/// run does — until the run is sealed into blocks, or, for the run
/// grouped from memory, until the [`GroupStream`] and the groups it
/// handed out are dropped.
#[derive(Default)]
struct FormingRun {
    frames: Vec<Bytes>,
    /// Arrival order until [`sort`](Self::sort) is called.
    index: Vec<IndexEntry>,
}

impl FormingRun {
    /// Indexes `payload`'s records and keeps the payload. This is the
    /// only place frame bytes are validated; everything downstream
    /// slices through the entries it produced.
    fn push_frame(&mut self, payload: Bytes) -> Result<()> {
        index_frame(&mut self.index, self.frames.len(), &payload)?;
        self.frames.push(payload);
        Ok(())
    }

    /// Orders the index by `(key, value)`; the frames stay put.
    fn sort(&mut self) {
        sort_index(&mut self.index, &self.frames);
    }

    fn key_bytes(&self, e: &IndexEntry) -> Bytes {
        self.frames[e.frame()].slice(e.key_range())
    }

    fn value_bytes(&self, e: &IndexEntry) -> Bytes {
        self.frames[e.frame()].slice(e.value_range())
    }
}

/// In-memory (with spill) store for one A partition. Every run is
/// key-sorted when sealed, so the final grouping is a pure k-way merge.
pub struct PartitionStore {
    memory_budget: usize,
    /// The forming run, in arrival order (sorted lazily when sealed or
    /// when grouping starts).
    current: FormingRun,
    /// Sealed, key-sorted runs in the indexed block format (disk files
    /// or in-memory images per `spill_cfg`). Filled by
    /// [`collect_seals`](Self::collect_seals) in spill order.
    spilled: Vec<crate::spillfmt::SealedRun>,
    /// Runs handed off for sealing (inline results and in-flight
    /// background threads, in spill order).
    sealing: Vec<PendingSeal>,
    /// How runs seal: destination dir (or memory), compression, block
    /// budget, filename tag.
    spill_cfg: SpillConfig,
    /// Sequence number for run filenames.
    run_seq: u64,
    /// First sealing failure (disk full, unwritable spill dir, …),
    /// surfaced when the merge starts — sealing runs on background
    /// threads, so the error cannot be returned from `ingest` itself.
    seal_error: Option<Error>,
    /// Shared block read/skip/seek tallies fed by every reader this
    /// store's runs hand out.
    read_counters: SpillReadCounters,
    stats: StoreStats,
    /// Observability: `(observer, rank, attempt)`. Stored as the
    /// `Send + Sync` observer rather than a thread-local [`Tracer`] so
    /// sealing threads (and the store itself) can cross threads; each
    /// sealing site builds its own tracer from it.
    observer: Option<(Observer, u32, u32)>,
    /// Phase totals absorbed from sealing work (inline and background),
    /// drained by [`finish_ingest`](Self::finish_ingest).
    background_phase: PhaseTotals,
}

/// What one sealing site produced: the sealed run (or the I/O error
/// that prevented it) plus the phase totals the site recorded.
struct SealOutcome {
    run: Result<crate::spillfmt::SealedRun>,
    phase: PhaseTotals,
}

impl Default for SealOutcome {
    fn default() -> Self {
        let (image, index) = crate::spillfmt::RunWriter::new(1, false, true).finish();
        SealOutcome {
            run: Ok(crate::spillfmt::SealedRun::mem(image, index)),
            phase: PhaseTotals::default(),
        }
    }
}

/// One spill's sealing state, in spill order.
enum PendingSeal {
    /// Sealed inline (small run) or already joined.
    Done(SealOutcome),
    /// Sealing on a background thread, overlapped with further ingest.
    Thread(std::thread::JoinHandle<SealOutcome>),
}

/// Joins a sealing thread. A thread that panicked sealed nothing: its
/// outcome is an error, which the merge reports like any failed seal.
fn join_seal(handle: std::thread::JoinHandle<SealOutcome>) -> SealOutcome {
    handle.join().unwrap_or_else(|_| SealOutcome {
        run: Err(Error::InvalidState("sealing thread panicked".into())),
        phase: PhaseTotals::default(),
    })
}

/// Sorts and seals one run through the indexed block format — to a
/// spill file when the config has a directory, or to an in-memory
/// image — recording the `Spill` span and counters against a tracer
/// built from `observer` on the *calling* thread — valid both inline on
/// the ingest thread and on a background sealing thread.
fn seal_run(
    mut forming: FormingRun,
    observer: Option<&(Observer, u32, u32)>,
    cfg: &SpillConfig,
    seq: u64,
) -> SealOutcome {
    let tracer = observer.map(|(o, rank, attempt)| o.rank_tracer(*rank, *attempt));
    let spill_start = tracer.as_ref().map(Tracer::start);
    let wall_start = tracer.as_ref().map(|_| std::time::Instant::now());
    forming.sort();
    let mut writer = crate::spillfmt::RunWriter::new(cfg.block_bytes, cfg.compress, true);
    for e in &forming.index {
        writer.push_kv(e.key(&forming.frames), e.value(&forming.frames));
    }
    drop(forming);
    let (image, index) = writer.finish();
    let run = match &cfg.dir {
        Some(dir) => crate::spillfmt::SealedRun::to_file(
            &image,
            index,
            dir.join(format!("{}-{seq}.spill", cfg.tag)),
        ),
        None => Ok(crate::spillfmt::SealedRun::mem(image, index)),
    };
    if let Some(t) = &tracer {
        if let Ok(run) = &run {
            let idx = run.index();
            t.registry().add(Counter::Spills, 1);
            t.registry().add(Counter::SpillBytes, idx.raw_bytes);
            t.registry().add(Counter::SpillWireBytes, idx.file_len);
            let block_hist = t.registry().histograms().handle(HistKind::SpillBlock);
            for b in &idx.blocks {
                block_hist.record(b.stored_len as u64);
            }
            t.span(
                SpanKind::Spill,
                spill_start.unwrap_or(0),
                vec![
                    ("bytes", idx.raw_bytes.to_string()),
                    ("stored", idx.file_len.to_string()),
                    ("blocks", idx.blocks.len().to_string()),
                ],
            );
        }
        if let Some(start) = wall_start {
            t.registry()
                .histograms()
                .handle(HistKind::SpillSeal)
                .record_elapsed_us(start);
        }
    }
    let phase = match (observer, &tracer) {
        (Some((obs, _, _)), Some(t)) => obs.absorb(t),
        _ => PhaseTotals::default(),
    };
    SealOutcome { run, phase }
}

impl PartitionStore {
    /// Creates a store with the given per-partition memory budget. The
    /// `bool` does nothing: every store groups by key-sorted merge. Kept
    /// because the benchmark package passes one.
    pub fn new(memory_budget: usize, _sorted: bool) -> Self {
        PartitionStore {
            memory_budget,
            current: FormingRun::default(),
            spilled: Vec::new(),
            sealing: Vec::new(),
            spill_cfg: SpillConfig::default(),
            run_seq: 0,
            seal_error: None,
            read_counters: SpillReadCounters::new(),
            stats: StoreStats::default(),
            observer: None,
            background_phase: PhaseTotals::default(),
        }
    }

    /// Configures how runs seal: spill directory (or in-memory images),
    /// LZ4 block compression, block budget and filename tag. Takes
    /// effect for runs sealed after the call.
    pub fn set_spill_config(&mut self, cfg: SpillConfig) {
        self.spill_cfg = cfg;
    }

    /// The shared read-side counter handle every reader of this store's
    /// runs feeds (block reads/skips, stored bytes, seeks). Clone it
    /// before consuming the store to observe the merge afterwards.
    pub fn read_counters(&self) -> SpillReadCounters {
        self.read_counters.clone()
    }

    /// Installs an observability sink. Sealing sites (inline and
    /// background threads) build their own per-thread tracers from it,
    /// attributed to `rank`/`attempt`.
    pub fn set_observer(&mut self, observer: Observer, rank: u32, attempt: u32) {
        self.observer = Some((observer, rank, attempt));
    }

    /// Does nothing: the index has one sort, whatever the kernel. Kept
    /// because the benchmark package calls it.
    pub fn set_sort_kernel(&mut self, _kernel: SortKernel) {}

    /// Ingests one frame payload: indexes its records into the forming
    /// run immediately (streaming — this runs on the ingest thread,
    /// overlapped with the O phase), keeping the payload itself as the
    /// records' storage, and seals the run into a spill image if the
    /// partition crossed its memory budget.
    ///
    /// A decode failure means corruption slipped past the per-frame CRC
    /// gate; the caller reports it as a structured fault. The failed
    /// frame leaves nothing behind in the run.
    pub fn ingest(&mut self, payload: Bytes) -> Result<()> {
        let bytes = payload.len() as u64;
        let before = self.current.index.len();
        self.current.push_frame(payload)?;
        let resident = self.current.index.len();
        self.stats.frames += 1;
        self.stats.mem_bytes += bytes;
        self.stats.records += (resident - before) as u64;
        self.stats.peak_resident_records = self.stats.peak_resident_records.max(resident as u64);
        self.stats.peak_mem_bytes = self.stats.peak_mem_bytes.max(self.stats.mem_bytes);
        if self.stats.mem_bytes as usize > self.memory_budget {
            self.spill();
        }
        Ok(())
    }

    /// Seals the forming run to (simulated) disk: hands it off for
    /// sorting and framing into a spill image. Runs above
    /// `SEAL_INLINE_MAX` seal on a background thread so ingest keeps
    /// decoding the next run while the last one sorts. Accounting happens
    /// up front — spill images re-frame exactly the ingested records, so
    /// the image is `mem_bytes` long (the `total_bytes_is_conserved_*`
    /// test pins this). Also used to force residency out, e.g. by tests.
    pub fn spill(&mut self) {
        if self.current.index.is_empty() {
            return;
        }
        let run_bytes = self.stats.mem_bytes;
        self.stats.spilled_bytes += run_bytes;
        self.stats.spills += 1;
        self.stats.mem_bytes = 0;
        let seq = self.run_seq;
        self.run_seq += 1;
        let forming = std::mem::take(&mut self.current);
        if run_bytes <= SEAL_INLINE_MAX {
            // Small run: a thread spawn costs more than the sort.
            self.sealing.push(PendingSeal::Done(seal_run(
                forming,
                self.observer.as_ref(),
                &self.spill_cfg,
                seq,
            )));
            return;
        }
        let in_flight = self
            .sealing
            .iter()
            .filter(|p| matches!(p, PendingSeal::Thread(_)))
            .count();
        if in_flight >= MAX_INFLIGHT_SEALS {
            // Bound thread count and pinned memory: absorb the oldest
            // in-flight seal before launching another.
            if let Some(slot) = self
                .sealing
                .iter_mut()
                .find(|p| matches!(p, PendingSeal::Thread(_)))
            {
                let pending = std::mem::replace(slot, PendingSeal::Done(SealOutcome::default()));
                if let PendingSeal::Thread(handle) = pending {
                    *slot = PendingSeal::Done(join_seal(handle));
                }
            }
        }
        let observer = self.observer.clone();
        let cfg = self.spill_cfg.clone();
        self.sealing
            .push(PendingSeal::Thread(std::thread::spawn(move || {
                seal_run(forming, observer.as_ref(), &cfg, seq)
            })));
    }

    /// Joins every outstanding seal, in spill order, into `spilled`,
    /// folding each sealing site's phase totals into `background_phase`.
    /// Preserving spill order keeps the k-way merge's `(key, value, run)`
    /// tiebreak identical to what a synchronous sealer would produce.
    fn collect_seals(&mut self) {
        for pending in self.sealing.drain(..) {
            let sealed = match pending {
                PendingSeal::Done(sealed) => sealed,
                PendingSeal::Thread(handle) => join_seal(handle),
            };
            self.background_phase.merge(&sealed.phase);
            match sealed.run {
                Ok(run) => {
                    self.stats.spilled_wire_bytes += run.index().file_len;
                    self.spilled.push(run);
                }
                // Keep the first failure; the merge surfaces it.
                Err(e) => {
                    if self.seal_error.is_none() {
                        self.seal_error = Some(e);
                    }
                }
            }
        }
    }

    /// Barrier at the end of ingest: waits for all background sealing to
    /// finish and returns the phase totals that work recorded, for the
    /// caller to merge into the rank's phase accounting.
    pub fn finish_ingest(&mut self) -> PhaseTotals {
        self.collect_seals();
        std::mem::take(&mut self.background_phase)
    }

    /// Counters.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Total ingested bytes (resident + spilled).
    pub fn total_bytes(&self) -> u64 {
        self.stats.mem_bytes + self.stats.spilled_bytes
    }

    /// Seals the forming run and joins every outstanding seal, leaving
    /// **all** records in sealed runs. A checkpointing merge calls this
    /// before registering its runs so a restart can reopen every record
    /// from the block format; output is unchanged because the forming
    /// run keeps its last-run position in the merge's tiebreak order.
    pub fn seal_all(&mut self) {
        self.spill();
        self.collect_seals();
    }

    /// Clones of the sealed runs, in spill order. Cheap (refcounts);
    /// the checkpoint holds these so a restart can resume the merge
    /// without the store that sealed them.
    pub fn sealed_run_handles(&self) -> Vec<crate::spillfmt::SealedRun> {
        self.spilled.clone()
    }

    /// Turns the filled store into a streaming group source, in key
    /// order: a walk of the forming run's sorted index when nothing was
    /// sealed, otherwise a loser-tree k-way merge over the sealed runs
    /// plus the forming run, holding one decoded block per run at a time
    /// and never rebuilding the full record set.
    pub fn into_group_stream(mut self) -> Result<GroupStream> {
        self.collect_seals();
        if let Some(e) = self.seal_error.take() {
            return Err(e);
        }
        let mut forming = self.current;
        forming.sort();
        if self.spilled.is_empty() {
            return Ok(GroupStream {
                source: GroupSource::Index { forming, next: 0 },
            });
        }
        let mut runs: Vec<RunCursor> = Vec::with_capacity(self.spilled.len() + 1);
        for run in &self.spilled {
            let reader = run.open(&self.read_counters, None)?;
            runs.push(RunCursor::sealed(reader)?);
        }
        // Last, so it keeps the newest-run place in the tiebreak.
        if !forming.index.is_empty() {
            runs.push(RunCursor::forming(forming));
        }
        Ok(GroupStream {
            source: GroupSource::Merge(LoserTreeMerge::new(runs)),
        })
    }

    /// Convenience: drains the whole store into a flat, key-sorted
    /// record vector. Tests and small tools use this; the runtime
    /// streams via
    /// [`into_group_stream`](Self::into_group_stream) instead.
    pub fn into_records(self) -> Result<Vec<Record>> {
        let mut out = Vec::new();
        let mut stream = self.into_group_stream()?;
        while let Some(g) = stream.next_group()? {
            for v in g.values {
                out.push(Record {
                    key: g.key.clone(),
                    value: v,
                });
            }
        }
        Ok(out)
    }
}

/// A lazily-decoding cursor over one sorted run of the merge.
///
/// Sealed runs stream through an index-driven [`RunReader`], so merging
/// them costs one decoded block of memory per run. The forming run, when a spilled partition
/// still has one, yields records sliced from its frames in index order.
struct RunCursor {
    source: CursorSource,
    /// The run's current head record (`None` = exhausted).
    head: Option<Record>,
}

enum CursorSource {
    Sealed(RunReader),
    Forming { forming: FormingRun, next: usize },
}

impl RunCursor {
    fn sealed(reader: RunReader) -> Result<Self> {
        let mut cursor = RunCursor {
            source: CursorSource::Sealed(reader),
            head: None,
        };
        cursor.head = cursor.decode_next()?;
        Ok(cursor)
    }

    /// `forming` must already be sorted.
    fn forming(forming: FormingRun) -> Self {
        let mut cursor = RunCursor {
            source: CursorSource::Forming { forming, next: 0 },
            head: None,
        };
        cursor.head = cursor
            .decode_next()
            .expect("an indexed run cannot fail to decode");
        cursor
    }

    fn decode_next(&mut self) -> Result<Option<Record>> {
        match &mut self.source {
            CursorSource::Sealed(reader) => reader.next_record(),
            CursorSource::Forming { forming, next } => {
                let rec = forming.index.get(*next).map(|e| Record {
                    key: forming.key_bytes(e),
                    value: forming.value_bytes(e),
                });
                *next += 1;
                Ok(rec)
            }
        }
    }

    /// Takes the head record and advances the cursor.
    fn pop(&mut self) -> Result<Option<Record>> {
        let head = self.head.take();
        if head.is_some() {
            self.head = self.decode_next()?;
        }
        Ok(head)
    }

    /// The cursor's resume frontier: the block its head record came
    /// from (one past the last block when exhausted). `None` for a
    /// forming-run cursor still holding records — such a merge cannot be
    /// resumed from block boundaries.
    fn frontier(&self) -> Option<Option<usize>> {
        match (&self.source, self.head.is_some()) {
            (CursorSource::Sealed(reader), _) => Some(Some(reader.frontier_block())),
            // A drained forming run contributes nothing to a resume —
            // report it as skippable.
            (CursorSource::Forming { .. }, false) => Some(None),
            (CursorSource::Forming { .. }, true) => None,
        }
    }
}

/// Total order on run heads: `(key, value, run index)`, with exhausted
/// runs sorting last. The `(key, value)` part matches the seed path's
/// sort tie-break, so the merge output is identical to a global
/// [`sort_records`] of everything.
fn head_cmp(runs: &[RunCursor], a: usize, b: usize) -> Ordering {
    match (&runs[a].head, &runs[b].head) {
        (Some(x), Some(y)) => BytesComparator
            .compare(&x.key, &y.key)
            .then_with(|| x.value.cmp(&y.value))
            .then_with(|| a.cmp(&b)),
        (Some(_), None) => Ordering::Less,
        (None, Some(_)) => Ordering::Greater,
        (None, None) => a.cmp(&b),
    }
}

/// A k-way merge over sorted runs, organized as a **loser tree**
/// (tournament tree): each pop replays only the path from the winning
/// run's leaf to the root — `O(log k)` comparisons per record, versus
/// `O(k)` for a naive scan, and fewer comparisons in practice than a
/// binary heap because each level stores its loser and the winner is
/// carried up.
pub struct LoserTreeMerge {
    runs: Vec<RunCursor>,
    /// `tree[i]` = run index of the *loser* of the match at internal
    /// node `i`; `tree[0]` holds the overall winner.
    tree: Vec<usize>,
    /// Number of leaves (next power of two ≥ runs.len(); phantom leaves
    /// beyond `runs.len()` are permanently exhausted).
    leaves: usize,
}

impl LoserTreeMerge {
    fn new(runs: Vec<RunCursor>) -> Self {
        let k = runs.len().max(1);
        let leaves = k.next_power_of_two();
        let mut merge = LoserTreeMerge {
            runs,
            tree: vec![usize::MAX; leaves],
            leaves,
        };
        merge.rebuild();
        merge
    }

    /// Plays every match from scratch, filling the loser slots.
    fn rebuild(&mut self) {
        // Winner of the subtree rooted at internal node `i`, computed
        // bottom-up: start from the leaves, carry winners upward and
        // record losers at each internal node. Phantom leaves (past the
        // last run, when runs.len() is not a power of two) are marked
        // `usize::MAX`, which `play` makes lose every match.
        let mut level: Vec<usize> = (0..self.leaves)
            .map(|leaf| {
                if leaf < self.runs.len() {
                    leaf
                } else {
                    usize::MAX
                }
            })
            .collect();
        let mut node = self.leaves / 2;
        while node >= 1 {
            let mut next: Vec<usize> = Vec::with_capacity(node);
            for pair in level.chunks(2) {
                let (a, b) = (pair[0], pair.get(1).copied().unwrap_or(usize::MAX));
                let (winner, loser) = self.play(a, b);
                next.push(winner);
                // Internal nodes are laid out heap-style: this level's
                // matches occupy tree[node .. node + next.len()].
                self.tree[node + next.len() - 1] = loser;
            }
            level = next;
            if node == 1 {
                break;
            }
            node /= 2;
        }
        self.tree[0] = level.first().copied().unwrap_or(usize::MAX);
    }

    /// One match: returns `(winner, loser)`; `usize::MAX` is a phantom
    /// (always loses).
    fn play(&self, a: usize, b: usize) -> (usize, usize) {
        match (a, b) {
            (usize::MAX, x) => (x, usize::MAX),
            (x, usize::MAX) => (x, usize::MAX),
            (a, b) => {
                if head_cmp(&self.runs, a, b) != Ordering::Greater {
                    (a, b)
                } else {
                    (b, a)
                }
            }
        }
    }

    /// Pops the globally-smallest head record, replaying the winner's
    /// path to the root.
    fn pop(&mut self) -> Result<Option<Record>> {
        let winner = self.tree[0];
        if winner == usize::MAX {
            return Ok(None);
        }
        let rec = match self.runs[winner].pop()? {
            Some(rec) => rec,
            None => return Ok(None),
        };
        // Replay from the winner's leaf up: at each internal node the
        // stored loser challenges the carried candidate.
        let mut node = (self.leaves + winner) / 2;
        let mut candidate = if self.runs[winner].head.is_some() {
            winner
        } else {
            usize::MAX
        };
        while node >= 1 {
            let stored = self.tree[node];
            let (w, l) = self.play(candidate, stored);
            self.tree[node] = l;
            candidate = w;
            if node == 1 {
                break;
            }
            node /= 2;
        }
        self.tree[0] = candidate;
        Ok(Some(rec))
    }
}

/// A streaming source of key groups out of a drained [`PartitionStore`]:
/// the A phase pulls one [`GroupedValues`] at a time and hands it to the
/// user's A function, so grouped data is never all resident at once.
pub struct GroupStream {
    source: GroupSource,
}

/// Where the groups come from.
enum GroupSource {
    /// Nothing sealed: the forming run's sorted index, walked from
    /// `next`.
    Index { forming: FormingRun, next: usize },
    /// Sealed runs: loser-tree external merge.
    Merge(LoserTreeMerge),
}

impl GroupStream {
    /// Produces the next key group, or `None` when the store is drained.
    /// Allocates the group's value vector; a loop over every group reuses
    /// one through [`next_group_into`](Self::next_group_into).
    pub fn next_group(&mut self) -> Result<Option<GroupedValues>> {
        let mut group = GroupedValues::default();
        Ok(self.next_group_into(&mut group)?.then_some(group))
    }

    /// Overwrites `group` with the next key group, keeping its value
    /// vector's allocation, and returns `false` (leaving `group` as it
    /// was) when the store is drained.
    pub fn next_group_into(&mut self, group: &mut GroupedValues) -> Result<bool> {
        match &mut self.source {
            GroupSource::Index { forming, next } => {
                let Some(first) = forming.index.get(*next) else {
                    return Ok(false);
                };
                // Equal keys are adjacent and their values already in
                // order: the group is a slice of the index, `first` and
                // the entries after it that share its key.
                let len = 1 + forming.index[*next + 1..]
                    .iter()
                    .position(|e| !e.same_key(first, &forming.frames))
                    .unwrap_or(forming.index.len() - *next - 1);
                let members = &forming.index[*next..*next + len];
                group.key = forming.key_bytes(first);
                group.values.clear();
                // Exact, so that a fresh group (`next_group`) is no
                // larger than its values; nothing to do on a reused one.
                group.values.reserve_exact(len);
                group
                    .values
                    .extend(members.iter().map(|e| forming.value_bytes(e)));
                *next += len;
            }
            GroupSource::Merge(merge) => {
                let Some(first) = merge.pop()? else {
                    return Ok(false);
                };
                group.key = first.key;
                group.values.clear();
                // As above: most groups of a sort hold one value.
                group.values.reserve_exact(1);
                group.values.push(first.value);
                // Keep pulling while the merge head shares the key.
                loop {
                    let same = match merge.tree[0] {
                        usize::MAX => false,
                        w => matches!(&merge.runs[w].head, Some(r) if r.key == group.key),
                    };
                    if !same {
                        break;
                    }
                    match merge.pop()? {
                        Some(rec) => group.values.push(rec.value),
                        None => break,
                    }
                }
            }
        }
        Ok(true)
    }

    /// The merge's resume frontier: for each sealed-run cursor, the
    /// block its head record came from (one past the last block when
    /// exhausted). Recorded at a group boundary, this is everything a
    /// restart needs to reopen the runs mid-way: blocks before the
    /// frontier hold only records from already-emitted groups.
    ///
    /// `None` when a live in-memory run is part of the stream (its
    /// records have no block addresses — call
    /// [`PartitionStore::seal_all`] before merging to make a stream
    /// resumable).
    pub fn frontier(&self) -> Option<Vec<usize>> {
        let merge = match &self.source {
            GroupSource::Merge(merge) => merge,
            // As with a drained forming cursor: nothing left to resume.
            GroupSource::Index { forming, next } if *next >= forming.index.len() => {
                return Some(Vec::new())
            }
            GroupSource::Index { .. } => return None,
        };
        let mut out = Vec::new();
        for cursor in &merge.runs {
            // A drained forming cursor contributes nothing to a resume.
            if let Some(block) = cursor.frontier()? {
                out.push(block);
            }
        }
        Some(out)
    }
}

/// Reopens a sealed-run merge mid-way: cursor `i` starts at block
/// `frontier[i]` and skips any record whose key is `<= last_key` (the
/// last fully-emitted group), so the resumed stream yields exactly the
/// groups after `last_key` — while re-reading only blocks at or after
/// each frontier. Runs must be the ones the frontier was recorded
/// against, in the same order.
pub fn resume_group_stream(
    runs: &[crate::spillfmt::SealedRun],
    frontier: &[usize],
    last_key: Option<Bytes>,
    counters: &SpillReadCounters,
) -> Result<GroupStream> {
    if runs.len() != frontier.len() {
        return Err(Error::InvalidState(format!(
            "merge frontier covers {} runs, checkpoint has {}",
            frontier.len(),
            runs.len()
        )));
    }
    let mut cursors = Vec::with_capacity(runs.len());
    for (run, &start) in runs.iter().zip(frontier) {
        let reader = run.open_at(start, last_key.clone(), counters, None)?;
        cursors.push(RunCursor::sealed(reader)?);
    }
    Ok(GroupStream {
        source: GroupSource::Merge(LoserTreeMerge::new(cursors)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmpi_common::compare::{is_sorted, sort_records};
    use dmpi_common::{ser, RecordBatch};

    fn frame_of(records: &[Record]) -> Bytes {
        let batch: RecordBatch = records.iter().cloned().collect();
        Bytes::from(ser::frame_batch(&batch))
    }

    fn rec(k: &str, v: &str) -> Record {
        Record::from_strs(k, v)
    }

    #[test]
    fn ingest_within_budget_stays_resident() {
        let mut s = PartitionStore::new(1 << 20, true);
        s.ingest(frame_of(&[rec("b", "2"), rec("a", "1")])).unwrap();
        assert_eq!(s.stats().spills, 0);
        assert!(s.stats().mem_bytes > 0);
        assert_eq!(s.stats().records, 2);
        let records = s.into_records().unwrap();
        assert_eq!(records.len(), 2);
        assert!(is_sorted(&records, &BytesComparator));
    }

    #[test]
    fn over_budget_spills_and_merge_is_correct() {
        let mut s = PartitionStore::new(64, true);
        let mut expected = Vec::new();
        for i in (0..50).rev() {
            let r = rec(&format!("key{i:03}"), &format!("{i}"));
            expected.push(r.clone());
            s.ingest(frame_of(&[r])).unwrap();
        }
        assert!(s.stats().spills > 0, "tiny budget must spill");
        assert!(s.stats().spilled_bytes > 0);
        let records = s.into_records().unwrap();
        assert_eq!(records.len(), 50);
        assert!(is_sorted(&records, &BytesComparator));
        sort_records(&mut expected, &BytesComparator);
        assert_eq!(records, expected);
    }

    #[test]
    fn spill_pressure_bounds_resident_records() {
        let mut s = PartitionStore::new(64, true);
        for i in 0..200 {
            s.ingest(frame_of(&[rec(&format!("key{i:03}"), "valuevalue")]))
                .unwrap();
        }
        let st = s.stats();
        assert_eq!(st.records, 200);
        assert!(
            st.peak_resident_records < 20,
            "64-byte budget must keep the forming run tiny, saw {}",
            st.peak_resident_records
        );
        // And the merge still yields everything, sorted.
        let records = s.into_records().unwrap();
        assert_eq!(records.len(), 200);
        assert!(is_sorted(&records, &BytesComparator));
    }

    #[test]
    fn group_stream_merges_across_runs() {
        let mut s = PartitionStore::new(1 << 20, true);
        s.ingest(frame_of(&[rec("b", "1"), rec("a", "1")])).unwrap();
        s.spill();
        s.ingest(frame_of(&[rec("a", "2"), rec("c", "1")])).unwrap();
        s.spill();
        s.ingest(frame_of(&[rec("a", "3"), rec("b", "2")])).unwrap();
        let mut stream = s.into_group_stream().unwrap();
        let a = stream.next_group().unwrap().unwrap();
        assert_eq!(a.key, Bytes::from_static(b"a"));
        assert_eq!(a.len(), 3, "values for 'a' from all three runs");
        let b = stream.next_group().unwrap().unwrap();
        assert_eq!(b.key, Bytes::from_static(b"b"));
        assert_eq!(b.len(), 2);
        let c = stream.next_group().unwrap().unwrap();
        assert_eq!(c.key, Bytes::from_static(b"c"));
        assert!(stream.next_group().unwrap().is_none());
    }

    #[test]
    fn index_walk_separates_keys_that_agree_after_their_first_eight_bytes() {
        // Each key repeats often enough for its run to be refined a
        // level, where both keys load the same bytes into their entries'
        // prefix field. The walk tells groups apart by that field plus
        // the key tails, so the sort must have put the first eight bytes
        // back — or these two keys would come out as one group.
        let mut s = PartitionStore::new(1 << 20, true);
        let mut records = Vec::new();
        for i in 0..40 {
            records.push(rec("AAAAAAAA-same-tail", &format!("{i:02}")));
            records.push(rec("BBBBBBBB-same-tail", &format!("{i:02}")));
        }
        s.ingest(frame_of(&records)).unwrap();
        let mut stream = s.into_group_stream().unwrap();
        let mut group = GroupedValues::default();
        for key in ["AAAAAAAA-same-tail", "BBBBBBBB-same-tail"] {
            assert!(stream.next_group_into(&mut group).unwrap());
            assert_eq!(group.key, Bytes::copy_from_slice(key.as_bytes()));
            assert_eq!(group.len(), 40);
        }
        assert!(!stream.next_group_into(&mut group).unwrap());
        assert_eq!(group.len(), 40, "a drained stream leaves the group alone");
    }

    #[test]
    fn refilled_group_equals_fresh_groups_on_every_source() {
        // Spill half-way or not: loser-tree merge or index walk.
        for spill in [false, true] {
            let fill = || {
                let mut s = PartitionStore::new(1 << 20, true);
                for i in 0..60 {
                    if spill && i == 30 {
                        s.spill();
                    }
                    let r = rec(&format!("k{}", (i * 13) % 7), &format!("v{:02}", i % 10));
                    s.ingest(frame_of(&[r])).unwrap();
                }
                s.into_group_stream().unwrap()
            };
            let mut fresh = Vec::new();
            let mut stream = fill();
            while let Some(g) = stream.next_group().unwrap() {
                fresh.push(g);
            }
            let mut refilled = Vec::new();
            let mut stream = fill();
            let mut group = GroupedValues::default();
            while stream.next_group_into(&mut group).unwrap() {
                refilled.push(group.clone());
            }
            assert_eq!(fresh.len(), 7);
            assert_eq!(refilled, fresh, "spill={spill}");
        }
    }

    #[test]
    fn merge_matches_seed_semantics_exactly() {
        // The correctness bar: for any ingest order, the streamed merge
        // equals decode-everything + global sort_records.
        let mut s = PartitionStore::new(48, true);
        let mut all = Vec::new();
        for i in 0..60 {
            let r = rec(&format!("k{}", (i * 13) % 7), &format!("v{:02}", i % 10));
            all.push(r.clone());
            s.ingest(frame_of(&[r])).unwrap();
        }
        let merged = s.into_records().unwrap();
        sort_records(&mut all, &BytesComparator);
        assert_eq!(merged, all);
    }

    #[test]
    fn total_bytes_is_conserved_across_spills() {
        let mut s = PartitionStore::new(16, true);
        let mut sent = 0u64;
        for i in 0..10 {
            let f = frame_of(&[rec(&format!("{i}"), "abcdefgh")]);
            sent += f.len() as u64;
            s.ingest(f).unwrap();
        }
        // Spill images re-frame the same records, so byte totals are
        // conserved exactly.
        assert_eq!(s.total_bytes(), sent);
    }

    #[test]
    fn empty_store_yields_nothing() {
        let s = PartitionStore::new(1024, true);
        assert!(s.into_records().unwrap().is_empty());
        let s = PartitionStore::new(1024, true);
        assert!(s
            .into_group_stream()
            .unwrap()
            .next_group()
            .unwrap()
            .is_none());
    }

    #[test]
    fn manual_spill_then_more_ingest() {
        let mut s = PartitionStore::new(1 << 20, true);
        s.ingest(frame_of(&[rec("z", "1")])).unwrap();
        s.spill();
        s.ingest(frame_of(&[rec("a", "2")])).unwrap();
        let records = s.into_records().unwrap();
        assert_eq!(records[0].key_utf8(), "a");
        assert_eq!(records[1].key_utf8(), "z");
    }

    #[test]
    fn corrupt_payload_is_an_ingest_error() {
        let mut s = PartitionStore::new(1 << 20, true);
        let mut bad = frame_of(&[rec("k", "v")]).to_vec();
        bad.truncate(bad.len() - 1);
        assert!(s.ingest(Bytes::from(bad)).is_err());
    }

    #[test]
    fn large_runs_seal_in_the_background() {
        // Runs above SEAL_INLINE_MAX take the background-sealing path;
        // the merged output must still equal a global sort, and byte
        // accounting must be conserved even though it happens before the
        // image exists.
        let budget = (SEAL_INLINE_MAX as usize) * 2;
        let mut s = PartitionStore::new(budget, true);
        let big_value = "x".repeat(512);
        let mut all = Vec::new();
        let mut sent = 0u64;
        for i in 0..600 {
            let r = rec(&format!("k{:04}", (i * 31) % 997), &big_value);
            all.push(r.clone());
            let f = frame_of(&[r]);
            sent += f.len() as u64;
            s.ingest(f).unwrap();
        }
        assert!(s.stats().spills >= 2, "must spill repeatedly");
        assert_eq!(s.total_bytes(), sent, "upfront accounting conserved");
        let merged = s.into_records().unwrap();
        sort_records(&mut all, &BytesComparator);
        assert_eq!(merged, all);
    }

    #[test]
    fn finish_ingest_joins_outstanding_seals() {
        let budget = (SEAL_INLINE_MAX as usize) * 2;
        let mut s = PartitionStore::new(budget, true);
        let big_value = "y".repeat(1024);
        for i in 0..400 {
            s.ingest(frame_of(&[rec(&format!("k{i:04}"), &big_value)]))
                .unwrap();
        }
        assert!(s.stats().spills >= 1);
        // Without an observer the totals are empty, but the barrier must
        // still join every sealing thread so the images are materialized.
        let phase = s.finish_ingest();
        assert_eq!(phase, PhaseTotals::default());
        assert_eq!(s.sealing.len(), 0);
        assert_eq!(s.spilled.len(), s.stats().spills as usize);
    }

    #[test]
    fn sealing_records_spill_phase_when_observed() {
        let obs = Observer::new();
        let budget = (SEAL_INLINE_MAX as usize) * 2;
        let mut s = PartitionStore::new(budget, true);
        s.set_observer(obs.clone(), 0, 0);
        let big_value = "z".repeat(1024);
        for i in 0..400 {
            s.ingest(frame_of(&[rec(&format!("k{i:04}"), &big_value)]))
                .unwrap();
        }
        assert!(s.stats().spills >= 1);
        let phase = s.finish_ingest();
        // Spill time was recorded by the sealing sites and surfaced
        // through the barrier, not lost on the background threads.
        assert!(phase.spill_us > 0 || phase == PhaseTotals::default());
        assert_eq!(
            obs.trace().of_kind(SpanKind::Spill).count() as u64,
            s.stats().spills
        );
    }

    #[test]
    fn many_runs_stress_the_loser_tree() {
        // Non-power-of-two run counts exercise the phantom leaves.
        for runs in [1usize, 2, 3, 5, 7, 9] {
            let mut s = PartitionStore::new(1, true); // every frame spills
            let mut all = Vec::new();
            for i in 0..runs * 4 {
                let r = rec(&format!("k{:03}", (i * 17) % 23), &format!("{i}"));
                all.push(r.clone());
                s.ingest(frame_of(&[r])).unwrap();
            }
            let merged = s.into_records().unwrap();
            sort_records(&mut all, &BytesComparator);
            assert_eq!(merged, all, "runs={runs}");
        }
    }

    #[test]
    fn a_panicked_sealing_thread_fails_the_merge_without_panicking() {
        let panicking = || std::thread::spawn(|| -> SealOutcome { panic!("seal blew up") });
        let outcome = join_seal(panicking());
        assert!(matches!(outcome.run, Err(Error::InvalidState(_))));
        // Through the store: the first failed seal is the merge's error.
        let mut s = PartitionStore::new(1 << 20, true);
        s.ingest(frame_of(&[rec("a", "1")])).unwrap();
        s.sealing.push(PendingSeal::Thread(panicking()));
        let err = s.into_group_stream().err().expect("the merge must fail");
        assert!(err.to_string().contains("sealing thread panicked"), "{err}");
    }
}
