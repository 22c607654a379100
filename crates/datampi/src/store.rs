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
//! budget and a spill directory is configured, the run is sorted and
//! sealed into a file under it in the indexed, block-structured run
//! format of [`crate::spillfmt`], key and value slices streaming straight
//! from the frames into blocks and each block reaching the file as it
//! closes. Without a spill directory nothing seals: the budget bounds
//! nothing and the whole partition stays in memory.
//!
//! Groups leave the store one way, in key order, through
//! [`PartitionStore::into_group_stream`]. A partition that never spilled
//! walks its sorted index directly, each group's key and values being
//! slices of the frames. Once sealed runs exist, grouping is a k-way
//! external merge over them and the last forming run via a [loser
//! tree], so a spilled job never re-materializes the full record set in
//! memory: at any moment the merge holds one decoded block per run plus
//! the group under construction.
//!
//! Sorting overlaps the O phase: a run crossing the budget is sorted and
//! sealed right away on the thread that called
//! [`ingest`](PartitionStore::ingest) — the rank's ingest thread, which
//! runs while the senders are still computing — before that thread
//! indexes the next frame. Only the final forming run (bounded by the
//! budget when runs can seal) is sorted at merge time. Sealing in place
//! bounds the ingest thread's heap by a multiple of the budget — the
//! forming run, its index and the one block being written — plus the
//! sealed runs' block indexes, which grow with the input
//! (`tests/external_sort.rs` holds it to 5× at 6 and 25 budgets).
//!
//! [loser tree]: https://en.wikipedia.org/wiki/K-way_merge_algorithm
use std::cmp::Ordering;

use bytes::Bytes;

use dmpi_common::compare::{index_frame, sort_index, IndexEntry, SortKernel, PREFETCH_AHEAD};
use dmpi_common::group::GroupedValues;
use dmpi_common::{Error, Result};

use crate::observe::{Counter, HistKind, Observer, PhaseTotals, SpanKind, Tracer};
use crate::spillfmt::{RunReader, RunWriter, SealedRun, SpillConfig, SpillReadCounters};

/// Counters for one partition's store.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Bytes currently resident in memory (the forming run).
    pub mem_bytes: u64,
    /// High-water mark of `mem_bytes` — the external-sort residency
    /// proof: with a spill directory and a tight budget this stays near
    /// the budget no matter how large the input grows.
    pub peak_mem_bytes: u64,
    /// Framed-record bytes sealed into spill files.
    pub spilled_bytes: u64,
    /// Bytes the spill files occupy on disk: the blocks plus each run's
    /// footer index and trailer, so the excess over `spilled_bytes` is
    /// the index overhead.
    pub spilled_wire_bytes: u64,
    /// Number of spill events (= number of sealed sorted runs); always 0
    /// without a spill directory.
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
}

/// In-memory (with spill) store for one A partition. Every run is
/// key-sorted when sealed, so the final grouping is a pure k-way merge.
pub struct PartitionStore {
    memory_budget: usize,
    /// The forming run, in arrival order (sorted lazily when sealed or
    /// when grouping starts).
    current: FormingRun,
    /// Sealed, key-sorted run files, in spill order.
    spilled: Vec<SealedRun>,
    /// How runs seal: destination dir (none: never), block budget,
    /// filename tag.
    spill_cfg: SpillConfig,
    /// First sealing failure (disk full, unwritable spill dir, …),
    /// surfaced when the merge starts. `ingest` does not return it: the
    /// rank reports an `ingest` error as a corrupt frame, and a failed
    /// write is not one.
    seal_error: Option<Error>,
    /// Shared block read/skip/seek tallies fed by every reader this
    /// store's runs hand out.
    read_counters: SpillReadCounters,
    stats: StoreStats,
    /// Observability: `(observer, rank, attempt)`. Stored as the
    /// `Send + Sync` observer rather than a thread-local [`Tracer`]
    /// because the store moves from the ingest thread to the rank
    /// thread; each seal builds a tracer from it on the thread it runs
    /// on.
    observer: Option<(Observer, u32, u32)>,
    /// Phase totals the seals recorded, drained by
    /// [`finish_ingest`](Self::finish_ingest).
    seal_phase: PhaseTotals,
}

/// What one seal produced: the sealed run (or the I/O error that
/// prevented it) plus the phase totals the seal recorded.
struct SealOutcome {
    run: Result<SealedRun>,
    phase: PhaseTotals,
}

/// Sorts one run and seals it into the spill file at `path` in the
/// indexed block format, a block at a time, recording the `Spill` span
/// and counters against a tracer built from `observer` on the calling
/// thread.
fn seal_run(
    mut forming: FormingRun,
    observer: Option<&(Observer, u32, u32)>,
    cfg: &SpillConfig,
    path: std::path::PathBuf,
) -> SealOutcome {
    let tracer = observer.map(|(o, rank, attempt)| o.rank_tracer(*rank, *attempt));
    let spill_start = tracer.as_ref().map(Tracer::start);
    let wall_start = tracer.as_ref().map(|_| std::time::Instant::now());
    forming.sort();
    let run = SealedRun::create(path, |file| {
        let sink = std::io::BufWriter::new(file);
        let mut writer = RunWriter::with_sink(sink, cfg.block_bytes, true);
        let (frames, index) = (&forming.frames, &forming.index);
        for (i, e) in index.iter().enumerate() {
            if let Some(ahead) = index.get(i + PREFETCH_AHEAD) {
                ahead.prefetch_key(frames, 0);
            }
            writer.push_kv(e.key(frames), e.value(frames));
        }
        writer.close().map(|(_, index)| index)
    });
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
            spill_cfg: SpillConfig::default(),
            seal_error: None,
            read_counters: SpillReadCounters::new(),
            stats: StoreStats::default(),
            observer: None,
            seal_phase: PhaseTotals::default(),
        }
    }

    /// Configures how runs seal: spill directory (none: never), block
    /// budget and filename tag. Takes effect for runs sealed after the
    /// call.
    pub fn set_spill_config(&mut self, cfg: SpillConfig) {
        self.spill_cfg = cfg;
    }

    /// The shared read-side counter handle every reader of this store's
    /// runs feeds (block reads/skips, stored bytes, seeks). Clone it
    /// before consuming the store to observe the merge afterwards.
    pub fn read_counters(&self) -> SpillReadCounters {
        self.read_counters.clone()
    }

    /// Installs an observability sink. Each seal builds a tracer from
    /// it, attributed to `rank`/`attempt`.
    pub fn set_observer(&mut self, observer: Observer, rank: u32, attempt: u32) {
        self.observer = Some((observer, rank, attempt));
    }

    /// Does nothing: the index has one sort, whatever the kernel. Kept
    /// because the benchmark package calls it.
    pub fn set_sort_kernel(&mut self, _kernel: SortKernel) {}

    /// Ingests one frame payload: indexes its records into the forming
    /// run immediately (streaming — this runs on the ingest thread,
    /// overlapped with the O phase), keeping the payload itself as the
    /// records' storage, and seals the run into a spill file if the
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

    /// Seals the forming run, on the calling thread, into a file under
    /// the spill dir; does nothing without one. Spill files re-frame
    /// exactly the ingested records, so the run's `mem_bytes` move to
    /// `spilled_bytes` (the `total_bytes_is_conserved_*` test pins
    /// this). A failed seal is kept for the merge to report. Also used
    /// to force residency out, e.g. by tests.
    pub fn spill(&mut self) {
        let Some(dir) = &self.spill_cfg.dir else {
            return;
        };
        if self.current.index.is_empty() {
            return;
        }
        let path = dir.join(format!(
            "{}-{}.spill",
            self.spill_cfg.tag, self.stats.spills
        ));
        self.stats.spills += 1;
        self.stats.spilled_bytes += self.stats.mem_bytes;
        self.stats.mem_bytes = 0;
        let forming = std::mem::take(&mut self.current);
        let sealed = seal_run(forming, self.observer.as_ref(), &self.spill_cfg, path);
        self.seal_phase.merge(&sealed.phase);
        match sealed.run {
            Ok(run) => {
                self.stats.spilled_wire_bytes += run.index().file_len;
                self.spilled.push(run);
            }
            Err(e) => {
                self.seal_error.get_or_insert(e);
            }
        }
    }

    /// The end of ingest: returns the phase totals the seals recorded,
    /// for the caller to merge into the rank's phase accounting.
    pub fn finish_ingest(&mut self) -> PhaseTotals {
        std::mem::take(&mut self.seal_phase)
    }

    /// Counters.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Seals the forming run, leaving **all** records in sealed runs, or
    /// does nothing without a spill dir. Output is unchanged because the
    /// forming run keeps its last-run position in the merge's tiebreak
    /// order.
    pub fn seal_all(&mut self) {
        self.spill();
    }

    /// Turns the filled store into a streaming group source, in key
    /// order: a walk of the forming run's sorted index when nothing was
    /// sealed, otherwise a loser-tree k-way merge over the sealed runs
    /// plus the forming run, holding one decoded block per run at a time
    /// and never rebuilding the full record set.
    pub fn into_group_stream(mut self) -> Result<GroupStream> {
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
}

/// Key bytes a merge cursor caches of its head entry.
const HEAD_KEY_LEN: usize = 16;

/// The first [`HEAD_KEY_LEN`] bytes of `key`, big-endian and
/// zero-padded: integer order on it is byte order on those bytes. The
/// padding makes `"a"` and `"a\0"` collide, so equal values decide
/// nothing by themselves.
fn head_key(key: &[u8]) -> u128 {
    let mut padded = [0u8; HEAD_KEY_LEN];
    let n = key.len().min(HEAD_KEY_LEN);
    padded[..n].copy_from_slice(&key[..n]);
    u128::from_be_bytes(padded)
}

/// The key of `e`, as a handle on the frame holding it.
fn cut_key(frames: &[Bytes], e: &IndexEntry) -> Bytes {
    frames[e.frame()].slice(e.key_range())
}

/// The value of `e`, as a handle on the frame holding it.
fn cut_value(frames: &[Bytes], e: &IndexEntry) -> Bytes {
    frames[e.frame()].slice(e.value_range())
}

/// One sorted run of the merge: frames, an index over them in
/// `(key, value)` order, and the next entry to hand out — the same
/// machinery the index walk uses, for both kinds of run.
///
/// The forming run, when a spilled partition still has one, is its own
/// frames and sorted index. A sealed run holds one block at a time: its
/// [`RunReader`] hands each block over whole (CRC-checked) and the
/// cursor indexes it like an arriving frame, so merging costs one
/// decoded block of memory per run. `Bytes` handles are cut only when a
/// record leaves the cursor.
struct RunCursor {
    frames: Vec<Bytes>,
    index: Vec<IndexEntry>,
    next: usize,
    /// [`head_key`] of the head entry's key (0 once exhausted), so most
    /// matches of the loser tree compare two integers and read no block.
    head_key: u128,
    /// Where a sealed run's next block comes from; `None` for the
    /// forming run.
    reader: Option<RunReader>,
}

impl RunCursor {
    /// A cursor over a sealed run.
    fn sealed(reader: RunReader) -> Result<Self> {
        let mut cursor = RunCursor {
            frames: Vec::with_capacity(1),
            index: Vec::new(),
            next: 0,
            head_key: 0,
            reader: Some(reader),
        };
        cursor.settle()?;
        Ok(cursor)
    }

    /// `forming` must already be sorted.
    fn forming(forming: FormingRun) -> Self {
        let mut cursor = RunCursor {
            frames: forming.frames,
            index: forming.index,
            next: 0,
            head_key: 0,
            reader: None,
        };
        cursor.cache_head_key();
        cursor
    }

    /// The entry the cursor hands out next (`None` = exhausted).
    fn head(&self) -> Option<&IndexEntry> {
        self.index.get(self.next)
    }

    fn cache_head_key(&mut self) {
        self.head_key = self.head().map_or(0, |e| head_key(e.key(&self.frames)));
    }

    /// Brings the cursor to its next live head: loads and indexes sealed
    /// blocks while the current one is used up, then caches the head's
    /// key bytes.
    fn settle(&mut self) -> Result<()> {
        while self.next >= self.index.len() {
            let Some(reader) = &mut self.reader else {
                break;
            };
            let Some(block) = reader.next_block()? else {
                break;
            };
            self.frames.clear();
            self.index.clear();
            self.next = 0;
            index_frame(&mut self.index, 0, &block)?;
            self.frames.push(block);
        }
        self.cache_head_key();
        Ok(())
    }

    /// Cuts the head entry's value out of its frame and advances past it.
    fn pop_value(&mut self) -> Result<Option<Bytes>> {
        let Some(e) = self.head() else {
            return Ok(None);
        };
        let value = cut_value(&self.frames, e);
        self.next += 1;
        self.settle()?;
        Ok(Some(value))
    }
}

/// Total order on run heads: `(key, value, run index)`, with exhausted
/// runs sorting last. The cached first 16 key bytes decide most matches;
/// only heads that agree on them compare full keys. The `(key, value)`
/// part matches the seed path's sort tie-break, so the merge output is
/// identical to a global [`sort_records`] of everything.
///
/// [`sort_records`]: dmpi_common::compare::sort_records
fn head_cmp(runs: &[RunCursor], a: usize, b: usize) -> Ordering {
    let (x, y) = (&runs[a], &runs[b]);
    match (x.head(), y.head()) {
        (Some(ex), Some(ey)) => x
            .head_key
            .cmp(&y.head_key)
            .then_with(|| ex.key(&x.frames).cmp(ey.key(&y.frames)))
            .then_with(|| ex.value(&x.frames).cmp(ey.value(&y.frames)))
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

    /// The globally-smallest head entry and the frames it indexes.
    fn peek(&self) -> Option<(&[Bytes], &IndexEntry)> {
        let run = self.runs.get(self.tree[0])?;
        Some((&run.frames, run.head()?))
    }

    /// Pops the globally-smallest head entry's value and replays the
    /// winner's path to the root.
    fn pop_value(&mut self) -> Result<Option<Bytes>> {
        let winner = self.tree[0];
        if winner == usize::MAX {
            return Ok(None);
        }
        let Some(value) = self.runs[winner].pop_value()? else {
            return Ok(None);
        };
        // Replay from the winner's leaf up: at each internal node the
        // stored loser challenges the carried candidate.
        let mut node = (self.leaves + winner) / 2;
        let mut candidate = if self.runs[winner].head().is_some() {
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
        Ok(Some(value))
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
                group.key = cut_key(&forming.frames, first);
                group.values.clear();
                // Exact, so that a fresh group (`next_group`) is no
                // larger than its values; nothing to do on a reused one.
                group.values.reserve_exact(len);
                group
                    .values
                    .extend(members.iter().map(|e| cut_value(&forming.frames, e)));
                *next += len;
            }
            GroupSource::Merge(merge) => {
                let Some((frames, first)) = merge.peek() else {
                    return Ok(false);
                };
                group.key = cut_key(frames, first);
                group.values.clear();
                // As above: most groups of a sort hold one value.
                group.values.reserve_exact(1);
                // Keep pulling while the merge head shares the key.
                while let Some(value) = merge.pop_value()? {
                    group.values.push(value);
                    match merge.peek() {
                        Some((frames, e)) if e.key(frames) == &group.key[..] => {}
                        _ => break,
                    }
                }
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScratchDir;
    use dmpi_common::compare::{is_sorted, sort_records};
    use dmpi_common::{ser, Record, RecordBatch};

    impl PartitionStore {
        /// Total ingested bytes (resident + spilled).
        fn total_bytes(&self) -> u64 {
            self.stats.mem_bytes + self.stats.spilled_bytes
        }

        /// Drains the whole store into a flat, key-sorted record vector
        /// (the runtime streams via
        /// [`into_group_stream`](Self::into_group_stream) instead).
        fn into_records(self) -> Result<Vec<Record>> {
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

    fn frame_of(records: &[Record]) -> Bytes {
        let batch: RecordBatch = records.iter().cloned().collect();
        Bytes::from(ser::frame_batch(&batch))
    }

    fn rec(k: &str, v: &str) -> Record {
        Record::from_strs(k, v)
    }

    /// A store at `budget` whose runs seal into `dir`.
    fn spilling_store(budget: usize, dir: &ScratchDir) -> PartitionStore {
        let mut s = PartitionStore::new(budget, true);
        s.set_spill_config(SpillConfig::default().with_dir(dir.0.clone()));
        s
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
        assert!(is_sorted(&records));
    }

    #[test]
    fn over_budget_spills_and_merge_is_correct() {
        let dir = ScratchDir::new();
        let mut s = spilling_store(64, &dir);
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
        assert!(is_sorted(&records));
        sort_records(&mut expected);
        assert_eq!(records, expected);
    }

    #[test]
    fn spill_pressure_bounds_resident_records() {
        let dir = ScratchDir::new();
        let mut s = spilling_store(64, &dir);
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
        assert!(is_sorted(&records));
    }

    #[test]
    fn group_stream_merges_across_runs() {
        let dir = ScratchDir::new();
        let mut s = spilling_store(1 << 20, &dir);
        s.ingest(frame_of(&[rec("b", "1"), rec("a", "1")])).unwrap();
        s.spill();
        s.ingest(frame_of(&[rec("a", "2"), rec("c", "1")])).unwrap();
        s.spill();
        assert_eq!(s.stats().spills, 2);
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
        let dir = ScratchDir::new();
        for spill in [false, true] {
            let fill = || {
                let mut s = spilling_store(1 << 20, &dir);
                for i in 0..60 {
                    if spill && i == 30 {
                        s.spill();
                    }
                    let r = rec(&format!("k{}", (i * 13) % 7), &format!("v{:02}", i % 10));
                    s.ingest(frame_of(&[r])).unwrap();
                }
                assert_eq!(s.stats().spills, u64::from(spill));
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
        let dir = ScratchDir::new();
        let mut s = spilling_store(48, &dir);
        let mut all = Vec::new();
        for i in 0..60 {
            let r = rec(&format!("k{}", (i * 13) % 7), &format!("v{:02}", i % 10));
            all.push(r.clone());
            s.ingest(frame_of(&[r])).unwrap();
        }
        assert!(s.stats().spills > 0);
        let merged = s.into_records().unwrap();
        sort_records(&mut all);
        assert_eq!(merged, all);
    }

    #[test]
    fn total_bytes_is_conserved_across_spills() {
        let dir = ScratchDir::new();
        let mut s = spilling_store(16, &dir);
        let mut sent = 0u64;
        for i in 0..10 {
            let f = frame_of(&[rec(&format!("{i}"), "abcdefgh")]);
            sent += f.len() as u64;
            s.ingest(f).unwrap();
        }
        // Spill files re-frame the same records, so byte totals are
        // conserved exactly.
        assert!(s.stats().spills > 0);
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
        let dir = ScratchDir::new();
        let mut s = spilling_store(1 << 20, &dir);
        s.ingest(frame_of(&[rec("z", "1")])).unwrap();
        s.spill();
        assert_eq!(s.stats().spills, 1);
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
    fn large_runs_spill_and_merge_to_a_global_sort() {
        // Runs of a real budget's size: the merged output must still
        // equal a global sort, every spill must leave one sealed run,
        // and byte accounting must be conserved.
        let dir = ScratchDir::new();
        let mut s = spilling_store(128 * 1024, &dir);
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
        assert_eq!(s.spilled.len(), s.stats().spills as usize);
        assert_eq!(s.total_bytes(), sent, "accounting conserved");
        let merged = s.into_records().unwrap();
        sort_records(&mut all);
        assert_eq!(merged, all);
    }

    #[test]
    fn sealing_records_spill_phase_when_observed() {
        let obs = Observer::new();
        let dir = ScratchDir::new();
        let mut s = spilling_store(128 * 1024, &dir);
        s.set_observer(obs.clone(), 0, 0);
        let big_value = "z".repeat(1024);
        for i in 0..400 {
            s.ingest(frame_of(&[rec(&format!("k{i:04}"), &big_value)]))
                .unwrap();
        }
        assert!(s.stats().spills >= 1);
        let phase = s.finish_ingest();
        // Spill time was recorded by the seals and surfaced through
        // `finish_ingest`.
        assert!(phase.spill_us > 0 || phase == PhaseTotals::default());
        assert_eq!(
            obs.trace().of_kind(SpanKind::Spill).count() as u64,
            s.stats().spills
        );
    }

    #[test]
    fn many_runs_stress_the_loser_tree() {
        // Non-power-of-two run counts exercise the phantom leaves.
        let dir = ScratchDir::new();
        for runs in [1usize, 2, 3, 5, 7, 9] {
            let mut s = spilling_store(1, &dir); // every frame spills
            let mut all = Vec::new();
            for i in 0..runs * 4 {
                let r = rec(&format!("k{:03}", (i * 17) % 23), &format!("{i}"));
                all.push(r.clone());
                s.ingest(frame_of(&[r])).unwrap();
            }
            assert_eq!(s.stats().spills as usize, runs * 4);
            let merged = s.into_records().unwrap();
            sort_records(&mut all);
            assert_eq!(merged, all, "runs={runs}");
        }
    }

    #[test]
    fn without_a_spill_dir_nothing_seals() {
        // The budget is far below the input, but with nowhere to spill
        // the store keeps every frame and groups by walking its index.
        let mut s = PartitionStore::new(16, true);
        let mut all = Vec::new();
        for i in 0..200 {
            let r = rec(&format!("k{:03}", (i * 31) % 97), &format!("v{i}"));
            all.push(r.clone());
            s.ingest(frame_of(&[r])).unwrap();
        }
        s.spill();
        s.seal_all();
        let st = s.stats();
        assert_eq!(
            (st.spills, st.spilled_bytes, st.spilled_wire_bytes),
            (0, 0, 0)
        );
        assert_eq!(st.peak_resident_records, 200);
        assert!(st.peak_mem_bytes > 16 * 100);
        assert!(s.spilled.is_empty());
        let merged = s.into_records().unwrap();
        sort_records(&mut all);
        assert_eq!(merged, all);
    }
}
