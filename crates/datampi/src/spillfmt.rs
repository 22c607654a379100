//! Indexed, block-compressed spill-run format.
//!
//! A sealed spill run stops being an opaque framed byte stream and
//! becomes a real external-memory file format:
//!
//! ```text
//! +----------------+----------------+-- ... --+-----------------+---------+
//! | block 0 stored | block 1 stored |         | footer (index)  | trailer |
//! +----------------+----------------+-- ... --+-----------------+---------+
//!
//! block (stored):   framed records, LZ4-block-compressed when that is
//!                   smaller than the raw framing (kept-only-if-smaller,
//!                   so stored_len < raw_len  <=>  compressed)
//! footer:           varint flags (bit0 = key-sorted), varint block count,
//!                   then per block:
//!                   first_key last_key offset raw_len stored_len records crc
//!                   (keys length-prefixed; integers LEB128; crc over the
//!                   UNCOMPRESSED block bytes)
//! trailer (16 B):   footer_offset u64 LE | footer CRC-32C u32 LE | "SPL1"
//! ```
//!
//! The footer index is what turns the k-way merge from a full scan into a
//! seekable one: a reader knows every block's key range before touching
//! its bytes, so blocks outside the consumer's key range are *skipped* —
//! never read, never decompressed — and a checkpointed merge can resume
//! from a block boundary instead of re-reading the run. Integrity is a
//! CRC-32C ([`dmpi_common::crc`]: the SSE4.2 instruction where the CPU
//! has it, slicing-by-8 tables otherwise) over the uncompressed bytes of
//! each block, checked after decompression and **before** any record
//! decode, plus a CRC-32C over the footer itself.
//!
//! Runs live either in memory ([`RunStorage::Mem`], the default for
//! small jobs) or in a file under a configurable spill directory
//! ([`RunStorage::File`]); the format is byte-identical in both, so the
//! merge is oblivious to where a run lives. Disk-backed runs are
//! reference-counted and self-deleting: the file is removed when the
//! last [`SealedRun`] clone drops, which covers failed and elastic
//! attempts without coordinator bookkeeping.

use std::io::{Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;

use dmpi_common::crc::crc32;
use dmpi_common::{ser, varint, Error, Record, Result};

/// Default block budget: big enough that per-block overhead (index entry,
/// CRC, LZ4 token stream) is noise, small enough that a resumed merge
/// re-reads a few tens of KiB per run, not a whole run.
pub const DEFAULT_SPILL_BLOCK_BYTES: usize = 64 * 1024;

/// Fixed trailer length: `footer_offset u64 | footer_crc u32 | magic u32`.
pub const TRAILER_LEN: usize = 16;

/// Trailer magic, `"SPL1"` little-endian.
pub const RUN_MAGIC: u32 = u32::from_le_bytes(*b"SPL1");

/// Footer flag bit: the run's records are key-sorted (merge/seek-able).
const FLAG_SORTED: u64 = 1;

/// How sealed runs are produced: destination, compression, block budget.
#[derive(Clone, Debug)]
pub struct SpillConfig {
    /// Spill directory; `None` keeps runs as in-memory images (the
    /// default, right for jobs whose spill volume fits comfortably in
    /// RAM).
    pub dir: Option<PathBuf>,
    /// LZ4-compress blocks (kept only when smaller than the raw bytes).
    pub compress: bool,
    /// Per-block raw-byte budget; a block closes once it reaches this.
    pub block_bytes: usize,
    /// Filename tag for disk runs: `{dir}/{tag}-{seq}.spill`. The
    /// runtime tags runs per rank and attempt so concurrent ranks and
    /// elastic retries never collide.
    pub tag: String,
}

impl Default for SpillConfig {
    fn default() -> Self {
        SpillConfig {
            dir: None,
            compress: false,
            block_bytes: DEFAULT_SPILL_BLOCK_BYTES,
            tag: "run".to_string(),
        }
    }
}

impl SpillConfig {
    /// Builder: spill runs to files under `dir`.
    pub fn with_dir(mut self, dir: PathBuf) -> Self {
        self.dir = Some(dir);
        self
    }

    /// Builder: LZ4 block compression on/off.
    pub fn with_compression(mut self, on: bool) -> Self {
        self.compress = on;
        self
    }

    /// Builder: per-block raw-byte budget.
    pub fn with_block_bytes(mut self, block_bytes: usize) -> Self {
        self.block_bytes = block_bytes.max(1);
        self
    }

    /// Builder: filename tag for disk runs.
    pub fn with_tag(mut self, tag: impl Into<String>) -> Self {
        self.tag = tag.into();
        self
    }
}

/// One block's index entry, as recorded in the run footer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockMeta {
    /// Smallest key framed in the block.
    pub first_key: Bytes,
    /// Largest key framed in the block.
    pub last_key: Bytes,
    /// Byte offset of the block's stored bytes within the run.
    pub offset: u64,
    /// Uncompressed (framed-record) length.
    pub raw_len: u32,
    /// Stored length; `stored_len < raw_len` iff the block is
    /// LZ4-compressed (kept-only-if-smaller).
    pub stored_len: u32,
    /// Records framed in the block.
    pub records: u32,
    /// CRC-32C over the *uncompressed* block bytes.
    pub crc: u32,
}

impl BlockMeta {
    /// Whether the stored bytes are LZ4-compressed.
    pub fn is_compressed(&self) -> bool {
        self.stored_len < self.raw_len
    }
}

/// The decoded footer of one run: per-block index plus run totals.
#[derive(Clone, Debug, Default)]
pub struct RunIndex {
    /// Per-block entries, in file order (key-ascending when `sorted`).
    pub blocks: Vec<BlockMeta>,
    /// The run's records are key-sorted (block key ranges are disjoint
    /// and ascending, enabling binary search and early exit).
    pub sorted: bool,
    /// Total uncompressed block bytes.
    pub raw_bytes: u64,
    /// Total stored block bytes (post-compression).
    pub stored_bytes: u64,
    /// Total records.
    pub records: u64,
    /// Full image length: blocks + footer + trailer.
    pub file_len: u64,
}

fn write_key(out: &mut Vec<u8>, key: &[u8]) {
    varint::write_u64(out, key.len() as u64);
    out.extend_from_slice(key);
}

fn read_key(buf: &[u8]) -> Result<(Bytes, usize)> {
    let (len, header) = varint::read_u64(buf)?;
    let len = usize::try_from(len).map_err(|_| Error::corrupt("key length overflow"))?;
    let end = header
        .checked_add(len)
        .ok_or_else(|| Error::corrupt("key length overflow"))?;
    if buf.len() < end {
        return Err(Error::corrupt("truncated footer key"));
    }
    Ok((Bytes::copy_from_slice(&buf[header..end]), end))
}

impl RunIndex {
    /// Serializes the footer (no trailer).
    pub fn encode_footer(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let flags = if self.sorted { FLAG_SORTED } else { 0 };
        varint::write_u64(&mut out, flags);
        varint::write_u64(&mut out, self.blocks.len() as u64);
        for b in &self.blocks {
            write_key(&mut out, &b.first_key);
            write_key(&mut out, &b.last_key);
            varint::write_u64(&mut out, b.offset);
            varint::write_u64(&mut out, b.raw_len as u64);
            varint::write_u64(&mut out, b.stored_len as u64);
            varint::write_u64(&mut out, b.records as u64);
            varint::write_u64(&mut out, b.crc as u64);
        }
        out
    }

    /// Decodes a footer previously produced by
    /// [`encode_footer`](Self::encode_footer). `file_len` is filled by
    /// the caller (it lives in the trailer, not the footer).
    pub fn decode_footer(buf: &[u8]) -> Result<RunIndex> {
        let read_u32 = |v: u64, what: &str| -> Result<u32> {
            u32::try_from(v).map_err(|_| Error::corrupt(format!("footer {what} overflow")))
        };
        let (flags, mut at) = varint::read_u64(buf)?;
        let (count, n) = varint::read_u64(&buf[at..])?;
        at += n;
        let count = usize::try_from(count).map_err(|_| Error::corrupt("block count overflow"))?;
        let mut index = RunIndex {
            blocks: Vec::with_capacity(count.min(buf.len())),
            sorted: flags & FLAG_SORTED != 0,
            ..RunIndex::default()
        };
        for _ in 0..count {
            let (first_key, n) = read_key(&buf[at..])?;
            at += n;
            let (last_key, n) = read_key(&buf[at..])?;
            at += n;
            let mut ints = [0u64; 5];
            for slot in &mut ints {
                let (v, n) = varint::read_u64(&buf[at..])?;
                at += n;
                *slot = v;
            }
            let meta = BlockMeta {
                first_key,
                last_key,
                offset: ints[0],
                raw_len: read_u32(ints[1], "raw_len")?,
                stored_len: read_u32(ints[2], "stored_len")?,
                records: read_u32(ints[3], "records")?,
                crc: read_u32(ints[4], "crc")?,
            };
            index.raw_bytes += meta.raw_len as u64;
            index.stored_bytes += meta.stored_len as u64;
            index.records += meta.records as u64;
            index.blocks.push(meta);
        }
        if at != buf.len() {
            return Err(Error::corrupt("trailing garbage after footer"));
        }
        Ok(index)
    }
}

/// Builds one run image block by block.
///
/// Records are framed (`varint klen | varint vlen | key | value`) into a
/// forming block; when the block reaches its raw-byte budget it is
/// CRC-summed, optionally LZ4-compressed (one reusable
/// [`lz4_flex::Compressor`] hash table for the whole run), and appended
/// to the image. Records never straddle blocks. The per-block key range
/// is kept as two ranges into the forming block and copied out when the
/// block closes: a key-sorted run takes its first and last record, an
/// arrival-order run tracks the running min/max, so the index stays
/// honest either way.
pub struct RunWriter {
    block_bytes: usize,
    compress: bool,
    image: Vec<u8>,
    raw: Vec<u8>,
    packed: Vec<u8>,
    compressor: lz4_flex::Compressor,
    /// Where the block's smallest and largest keys sit in `raw`.
    first_key: Range<usize>,
    last_key: Range<usize>,
    block_records: u32,
    index: RunIndex,
}

impl RunWriter {
    /// A writer with the given per-block raw budget. `sorted` records the
    /// run-level ordering promise in the footer flags; the caller must
    /// then push records in key order.
    pub fn new(block_bytes: usize, compress: bool, sorted: bool) -> Self {
        RunWriter {
            block_bytes: block_bytes.max(1),
            compress,
            image: Vec::new(),
            raw: Vec::new(),
            packed: Vec::new(),
            compressor: lz4_flex::Compressor::new(),
            first_key: 0..0,
            last_key: 0..0,
            block_records: 0,
            index: RunIndex {
                sorted,
                ..RunIndex::default()
            },
        }
    }

    /// Frames one record into the forming block, closing the block when
    /// it reaches the budget.
    pub fn push(&mut self, rec: &Record) {
        self.push_kv(&rec.key, &rec.value);
    }

    /// [`push`](Self::push) for a pair that is not an owned `Record` —
    /// the store seals runs straight from frame slices.
    pub fn push_kv(&mut self, key: &[u8], value: &[u8]) {
        ser::frame_kv(&mut self.raw, key, value);
        let key_end = self.raw.len() - value.len();
        let at = key_end - key.len()..key_end;
        if self.block_records == 0 {
            self.first_key = at.clone();
            self.last_key = at;
        } else if self.index.sorted {
            self.last_key = at;
        } else {
            if *key < self.raw[self.first_key.clone()] {
                self.first_key = at.clone();
            }
            if *key > self.raw[self.last_key.clone()] {
                self.last_key = at;
            }
        }
        self.block_records += 1;
        if self.raw.len() >= self.block_bytes {
            self.flush_block();
        }
    }

    fn flush_block(&mut self) {
        if self.block_records == 0 {
            return;
        }
        let raw_len = self.raw.len() as u32;
        let crc = crc32(&self.raw);
        let stored: &[u8] = if self.compress {
            self.packed.clear();
            self.compressor.compress_into(&self.raw, &mut self.packed);
            if self.packed.len() < self.raw.len() {
                &self.packed
            } else {
                &self.raw
            }
        } else {
            &self.raw
        };
        let meta = BlockMeta {
            first_key: Bytes::copy_from_slice(&self.raw[self.first_key.clone()]),
            last_key: Bytes::copy_from_slice(&self.raw[self.last_key.clone()]),
            offset: self.image.len() as u64,
            raw_len,
            stored_len: stored.len() as u32,
            records: self.block_records,
            crc,
        };
        self.image.extend_from_slice(stored);
        self.index.raw_bytes += meta.raw_len as u64;
        self.index.stored_bytes += meta.stored_len as u64;
        self.index.records += meta.records as u64;
        self.index.blocks.push(meta);
        self.raw.clear();
        self.block_records = 0;
    }

    /// Closes the final block, appends footer and trailer, and returns
    /// the finished image plus its index.
    pub fn finish(mut self) -> (Vec<u8>, RunIndex) {
        self.flush_block();
        let footer_offset = self.image.len() as u64;
        let footer = self.index.encode_footer();
        let footer_crc = crc32(&footer);
        self.image.extend_from_slice(&footer);
        self.image.extend_from_slice(&footer_offset.to_le_bytes());
        self.image.extend_from_slice(&footer_crc.to_le_bytes());
        self.image.extend_from_slice(&RUN_MAGIC.to_le_bytes());
        self.index.file_len = self.image.len() as u64;
        (self.image, self.index)
    }
}

/// Parses trailer + footer out of a complete run image: checks the
/// magic, the footer span and its CRC, decodes the footer, and checks
/// that every block lies before the footer, so no reader sizes a buffer
/// from a span the run cannot hold.
pub fn parse_image(image: &[u8]) -> Result<RunIndex> {
    let Some((head, trailer)) = image.split_last_chunk::<TRAILER_LEN>() else {
        return Err(Error::corrupt("run shorter than its trailer"));
    };
    // `footer_offset u64 | footer_crc u32 | magic u32`, all little-endian.
    let trailer = u128::from_le_bytes(*trailer);
    let footer_offset = trailer as u64;
    let footer_crc = (trailer >> 64) as u32;
    let magic = (trailer >> 96) as u32;
    if magic != RUN_MAGIC {
        return Err(Error::corrupt("bad run magic"));
    }
    let footer = usize::try_from(footer_offset)
        .ok()
        .and_then(|offset| head.get(offset..))
        .ok_or_else(|| Error::corrupt("footer span out of bounds"))?;
    if crc32(footer) != footer_crc {
        return Err(Error::corrupt("footer crc mismatch"));
    }
    let mut index = RunIndex::decode_footer(footer)?;
    for b in &index.blocks {
        if b.offset
            .checked_add(b.stored_len as u64)
            .is_none_or(|end| end > footer_offset)
        {
            return Err(Error::corrupt(format!(
                "block span {}+{} runs past the footer at {footer_offset}",
                b.offset, b.stored_len
            )));
        }
    }
    index.file_len = image.len() as u64;
    Ok(index)
}

/// Where a sealed run's bytes live.
#[derive(Clone, Debug)]
pub enum RunStorage {
    /// In-memory image (blocks + footer + trailer), the small-job path.
    Mem(Bytes),
    /// Disk file owned by this run, deleted when the last handle drops.
    File(Arc<RunFileGuard>),
}

/// RAII owner of a run file: removes the file when the last
/// [`SealedRun`] clone referencing it drops. Checkpoints hold clones, so
/// a run a restart may need outlives the store that sealed it; failed
/// and elastic attempts clean themselves up the moment nothing can use
/// their runs any more.
#[derive(Debug)]
pub struct RunFileGuard {
    path: PathBuf,
}

impl RunFileGuard {
    /// The run file's path.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }
}

impl Drop for RunFileGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// An inclusive key interval for range-restricted reads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeyRange {
    /// Smallest key in range (inclusive).
    pub lo: Bytes,
    /// Largest key in range (inclusive).
    pub hi: Bytes,
}

impl KeyRange {
    /// A range over `[lo, hi]`, both inclusive.
    pub fn new(lo: impl Into<Bytes>, hi: impl Into<Bytes>) -> Self {
        KeyRange {
            lo: lo.into(),
            hi: hi.into(),
        }
    }

    /// Whether `key` falls inside the range.
    pub fn contains(&self, key: &[u8]) -> bool {
        *key >= *self.lo && *key <= *self.hi
    }
}

/// Shared read-side counters: how many blocks a merge actually touched
/// versus skipped via the index, stored bytes read off disk/memory, raw
/// bytes decompressed, and non-sequential block loads (seeks). Cloneable
/// handle over atomics so every reader of a partition feeds one tally.
#[derive(Clone, Debug, Default)]
pub struct SpillReadCounters {
    inner: Arc<CounterCells>,
}

#[derive(Debug, Default)]
struct CounterCells {
    blocks_read: AtomicU64,
    blocks_skipped: AtomicU64,
    stored_bytes_read: AtomicU64,
    raw_bytes_decoded: AtomicU64,
    seeks: AtomicU64,
}

/// A point-in-time copy of [`SpillReadCounters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpillReadSnapshot {
    /// Blocks loaded and decoded.
    pub blocks_read: u64,
    /// Blocks skipped whole via the footer index (range or resume).
    pub blocks_skipped: u64,
    /// Stored (possibly compressed) bytes read.
    pub stored_bytes_read: u64,
    /// Uncompressed bytes produced by block decode.
    pub raw_bytes_decoded: u64,
    /// Non-sequential block loads.
    pub seeks: u64,
}

impl SpillReadCounters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of the current tallies.
    pub fn snapshot(&self) -> SpillReadSnapshot {
        let c = &self.inner;
        SpillReadSnapshot {
            blocks_read: c.blocks_read.load(Ordering::Relaxed),
            blocks_skipped: c.blocks_skipped.load(Ordering::Relaxed),
            stored_bytes_read: c.stored_bytes_read.load(Ordering::Relaxed),
            raw_bytes_decoded: c.raw_bytes_decoded.load(Ordering::Relaxed),
            seeks: c.seeks.load(Ordering::Relaxed),
        }
    }

    fn block_read(&self, stored: u64, raw: u64) {
        self.inner.blocks_read.fetch_add(1, Ordering::Relaxed);
        self.inner
            .stored_bytes_read
            .fetch_add(stored, Ordering::Relaxed);
        self.inner
            .raw_bytes_decoded
            .fetch_add(raw, Ordering::Relaxed);
    }

    fn blocks_skipped(&self, n: u64) {
        self.inner.blocks_skipped.fetch_add(n, Ordering::Relaxed);
    }

    fn seek(&self) {
        self.inner.seeks.fetch_add(1, Ordering::Relaxed);
    }
}

/// A sealed spill run: its storage plus the decoded footer index. Clones
/// share both (the index via `Arc`, disk files via [`RunFileGuard`]), so
/// handing a run to a checkpoint costs a refcount, not a copy.
#[derive(Clone, Debug)]
pub struct SealedRun {
    storage: RunStorage,
    index: Arc<RunIndex>,
}

impl SealedRun {
    /// Wraps a finished in-memory image.
    pub fn mem(image: Vec<u8>, index: RunIndex) -> Self {
        SealedRun {
            storage: RunStorage::Mem(Bytes::from(image)),
            index: Arc::new(index),
        }
    }

    /// Writes a finished image to `path` (creating parent directories)
    /// and returns a disk-backed run that deletes the file when its last
    /// handle drops.
    pub fn to_file(image: &[u8], index: RunIndex, path: PathBuf) -> Result<Self> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)
                .map_err(|e| Error::Config(format!("spill dir {}: {e}", parent.display())))?;
        }
        let mut f = std::fs::File::create(&path)
            .map_err(|e| Error::Config(format!("spill file {}: {e}", path.display())))?;
        f.write_all(image)
            .map_err(|e| Error::Config(format!("spill write {}: {e}", path.display())))?;
        Ok(SealedRun {
            storage: RunStorage::File(Arc::new(RunFileGuard { path })),
            index: Arc::new(index),
        })
    }

    /// The run's footer index.
    pub fn index(&self) -> &RunIndex {
        &self.index
    }

    /// Whether the run's bytes live on disk.
    pub fn is_disk(&self) -> bool {
        matches!(self.storage, RunStorage::File(_))
    }

    /// Opens a sequential reader over the whole run, optionally
    /// restricted to `range` (whole blocks outside the range are skipped
    /// via the index, without being read).
    pub fn open(&self, counters: &SpillReadCounters, range: Option<KeyRange>) -> Result<RunReader> {
        self.open_at(0, None, counters, range)
    }

    /// Opens a reader positioned at `start_block`, additionally skipping
    /// any record whose key is `<= skip_through` — the mid-run resume
    /// entry point: a checkpointed merge restarts at the block boundary
    /// it recorded and filters the records its last completed group
    /// already consumed.
    pub fn open_at(
        &self,
        start_block: usize,
        skip_through: Option<Bytes>,
        counters: &SpillReadCounters,
        range: Option<KeyRange>,
    ) -> Result<RunReader> {
        let backing = match &self.storage {
            RunStorage::Mem(image) => Backing::Mem(image.clone()),
            RunStorage::File(guard) => Backing::File(
                std::fs::File::open(&guard.path)
                    .map_err(|e| Error::corrupt(format!("open spill run: {e}")))?,
            ),
        };
        let mut next_block = start_block.min(self.index.blocks.len());
        counters.blocks_skipped(next_block as u64);
        // Range + sorted run: binary-search the first candidate block so
        // the scan never visits index entries below the range either.
        if let (Some(r), true) = (&range, self.index.sorted) {
            let lo = self
                .index
                .blocks
                .partition_point(|b| b.last_key < r.lo)
                .max(next_block);
            counters.blocks_skipped((lo - next_block) as u64);
            next_block = lo;
        }
        Ok(RunReader {
            backing,
            index: Arc::clone(&self.index),
            counters: counters.clone(),
            range,
            skip_through,
            next_block,
            cur_block: usize::MAX,
            expected_pos: u64::MAX,
            block: Bytes::new(),
            offset: 0,
            scratch: Vec::new(),
            done: false,
        })
    }
}

/// A streaming, index-driven reader over one sealed run.
///
/// Blocks load lazily: the footer index decides whether a block is
/// skipped (key range disjoint from the reader's restriction), and only
/// loaded blocks are read, CRC-checked and (if compressed) decompressed
/// — into a fresh refcounted buffer whose records are zero-copy slices,
/// with a pooled scratch buffer staging the stored bytes of disk reads.
pub struct RunReader {
    backing: Backing,
    index: Arc<RunIndex>,
    counters: SpillReadCounters,
    range: Option<KeyRange>,
    /// Resume filter: skip records with key `<= skip_through`.
    skip_through: Option<Bytes>,
    next_block: usize,
    /// Block the most recently returned record came from (`usize::MAX`
    /// before the first read).
    cur_block: usize,
    /// File position a sequential next read would start at; a block load
    /// elsewhere counts as a seek.
    expected_pos: u64,
    block: Bytes,
    offset: usize,
    scratch: Vec<u8>,
    done: bool,
}

enum Backing {
    Mem(Bytes),
    File(std::fs::File),
}

impl RunReader {
    /// Decodes the next in-range record, loading (and index-skipping)
    /// blocks as needed. `None` once the run (or range) is exhausted.
    pub fn next_record(&mut self) -> Result<Option<Record>> {
        loop {
            while self.offset < self.block.len() {
                let (rec, n) = ser::read_framed_record_shared(&self.block, self.offset)?;
                self.offset += n;
                if let Some(bound) = &self.skip_through {
                    if rec.key <= *bound {
                        continue;
                    }
                    self.skip_through = None;
                }
                if let Some(r) = &self.range {
                    if rec.key < r.lo {
                        continue;
                    }
                    if rec.key > r.hi {
                        if self.index.sorted {
                            self.done = true;
                            self.block = Bytes::new();
                            return Ok(None);
                        }
                        continue;
                    }
                }
                return Ok(Some(rec));
            }
            if !self.load_next_block()? {
                return Ok(None);
            }
        }
    }

    /// Advances to the next block the index says is worth reading.
    /// Returns `false` when the run (or range) is exhausted.
    fn load_next_block(&mut self) -> Result<bool> {
        loop {
            if self.done || self.next_block >= self.index.blocks.len() {
                self.done = true;
                return Ok(false);
            }
            let meta = self.index.blocks[self.next_block].clone();
            if let Some(r) = &self.range {
                if meta.last_key < r.lo {
                    self.counters.blocks_skipped(1);
                    self.next_block += 1;
                    continue;
                }
                if self.index.sorted && meta.first_key > r.hi {
                    self.done = true;
                    return Ok(false);
                }
                if !self.index.sorted && meta.first_key > r.hi {
                    self.counters.blocks_skipped(1);
                    self.next_block += 1;
                    continue;
                }
            }
            if let Some(bound) = &self.skip_through {
                if meta.last_key <= *bound {
                    self.counters.blocks_skipped(1);
                    self.next_block += 1;
                    continue;
                }
            }
            self.load_block(&meta)?;
            self.cur_block = self.next_block;
            self.next_block += 1;
            return Ok(true);
        }
    }

    fn load_block(&mut self, meta: &BlockMeta) -> Result<()> {
        if meta.offset != self.expected_pos && self.expected_pos != u64::MAX {
            self.counters.seek();
        } else if self.expected_pos == u64::MAX && meta.offset != 0 {
            // First read that doesn't start at the run head is a seek
            // too (resume / range fast-forward).
            self.counters.seek();
        }
        let stored_len = meta.stored_len as usize;
        let raw_len = meta.raw_len as usize;
        let offset = usize::try_from(meta.offset).map_err(|_| Error::corrupt("block offset"))?;
        let raw: Bytes = match &mut self.backing {
            Backing::Mem(image) => {
                let end = offset
                    .checked_add(stored_len)
                    .filter(|&e| e <= image.len())
                    .ok_or_else(|| Error::corrupt("block span out of bounds"))?;
                let stored = image.slice(offset..end);
                if meta.is_compressed() {
                    let mut raw = Vec::with_capacity(raw_len);
                    lz4_flex::decompress_into(&stored, raw_len, &mut raw)
                        .map_err(|e| Error::corrupt(format!("spill block decompress: {e}")))?;
                    Bytes::from(raw)
                } else {
                    stored
                }
            }
            Backing::File(f) => {
                self.scratch.clear();
                self.scratch.resize(stored_len, 0);
                f.seek(SeekFrom::Start(meta.offset))
                    .map_err(|e| Error::corrupt(format!("spill seek: {e}")))?;
                f.read_exact(&mut self.scratch)
                    .map_err(|e| Error::corrupt(format!("spill read: {e}")))?;
                if meta.is_compressed() {
                    let mut raw = Vec::with_capacity(raw_len);
                    lz4_flex::decompress_into(&self.scratch, raw_len, &mut raw)
                        .map_err(|e| Error::corrupt(format!("spill block decompress: {e}")))?;
                    Bytes::from(raw)
                } else {
                    Bytes::copy_from_slice(&self.scratch)
                }
            }
        };
        // Integrity gate: the CRC covers the uncompressed bytes and is
        // checked before any record decode touches them.
        if raw.len() != raw_len || crc32(&raw) != meta.crc {
            return Err(Error::corrupt(format!(
                "spill block crc mismatch at offset {}",
                meta.offset
            )));
        }
        self.counters.block_read(stored_len as u64, raw_len as u64);
        self.expected_pos = meta.offset + stored_len as u64;
        self.block = raw;
        self.offset = 0;
        Ok(())
    }

    /// The resume frontier: the block the reader's most recent record
    /// came from, or one past the last block when exhausted. A merge
    /// checkpointing at a group boundary records this per run; restart
    /// re-reads only blocks at or after it.
    pub fn frontier_block(&self) -> usize {
        if self.done {
            self.index.blocks.len()
        } else if self.cur_block == usize::MAX {
            self.next_block
        } else {
            self.cur_block
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(k: &str, v: &str) -> Record {
        Record::from_strs(k, v)
    }

    fn build_run(records: &[Record], block_bytes: usize, compress: bool) -> (Vec<u8>, RunIndex) {
        let mut w = RunWriter::new(block_bytes, compress, true);
        for r in records {
            w.push(r);
        }
        w.finish()
    }

    fn sorted_records(n: usize) -> Vec<Record> {
        (0..n)
            .map(|i| {
                rec(
                    &format!("key{i:05}"),
                    &format!("value-{i}-{}", "x".repeat(i % 40)),
                )
            })
            .collect()
    }

    fn read_all(run: &SealedRun, counters: &SpillReadCounters) -> Vec<Record> {
        let mut reader = run.open(counters, None).unwrap();
        let mut out = Vec::new();
        while let Some(r) = reader.next_record().unwrap() {
            out.push(r);
        }
        out
    }

    #[test]
    fn mem_round_trip_across_block_sizes() {
        let records = sorted_records(300);
        for block_bytes in [1usize, 17, 64, 1024, 1 << 20] {
            for compress in [false, true] {
                let (image, index) = build_run(&records, block_bytes, compress);
                assert_eq!(index.records, 300);
                assert_eq!(index.file_len as usize, image.len());
                let run = SealedRun::mem(image, index);
                let counters = SpillReadCounters::new();
                assert_eq!(read_all(&run, &counters), records);
                let snap = counters.snapshot();
                assert_eq!(snap.blocks_read, run.index().blocks.len() as u64);
                assert_eq!(snap.raw_bytes_decoded, run.index().raw_bytes);
            }
        }
    }

    #[test]
    fn compression_shrinks_compressible_blocks() {
        let records: Vec<Record> = (0..200)
            .map(|i| rec(&format!("k{i:04}"), "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"))
            .collect();
        let (_, raw_index) = build_run(&records, 4096, false);
        let (_, lz4_index) = build_run(&records, 4096, true);
        assert_eq!(raw_index.stored_bytes, raw_index.raw_bytes);
        assert!(lz4_index.stored_bytes < lz4_index.raw_bytes);
        assert!(lz4_index.blocks.iter().all(BlockMeta::is_compressed));
    }

    #[test]
    fn file_round_trip_and_guard_deletes() {
        let dir = std::env::temp_dir().join(format!("dmpi-spillfmt-{}", std::process::id()));
        let records = sorted_records(100);
        let (image, index) = build_run(&records, 512, true);
        let path = dir.join("t-0.spill");
        let run = SealedRun::to_file(&image, index, path.clone()).unwrap();
        assert!(run.is_disk());
        assert!(path.exists());
        let counters = SpillReadCounters::new();
        assert_eq!(read_all(&run, &counters), records);
        drop(run);
        assert!(!path.exists(), "guard must delete the run file");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_block_fails_before_record_decode() {
        let records = sorted_records(150);
        for compress in [false, true] {
            let (mut image, index) = build_run(&records, 256, compress);
            // Flip a byte inside the first block's stored span.
            let target = (index.blocks[0].offset + 1) as usize;
            image[target] ^= 0x40;
            let run = SealedRun::mem(image, index);
            let counters = SpillReadCounters::new();
            let mut reader = run.open(&counters, None).unwrap();
            let err = match reader.next_record() {
                Ok(Some(_)) => panic!("corrupt block must not yield records"),
                Ok(None) => panic!("corruption must surface as an error"),
                Err(e) => e,
            };
            let msg = format!("{err}");
            assert!(
                msg.contains("crc mismatch") || msg.contains("decompress"),
                "unexpected error: {msg}"
            );
        }
    }

    #[test]
    fn corrupt_footer_is_rejected() {
        let (mut image, _) = build_run(&sorted_records(10), 64, false);
        let at = image.len() - TRAILER_LEN - 1;
        image[at] ^= 1;
        assert!(parse_image(&image).is_err());
    }

    #[test]
    fn block_span_past_the_footer_is_rejected() {
        // A footer whose CRC is right but whose block spans run past the
        // blocks region: the parser must refuse it before any reader
        // sizes a buffer from `stored_len`.
        let (image, index) = build_run(&sorted_records(100), 256, false);
        let footer_offset = image.len() - TRAILER_LEN - index.encode_footer().len();
        let last = index.blocks.last().unwrap();
        let hostile = [
            (last.offset, u32::MAX),                     // 4 GiB stored_len
            (u64::MAX, last.stored_len),                 // offset + len overflows
            (footer_offset as u64 + 1, last.stored_len), // starts past the footer
        ];
        for (case, (offset, stored_len)) in hostile.into_iter().enumerate() {
            let mut bad = index.clone();
            let block = bad.blocks.last_mut().unwrap();
            block.offset = offset;
            block.stored_len = stored_len;
            let footer = bad.encode_footer();
            let mut forged = image[..footer_offset].to_vec();
            forged.extend_from_slice(&footer);
            forged.extend_from_slice(&(footer_offset as u64).to_le_bytes());
            forged.extend_from_slice(&crc32(&footer).to_le_bytes());
            forged.extend_from_slice(&RUN_MAGIC.to_le_bytes());
            assert!(parse_image(&forged).is_err(), "case {case}: parse_image");
        }
    }

    #[test]
    fn range_scan_skips_out_of_range_blocks() {
        let records = sorted_records(1000);
        let (image, index) = build_run(&records, 512, false);
        let total_blocks = index.blocks.len();
        assert!(total_blocks > 8, "need enough blocks to skip");
        let run = SealedRun::mem(image, index);
        let counters = SpillReadCounters::new();
        let range = KeyRange::new(&b"key00400"[..], &b"key00449"[..]);
        let mut reader = run.open(&counters, Some(range)).unwrap();
        let mut seen = Vec::new();
        while let Some(r) = reader.next_record().unwrap() {
            seen.push(r);
        }
        assert_eq!(seen, records[400..450].to_vec());
        let snap = counters.snapshot();
        assert!(
            snap.blocks_read < total_blocks as u64 / 2,
            "indexed skip must read fewer than half the blocks: read {} of {}",
            snap.blocks_read,
            total_blocks
        );
        assert!(snap.blocks_skipped > 0);
        assert!(snap.seeks >= 1, "range fast-forward counts as a seek");
    }

    #[test]
    fn resume_from_block_boundary_rereads_only_the_tail() {
        let records = sorted_records(600);
        let (image, index) = build_run(&records, 512, false);
        let total_blocks = index.blocks.len();
        let run = SealedRun::mem(image, index);
        // Read the first half, note the frontier.
        let counters = SpillReadCounters::new();
        let mut reader = run.open(&counters, None).unwrap();
        let mut consumed = Vec::new();
        for _ in 0..300 {
            consumed.push(reader.next_record().unwrap().unwrap());
        }
        let frontier = reader.frontier_block();
        let last_key = consumed.last().unwrap().key.clone();
        // Resume: only blocks at/after the frontier are read.
        let resumed = SpillReadCounters::new();
        let mut reader = run
            .open_at(frontier, Some(last_key), &resumed, None)
            .unwrap();
        let mut tail = Vec::new();
        while let Some(r) = reader.next_record().unwrap() {
            tail.push(r);
        }
        assert_eq!(tail, records[300..].to_vec());
        let snap = resumed.snapshot();
        assert_eq!(
            snap.blocks_read + snap.blocks_skipped,
            total_blocks as u64,
            "every block is either read or skipped"
        );
        assert_eq!(snap.blocks_skipped, frontier as u64);
    }

    #[test]
    fn unsorted_run_tracks_honest_key_ranges() {
        let mut w = RunWriter::new(64, false, false);
        let records = vec![rec("m", "1"), rec("a", "2"), rec("z", "3"), rec("b", "4")];
        for r in &records {
            w.push(r);
        }
        let (image, index) = w.finish();
        assert!(!index.sorted);
        for b in &index.blocks {
            assert!(b.first_key <= b.last_key);
        }
        let run = SealedRun::mem(image, index);
        assert_eq!(read_all(&run, &SpillReadCounters::new()), records);
    }

    #[test]
    fn sorted_writer_footer_equals_the_running_min_max_footer() {
        // A sorted run reads its block key ranges off the first and last
        // record instead of comparing every key; for records that are in
        // key order the footer must be the same bytes either way.
        let mut records = sorted_records(400);
        for i in 0..6 {
            records.insert(200, rec("key00200", &format!("dup{i}")));
        }
        records.insert(0, rec("", "empty key first"));
        for block_bytes in [1usize, 64, 700, 1 << 20] {
            let (sorted_image, sorted_index) = build_run(&records, block_bytes, true);
            let mut w = RunWriter::new(block_bytes, true, false);
            for r in &records {
                w.push_kv(&r.key, &r.value);
            }
            let (_, mut tracked) = w.finish();
            assert!(!tracked.sorted);
            tracked.sorted = true;
            assert_eq!(sorted_index.encode_footer(), tracked.encode_footer());
            let footer_at = sorted_image.len() - TRAILER_LEN - tracked.encode_footer().len();
            assert_eq!(
                &sorted_image[footer_at..sorted_image.len() - TRAILER_LEN],
                &tracked.encode_footer()[..]
            );
        }
    }

    #[test]
    fn empty_run_round_trips() {
        let (image, index) = build_run(&[], 64, true);
        assert_eq!(index.blocks.len(), 0);
        let reparsed = parse_image(&image).unwrap();
        assert_eq!(reparsed.blocks.len(), 0);
        let run = SealedRun::mem(image, index);
        let mut reader = run.open(&SpillReadCounters::new(), None).unwrap();
        assert!(reader.next_record().unwrap().is_none());
    }

    #[test]
    fn footer_round_trips_through_parse_image() {
        let records = sorted_records(64);
        let (image, index) = build_run(&records, 128, true);
        let reparsed = parse_image(&image).unwrap();
        assert_eq!(reparsed.blocks, index.blocks);
        assert_eq!(reparsed.sorted, index.sorted);
        assert_eq!(reparsed.raw_bytes, index.raw_bytes);
        assert_eq!(reparsed.stored_bytes, index.stored_bytes);
        assert_eq!(reparsed.records, index.records);
        assert_eq!(reparsed.file_len, index.file_len);
    }
}
