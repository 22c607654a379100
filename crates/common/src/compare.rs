//! Byte-order sorting and merging of serialized records.
//!
//! Sorting serialized records without deserializing them is one of the core
//! MapReduce efficiency tricks. Every key in this codebase sorts by its raw
//! bytes: the mapred engine's sort/spill path, the RDD engine's
//! `sort_by_key` and DataMPI's A-side index sort and merge all use the
//! order defined here.

use std::cmp::Ordering;
use std::ops::Range;

use bytes::Bytes;

use crate::error::{Error, Result};
use crate::kv::Record;
use crate::ser;

/// Sorts records into `(key, value)` byte order, so results are fully
/// deterministic.
///
/// # Stability invariant
///
/// This uses an **unstable** sort on purpose. The order — `(key, value)`
/// everywhere in this codebase, `(key, value, run)` in the A-side merge —
/// is *total up to indistinguishability*: two records it reports `Equal`
/// for have byte-identical keys and values, so any permutation of them
/// is the same output. Stability therefore buys nothing, while
/// `sort_unstable_by` (pdqsort) avoids the stable sort's allocation and
/// runs faster on the spill path.
pub fn sort_records(records: &mut [Record]) {
    records.sort_unstable_by(|a, b| {
        a.key[..]
            .cmp(&b.key[..])
            .then_with(|| a.value.cmp(&b.value))
    });
}

/// Which kernel sorted a spill run before the store kept records as an
/// index over frame bytes. The forming run is now ordered by
/// [`sort_index`] whichever variant is selected; the type and its knob
/// (`JobConfig::sort_kernel`, `PartitionStore::set_sort_kernel`) remain
/// only because the benchmark package still passes one through.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SortKernel {
    /// Formerly `sort_unstable_by` over owned records.
    Comparison,
    /// Formerly an MSD radix over owned records.
    #[default]
    Radix,
}

impl SortKernel {
    /// Kernel name for benchmark tables (`"std"` / `"radix"`).
    pub fn name(self) -> &'static str {
        match self {
            SortKernel::Comparison => "std",
            SortKernel::Radix => "radix",
        }
    }
}

/// Key bytes an [`IndexEntry`] carries inline.
const PREFIX_LEN: usize = 8;

/// How many entries ahead of the one it reads a pass over a sorted index
/// asks the CPU to fetch. Sorted order visits frame bytes at random, so
/// without the hint every entry waits out a cache miss. Leads from 4 to
/// 64 entries hid those misses equally well in the seal's block build (a
/// 2 MiB Text Sort run with its frames out of cache, on a 2-vCPU Xeon);
/// 16 sits in the middle.
pub const PREFETCH_AHEAD: usize = 16;

/// Asks the CPU to start loading the cache line holding `frame[offset]`
/// (clamped to the frame's end). A hint only: it changes no result, and
/// does nothing off x86_64.
#[inline]
fn prefetch(frame: &[u8], offset: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let at = frame.as_ptr().wrapping_add(offset.min(frame.len()));
        // SAFETY: `_mm_prefetch` only hints at a cache line: it reads no
        // byte a program can observe and cannot fault, whatever the
        // address. `at` lies within `frame` or one past its end anyway,
        // and SSE, which the instruction needs, is part of every x86_64
        // target.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(at.cast()) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (frame, offset);
}

/// One record of a forming run: a sortable reference to where the record
/// sits in the frame payload it arrived in. 24 bytes, against 64 for an
/// owned `Record`, and sorting it touches no frame byte until two keys
/// agree on their first eight.
#[derive(Clone, Copy, Debug)]
pub struct IndexEntry {
    /// First [`PREFIX_LEN`] key bytes, big-endian, zero-padded: integer
    /// order on it is byte order on those bytes. Padding makes `"a"` and
    /// `"a\0"` collide, so an equal prefix decides nothing by itself.
    /// [`sort_index`] borrows the field for deeper key bytes and for
    /// value bytes while it runs and puts this value back before it
    /// returns.
    prefix: u64,
    /// Which of the run's frames holds the record.
    frame: u32,
    key_off: u32,
    key_len: u32,
    val_len: u32,
}

fn key_prefix(key: &[u8]) -> u64 {
    let mut padded = [0u8; PREFIX_LEN];
    let n = key.len().min(PREFIX_LEN);
    padded[..n].copy_from_slice(&key[..n]);
    u64::from_be_bytes(padded)
}

/// Appends one [`IndexEntry`] per record framed in `payload`, which the
/// caller is storing as frame number `frame` of the run. Every offset is
/// bounds-checked here, so later slicing through the entries cannot go
/// out of range; on a decode error `index` is left as it was. Offsets are
/// `u32`: a payload over 4 GiB is an error, not a truncation.
pub fn index_frame(index: &mut Vec<IndexEntry>, frame: usize, payload: &[u8]) -> Result<()> {
    let frame = u32::try_from(frame).map_err(|_| Error::corrupt("run holds over 2^32 frames"))?;
    if u32::try_from(payload.len()).is_err() {
        return Err(Error::corrupt(format!(
            "frame payload of {} bytes exceeds the 4 GiB index limit",
            payload.len()
        )));
    }
    let start = index.len();
    for span in ser::framed_kv_spans(payload) {
        let span = match span {
            Ok(span) => span,
            Err(e) => {
                index.truncate(start);
                return Err(e);
            }
        };
        // Each field is at most `payload.len()`, which fits `u32`.
        index.push(IndexEntry {
            prefix: key_prefix(&payload[span.key()]),
            frame,
            key_off: span.key_off as u32,
            key_len: span.key_len as u32,
            val_len: span.val_len as u32,
        });
    }
    Ok(())
}

impl IndexEntry {
    /// Number of the frame holding the record.
    pub fn frame(&self) -> usize {
        self.frame as usize
    }

    /// The key's byte range within its frame.
    pub fn key_range(&self) -> Range<usize> {
        let start = self.key_off as usize;
        start..start + self.key_len as usize
    }

    /// The value's byte range within its frame.
    pub fn value_range(&self) -> Range<usize> {
        let start = self.key_off as usize + self.key_len as usize;
        start..start + self.val_len as usize
    }

    /// The key bytes, given the frames the entry was indexed over.
    pub fn key<'a>(&self, frames: &'a [Bytes]) -> &'a [u8] {
        &frames[self.frame()][self.key_range()]
    }

    /// The value bytes, given the frames the entry was indexed over.
    pub fn value<'a>(&self, frames: &'a [Bytes]) -> &'a [u8] {
        &frames[self.frame()][self.value_range()]
    }

    /// Starts fetching the key's bytes from `depth` on; call it
    /// [`PREFETCH_AHEAD`] entries before the one being read.
    #[inline]
    pub fn prefetch_key(&self, frames: &[Bytes], depth: usize) {
        prefetch(&frames[self.frame()], self.key_off as usize + depth);
    }

    /// Starts fetching the value's first bytes; call it
    /// [`PREFETCH_AHEAD`] entries before the one being read.
    #[inline]
    pub fn prefetch_value(&self, frames: &[Bytes]) {
        prefetch(&frames[self.frame()], self.value_range().start);
    }

    /// Key bytes past the inline prefix (callers check `key_len` first).
    fn key_tail<'a>(&self, frames: &'a [Bytes]) -> &'a [u8] {
        &self.key(frames)[PREFIX_LEN..]
    }

    /// Whether both entries carry byte-identical keys.
    pub fn same_key(&self, other: &IndexEntry, frames: &[Bytes]) -> bool {
        self.prefix == other.prefix
            && self.key_len == other.key_len
            && (self.key_len as usize <= PREFIX_LEN
                || self.key_tail(frames) == other.key_tail(frames))
    }
}

/// Runs this short are finished by comparing key tails: setting up a
/// refinement level costs more than the few comparisons it would save.
const SMALL_RUN: usize = 8;

/// Orders a short run whose keys agree on their first `from` bytes (and
/// are all at least that long) by comparing what follows, then values.
fn sort_small_run(run: &mut [IndexEntry], from: usize, frames: &[Bytes]) {
    run.sort_unstable_by(|a, b| {
        a.key(frames)[from..]
            .cmp(&b.key(frames)[from..])
            .then_with(|| a.value(frames).cmp(b.value(frames)))
    });
}

/// Orders entries that share one key by value. A run longer than
/// [`SMALL_RUN`] reads each value once: its first [`PREFIX_LEN`] bytes
/// go into the `prefix` field, as [`key_prefix`] loads keys, and the run
/// sorts on that and the length capped at `PREFIX_LEN + 1`. Of two
/// values with equal padded prefixes, a shorter one that fits the prefix
/// is a prefix of the other and comes first, so only values longer than
/// `PREFIX_LEN` still tie, and those few are finished by comparing what
/// follows the prefix.
fn sort_values(same_key: &mut [IndexEntry], frames: &[Bytes]) {
    if same_key.len() <= SMALL_RUN {
        same_key.sort_unstable_by(|a, b| a.value(frames).cmp(b.value(frames)));
        return;
    }
    for i in 0..same_key.len() {
        if let Some(ahead) = same_key.get(i + PREFETCH_AHEAD) {
            ahead.prefetch_value(frames);
        }
        let e = &mut same_key[i];
        e.prefix = key_prefix(e.value(frames));
    }
    let rank = |e: &IndexEntry| (e.prefix, e.val_len.min(PREFIX_LEN as u32 + 1));
    same_key.sort_unstable_by_key(rank);
    for tied in same_key.chunk_by_mut(|a, b| rank(a) == rank(b)) {
        if tied.len() > 1 && tied[0].val_len as usize > PREFIX_LEN {
            tied.sort_unstable_by(|a, b| {
                a.value(frames)[PREFIX_LEN..].cmp(&b.value(frames)[PREFIX_LEN..])
            });
        }
    }
}

/// One refinement level over `run[lo..hi]`, more than [`SMALL_RUN`]
/// entries whose keys agree on their first `depth` bytes as zero-padded
/// by [`key_prefix`].
///
/// A key that ends within those bytes is a prefix of every other key of
/// the level (what the others hold up to `depth` is the padding's
/// zeros), so such keys come first, shortest first, and two of equal
/// length are the same key: only their values remain to be ordered.
/// Every other key has its next [`PREFIX_LEN`] bytes loaded into the
/// `prefix` field — the one read of the frames this level makes per key —
/// and is ordered on that; entries still tied are finished by comparison
/// when few and pushed on `pending` for the next level otherwise.
fn refine_level(
    run: &mut [IndexEntry],
    frames: &[Bytes],
    (lo, hi, depth): (usize, usize, usize),
    pending: &mut Vec<(usize, usize, usize)>,
) {
    let level = &mut run[lo..hi];
    let mut ended = 0;
    for i in 0..level.len() {
        if level[i].key_len as usize <= depth {
            level.swap(ended, i);
            ended += 1;
        }
    }
    let (done, rest) = level.split_at_mut(ended);
    done.sort_unstable_by_key(|e| e.key_len);
    for same_key in done.chunk_by_mut(|a, b| a.key_len == b.key_len) {
        sort_values(same_key, frames);
    }
    for i in 0..rest.len() {
        if let Some(ahead) = rest.get(i + PREFETCH_AHEAD) {
            ahead.prefetch_key(frames, depth);
        }
        let e = &mut rest[i];
        e.prefix = key_prefix(&e.key(frames)[depth..]);
    }
    rest.sort_unstable_by_key(|e| e.prefix);
    let mut at = lo + ended;
    for tied in rest.chunk_by_mut(|a, b| a.prefix == b.prefix) {
        if tied.len() > SMALL_RUN {
            pending.push((at, at + tied.len(), depth + PREFIX_LEN));
        } else if tied.len() > 1 {
            sort_small_run(tied, depth, frames);
        }
        at += tied.len();
    }
}

/// Sorts a run's index into `(key, value)` byte order — the order
/// [`sort_records`] gives the same records, so unstable sorting is safe
/// for the reason documented there.
///
/// This is a prefix-refinement sort. The whole index is first ordered on
/// the inline prefix alone, which reads no frame. Only inside a run of
/// equal prefixes is more of the keys looked at, eight bytes per level
/// (`refine_level`), so a key is read once per level it takes part in
/// rather than once per comparison; a long run of one key reads each
/// value's first eight bytes once (`sort_values`). Levels are worked off an
/// explicit list, never by recursion: stack use is the same for 8-byte
/// and 64 KiB keys. Entries leave with `prefix` restored to the first
/// bytes of their key, which [`IndexEntry::same_key`] relies on.
pub fn sort_index(index: &mut [IndexEntry], frames: &[Bytes]) {
    index.sort_unstable_by_key(|e| e.prefix);
    let mut pending = Vec::new();
    for run in index.chunk_by_mut(|a, b| a.prefix == b.prefix) {
        if run.len() > SMALL_RUN {
            let prefix = run[0].prefix;
            pending.push((0, run.len(), PREFIX_LEN));
            while let Some(level) = pending.pop() {
                refine_level(run, frames, level, &mut pending);
            }
            for e in run.iter_mut() {
                e.prefix = prefix;
            }
        } else if run.len() > 1 {
            sort_small_run(run, 0, frames);
        }
    }
}

/// Checks that `records` is non-decreasing by key bytes — used by tests
/// and by merge-phase debug assertions.
pub fn is_sorted(records: &[Record]) -> bool {
    records.windows(2).all(|w| w[0].key <= w[1].key)
}

/// K-way merge of already-sorted runs into one sorted vector.
///
/// The mapred engine's spill and reduce merges. Runs must each be
/// sorted by key bytes.
pub fn merge_sorted_runs(runs: Vec<Vec<Record>>) -> Vec<Record> {
    use std::collections::BinaryHeap;

    struct HeapItem {
        /// Sort key ordering is inverted because BinaryHeap is a max-heap.
        ord: Vec<u8>,
        tiebreak: Vec<u8>,
        run: usize,
        idx: usize,
    }
    impl PartialEq for HeapItem {
        fn eq(&self, other: &Self) -> bool {
            self.ord == other.ord && self.tiebreak == other.tiebreak && self.run == other.run
        }
    }
    impl Eq for HeapItem {}
    impl PartialOrd for HeapItem {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for HeapItem {
        fn cmp(&self, other: &Self) -> Ordering {
            // Reverse for min-heap behaviour; run index keeps it total.
            other
                .ord
                .cmp(&self.ord)
                .then_with(|| other.tiebreak.cmp(&self.tiebreak))
                .then_with(|| other.run.cmp(&self.run))
        }
    }

    let total: usize = runs.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    let mut heap = BinaryHeap::with_capacity(runs.len());
    for (i, run) in runs.iter().enumerate() {
        if let Some(first) = run.first() {
            debug_assert!(is_sorted(run), "merge input run {i} not sorted");
            heap.push(HeapItem {
                ord: first.key.to_vec(),
                tiebreak: first.value.to_vec(),
                run: i,
                idx: 0,
            });
        }
    }
    while let Some(item) = heap.pop() {
        let rec = runs[item.run][item.idx].clone();
        out.push(rec);
        let next = item.idx + 1;
        if next < runs[item.run].len() {
            let r = &runs[item.run][next];
            heap.push(HeapItem {
                ord: r.key.to_vec(),
                tiebreak: r.value.to_vec(),
                run: item.run,
                idx: next,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(k: &str, v: &str) -> Record {
        Record::from_strs(k, v)
    }

    #[test]
    fn sort_and_check() {
        let mut v = vec![rec("c", "1"), rec("a", "2"), rec("b", "3"), rec("a", "1")];
        assert!(!is_sorted(&v));
        sort_records(&mut v);
        assert!(is_sorted(&v));
        assert_eq!(v[0].value_utf8(), "1"); // ("a","1") before ("a","2")
    }

    #[test]
    fn merge_of_sorted_runs_equals_global_sort() {
        let run1 = vec![rec("a", "1"), rec("d", "4"), rec("f", "6")];
        let run2 = vec![rec("b", "2"), rec("e", "5")];
        let run3 = vec![rec("c", "3")];
        let merged = merge_sorted_runs(vec![run1.clone(), run2.clone(), run3.clone()]);
        let mut all: Vec<Record> = run1.into_iter().chain(run2).chain(run3).collect();
        sort_records(&mut all);
        assert_eq!(merged, all);
    }

    #[test]
    fn merge_handles_empty_runs_and_duplicates() {
        let merged = merge_sorted_runs(vec![
            vec![],
            vec![rec("x", "2"), rec("x", "3")],
            vec![rec("x", "1")],
        ]);
        assert_eq!(merged.len(), 3);
        assert!(is_sorted(&merged));
        let values: Vec<String> = merged.iter().map(|r| r.value_utf8()).collect();
        assert_eq!(values, ["1", "2", "3"]);
    }

    #[test]
    fn merge_of_nothing_is_empty() {
        assert!(merge_sorted_runs(vec![]).is_empty());
        assert!(merge_sorted_runs(vec![vec![], vec![]]).is_empty());
    }

    /// Frames `records` a few per frame, indexes and sorts them, and
    /// reads the index back as records.
    fn sorted_through_index(records: &[Record]) -> Vec<Record> {
        let mut frames = Vec::new();
        let mut index = Vec::new();
        for chunk in records.chunks(7) {
            let mut buf = Vec::new();
            for r in chunk {
                ser::frame_record(&mut buf, r);
            }
            index_frame(&mut index, frames.len(), &buf).unwrap();
            frames.push(Bytes::from(buf));
        }
        assert_eq!(index.len(), records.len());
        sort_index(&mut index, &frames);
        for e in &index {
            let key = e.key(&frames);
            assert_eq!(e.prefix, key_prefix(key), "prefix not restored for {key:?}");
        }
        index
            .iter()
            .map(|e| Record {
                key: frames[e.frame()].slice(e.key_range()),
                value: frames[e.frame()].slice(e.value_range()),
            })
            .collect()
    }

    fn assert_index_matches(mut records: Vec<Record>) {
        let got = sorted_through_index(&records);
        sort_records(&mut records);
        assert_eq!(got, records, "index order diverged from sort_records");
    }

    /// Deterministic pseudo-random byte strings (xorshift; no external RNG).
    fn rand_bytes(state: &mut u64, max_len: usize, alphabet: u64) -> Vec<u8> {
        let mut step = || {
            *state ^= *state << 13;
            *state ^= *state >> 7;
            *state ^= *state << 17;
            *state
        };
        let len = (step() as usize) % (max_len + 1);
        (0..len).map(|_| (step() % alphabet) as u8).collect()
    }

    #[test]
    fn index_entries_are_24_bytes() {
        assert_eq!(std::mem::size_of::<IndexEntry>(), 24);
    }

    #[test]
    fn index_breaks_zero_padded_prefix_ties_by_length() {
        // Every key here pads to the same all-zero or "a\0..." prefix.
        let keys: [&[u8]; 8] = [
            b"a\0\0",
            b"",
            b"a",
            b"\0\0",
            b"a\0",
            b"\0",
            b"a\0\0\0\0\0\0\0",
            b"a\0\0\0\0\0\0\0\0",
        ];
        let records = keys.iter().map(|k| Record::new(k.to_vec(), b"v".to_vec()));
        assert_index_matches(records.collect());
    }

    #[test]
    fn index_orders_long_keys_sharing_their_prefix() {
        let mut v = Vec::new();
        for i in 0..300u32 {
            let key = format!("shared/prefix/deeply/nested/{:03}", (i * 37) % 150);
            v.push(rec(&key, &format!("{}", 299 - i)));
            // One key is the eight-byte prefix itself, another is shorter.
            v.push(rec("shared/p", &format!("{i}")));
            v.push(rec("shared", ""));
        }
        assert_index_matches(v);
    }

    #[test]
    fn index_orders_values_within_equal_keys() {
        // Values that are prefixes of each other under one long and one
        // short key; and a key whose values are all equal.
        let mut v = Vec::new();
        for len in (0..40usize).rev() {
            v.push(rec("k", &"v".repeat(len)));
            v.push(rec(&"long-key-".repeat(3), &"v".repeat(len % 5)));
            v.push(rec("same", "1"));
        }
        assert_index_matches(v);
    }

    /// `copies` records of every key, so that each run the sort meets is
    /// longer than [`SMALL_RUN`] and takes the refinement path; values
    /// descend so that equal keys arrive in the wrong value order.
    fn repeated(keys: &[Vec<u8>], copies: usize) -> Vec<Record> {
        assert!(copies > SMALL_RUN);
        let mut v = Vec::new();
        for c in (0..copies).rev() {
            for key in keys.iter().rev() {
                v.push(Record::new(key.clone(), format!("{c:03}").into_bytes()));
            }
        }
        v
    }

    #[test]
    fn index_refines_keys_that_differ_only_after_three_levels() {
        // 30 shared bytes: levels 1-3 tie, level 4 decides (and for the
        // last two keys, level 5).
        let shared = b"0123456789abcdefghijklmnopqrst";
        let mut keys = Vec::new();
        for tail in ["zz", "a", "m-and-then-some-more", "m-and-then-some", ""] {
            keys.push([&shared[..], tail.as_bytes()].concat());
        }
        assert_index_matches(repeated(&keys, SMALL_RUN + 3));
    }

    #[test]
    fn index_orders_keys_ending_at_level_boundaries_before_their_extensions() {
        // Keys of exactly 8, 16 and 24 bytes, each a prefix of the next
        // and of keys one byte longer — 0x00 and 0x01 right after the
        // boundary, so the padded prefixes of the next level tie or nearly
        // tie too.
        let long = b"abcdefghABCDEFGH01234567-tail";
        let mut keys = Vec::new();
        for end in [8usize, 16, 24] {
            keys.push(long[..end].to_vec());
            keys.push([&long[..end], &b"\0"[..]].concat());
            keys.push([&long[..end], &b"\0\0"[..]].concat());
            keys.push([&long[..end], &b"\x01"[..]].concat());
            keys.push(long[..end - 1].to_vec());
        }
        keys.push(long.to_vec());
        assert_index_matches(repeated(&keys, SMALL_RUN + 1));
        // The same keys once each: every tie is a short run.
        let once = keys.iter().map(|k| Record::new(k.clone(), b"v".to_vec()));
        assert_index_matches(once.collect());
    }

    #[test]
    fn index_orders_zero_bytes_across_level_boundaries() {
        // Zero bytes straddling the 8- and 16-byte boundaries, where the
        // padding of a shorter key and the data of a longer one coincide.
        let mut keys = Vec::new();
        for len in 6..=18usize {
            keys.push(vec![0u8; len]);
            let mut k = vec![b'k'; 7];
            k.resize(len.max(7), 0);
            keys.push(k);
            let mut k = vec![0u8; len];
            k[len - 1] = 1;
            keys.push(k);
        }
        assert_index_matches(repeated(&keys, SMALL_RUN + 2));
    }

    #[test]
    fn index_orders_all_equal_keys_by_value() {
        for key in ["", "short", "exactly8", "a-key-well-past-two-levels"] {
            let v: Vec<Record> = (0..200u32)
                .map(|i| rec(key, &format!("{:03}", (i * 77) % 200)))
                .collect();
            assert_index_matches(v);
        }
    }

    #[test]
    fn index_sorts_64_kib_keys_differing_in_the_last_byte_on_a_small_stack() {
        // 8192 levels deep: the pending list, not the call stack, carries
        // the descent — a frame per level would overrun this thread's
        // stack many times over. The second round covers the short-run
        // finish at that depth.
        const LEN: usize = 64 * 1024;
        let sorter = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(|| {
                for n in [1000usize, SMALL_RUN] {
                    let v: Vec<Record> = (0..n)
                        .map(|i| {
                            let mut key = vec![0xABu8; LEN];
                            key[LEN - 2] = ((i * 7) % 4) as u8;
                            key[LEN - 1] = ((i * 131) % 251) as u8;
                            Record::new(key, format!("{}", i % 3).into_bytes())
                        })
                        .collect();
                    assert_index_matches(v);
                }
            })
            .unwrap();
        sorter.join().expect("sorted within a 256 KiB stack");
    }

    #[test]
    fn index_matches_reference_on_random_inputs() {
        let mut state = 0x9e3779b97f4a7c15u64;
        for case in 0..12u64 {
            let n = 1 + (case * 157) % 1500;
            // A small alphabet that includes 0x00 forces prefix ties.
            let alphabet = if case % 2 == 0 { 3 } else { 256 };
            let v: Vec<Record> = (0..n)
                .map(|_| {
                    Record::new(
                        rand_bytes(&mut state, 12, alphabet),
                        rand_bytes(&mut state, 3, alphabet),
                    )
                })
                .collect();
            assert_index_matches(v);
        }
        // Two symbols over up to 40 bytes: long runs tie for several
        // levels, 0x00 at every boundary.
        for n in [400usize, 3000] {
            let v: Vec<Record> = (0..n)
                .map(|_| {
                    let mut key = rand_bytes(&mut state, 5, 2);
                    key.resize(key.len() + 24, 0);
                    key.extend(rand_bytes(&mut state, 11, 2));
                    Record::new(key, rand_bytes(&mut state, 2, 2))
                })
                .collect();
            assert_index_matches(v);
        }
    }

    #[test]
    fn index_frame_rejects_a_truncated_payload_and_keeps_the_index() {
        let mut good = Vec::new();
        ser::frame_record(&mut good, &rec("k", "v"));
        let mut index = Vec::new();
        index_frame(&mut index, 0, &good).unwrap();
        let mut bad = good.clone();
        ser::frame_record(&mut bad, &rec("key", "value"));
        bad.truncate(bad.len() - 1);
        assert!(index_frame(&mut index, 1, &bad).is_err());
        assert_eq!(index.len(), 1, "a failed frame must leave no entries");
        assert!(index_frame(&mut index, 1 << 32, &good).is_err());
    }

    #[test]
    fn sort_kernel_names_and_default() {
        assert_eq!(SortKernel::default(), SortKernel::Radix);
        assert_eq!(SortKernel::Radix.name(), "radix");
        assert_eq!(SortKernel::Comparison.name(), "std");
    }
}
