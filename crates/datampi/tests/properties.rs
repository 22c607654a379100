//! Property-based tests of the DataMPI runtime: for arbitrary corpora and
//! configurations, jobs must compute exactly the reference result, never
//! lose records, and survive checkpoint/restart — including under
//! arbitrary seeded fault plans driven by the supervisor.

use std::collections::BTreeMap;

use bytes::Bytes;
use proptest::prelude::*;

use datampi::checkpoint::CheckpointStore;
use datampi::fault::FaultPlan;
use datampi::store::PartitionStore;
use datampi::supervisor::{supervise_job, RetryPolicy};
use datampi::{run_job, Backend, Combiner, JobConfig, SpillConfig};
use dmpi_common::compare::sort_records;
use dmpi_common::group::{group_sorted, Collector, GroupedValues};
use dmpi_common::ser::{self, Writable};
use dmpi_common::Record;

fn wc_o(_t: usize, split: &[u8], out: &mut dyn Collector) {
    for line in split.split(|&b| b == b'\n') {
        for w in line.split(|&b| b == b' ').filter(|w| !w.is_empty()) {
            out.collect(w, &1u64.to_bytes());
        }
    }
}

fn wc_a(g: &GroupedValues, out: &mut dyn Collector) {
    let total: u64 = g.values.iter().map(|v| u64::from_bytes(v).unwrap()).sum();
    out.collect(&g.key, &total.to_bytes());
}

fn reference_counts(inputs: &[Bytes]) -> BTreeMap<Vec<u8>, u64> {
    let mut m = BTreeMap::new();
    for split in inputs {
        for line in split.split(|&b| b == b'\n') {
            for w in line.split(|&b| b == b' ').filter(|w| !w.is_empty()) {
                *m.entry(w.to_vec()).or_default() += 1;
            }
        }
    }
    m
}

fn engine_counts(out: datampi::JobOutput) -> BTreeMap<Vec<u8>, u64> {
    out.into_single_batch()
        .into_records()
        .into_iter()
        .map(|r| (r.key.to_vec(), u64::from_bytes(&r.value).unwrap()))
        .collect()
}

/// One random fault event whose `on_attempt` is strictly below the retry
/// budget's last attempt, so a supervised job is always survivable.
#[derive(Clone, Copy, Debug)]
enum Ev {
    Err(usize, u32),
    Panic(usize, u32),
    Corrupt(usize, u32),
}

fn event_strategy() -> impl Strategy<Value = Ev> {
    prop_oneof![
        (0usize..8, 0u32..3).prop_map(|(t, a)| Ev::Err(t, a)),
        (0usize..4, 0u32..3).prop_map(|(r, a)| Ev::Panic(r, a)),
        (0usize..8, 0u32..3).prop_map(|(t, a)| Ev::Corrupt(t, a)),
    ]
}

fn corpus_strategy() -> impl Strategy<Value = Vec<Bytes>> {
    proptest::collection::vec(
        proptest::collection::vec("[a-e]{1,4}", 0..12)
            .prop_map(|words| Bytes::from(words.join(" "))),
        0..10,
    )
}

/// Keys chosen to collide in the store's eight-byte sort prefix: a
/// shared eight-byte head with the order decided by the tail, keys
/// shorter than the prefix with trailing `0x00` (zero padding makes
/// `"a"` and `"a\0"` one prefix), the empty key, one key repeated so
/// only values differ, and plain random bytes.
fn adversarial_key() -> impl Strategy<Value = Vec<u8>> {
    use proptest::collection::vec;
    prop_oneof![
        vec(0u8..3, 0..4).prop_map(|tail| [&b"prefix__"[..], &tail].concat()),
        vec(0u8..2, 0..5),
        vec(prop_oneof![Just(b'a'), Just(0u8)], 0..10),
        Just(Vec::new()),
        Just(b"same-key".to_vec()),
        Just(b"same-key, past the prefix".to_vec()),
        vec(any::<u8>(), 0..12),
    ]
}

/// Values that are prefixes of each other, or a few small bytes.
fn adversarial_value() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        (0usize..4).prop_map(|n| vec![b'v'; n]),
        proptest::collection::vec(0u8..3, 0..3),
    ]
}

fn adversarial_records() -> impl Strategy<Value = Vec<Record>> {
    proptest::collection::vec(
        (adversarial_key(), adversarial_value()).prop_map(|(k, v)| Record::new(k, v)),
        0..120,
    )
}

/// Keys that tie for several eight-byte levels of the index sort: a
/// shared head of 0, 8, 16 or 24 bytes — itself a key, so that keys end
/// exactly on a level boundary and are prefixes of longer ones — then a
/// short tail over `0x00`/`0x01`, so that a longer key's data and a
/// shorter key's zero padding coincide right after the boundary. Few
/// distinct keys: most runs of equal prefixes are long enough to be
/// refined level by level, and equal keys abound. Two heads differing
/// in their first byte only give pairs of keys that differ in the first
/// level and agree on every later one.
fn deep_key() -> impl Strategy<Value = Vec<u8>> {
    use proptest::collection::vec;
    const HEAD: &[u8] = b"level-1.level-2.level-3.";
    (0usize..4, vec(0u8..2, 0..4), 0usize..3, any::<bool>()).prop_map(
        |(levels, tail, more, other_head)| {
            let mut key = HEAD[..8 * levels].to_vec();
            if other_head && levels > 0 {
                key[0] = b'm';
            }
            key.extend(tail);
            // Some keys run on for another level or two past the tail.
            key.extend(std::iter::repeat_n(0u8, 7 * more));
            key
        },
    )
}

fn deep_records() -> impl Strategy<Value = Vec<Record>> {
    proptest::collection::vec(
        (deep_key(), adversarial_value()).prop_map(|(k, v)| Record::new(k, v)),
        0..400,
    )
}

/// Values for one heavy key, 0 to 20 bytes: up to eight bytes of one
/// shared head, then up to twelve of `0x00`/`0x01`. Many agree on their
/// zero-padded first eight bytes, end in `0x00`, or are prefixes of one
/// another, which are the ties the value step of the index sort must
/// break by length and, past eight bytes, by the bytes that follow.
fn heavy_key_records() -> impl Strategy<Value = Vec<Record>> {
    use proptest::collection::vec;
    let key = prop_oneof![
        Just(Vec::new()),
        Just(b"a".to_vec()),
        Just(b"a heavy key, three levels deep".to_vec()),
    ];
    let value = (0usize..=8, vec(0u8..2, 0..=12))
        .prop_map(|(head, tail)| [&b"shared-8"[..head], &tail].concat());
    (key, vec(value, 0..300)).prop_map(|(key, values)| {
        values
            .into_iter()
            .map(|v| Record::new(key.clone(), v))
            .collect()
    })
}

/// Ingests `records`, `per_frame` to a frame, under one of three spill
/// regimes: 0 = nothing spills, 1 = exactly one run is sealed half-way,
/// 2 = a budget so small that nearly every frame seals a run. Runs seal
/// into `dir`.
fn filled_store(
    records: &[Record],
    per_frame: usize,
    regime: usize,
    dir: &ScratchDir,
) -> PartitionStore {
    let budget = if regime == 2 { 24 } else { 1 << 20 };
    let mut store = PartitionStore::new(budget, true);
    store.set_spill_config(SpillConfig::default().with_dir(dir.0.clone()));
    let frames: Vec<&[Record]> = records.chunks(per_frame).collect();
    let (mut total, mut largest) = (0, 0);
    for (i, frame) in frames.iter().enumerate() {
        if regime == 1 && i == frames.len() / 2 {
            store.spill();
        }
        let payload = ser::frame_batch(&frame.iter().cloned().collect());
        total += payload.len();
        largest = largest.max(payload.len());
        store.ingest(Bytes::from(payload)).unwrap();
    }
    let spills = store.stats().spills as usize;
    match regime {
        0 => assert_eq!(spills, 0),
        1 => assert_eq!(spills, usize::from(frames.len() >= 2)),
        // A run seals as soon as it passes the budget, so none holds
        // more than the budget plus one frame, and what is left fits
        // the budget.
        _ => assert!(spills * (budget + largest) + budget >= total),
    }
    store
}

/// Text Sort's shape: each line a record keyed by its content, with a
/// non-empty value so that values are shared too.
fn sort_o(_t: usize, split: &[u8], out: &mut dyn Collector) {
    for line in split.split(|&b| b == b'\n') {
        out.collect(line, &line[..line.len().min(3)]);
    }
}

/// Identity A that keeps the group's handles.
fn sharing_a(g: &GroupedValues, out: &mut dyn Collector) {
    for v in &g.values {
        out.collect_shared(&g.key, v);
    }
}

/// Identity A that copies every byte.
fn copying_a(g: &GroupedValues, out: &mut dyn Collector) {
    for v in &g.values {
        out.collect(&g.key, v);
    }
}

/// Lines over a small alphabet, so keys repeat and share prefixes.
fn lines_strategy() -> impl Strategy<Value = Vec<Bytes>> {
    proptest::collection::vec(
        proptest::collection::vec("[a-c]{0,6}", 0..40)
            .prop_map(|lines| Bytes::from(lines.join("\n"))),
        0..8,
    )
}

/// A spill directory of one case's own, so concurrent cases never
/// collide; removed on drop.
struct ScratchDir(std::path::PathBuf);

impl ScratchDir {
    fn new() -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        ScratchDir(std::env::temp_dir().join(format!(
            "dmpi-props-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        )))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The sort descends one level per eight key bytes off a list, not by
/// recursion: 1 000 keys of 64 KiB that differ only at the very end take
/// 8 192 levels, here on a thread whose stack would not hold a fraction
/// of that many frames. All-equal keys ride along in the same partition.
#[test]
fn store_sorts_64_kib_keys_differing_in_the_last_byte_on_a_small_stack() {
    const LEN: usize = 64 * 1024;
    const KEYS: usize = 1000;
    let sorter = std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(|| {
            let mut store = PartitionStore::new(1 << 30, true);
            let mut key = vec![0xABu8; LEN];
            for i in 0..KEYS {
                key[LEN - 2] = ((i * 7) % 5) as u8;
                key[LEN - 1] = ((i * 131) % 251) as u8;
                let mut payload = Vec::with_capacity(LEN + 16);
                ser::frame_kv(&mut payload, &key, &[(i % 3) as u8]);
                ser::frame_kv(&mut payload, b"all-equal-key", &[(i % 7) as u8]);
                store.ingest(Bytes::from(payload)).unwrap();
            }
            store.into_records().unwrap()
        })
        .unwrap();
    let records = sorter
        .join()
        .expect("the sort must not overflow a 256 KiB stack");
    assert_eq!(records.len(), 2 * KEYS);
    let (long, short): (Vec<_>, Vec<_>) = records.iter().partition(|r| r.key.len() == LEN);
    assert_eq!((long.len(), short.len()), (KEYS, KEYS));
    let order = |r: &&Record| (r.key[r.key.len() - 2..].to_vec(), r.value.to_vec());
    assert!(short.windows(2).all(|w| order(&w[0]) <= order(&w[1])));
    assert!(long.windows(2).all(|w| order(&w[0]) <= order(&w[1])));
    // "all-equal-key" < 0xAB…: every short record precedes every long one.
    assert!(records[..KEYS].iter().all(|r| r.key.len() < LEN));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The index order is `sort_records` order, whether the records are
    /// grouped from memory, merged with one sealed run, or merged from
    /// many. Dropping the prefix tie-break fails this on the first keys
    /// that share a prefix.
    #[test]
    fn store_order_equals_sort_records_on_adversarial_keys(
        records in adversarial_records(),
        per_frame in 1usize..9,
        regime in 0usize..3,
    ) {
        let dir = ScratchDir::new();
        let store = filled_store(&records, per_frame, regime, &dir);
        prop_assert_eq!(store.stats().records, records.len() as u64);
        let mut expected = records;
        sort_records(&mut expected);
        prop_assert_eq!(store.into_records().unwrap(), expected);
    }

    /// Keys that tie for up to four levels of the refinement sort come
    /// out in `sort_records` order and in the same groups — the index
    /// walk finds a group's end by comparing the prefixes the sort must
    /// have put back — under every spill regime.
    #[test]
    fn store_order_and_groups_equal_sort_records_on_deep_keys(
        records in deep_records(),
        per_frame in 1usize..40,
        regime in 0usize..3,
    ) {
        let dir = ScratchDir::new();
        let store = filled_store(&records, per_frame, regime, &dir);
        let mut stream = store.into_group_stream().unwrap();
        let mut groups = Vec::new();
        while let Some(g) = stream.next_group().unwrap() {
            groups.push(g);
        }
        let mut expected = records;
        sort_records(&mut expected);
        prop_assert_eq!(groups, group_sorted(expected));
    }

    /// One key carrying every record, as Grep's partition does: its
    /// values come out in `sort_records` order whether the forming run
    /// is walked from memory or merged with sealed runs.
    #[test]
    fn store_orders_one_heavy_keys_values_like_sort_records(
        records in heavy_key_records(),
        per_frame in 1usize..64,
        regime in 0usize..3,
    ) {
        let dir = ScratchDir::new();
        let store = filled_store(&records, per_frame, regime, &dir);
        let mut expected = records;
        sort_records(&mut expected);
        prop_assert_eq!(store.into_records().unwrap(), expected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn wordcount_matches_reference_model(
        inputs in corpus_strategy(),
        ranks in 1usize..6,
        pipelined in any::<bool>(),
        flush in prop_oneof![Just(16usize), Just(256), Just(1 << 20)],
    ) {
        let config = JobConfig::new(ranks)
            .with_pipelined(pipelined)
            .with_flush_threshold(flush);
        let expected = reference_counts(&inputs);
        let out = run_job(&config, inputs, wc_o, wc_a, None).unwrap();
        prop_assert_eq!(engine_counts(out), expected);
    }

    #[test]
    fn no_records_are_lost_under_tiny_memory_budgets(
        inputs in corpus_strategy(),
        budget in 32usize..4096,
    ) {
        let dir = ScratchDir::new();
        let config = JobConfig::new(2)
            .with_memory_budget(budget)
            .with_spill_dir(&dir.0);
        let expected = reference_counts(&inputs);
        let out = run_job(&config, inputs, wc_o, wc_a, None).unwrap();
        // Past two budgets of input, some partition went over.
        prop_assert!(out.stats.spills > 0 || out.stats.bytes_emitted <= 2 * budget as u64);
        prop_assert_eq!(engine_counts(out), expected);
    }

    #[test]
    fn checkpoint_restart_equals_clean_run(
        inputs in corpus_strategy().prop_filter("need tasks", |v| v.len() >= 2),
        fail_at in any::<prop::sample::Index>(),
    ) {
        let fail_task = fail_at.index(inputs.len());
        let cp = CheckpointStore::new();
        let config = JobConfig::new(1).with_faults(FaultPlan::new(0).fail_o_task(fail_task, 0));
        let err = run_job(&config, inputs.clone(), wc_o, wc_a, Some(&cp)).unwrap_err();
        prop_assert!(matches!(err, dmpi_common::Error::Fault(_)));

        // The same job against the same store is attempt 1.
        let out = run_job(&config, inputs.clone(), wc_o, wc_a, Some(&cp)).unwrap();
        // Tasks before the failure were recovered, not re-run.
        prop_assert_eq!(out.stats.o_tasks_recovered as usize, fail_task);
        let clean = run_job(&JobConfig::new(1), inputs, wc_o, wc_a, None).unwrap();
        prop_assert_eq!(engine_counts(out), engine_counts(clean));
    }

    #[test]
    fn supervised_jobs_survive_any_seeded_fault_plan_byte_identically(
        inputs in corpus_strategy(),
        ranks in 1usize..4,
        seed in any::<u64>(),
        events in proptest::collection::vec(event_strategy(), 0..4),
    ) {
        // Every event fires on attempt <= 2 and the budget is 4 attempts,
        // so attempt 3 is always fault-free: the supervisor must succeed,
        // and the output must match a fault-free run byte for byte.
        let plan = events.iter().fold(FaultPlan::new(seed), |p, e| match *e {
            Ev::Err(t, a) => p.fail_o_task(t, a),
            Ev::Panic(r, a) => p.rank_panic(r, a),
            Ev::Corrupt(t, a) => p.corrupt_frame(t, a),
        });
        let config = JobConfig::new(ranks).with_faults(plan);
        let policy = RetryPolicy::new(4).with_backoff(std::time::Duration::ZERO);
        let cp = CheckpointStore::new();
        let out = supervise_job(&config, &policy, inputs.clone(), wc_o, wc_a, Some(&cp)).unwrap();
        let clean = run_job(&JobConfig::new(ranks), inputs, wc_o, wc_a, None).unwrap();
        prop_assert_eq!(out.partitions.len(), clean.partitions.len());
        for (p, q) in out.partitions.iter().zip(&clean.partitions) {
            prop_assert_eq!(p.records(), q.records());
        }
    }

    #[test]
    fn combiner_is_byte_identical_under_spill_pressure(
        inputs in corpus_strategy(),
        ranks in 1usize..5,
        budget in 32usize..2048,
        flush in prop_oneof![Just(16usize), Just(64), Just(1 << 20)],
    ) {
        // Wordcount's A function is an associative, commutative fold, so
        // running it early as an O-side combiner must not change a single
        // output byte — even when the tiny memory budget forces the A side
        // through key-sorted spills and the external merge.
        let dir = ScratchDir::new();
        let plain = JobConfig::new(ranks)
            .with_memory_budget(budget)
            .with_spill_dir(&dir.0)
            .with_flush_threshold(flush);
        let combined = plain.clone().with_combiner(Combiner::new(wc_a));
        let a = run_job(&plain, inputs.clone(), wc_o, wc_a, None).unwrap();
        let b = run_job(&combined, inputs, wc_o, wc_a, None).unwrap();
        // Past `ranks` budgets of input, some partition went over.
        prop_assert!(a.stats.spills > 0 || a.stats.bytes_emitted <= (budget * ranks) as u64);
        prop_assert_eq!(a.partitions.len(), b.partitions.len());
        for (p, q) in a.partitions.iter().zip(&b.partitions) {
            prop_assert_eq!(p.records(), q.records());
        }
        // The combiner can only shrink the shuffle, never grow it, and its
        // counters must account for every record the O side emitted.
        prop_assert!(b.stats.bytes_emitted <= a.stats.bytes_emitted);
        prop_assert_eq!(b.stats.combiner_records_in, a.stats.records_emitted);
        prop_assert!(b.stats.combiner_records_out <= b.stats.combiner_records_in);
        prop_assert_eq!(a.stats.combiner_records_in, 0);
    }

    #[test]
    fn combiner_identity_holds_across_fault_plan_retries(
        inputs in corpus_strategy(),
        ranks in 1usize..4,
        seed in any::<u64>(),
        events in proptest::collection::vec(event_strategy(), 1..4),
    ) {
        // Same identity, but now the combiner-enabled job runs under a
        // seeded fault plan and the supervisor's retry loop: recovery must
        // reproduce the clean combiner-free output byte for byte.
        let plan = events.iter().fold(FaultPlan::new(seed), |p, e| match *e {
            Ev::Err(t, a) => p.fail_o_task(t, a),
            Ev::Panic(r, a) => p.rank_panic(r, a),
            Ev::Corrupt(t, a) => p.corrupt_frame(t, a),
        });
        let dir = ScratchDir::new();
        let faulty = JobConfig::new(ranks)
            .with_memory_budget(256)
            .with_spill_dir(&dir.0)
            .with_faults(plan)
            .with_combiner(Combiner::new(wc_a));
        let policy = RetryPolicy::new(4).with_backoff(std::time::Duration::ZERO);
        let cp = CheckpointStore::new();
        let out = supervise_job(&faulty, &policy, inputs.clone(), wc_o, wc_a, Some(&cp)).unwrap();
        let clean_config = JobConfig::new(ranks);
        let clean = run_job(&clean_config, inputs, wc_o, wc_a, None).unwrap();
        prop_assert_eq!(out.partitions.len(), clean.partitions.len());
        for (p, q) in out.partitions.iter().zip(&clean.partitions) {
            prop_assert_eq!(p.records(), q.records());
        }
    }

    #[test]
    fn wasted_bytes_are_exact_across_retry_grids(
        inputs in corpus_strategy(),
        fails in proptest::collection::vec((0usize..8, 0u32..3), 0..5),
        seed in any::<u64>(),
        tcp in any::<bool>(),
        checkpointed in any::<bool>(),
    ) {
        // The waste ledger is an exact quantity, not a vibe. At one rank
        // every backend runs tasks 0..n in order and the injected error
        // fires *before* the task emits, so a failed attempt wastes
        // precisely the clean byte-prefix of the tasks that completed
        // ahead of its first failing task — and a checkpointed job wastes
        // nothing, because every one of those bytes was banked.
        let backend = if tcp { Backend::Tcp } else { Backend::InProc };
        let per_task: Vec<u64> = inputs
            .iter()
            .map(|s| {
                run_job(&JobConfig::new(1), vec![s.clone()], wc_o, wc_a, None)
                    .unwrap()
                    .stats
                    .bytes_emitted
            })
            .collect();
        // Attempt `a` only runs if every earlier attempt failed, so the
        // model walks attempts in order and stops at the first clean one.
        let mut expected_waste = 0u64;
        for a in 0u32..3 {
            let first_fail = fails
                .iter()
                .filter(|&&(t, at)| at == a && t < inputs.len())
                .map(|&(t, _)| t)
                .min();
            let Some(t) = first_fail else { break };
            if !checkpointed {
                expected_waste += per_task[..t].iter().sum::<u64>();
            }
        }

        let plan = fails
            .iter()
            .fold(FaultPlan::new(seed), |p, &(t, a)| p.fail_o_task(t, a));
        let config = JobConfig::new(1)
            .with_transport(backend)
            .with_faults(plan);
        let policy = RetryPolicy::new(4).with_backoff(std::time::Duration::ZERO);
        let cp = checkpointed.then(CheckpointStore::new);
        let out = supervise_job(&config, &policy, inputs.clone(), wc_o, wc_a, cp.as_ref()).unwrap();
        prop_assert_eq!(out.stats.wasted_bytes, expected_waste);
        prop_assert_eq!(engine_counts(out), reference_counts(&inputs));
    }

    /// A Sort-shaped job's output does not depend on whether its identity
    /// A copies each pair or keeps the group's handles, whichever source
    /// the groups come from: the walk of an in-memory index or a merge
    /// over runs spilled to disk.
    #[test]
    fn sharing_identity_a_is_byte_identical_to_copying(
        inputs in lines_strategy(),
        ranks in 1usize..4,
        spilled in any::<bool>(),
    ) {
        let dir = ScratchDir::new();
        let config = if spilled {
            JobConfig::new(ranks).with_memory_budget(64).with_spill_dir(&dir.0)
        } else {
            JobConfig::new(ranks)
        };
        let shared = run_job(&config, inputs.clone(), sort_o, sharing_a, None).unwrap();
        let copied = run_job(&config, inputs, sort_o, copying_a, None).unwrap();
        if spilled {
            // Past `ranks` budgets of input, some partition went over.
            // How many runs it sealed depends on the order frames arrive.
            let over = copied.stats.bytes_emitted > 64 * ranks as u64;
            prop_assert!(shared.stats.spills > 0 || !over);
            prop_assert!(copied.stats.spills > 0 || !over);
        } else {
            prop_assert_eq!(shared.stats.spills, 0);
        }
        prop_assert_eq!(shared.partitions.len(), copied.partitions.len());
        for (p, q) in shared.partitions.iter().zip(&copied.partitions) {
            prop_assert_eq!(ser::frame_batch(p), ser::frame_batch(q));
        }
    }

    #[test]
    fn stats_account_every_emitted_record(inputs in corpus_strategy()) {
        let expected_total: u64 = reference_counts(&inputs).values().sum();
        let out = run_job(&JobConfig::new(3), inputs, wc_o, wc_a, None).unwrap();
        prop_assert_eq!(out.stats.records_emitted, expected_total);
        prop_assert_eq!(out.stats.groups as usize, {
            let b: std::collections::BTreeSet<Vec<u8>> = engine_counts(out).into_keys().collect();
            b.len()
        });
    }
}
