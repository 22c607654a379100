//! Property-based tests of the v2 wire codec: coalesced batches must
//! round-trip arbitrary frame sequences through arbitrary socket split
//! points, carrying exactly the frames' encodings, injected
//! corruption must never be delivered silently — at the codec level and
//! end-to-end through real TCP jobs under the seeded fault injector —
//! and hostile bytes must be rejected without a panic and without an
//! allocation sized by a length field.

use bytes::Bytes;
use proptest::prelude::*;

use datampi::comm::Frame;
use datampi::transport::wire::{
    parse_handshake, write_handshake, BatchEncoder, FrameDecoder, BATCH_HEADER_LEN,
    FEATURE_COALESCE, HANDSHAKE_LEN, MIN_COALESCE_BYTES, TAG_BATCH,
};
use datampi::{run_job, supervise_job, Backend, FaultPlan, JobConfig, RetryPolicy};
use dmpi_common::group::{Collector, GroupedValues};
use dmpi_common::ser::Writable;

mod counting_alloc;
use counting_alloc::peak_since;

fn wc_o(_t: usize, split: &[u8], out: &mut dyn Collector) {
    for w in split.split(|&b| b == b' ').filter(|w| !w.is_empty()) {
        out.collect(w, &1u64.to_bytes());
    }
}

fn wc_a(g: &GroupedValues, out: &mut dyn Collector) {
    let total: u64 = g.values.iter().map(|v| u64::from_bytes(v).unwrap()).sum();
    out.collect(&g.key, &total.to_bytes());
}

/// Frames with a payload mix: repetitive text, uniform-random bytes,
/// empty payloads and EOF markers.
fn frame_strategy() -> impl Strategy<Value = Frame> {
    let payload = prop_oneof![
        // A short word repeated many times.
        ("[a-f]{1,8}", 1usize..400).prop_map(|(w, n)| Bytes::from(w.repeat(n))),
        // Uniform random bytes.
        proptest::collection::vec(any::<u8>(), 0..1500).prop_map(Bytes::from),
        Just(Bytes::new()),
    ];
    // Roughly one frame in nine is an EOF marker; the rest carry data.
    (0usize..16, 0usize..256, payload, 0u8..9).prop_map(|(r, t, p, kind)| {
        if kind == 0 {
            Frame::Eof { from_rank: r }
        } else {
            Frame::data(r, t, p)
        }
    })
}

/// Encodes `frames` the way the event loop does: push until the size
/// watermark fires, seal, and seal whatever is left at the end (the
/// imminent-idle path). Returns the wire bytes and how many batches were
/// sealed, so a multi-batch stream really has frames straddling seal
/// boundaries.
fn encode_stream(frames: &[Frame]) -> (Vec<u8>, usize) {
    let mut enc = BatchEncoder::new(MIN_COALESCE_BYTES, false);
    let mut wire = Vec::new();
    let mut batches = 0;
    for f in frames {
        enc.push(f);
        if enc.should_seal() && enc.seal_into(&mut wire).is_some() {
            batches += 1;
        }
    }
    if enc.seal_into(&mut wire).is_some() {
        batches += 1;
    }
    (wire, batches)
}

/// Feeds `wire` to a fresh decoder in `chunk`-byte pieces and drains
/// every frame after each piece — the readiness-driven partial-read
/// pattern the event loop's ingest path performs.
fn decode_chunked(wire: &[u8], chunk: usize) -> (Vec<Frame>, FrameDecoder) {
    let mut dec = FrameDecoder::new(FEATURE_COALESCE);
    let mut got = Vec::new();
    for piece in wire.chunks(chunk.max(1)) {
        dec.extend(piece);
        while let Some(f) = dec.next_frame().unwrap() {
            got.push(f);
        }
    }
    (got, dec)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary frame sequences survive coalescing, sealing at the
    /// watermark (so batches straddle frame boundaries), and reassembly
    /// from arbitrary socket split points.
    #[test]
    fn coalesced_batches_round_trip_through_arbitrary_split_points(
        frames in proptest::collection::vec(frame_strategy(), 1..24),
        chunk in 1usize..512,
    ) {
        let (wire, batches) = encode_stream(&frames);
        prop_assert!(batches >= 1);
        let (got, dec) = decode_chunked(&wire, chunk);
        prop_assert!(dec.is_drained(), "no partial frame left buffered");
        prop_assert_eq!(&got, &frames);
        for f in &got {
            f.verify().unwrap();
        }
        let stats = dec.stats();
        prop_assert_eq!(stats.frames, frames.len() as u64);
        prop_assert_eq!(stats.batches, batches as u64);
    }

    /// Batching is invisible above the codec: the wire is the frames'
    /// own encodings plus one header per batch, and it decodes to the
    /// frames it was built from.
    #[test]
    fn batching_never_changes_a_delivered_byte(
        frames in proptest::collection::vec(frame_strategy(), 1..24),
        chunk in 1usize..256,
    ) {
        let (wire, batches) = encode_stream(&frames);
        // A frame's own encoding: a 21-byte header and the payload for
        // data, 5 bytes for an EOF.
        let encodings: usize = frames
            .iter()
            .map(|f| match f {
                Frame::Data { payload, .. } => 21 + payload.len(),
                Frame::Eof { .. } => 5,
            })
            .sum();
        prop_assert_eq!(wire.len(), encodings + BATCH_HEADER_LEN * batches);
        let (plain, _) = decode_chunked(&wire, chunk);
        prop_assert_eq!(&plain, &frames);
    }

    /// Flipping any single wire byte never panics the decoder and never
    /// silently delivers a wrong payload: either decode faults, a frame
    /// fails the CRC gate, the stream stalls incomplete, the frame count
    /// changes — or every delivered payload is byte-identical to the
    /// original at its position (a metadata-only flip, which the payload
    /// CRC by design does not cover).
    #[test]
    fn single_byte_corruption_is_never_silent_on_payloads(
        frames in proptest::collection::vec(frame_strategy(), 1..16),
        victim in any::<prop::sample::Index>(),
        flip in 1u8..=255,
    ) {
        let (mut wire, _) = encode_stream(&frames);
        let idx = victim.index(wire.len());
        wire[idx] ^= flip;

        let mut dec = FrameDecoder::new(FEATURE_COALESCE);
        dec.extend(&wire);
        let mut got = Vec::new();
        let mut faulted = false;
        loop {
            match dec.next_frame() {
                Ok(Some(f)) => got.push(f),
                Ok(None) => break,
                Err(_) => {
                    faulted = true;
                    break;
                }
            }
        }
        let crc_caught = got.iter().any(|f| f.verify().is_err());
        let stalled = !faulted && !dec.is_drained();
        let detected = faulted || crc_caught || stalled || got.len() != frames.len();
        if !detected {
            for (g, f) in got.iter().zip(&frames) {
                prop_assert_eq!(g.payload_len(), f.payload_len());
                match (g, f) {
                    (Frame::Data { payload: pg, .. }, Frame::Data { payload: pf, .. }) => {
                        prop_assert_eq!(pg, pf);
                    }
                    (Frame::Eof { .. }, Frame::Eof { .. }) => {}
                    other => prop_assert!(false, "frame kind changed: {:?}", other),
                }
            }
        }
    }
}

proptest! {
    // Each case launches real TCP meshes; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// End-to-end byte identity of the wire under the seeded corruption
    /// injector: a TCP job with a FaultPlan that corrupts frames
    /// mid-flight must fail the poisoned attempts at the CRC gate,
    /// recover under the supervisor, and end up byte-identical to a
    /// fault-free in-proc run.
    #[test]
    fn wire_is_byte_identical_under_corruption_injection(
        seed in any::<u64>(),
        corruptions in proptest::collection::vec((0usize..6, 0u32..3), 1..3),
        batch_bytes in prop_oneof![Just(4 * 1024usize), Just(64 * 1024)],
    ) {
        let inputs: Vec<Bytes> = (0..6)
            .map(|i| Bytes::from(format!("w{} w{} w{} shared shared", i, (i * 7) % 5, (i * 3) % 11)))
            .collect();
        // Every corruption fires on attempt <= 2 and the budget is 4
        // attempts, so attempt 3 is always clean.
        let plan = corruptions
            .iter()
            .fold(FaultPlan::new(seed), |p, &(t, a)| p.corrupt_frame(t, a));
        let config = JobConfig::new(2)
            .with_transport(Backend::Tcp)
            .with_wire_batch_bytes(batch_bytes)
            .with_faults(plan);
        let policy = RetryPolicy::new(4).with_backoff(std::time::Duration::ZERO);
        let out = supervise_job(&config, &policy, inputs.clone(), wc_o, wc_a, None).unwrap();
        let clean = run_job(&JobConfig::new(2), inputs, wc_o, wc_a, None).unwrap();
        prop_assert_eq!(out.partitions.len(), clean.partitions.len());
        for (p, q) in out.partitions.iter().zip(&clean.partitions) {
            prop_assert_eq!(p.records(), q.records());
        }
    }
}

/// Bytes a decoder may hold per byte it was fed: a generous 32 (the
/// pending frame queue, payload copies, buffer doubling). A length field
/// read from the input must never raise the bound.
const HELD_PER_FED_BYTE: usize = 32;
/// Fixed allowance: error messages and the first small allocations.
const HELD_SLACK: usize = 64 * 1024;

/// What a hostile peer might send: noise, or a batch or data header with
/// attacker-chosen counts and lengths followed by noise.
fn hostile_bytes() -> impl Strategy<Value = Vec<u8>> {
    let noise = || proptest::collection::vec(any::<u8>(), 0..300);
    // Small lengths a body can meet, large ones under every cap, any.
    let len = || prop_oneof![0u32..64, (1u32 << 16)..(1 << 28), any::<u32>()];
    let flags = prop_oneof![Just(0u8), 0u8..4]; // 0: the one valid value
    let batch = (flags, 0u32..4, len(), len(), noise()).prop_map(
        |(flags, count, raw_len, body_len, tail)| {
            let mut b = vec![TAG_BATCH, flags];
            for field in [count, raw_len, body_len] {
                b.extend_from_slice(&field.to_le_bytes());
            }
            b.extend(tail);
            b
        },
    );
    let data = (len(), noise()).prop_map(|(payload_len, tail)| {
        let mut b = vec![1u8];
        b.extend_from_slice(&[0; 16]); // from_rank, o_task, crc
        b.extend_from_slice(&payload_len.to_le_bytes());
        b.extend(tail);
        b
    });
    prop_oneof![noise(), batch, data]
}

/// Feeds `bytes` to a decoder for `features` in `chunk`-byte pieces,
/// draining after each, until the bytes run out or it faults. Returns
/// the most bytes held meanwhile.
fn decode_hostile(features: u32, bytes: &[u8], chunk: usize) -> usize {
    let (_, held) = peak_since(|| {
        let mut dec = FrameDecoder::new(features);
        for piece in bytes.chunks(chunk.max(1)) {
            dec.extend(piece);
            loop {
                match dec.next_frame() {
                    Ok(Some(_)) => continue,
                    Ok(None) => break,
                    Err(_) => return,
                }
            }
        }
        let _ = dec.is_drained();
    });
    held
}

fn held_bound(fed: usize) -> usize {
    HELD_PER_FED_BYTE * fed + HELD_SLACK
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any bytes at all, in any chunks, parse to a handshake, a wait or
    /// a fault — never a panic.
    #[test]
    fn arbitrary_handshake_bytes_never_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..32),
        chunk in 1usize..16,
    ) {
        let mut seen = Vec::new();
        for piece in bytes.chunks(chunk) {
            seen.extend_from_slice(piece);
            match parse_handshake(&seen) {
                Ok(None) => continue,
                Ok(Some(_)) | Err(_) => break,
            }
        }
    }

    /// A bare decoder, whatever features it was built for, meets hostile
    /// bytes with frames, waits or a fault, and holds memory in
    /// proportion to what it was fed.
    #[test]
    fn bare_decoder_bounds_memory_by_bytes_fed(
        features in prop_oneof![Just(FEATURE_COALESCE), 0u32..4],
        bytes in hostile_bytes(),
        chunk in 1usize..64,
    ) {
        let held = decode_hostile(features, &bytes, chunk);
        prop_assert!(held <= held_bound(bytes.len()), "held {held} after {} bytes", bytes.len());
    }

    /// The same behind a valid handshake advertising any feature word:
    /// the connection's decoder is the one the handshake asks for.
    #[test]
    fn decoder_behind_a_handshake_bounds_memory_by_bytes_fed(
        from_rank in 0usize..1024,
        features in prop_oneof![Just(FEATURE_COALESCE), any::<u32>()],
        bytes in hostile_bytes(),
        chunk in 1usize..64,
    ) {
        let mut stream = Vec::new();
        write_handshake(&mut stream, from_rank, features).unwrap();
        stream.extend_from_slice(&bytes);
        let mut seen = Vec::new();
        let mut hs = None;
        for piece in stream[..HANDSHAKE_LEN].chunks(chunk) {
            seen.extend_from_slice(piece);
            hs = parse_handshake(&seen).unwrap();
        }
        let hs = hs.expect("a whole handshake parses");
        prop_assert_eq!((hs.from_rank, hs.features), (from_rank, features));
        let held = decode_hostile(hs.features, &stream[HANDSHAKE_LEN..], chunk);
        prop_assert!(held <= held_bound(bytes.len()), "held {held} after {} bytes", bytes.len());
    }
}
