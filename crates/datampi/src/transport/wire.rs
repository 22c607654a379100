//! Length-prefixed wire format for [`Frame`]s on the TCP backend.
//!
//! A connection starts with a fixed handshake identifying the protocol,
//! the connecting rank, and the **feature bits** the sender intends to
//! use, then carries a sequence of frames until the sender shuts its
//! write side down:
//!
//! ```text
//! handshake:   [magic u32 = "DMPI"][version u16][from_rank u32][features u32]
//! data frame:  [tag u8 = 1][from_rank u32][o_task u64][crc u32][len u32][payload: len bytes]
//! eof frame:   [tag u8 = 2][from_rank u32]
//! batch frame: [tag u8 = 3][flags u8][count u32][raw_len u32][body_len u32][body: body_len bytes]
//! ```
//!
//! All integers are little-endian. A **batch** carries `count` logical
//! frames: `body` is the concatenation of their ordinary data/eof
//! encodings (`raw_len` bytes), optionally LZ4-block-compressed to
//! `body_len` bytes when [`BATCH_FLAG_LZ4`] is set (compression is used
//! only when it actually shrinks the body). Because the batch body is
//! built from the *uncompressed* per-frame encodings, the sender-stamped
//! payload CRC-32C carried in each data frame survives compression
//! unchanged: receivers run the same [`Frame::verify`] integrity gate as
//! the in-proc backend, so wire corruption (real bit rot or the
//! fault-injection harness) fails the attempt with a structured cause
//! naming the producing rank and O task.
//!
//! Because every connection in the mesh is one-directional, feature
//! negotiation is advertisement, not agreement: the dialing side declares
//! in the handshake which encodings it may use ([`FEATURE_COALESCE`],
//! [`FEATURE_LZ4`]), and the receiving side rejects any frame that uses
//! an unadvertised feature. Every peer is spawned from this build, so any
//! handshake version other than [`VERSION`] is refused.
//!
//! Decode problems below the frame level (bad magic, truncated header,
//! oversized length, corrupt batch) surface as [`FaultKind::Transport`]
//! faults.

use std::collections::VecDeque;
use std::io::{self, Write};

use bytes::Bytes;

use dmpi_common::{Error, FaultCause, FaultKind, Result};

use crate::comm::Frame;

/// Protocol magic: `"DMPI"` little-endian.
pub const MAGIC: u32 = 0x4950_4D44;
/// Wire protocol version: the handshake carries a feature word and the
/// stream may carry coalesced-batch frames.
pub const VERSION: u16 = 2;
/// Upper bound on a single frame payload; anything larger is a decode
/// fault (a corrupted length prefix would otherwise trigger a huge
/// allocation).
pub const MAX_PAYLOAD: u32 = 256 * 1024 * 1024;

/// Handshake feature bit: the sender may emit [`TAG_BATCH`] frames.
pub const FEATURE_COALESCE: u32 = 1;
/// Handshake feature bit: batch bodies may be LZ4-block-compressed.
pub const FEATURE_LZ4: u32 = 1 << 1;

/// Batch flag bit: the body is LZ4-block-compressed.
pub const BATCH_FLAG_LZ4: u8 = 1;

/// Hard ceiling on the coalescing watermark a [`BatchEncoder`] accepts.
pub const MAX_COALESCE_BYTES: usize = 64 * 1024 * 1024;
/// Floor on the coalescing watermark (below this, batching is all
/// header overhead).
pub const MIN_COALESCE_BYTES: usize = 4 * 1024;

/// Largest raw (uncompressed) batch body a decoder will accept: the
/// watermark ceiling plus one maximal frame that straddled the seal
/// point, plus header slack.
const MAX_BATCH_RAW: u32 = MAX_PAYLOAD + MAX_COALESCE_BYTES as u32 + 1024;

const TAG_DATA: u8 = 1;
const TAG_EOF: u8 = 2;
/// Frame tag for a coalesced (optionally compressed) batch of frames.
pub const TAG_BATCH: u8 = 3;

/// Byte length of a batch frame header (tag, flags, count, raw_len,
/// body_len).
pub const BATCH_HEADER_LEN: usize = 14;

fn transport_fault(detail: String) -> Error {
    Error::fault(FaultCause::new(FaultKind::Transport, detail))
}

/// The `N` bytes of the header field at `buf[at..at + N]`.
///
/// Every caller first checks that `buf` holds the fixed-size header part
/// the field lies in, answering `Ok(None)` when fewer bytes have arrived,
/// so the range is in bounds whatever the peer sends; an out-of-range read
/// here would be a bug in this module and panics.
fn field<const N: usize>(buf: &[u8], at: usize) -> [u8; N] {
    let mut bytes = [0; N];
    bytes.copy_from_slice(&buf[at..at + N]);
    bytes
}

/// Little-endian `u16` header field at `at` (length checked by the caller,
/// see [`field`]).
fn le_u16(buf: &[u8], at: usize) -> u16 {
    u16::from_le_bytes(field(buf, at))
}

/// Little-endian `u32` header field at `at` (length checked by the caller,
/// see [`field`]).
fn le_u32(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(field(buf, at))
}

/// Little-endian `u64` header field at `at` (length checked by the caller,
/// see [`field`]).
fn le_u64(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(field(buf, at))
}

/// The decoded connection preamble: who is talking and which wire
/// features they may use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Handshake {
    /// Rank of the connecting (sending) side.
    pub from_rank: usize,
    /// Advertised [`FEATURE_COALESCE`]/[`FEATURE_LZ4`] bits.
    pub features: u32,
}

/// Writes the connection handshake advertising `features`.
pub fn write_handshake(w: &mut impl Write, from_rank: usize, features: u32) -> io::Result<()> {
    w.write_all(&MAGIC.to_le_bytes())?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&(from_rank as u32).to_le_bytes())?;
    w.write_all(&features.to_le_bytes())
}

/// Byte length of the handshake this build writes.
pub const HANDSHAKE_LEN: usize = 14;

/// Incremental handshake parse for nonblocking readers: `Ok(None)` when
/// `buf` holds only a prefix of the handshake, otherwise the
/// [`Handshake`] decoded from its first [`HANDSHAKE_LEN`] bytes. Magic
/// and version are checked as soon as they have arrived.
pub fn parse_handshake(buf: &[u8]) -> Result<Option<Handshake>> {
    if buf.len() < 6 {
        return Ok(None);
    }
    let magic = le_u32(buf, 0);
    if magic != MAGIC {
        return Err(transport_fault(format!(
            "bad handshake magic {magic:#010x} (expected {MAGIC:#010x})"
        )));
    }
    let version = le_u16(buf, 4);
    if version != VERSION {
        return Err(transport_fault(format!(
            "wire protocol version mismatch: peer speaks v{version}, this build v{VERSION}"
        )));
    }
    if buf.len() < HANDSHAKE_LEN {
        return Ok(None);
    }
    Ok(Some(Handshake {
        from_rank: le_u32(buf, 6) as usize,
        features: le_u32(buf, 10),
    }))
}

/// Encodes one frame onto the stream in one `write_all`. Returns the
/// encoded length: 21 + payload for data, 5 for EOF.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<u64> {
    let mut encoded = Vec::new();
    let len = encode_frame(&mut encoded, frame);
    w.write_all(&encoded)?;
    Ok(len)
}

/// Appends one frame's encoding to `out` and returns its length: 21 +
/// payload for data, 5 for EOF.
fn encode_frame(out: &mut Vec<u8>, frame: &Frame) -> u64 {
    let start = out.len();
    match frame {
        Frame::Data {
            from_rank,
            o_task,
            payload,
            crc,
        } => {
            out.reserve(21 + payload.len());
            out.push(TAG_DATA);
            out.extend_from_slice(&(*from_rank as u32).to_le_bytes());
            out.extend_from_slice(&(*o_task as u64).to_le_bytes());
            out.extend_from_slice(&crc.to_le_bytes());
            out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            out.extend_from_slice(payload);
        }
        Frame::Eof { from_rank } => {
            out.push(TAG_EOF);
            out.extend_from_slice(&(*from_rank as u32).to_le_bytes());
        }
    }
    (out.len() - start) as u64
}

/// Attempts to parse one plain (non-batch) frame from the front of
/// `buf`. Returns `Ok(None)` when the buffer holds only a prefix of the
/// frame (caller should read more bytes), `Ok(Some((frame, consumed)))`
/// on success.
fn parse_frame(buf: &[u8]) -> Result<Option<(Frame, usize)>> {
    let Some(&tag) = buf.first() else {
        return Ok(None);
    };
    match tag {
        TAG_DATA => {
            if buf.len() < 21 {
                return Ok(None);
            }
            let from_rank = le_u32(buf, 1) as usize;
            let o_task = le_u64(buf, 5) as usize;
            let crc = le_u32(buf, 13);
            let len = le_u32(buf, 17);
            if len > MAX_PAYLOAD {
                return Err(transport_fault(format!(
                    "frame length {len} exceeds the {MAX_PAYLOAD}-byte cap \
                     (corrupt length prefix?)"
                )));
            }
            let end = 21 + len as usize;
            if buf.len() < end {
                return Ok(None);
            }
            Ok(Some((
                Frame::Data {
                    from_rank,
                    o_task,
                    payload: Bytes::copy_from_slice(&buf[21..end]),
                    crc,
                },
                end,
            )))
        }
        TAG_EOF => {
            if buf.len() < 5 {
                return Ok(None);
            }
            let from_rank = le_u32(buf, 1) as usize;
            Ok(Some((Frame::Eof { from_rank }, 5)))
        }
        other => Err(transport_fault(format!("unknown frame tag {other:#04x}"))),
    }
}

/// Statistics from sealing one batch, for the transport's syscall and
/// compression-ratio accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchSeal {
    /// Logical frames packed into the batch.
    pub frames: u32,
    /// Uncompressed body length in bytes.
    pub raw_len: u64,
    /// Bytes appended to the wire (header + possibly-compressed body).
    pub wire_len: u64,
    /// Whether the body went out LZ4-compressed.
    pub compressed: bool,
}

/// Accumulates logical frames into a coalesced batch body and seals them
/// into [`TAG_BATCH`] wire frames.
///
/// The owner pushes frames as they drain from the send windows and seals
/// when [`BatchEncoder::should_seal`] fires (the size watermark) or when
/// the windows run dry (the imminent-idle watermark) — the two-watermark
/// policy described in DESIGN.md §9. Compression is attempted per batch
/// and kept only when it shrinks the body.
pub struct BatchEncoder {
    body: Vec<u8>,
    count: u32,
    watermark: usize,
    lz4: bool,
    compressor: lz4_flex::Compressor,
    packed: Vec<u8>,
}

impl BatchEncoder {
    /// An encoder sealing at roughly `watermark` bytes of raw body
    /// (clamped to [`MIN_COALESCE_BYTES`]..=[`MAX_COALESCE_BYTES`]),
    /// compressing sealed bodies when `lz4` is set.
    pub fn new(watermark: usize, lz4: bool) -> Self {
        BatchEncoder {
            body: Vec::new(),
            count: 0,
            watermark: watermark.clamp(MIN_COALESCE_BYTES, MAX_COALESCE_BYTES),
            lz4,
            compressor: lz4_flex::Compressor::new(),
            packed: Vec::new(),
        }
    }

    /// The feature bits a sender using this encoder must advertise in
    /// its handshake.
    pub fn features(&self) -> u32 {
        FEATURE_COALESCE | if self.lz4 { FEATURE_LZ4 } else { 0 }
    }

    /// Appends one frame to the open batch; returns its encoded
    /// (logical, uncompressed) length in bytes.
    pub fn push(&mut self, frame: &Frame) -> u64 {
        self.count += 1;
        encode_frame(&mut self.body, frame)
    }

    /// True when nothing has been pushed since the last seal.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Raw bytes in the open batch body.
    pub fn body_len(&self) -> usize {
        self.body.len()
    }

    /// True once the open body has reached the size watermark.
    pub fn should_seal(&self) -> bool {
        self.body.len() >= self.watermark
    }

    /// Seals the open batch into `out` (appending) and resets the
    /// encoder. Returns `None` when the batch is empty.
    pub fn seal_into(&mut self, out: &mut Vec<u8>) -> Option<BatchSeal> {
        if self.count == 0 {
            return None;
        }
        let raw_len = self.body.len();
        let mut flags = 0u8;
        let body: &[u8] = if self.lz4 {
            self.packed.clear();
            self.compressor.compress_into(&self.body, &mut self.packed);
            if self.packed.len() < raw_len {
                flags |= BATCH_FLAG_LZ4;
                &self.packed
            } else {
                &self.body
            }
        } else {
            &self.body
        };
        out.push(TAG_BATCH);
        out.push(flags);
        out.extend_from_slice(&self.count.to_le_bytes());
        out.extend_from_slice(&(raw_len as u32).to_le_bytes());
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(body);
        let seal = BatchSeal {
            frames: self.count,
            raw_len: raw_len as u64,
            wire_len: (BATCH_HEADER_LEN + body.len()) as u64,
            compressed: flags & BATCH_FLAG_LZ4 != 0,
        };
        self.body.clear();
        self.count = 0;
        Some(seal)
    }
}

/// Decode-side counters kept by a [`FrameDecoder`], for the transport's
/// receive accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DecodeStats {
    /// Logical frames decoded (batched or plain).
    pub frames: u64,
    /// Batch frames decoded.
    pub batches: u64,
    /// Uncompressed logical bytes decoded (frame encodings, not wire
    /// bytes — a compressed batch contributes its `raw_len`).
    pub raw_bytes: u64,
}

/// Incremental, readiness-friendly frame decoder.
///
/// The event loop appends whatever bytes the socket produced via
/// [`FrameDecoder::extend`] and then drains complete frames with
/// [`FrameDecoder::next_frame`]; `Ok(None)` means "need more bytes", never
/// "end of stream" (end-of-stream is the caller seeing a zero-byte read
/// with [`FrameDecoder::is_drained`] true). Handles plain frames and
/// batches transparently, enforcing that the peer only uses features
/// it advertised in its handshake.
pub struct FrameDecoder {
    features: u32,
    buf: Vec<u8>,
    pos: usize,
    pending: VecDeque<Frame>,
    raw: Vec<u8>,
    stats: DecodeStats,
}

impl FrameDecoder {
    /// A decoder for a connection whose handshake advertised `features`.
    pub fn new(features: u32) -> Self {
        FrameDecoder {
            features,
            buf: Vec::new(),
            pos: 0,
            pending: VecDeque::new(),
            raw: Vec::new(),
            stats: DecodeStats::default(),
        }
    }

    /// Appends raw socket bytes to the decode buffer.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Reclaim consumed prefix before growing, once it dominates.
        if self.pos > 0 && self.pos * 2 >= self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// True when no partial frame is buffered — i.e. a peer close right
    /// now is a clean end-of-stream, not a truncation.
    pub fn is_drained(&self) -> bool {
        self.pending.is_empty() && self.pos == self.buf.len()
    }

    /// Decode counters so far.
    pub fn stats(&self) -> DecodeStats {
        self.stats
    }

    /// Decodes the next complete frame, or `Ok(None)` when more bytes
    /// are needed.
    pub fn next_frame(&mut self) -> Result<Option<Frame>> {
        loop {
            if let Some(frame) = self.pending.pop_front() {
                self.stats.frames += 1;
                return Ok(Some(frame));
            }
            let avail = &self.buf[self.pos..];
            let Some(&tag) = avail.first() else {
                return Ok(None);
            };
            if tag != TAG_BATCH {
                return match parse_frame(avail)? {
                    Some((frame, used)) => {
                        self.pos += used;
                        self.stats.frames += 1;
                        self.stats.raw_bytes += used as u64;
                        Ok(Some(frame))
                    }
                    None => Ok(None),
                };
            }
            if self.features & FEATURE_COALESCE == 0 {
                return Err(transport_fault(
                    "peer sent a coalesced batch without advertising FEATURE_COALESCE".into(),
                ));
            }
            if avail.len() < BATCH_HEADER_LEN {
                return Ok(None);
            }
            let flags = avail[1];
            let count = le_u32(avail, 2);
            let raw_len = le_u32(avail, 6);
            let body_len = le_u32(avail, 10);
            if flags & !BATCH_FLAG_LZ4 != 0 {
                return Err(transport_fault(format!("unknown batch flags {flags:#04x}")));
            }
            if flags & BATCH_FLAG_LZ4 != 0 && self.features & FEATURE_LZ4 == 0 {
                return Err(transport_fault(
                    "peer sent a compressed batch without advertising FEATURE_LZ4".into(),
                ));
            }
            if raw_len > MAX_BATCH_RAW || body_len > raw_len || count == 0 {
                return Err(transport_fault(format!(
                    "malformed batch header: count={count} raw_len={raw_len} body_len={body_len}"
                )));
            }
            if flags & BATCH_FLAG_LZ4 == 0 && body_len != raw_len {
                return Err(transport_fault(format!(
                    "uncompressed batch with body_len {body_len} != raw_len {raw_len}"
                )));
            }
            // An LZ4 sequence grows its output by at most 255 bytes per
            // input byte, so a larger claim is a lie the decompressor
            // would size its output buffer by.
            if flags & BATCH_FLAG_LZ4 != 0 && u64::from(raw_len) > 255 * u64::from(body_len) {
                return Err(transport_fault(format!(
                    "compressed batch claims raw_len {raw_len} from body_len {body_len}, \
                     past LZ4's 255x"
                )));
            }
            let total = BATCH_HEADER_LEN + body_len as usize;
            if avail.len() < total {
                return Ok(None);
            }
            let body = &avail[BATCH_HEADER_LEN..total];
            let raw: &[u8] = if flags & BATCH_FLAG_LZ4 != 0 {
                self.raw.clear();
                lz4_flex::decompress_into(body, raw_len as usize, &mut self.raw).map_err(|e| {
                    transport_fault(format!("batch body failed to decompress: {e}"))
                })?;
                &self.raw
            } else {
                body
            };
            let mut off = 0usize;
            for i in 0..count {
                match parse_frame(&raw[off..])
                    .map_err(|e| transport_fault(format!("corrupt frame {i} inside batch: {e}")))?
                {
                    Some((frame, used)) => {
                        off += used;
                        self.pending.push_back(frame);
                    }
                    None => {
                        return Err(transport_fault(format!(
                            "batch body truncated inside frame {i} of {count}"
                        )))
                    }
                }
            }
            if off != raw.len() {
                return Err(transport_fault(format!(
                    "batch body has {} trailing bytes after {count} frames",
                    raw.len() - off
                )));
            }
            self.stats.batches += 1;
            self.stats.raw_bytes += raw_len as u64;
            self.pos += total;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh decoder, for a peer that advertised `features`, fed `wire`.
    fn decoder_over(wire: &[u8], features: u32) -> FrameDecoder {
        let mut dec = FrameDecoder::new(features);
        dec.extend(wire);
        dec
    }

    fn round_trip(frame: Frame) -> Frame {
        let mut buf = Vec::new();
        let wrote = write_frame(&mut buf, &frame).unwrap();
        assert_eq!(wrote as usize, buf.len());
        let mut dec = decoder_over(&buf, 0);
        let decoded = dec.next_frame().unwrap().unwrap();
        assert_eq!(dec.stats().raw_bytes, wrote);
        assert!(dec.is_drained(), "frame fully consumed");
        decoded
    }

    #[test]
    fn data_frames_round_trip_with_stamped_crc() {
        let frame = Frame::data(3, 41, Bytes::from_static(b"the payload"));
        let decoded = round_trip(frame.clone());
        match (&frame, &decoded) {
            (
                Frame::Data {
                    from_rank: fa,
                    o_task: ta,
                    payload: pa,
                    crc: ca,
                },
                Frame::Data {
                    from_rank: fb,
                    o_task: tb,
                    payload: pb,
                    crc: cb,
                },
            ) => {
                assert_eq!(fa, fb);
                assert_eq!(ta, tb);
                assert_eq!(pa, pb);
                assert_eq!(ca, cb);
            }
            other => panic!("unexpected {other:?}"),
        }
        decoded.verify().unwrap();
    }

    #[test]
    fn eof_frames_round_trip() {
        match round_trip(Frame::Eof { from_rank: 9 }) {
            Frame::Eof { from_rank } => assert_eq!(from_rank, 9),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn corrupted_payload_survives_decode_but_fails_verify() {
        // The decode path must deliver the frame (transport does not
        // verify), and the receiver's CRC gate must catch it.
        let mut buf = Vec::new();
        write_frame(
            &mut buf,
            &Frame::data(1, 2, Bytes::from_static(b"clean payload")),
        )
        .unwrap();
        let flip = buf.len() - 3; // a payload byte
        buf[flip] ^= 0x20;
        let frame = decoder_over(&buf, 0).next_frame().unwrap().unwrap();
        let err = frame.verify().unwrap_err();
        let cause = err.fault_cause().expect("structured cause");
        assert_eq!(cause.kind, FaultKind::CorruptFrame);
        assert_eq!(cause.rank, Some(1));
        assert_eq!(cause.task, Some(2));
    }

    #[test]
    fn clean_end_of_stream_is_none() {
        let mut dec = decoder_over(&[], 0);
        assert!(dec.next_frame().unwrap().is_none());
        assert!(dec.is_drained());
    }

    #[test]
    fn truncated_frame_is_not_drained_at_end_of_stream() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::data(0, 0, Bytes::from_static(b"x"))).unwrap();
        buf.truncate(buf.len() - 1);
        let mut dec = decoder_over(&buf, 0);
        assert!(dec.next_frame().unwrap().is_none(), "partial frame waits");
        assert!(!dec.is_drained(), "a close here must look truncated");
    }

    fn assert_transport_fault(err: Error) {
        assert_eq!(
            err.fault_cause().expect("structured").kind,
            FaultKind::Transport,
            "{err}"
        );
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut buf = vec![TAG_DATA];
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = decoder_over(&buf, 0).next_frame().unwrap_err();
        assert!(err.to_string().contains("cap"), "{err}");
        assert_transport_fault(err);
    }

    #[test]
    fn unknown_frame_tag_is_a_transport_fault() {
        let err = decoder_over(&[0x7F, 0, 0, 0, 0], 0)
            .next_frame()
            .unwrap_err();
        assert!(err.to_string().contains("unknown frame tag"), "{err}");
        assert_transport_fault(err);
    }

    #[test]
    fn handshake_round_trips_and_rejects_garbage() {
        let mut buf = Vec::new();
        write_handshake(&mut buf, 7, FEATURE_COALESCE | FEATURE_LZ4).unwrap();
        assert_eq!(buf.len(), HANDSHAKE_LEN);
        // Frame bytes behind the handshake are not its business.
        buf.push(TAG_EOF);
        let hs = parse_handshake(&buf).unwrap().unwrap();
        assert_eq!(hs.from_rank, 7);
        assert_eq!(hs.features, FEATURE_COALESCE | FEATURE_LZ4);
        assert_transport_fault(parse_handshake(&[0xFFu8; 14]).unwrap_err());
    }

    #[test]
    fn every_handshake_version_but_this_one_is_refused() {
        // v1 was the 10-byte featureless preamble; no such peer exists.
        for version in [0u16, 1, 3, u16::MAX] {
            let mut buf = Vec::new();
            buf.extend_from_slice(&MAGIC.to_le_bytes());
            buf.extend_from_slice(&version.to_le_bytes());
            buf.extend_from_slice(&5u32.to_le_bytes());
            let err = parse_handshake(&buf).unwrap_err();
            assert!(err.to_string().contains("version mismatch"), "{err}");
            assert_transport_fault(err);
        }
    }

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::data(0, 1, Bytes::from_static(b"alpha alpha alpha alpha")),
            Frame::data(0, 2, Bytes::from(vec![0xAB; 4096])),
            Frame::data(0, 3, Bytes::new()),
            Frame::Eof { from_rank: 0 },
        ]
    }

    fn seal_batch(frames: &[Frame], lz4: bool) -> (Vec<u8>, BatchSeal) {
        let mut enc = BatchEncoder::new(MIN_COALESCE_BYTES, lz4);
        for f in frames {
            enc.push(f);
        }
        let mut out = Vec::new();
        let seal = enc.seal_into(&mut out).expect("non-empty batch");
        assert_eq!(out.len() as u64, seal.wire_len);
        (out, seal)
    }

    #[test]
    fn batches_round_trip_uncompressed_and_compressed() {
        let frames = sample_frames();
        for lz4 in [false, true] {
            let (wire, seal) = seal_batch(&frames, lz4);
            assert_eq!(seal.frames as usize, frames.len());
            if lz4 {
                assert!(seal.compressed, "4 KiB of 0xAB must compress");
                assert!(seal.wire_len < seal.raw_len + BATCH_HEADER_LEN as u64);
            }
            let mut dec = FrameDecoder::new(FEATURE_COALESCE | FEATURE_LZ4);
            dec.extend(&wire);
            let mut got = Vec::new();
            while let Some(f) = dec.next_frame().unwrap() {
                got.push(f);
            }
            assert!(dec.is_drained());
            assert_eq!(got, frames);
            for f in &got {
                f.verify().unwrap();
            }
            assert_eq!(dec.stats().batches, 1);
            assert_eq!(dec.stats().frames, frames.len() as u64);
            assert_eq!(dec.stats().raw_bytes, seal.raw_len);
        }
    }

    #[test]
    fn decoder_handles_arbitrary_split_points() {
        let frames = sample_frames();
        let (wire, _) = seal_batch(&frames, true);
        // Also mix in a plain frame after the batch.
        let mut wire = wire;
        write_frame(&mut wire, &Frame::data(0, 9, Bytes::from_static(b"tail"))).unwrap();
        for chunk in [1usize, 2, 3, 7, 13, wire.len()] {
            let mut dec = FrameDecoder::new(FEATURE_COALESCE | FEATURE_LZ4);
            let mut got = Vec::new();
            for piece in wire.chunks(chunk) {
                dec.extend(piece);
                while let Some(f) = dec.next_frame().unwrap() {
                    got.push(f);
                }
            }
            assert!(dec.is_drained(), "chunk={chunk}");
            assert_eq!(got.len(), frames.len() + 1, "chunk={chunk}");
            assert_eq!(&got[..frames.len()], &frames[..]);
        }
    }

    #[test]
    fn unadvertised_features_are_rejected() {
        let frames = sample_frames();
        let (wire, _) = seal_batch(&frames, false);
        let mut dec = FrameDecoder::new(0);
        dec.extend(&wire);
        let err = dec.next_frame().unwrap_err();
        assert!(err.to_string().contains("FEATURE_COALESCE"), "{err}");

        let (wire, seal) = seal_batch(&frames, true);
        assert!(seal.compressed);
        let mut dec = FrameDecoder::new(FEATURE_COALESCE);
        dec.extend(&wire);
        let err = dec.next_frame().unwrap_err();
        assert!(err.to_string().contains("FEATURE_LZ4"), "{err}");
    }

    #[test]
    fn forged_lz4_batch_cannot_size_the_decompression_buffer() {
        let mut wire = Vec::new();
        write_handshake(&mut wire, 1, FEATURE_COALESCE | FEATURE_LZ4).unwrap();
        let hs = parse_handshake(&wire).unwrap().unwrap();
        // A 15-byte batch: one body byte claiming ~300 MiB of output,
        // under MAX_BATCH_RAW.
        let raw_len: u32 = 300 << 20;
        assert!(raw_len <= MAX_BATCH_RAW);
        let mut batch = vec![TAG_BATCH, BATCH_FLAG_LZ4];
        batch.extend_from_slice(&1u32.to_le_bytes());
        batch.extend_from_slice(&raw_len.to_le_bytes());
        batch.extend_from_slice(&1u32.to_le_bytes());
        batch.push(0xF0);
        assert_eq!(batch.len(), BATCH_HEADER_LEN + 1);
        let mut dec = decoder_over(&batch, hs.features);
        assert_transport_fault(dec.next_frame().unwrap_err());
        assert!(
            dec.raw.capacity() < 1 << 20,
            "a header reserved {} bytes",
            dec.raw.capacity()
        );
    }

    #[test]
    fn corrupt_batch_bodies_fault_instead_of_panicking() {
        let frames = sample_frames();
        let (wire, seal) = seal_batch(&frames, true);
        assert!(seal.compressed);
        // Flip a byte inside the compressed body: either the LZ4 stream
        // breaks (transport fault) or it decodes to different bytes, in
        // which case the per-frame CRC gate catches it downstream.
        let mut bad = wire.clone();
        let idx = BATCH_HEADER_LEN + (bad.len() - BATCH_HEADER_LEN) / 2;
        bad[idx] ^= 0x41;
        let mut dec = FrameDecoder::new(FEATURE_COALESCE | FEATURE_LZ4);
        dec.extend(&bad);
        let mut crc_failures = 0;
        loop {
            match dec.next_frame() {
                Ok(Some(f)) => {
                    if f.verify().is_err() {
                        crc_failures += 1;
                    }
                }
                Ok(None) => {
                    assert!(crc_failures > 0, "corruption must be detected somewhere");
                    break;
                }
                Err(err) => {
                    assert_eq!(
                        err.fault_cause().expect("structured").kind,
                        FaultKind::Transport
                    );
                    break;
                }
            }
        }
    }

    #[test]
    fn truncated_batch_waits_then_clean_close_is_not_drained() {
        let frames = sample_frames();
        let (wire, _) = seal_batch(&frames, false);
        let mut dec = FrameDecoder::new(FEATURE_COALESCE);
        dec.extend(&wire[..wire.len() - 1]);
        assert!(
            dec.next_frame().unwrap().is_none(),
            "incomplete batch waits"
        );
        assert!(!dec.is_drained(), "mid-frame close must look truncated");
        dec.extend(&wire[wire.len() - 1..]);
        let mut n = 0;
        while dec.next_frame().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, frames.len());
        assert!(dec.is_drained());
    }

    #[test]
    fn incompressible_batches_fall_back_to_raw() {
        // A xorshift byte stream does not compress; the encoder must
        // keep the raw body rather than expand the wire.
        let mut state = 0x1234_5678_9ABC_DEFFu64;
        let noise: Vec<u8> = (0..8192)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        let frames = vec![Frame::data(2, 7, Bytes::from(noise))];
        let (wire, seal) = seal_batch(&frames, true);
        assert!(!seal.compressed);
        assert_eq!(seal.wire_len, seal.raw_len + BATCH_HEADER_LEN as u64);
        let mut dec = FrameDecoder::new(FEATURE_COALESCE | FEATURE_LZ4);
        dec.extend(&wire);
        let got = dec.next_frame().unwrap().unwrap();
        assert_eq!(got, frames[0]);
        got.verify().unwrap();
    }

    #[test]
    fn every_prefix_of_a_valid_stream_waits_instead_of_panicking() {
        let mut handshake = Vec::new();
        write_handshake(&mut handshake, 3, FEATURE_COALESCE | FEATURE_LZ4).unwrap();
        for cut in 0..handshake.len() {
            assert!(
                parse_handshake(&handshake[..cut]).unwrap().is_none(),
                "handshake cut={cut}"
            );
        }
        let mut data = Vec::new();
        write_frame(
            &mut data,
            &Frame::data(3, 8, Bytes::from_static(b"payload")),
        )
        .unwrap();
        let mut eof = Vec::new();
        write_frame(&mut eof, &Frame::Eof { from_rank: 3 }).unwrap();
        let (plain_batch, _) = seal_batch(&sample_frames(), false);
        let (lz4_batch, seal) = seal_batch(&sample_frames(), true);
        assert!(seal.compressed);
        for (name, wire) in [
            ("data", data),
            ("eof", eof),
            ("batch", plain_batch),
            ("lz4 batch", lz4_batch),
        ] {
            for cut in 0..wire.len() {
                let mut dec = decoder_over(&wire[..cut], FEATURE_COALESCE | FEATURE_LZ4);
                assert!(dec.next_frame().unwrap().is_none(), "{name} cut={cut}");
                assert_eq!(dec.is_drained(), cut == 0, "{name} cut={cut}");
            }
        }
    }

    #[test]
    fn encoder_watermark_drives_should_seal() {
        let mut enc = BatchEncoder::new(MIN_COALESCE_BYTES, false);
        assert!(enc.is_empty());
        let payload = Bytes::from(vec![1u8; 1024]);
        let mut pushed = 0u64;
        while !enc.should_seal() {
            pushed += enc.push(&Frame::data(0, 0, payload.clone()));
        }
        assert!(pushed >= MIN_COALESCE_BYTES as u64);
        assert!(enc.body_len() >= MIN_COALESCE_BYTES);
        let mut out = Vec::new();
        let seal = enc.seal_into(&mut out).unwrap();
        assert_eq!(seal.raw_len, pushed);
        assert!(enc.is_empty());
        assert!(enc.seal_into(&mut out).is_none(), "empty seal is None");
    }
}
