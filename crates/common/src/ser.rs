//! `Writable`-style binary serialization and record framing.
//!
//! Hadoop moves data as `Writable` values framed with varint lengths; the
//! DataMPI paper keeps the same key-value representation on the wire. This
//! module provides:
//!
//! * the [`Writable`] trait with implementations for the primitive types the
//!   workloads need (`u64`, `i64`, `f64`, `String`, `Vec<f64>` for K-means
//!   centroids, …),
//! * [`frame_record`] / [`read_framed_record`] — the length-prefixed record
//!   format used by sequence files, spill files and network transfers,
//! * [`frame_batch`] / [`RecordReader`] — a whole batch framed into one
//!   buffer, and a streaming view that decodes such a buffer.

use bytes::Bytes;

use crate::error::{Error, Result};
use crate::kv::{Record, RecordBatch};
use crate::varint;

/// A type that can serialize itself to bytes and back — the moral
/// equivalent of Hadoop's `Writable`.
pub trait Writable: Sized {
    /// Appends the serialized form of `self` to `out`.
    fn write_to(&self, out: &mut Vec<u8>);

    /// Decodes a value from the front of `buf`, returning it and the number
    /// of bytes consumed.
    fn read_from(buf: &[u8]) -> Result<(Self, usize)>;

    /// Serializes into a fresh vector.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_to(&mut out);
        out
    }

    /// Decodes a value that must occupy the entire buffer.
    fn from_bytes(buf: &[u8]) -> Result<Self> {
        let (v, n) = Self::read_from(buf)?;
        if n != buf.len() {
            return Err(Error::corrupt(format!(
                "trailing garbage: consumed {n} of {} bytes",
                buf.len()
            )));
        }
        Ok(v)
    }
}

impl Writable for u64 {
    fn write_to(&self, out: &mut Vec<u8>) {
        varint::write_u64(out, *self);
    }
    fn read_from(buf: &[u8]) -> Result<(Self, usize)> {
        varint::read_u64(buf)
    }
}

impl Writable for i64 {
    fn write_to(&self, out: &mut Vec<u8>) {
        varint::write_i64(out, *self);
    }
    fn read_from(buf: &[u8]) -> Result<(Self, usize)> {
        varint::read_i64(buf)
    }
}

impl Writable for u32 {
    fn write_to(&self, out: &mut Vec<u8>) {
        varint::write_u64(out, *self as u64);
    }
    fn read_from(buf: &[u8]) -> Result<(Self, usize)> {
        let (v, n) = varint::read_u64(buf)?;
        let v = u32::try_from(v).map_err(|_| Error::corrupt("u32 overflow"))?;
        Ok((v, n))
    }
}

impl Writable for f64 {
    fn write_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn read_from(buf: &[u8]) -> Result<(Self, usize)> {
        if buf.len() < 8 {
            return Err(Error::corrupt("truncated f64"));
        }
        let mut arr = [0u8; 8];
        arr.copy_from_slice(&buf[..8]);
        Ok((f64::from_le_bytes(arr), 8))
    }
}

impl Writable for String {
    fn write_to(&self, out: &mut Vec<u8>) {
        varint::write_u64(out, self.len() as u64);
        out.extend_from_slice(self.as_bytes());
    }
    fn read_from(buf: &[u8]) -> Result<(Self, usize)> {
        let (len, header) = varint::read_u64(buf)?;
        let len = len as usize;
        let end = header
            .checked_add(len)
            .ok_or_else(|| Error::corrupt("string length overflow"))?;
        if buf.len() < end {
            return Err(Error::corrupt("truncated string"));
        }
        let s = std::str::from_utf8(&buf[header..end])
            .map_err(|_| Error::corrupt("invalid utf-8"))?
            .to_owned();
        Ok((s, end))
    }
}

impl<T: Writable> Writable for Vec<T> {
    fn write_to(&self, out: &mut Vec<u8>) {
        varint::write_u64(out, self.len() as u64);
        for item in self {
            item.write_to(out);
        }
    }
    fn read_from(buf: &[u8]) -> Result<(Self, usize)> {
        let (len, mut offset) = varint::read_u64(buf)?;
        let len = usize::try_from(len).map_err(|_| Error::corrupt("vec length overflow"))?;
        // Guard against adversarial headers: never pre-allocate more slots
        // than there are bytes left to decode from.
        let mut items = Vec::with_capacity(len.min(buf.len().saturating_sub(offset)).max(1));
        for _ in 0..len {
            let (item, n) = T::read_from(&buf[offset..])?;
            offset += n;
            items.push(item);
        }
        Ok((items, offset))
    }
}

impl<A: Writable, B: Writable> Writable for (A, B) {
    fn write_to(&self, out: &mut Vec<u8>) {
        self.0.write_to(out);
        self.1.write_to(out);
    }
    fn read_from(buf: &[u8]) -> Result<(Self, usize)> {
        let (a, na) = A::read_from(buf)?;
        let (b, nb) = B::read_from(&buf[na..])?;
        Ok(((a, b), na + nb))
    }
}

/// Appends the framed form of a record: `varint(klen) varint(vlen) key value`.
pub fn frame_record(out: &mut Vec<u8>, rec: &Record) {
    frame_kv(out, &rec.key, &rec.value);
}

/// [`frame_record`] for a pair that is not an owned `Record`.
pub fn frame_kv(out: &mut Vec<u8>, key: &[u8], value: &[u8]) {
    varint::write_u64(out, key.len() as u64);
    varint::write_u64(out, value.len() as u64);
    out.extend_from_slice(key);
    out.extend_from_slice(value);
}

/// Parses one record frame's layout from the front of `buf`: returns
/// `(key_start, key_len, value_len, total)` offsets without building any
/// `Record`. Shared by the copying and zero-copy decoders and the span
/// walk.
/// Every failure, a malformed length varint included, is
/// [`Error::Corrupt`]: the bytes do not frame a record.
#[inline]
fn frame_layout(buf: &[u8]) -> Result<(usize, usize, usize, usize)> {
    let corrupt = |e: Error| Error::corrupt(format!("record header: {e}"));
    let (klen, n1) = varint::read_u64(buf).map_err(corrupt)?;
    let (vlen, n2) = varint::read_u64(&buf[n1..]).map_err(corrupt)?;
    let header = n1 + n2;
    let klen = klen as usize;
    let vlen = vlen as usize;
    let total = header
        .checked_add(klen)
        .and_then(|x| x.checked_add(vlen))
        .ok_or_else(|| Error::corrupt("record length overflow"))?;
    if buf.len() < total {
        return Err(Error::corrupt(format!(
            "truncated record: need {total} bytes, have {}",
            buf.len()
        )));
    }
    Ok((header, klen, vlen, total))
}

/// Decodes one framed record from the front of `buf` (copying the key and
/// value into fresh storage). When the frame lives in a refcounted
/// [`Bytes`] buffer, prefer [`read_framed_record_shared`], which decodes
/// without per-record copies.
pub fn read_framed_record(buf: &[u8]) -> Result<(Record, usize)> {
    let (header, klen, _vlen, total) = frame_layout(buf)?;
    let key = Bytes::copy_from_slice(&buf[header..header + klen]);
    let value = Bytes::copy_from_slice(&buf[header + klen..total]);
    Ok((Record { key, value }, total))
}

/// Zero-copy decode of one framed record starting at `offset` within a
/// refcounted `payload`: the returned record's key and value are
/// [`Bytes::slice`] views sharing the payload's storage — no per-record
/// `to_vec`. Returns the record and the number of bytes consumed.
///
/// The shared storage stays alive as long as any decoded record does, so
/// this is the right decode for frames whose records are consumed soon
/// (the A-side ingest path); it would be the wrong one for sampling a few
/// records out of a huge buffer that should otherwise be freed.
pub fn read_framed_record_shared(payload: &Bytes, offset: usize) -> Result<(Record, usize)> {
    let buf = &payload[offset..];
    let (header, klen, _vlen, total) = frame_layout(buf)?;
    let key = payload.slice(offset + header..offset + header + klen);
    let value = payload.slice(offset + header + klen..offset + total);
    Ok((Record { key, value }, total))
}

/// Where one framed record's key and value sit inside the buffer it was
/// parsed from (the value follows the key directly).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KvSpan {
    /// Offset of the first key byte.
    pub key_off: usize,
    /// Key length in bytes.
    pub key_len: usize,
    /// Value length in bytes.
    pub val_len: usize,
}

impl KvSpan {
    /// The key's byte range.
    pub fn key(&self) -> std::ops::Range<usize> {
        self.key_off..self.key_off + self.key_len
    }

    /// The value's byte range; its end is where the next record starts.
    pub fn value(&self) -> std::ops::Range<usize> {
        let start = self.key_off + self.key_len;
        start..start + self.val_len
    }
}

/// Walks a buffer of consecutive framed records, yielding each one's
/// bounds-checked layout as offsets into `buf` — the decode for callers
/// that keep the buffer and refer back into it (the A-side run index,
/// the combiner staging window) instead of materializing a `Record` per
/// pair. Ends after the first error.
pub fn framed_kv_spans(buf: &[u8]) -> impl Iterator<Item = Result<KvSpan>> + '_ {
    let mut offset = 0;
    std::iter::from_fn(move || {
        if offset >= buf.len() {
            return None;
        }
        let span = frame_layout(&buf[offset..]).map(|(header, key_len, val_len, _)| KvSpan {
            key_off: offset + header,
            key_len,
            val_len,
        });
        offset = span.as_ref().map_or(buf.len(), |s| s.value().end);
        Some(span)
    })
}

/// Serializes a whole batch into framed bytes.
pub fn frame_batch(batch: &RecordBatch) -> Vec<u8> {
    let mut out = Vec::with_capacity(batch.framed_bytes() as usize);
    for rec in batch {
        frame_record(&mut out, rec);
    }
    out
}

/// Decodes a buffer of consecutive framed records into a batch.
pub fn unframe_batch(buf: &[u8]) -> Result<RecordBatch> {
    let mut reader = RecordReader::new(buf);
    let mut batch = RecordBatch::new();
    while let Some(rec) = reader.next_record()? {
        batch.push(rec);
    }
    Ok(batch)
}

/// Streaming reader over a buffer of framed records.
pub struct RecordReader<'a> {
    buf: &'a [u8],
    offset: usize,
}

impl<'a> RecordReader<'a> {
    /// Wraps a framed buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        RecordReader { buf, offset: 0 }
    }

    /// Decodes the next record, or `None` at end of buffer.
    pub fn next_record(&mut self) -> Result<Option<Record>> {
        if self.offset == self.buf.len() {
            return Ok(None);
        }
        let (rec, n) = read_framed_record(&self.buf[self.offset..])?;
        self.offset += n;
        Ok(Some(rec))
    }

    /// Bytes consumed so far.
    pub fn position(&self) -> usize {
        self.offset
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trips() {
        for v in [0u64, 1, 300, u64::MAX] {
            assert_eq!(u64::from_bytes(&v.to_bytes()).unwrap(), v);
        }
        for v in [0i64, -5, i64::MIN, i64::MAX] {
            assert_eq!(i64::from_bytes(&v.to_bytes()).unwrap(), v);
        }
        for v in [0.0f64, -1.5, f64::MAX, f64::MIN_POSITIVE] {
            assert_eq!(f64::from_bytes(&v.to_bytes()).unwrap(), v);
        }
        let s = "héllo wörld".to_string();
        assert_eq!(String::from_bytes(&s.to_bytes()).unwrap(), s);
    }

    #[test]
    fn vec_and_tuple_round_trips() {
        let centroid: Vec<f64> = vec![1.0, 2.5, -3.75];
        assert_eq!(
            Vec::<f64>::from_bytes(&centroid.to_bytes()).unwrap(),
            centroid
        );
        let pair = ("word".to_string(), 42u64);
        assert_eq!(<(String, u64)>::from_bytes(&pair.to_bytes()).unwrap(), pair);
    }

    #[test]
    fn from_bytes_rejects_trailing_garbage() {
        let mut b = 7u64.to_bytes();
        b.push(0);
        assert!(u64::from_bytes(&b).is_err());
    }

    #[test]
    fn record_framing_round_trip() {
        let recs = vec![
            Record::from_strs("", ""),
            Record::from_strs("k", "v"),
            Record::new(vec![0u8, 255, 128], vec![1u8; 1000]),
        ];
        let batch: RecordBatch = recs.clone().into_iter().collect();
        let framed = frame_batch(&batch);
        assert_eq!(framed.len() as u64, batch.framed_bytes());
        let decoded = unframe_batch(&framed).unwrap();
        assert_eq!(decoded.records(), &recs[..]);
    }

    #[test]
    fn truncated_record_is_an_error() {
        let mut buf = Vec::new();
        frame_record(&mut buf, &Record::from_strs("key", "value"));
        buf.truncate(buf.len() - 1);
        assert!(unframe_batch(&buf).is_err());
    }

    #[test]
    fn writer_reader_streaming() {
        let batch: RecordBatch = (0..100)
            .map(|i| Record::from_strs(&format!("k{i}"), &format!("v{i}")))
            .collect();
        let bytes = frame_batch(&batch);
        let mut r = RecordReader::new(&bytes);
        let mut count = 0;
        while let Some(rec) = r.next_record().unwrap() {
            assert_eq!(rec.key_utf8(), format!("k{count}"));
            count += 1;
        }
        assert_eq!(count, 100);
        assert_eq!(r.position(), bytes.len());
    }

    #[test]
    fn shared_decode_is_zero_copy_and_agrees_with_the_copying_reader() {
        let recs = vec![
            Record::from_strs("", ""),
            Record::from_strs("key", "value"),
            Record::new(vec![0u8, 255, 128], vec![9u8; 64]),
        ];
        let batch: RecordBatch = recs.clone().into_iter().collect();
        let framed = Bytes::from(frame_batch(&batch));

        let mut copying = RecordReader::new(&framed);
        let base = framed.as_ref().as_ptr() as usize;
        let mut spans = framed_kv_spans(&framed);
        let (mut offset, mut seen) = (0, 0);
        while offset < framed.len() {
            let (a, n) = read_framed_record_shared(&framed, offset).unwrap();
            let b = copying.next_record().unwrap().unwrap();
            assert_eq!(a, b);
            // The span walk names the same bytes without touching them.
            let span = spans.next().unwrap().unwrap();
            assert_eq!(&framed[span.key()], &a.key[..]);
            assert_eq!(&framed[span.value()], &a.value[..]);
            assert_eq!(span.value().end, offset + n);
            // The shared decode's key/value point into the frame buffer.
            if !a.key.is_empty() {
                let p = a.key.as_ref().as_ptr() as usize;
                assert!(p >= base && p < base + framed.len(), "key not shared");
            }
            offset += n;
            seen += 1;
        }
        assert_eq!(seen, recs.len());
        assert!(copying.next_record().unwrap().is_none());
        assert!(spans.next().is_none());
        // A truncated buffer yields its whole records, one error, then ends.
        let mut cut = framed_kv_spans(&framed[..framed.len() - 1]);
        assert!(cut.by_ref().take(recs.len() - 1).all(|s| s.is_ok()));
        assert!(cut.next().unwrap().is_err());
        assert!(cut.next().is_none());
    }

    #[test]
    fn invalid_utf8_string_is_an_error() {
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, 2);
        buf.extend_from_slice(&[0xff, 0xfe]);
        assert!(String::from_bytes(&buf).is_err());
    }

    #[test]
    fn hostile_vec_header_does_not_overallocate() {
        // Claims u64::MAX elements with no payload — must error, not abort.
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, u64::MAX);
        assert!(Vec::<u64>::from_bytes(&buf).is_err());
    }
}
