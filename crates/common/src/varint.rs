//! LEB128 variable-length integer encoding.
//!
//! Record framing (see [`crate::ser`]) and the LZ77 block codec both store
//! lengths as varints, the same trick Hadoop's `WritableUtils.writeVInt`
//! plays to keep small records small. Encoding is unsigned LEB128; signed
//! values go through zigzag.

use crate::error::{Error, Result};

/// Maximum number of bytes an encoded `u64` can occupy.
pub const MAX_VARINT_LEN: usize = 10;

/// Appends the LEB128 encoding of `value` to `out`, returning the number of
/// bytes written.
pub fn write_u64(out: &mut Vec<u8>, mut value: u64) -> usize {
    let mut n = 0;
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        n += 1;
        if value == 0 {
            out.push(byte);
            return n;
        }
        out.push(byte | 0x80);
    }
}

/// Encodes `value` into the caller's stack buffer and returns the encoded
/// prefix: the bytes [`write_u64`] would append, with no heap allocation.
/// This is how a map function emits a per-record count.
pub fn encode_u64(mut value: u64, buf: &mut [u8; MAX_VARINT_LEN]) -> &[u8] {
    let mut n = 0;
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            buf[n] = byte;
            return &buf[..n + 1];
        }
        buf[n] = byte | 0x80;
        n += 1;
    }
}

/// Decodes a LEB128 `u64` from the front of `buf`, returning the value and
/// the number of bytes consumed.
pub fn read_u64(buf: &[u8]) -> Result<(u64, usize)> {
    // Record framing is almost all one-byte lengths.
    if let Some(&byte) = buf.first() {
        if byte < 0x80 {
            return Ok((byte as u64, 1));
        }
    }
    let mut value: u64 = 0;
    let mut shift = 0u32;
    for (i, &byte) in buf.iter().enumerate() {
        if i >= MAX_VARINT_LEN {
            return Err(Error::Varint("varint longer than 10 bytes".into()));
        }
        let payload = (byte & 0x7f) as u64;
        value = value
            .checked_add(
                payload
                    .checked_shl(shift)
                    .ok_or_else(|| Error::Varint("varint shift overflow".into()))?,
            )
            .ok_or_else(|| Error::Varint("varint value overflow".into()))?;
        if byte & 0x80 == 0 {
            return Ok((value, i + 1));
        }
        shift += 7;
    }
    Err(Error::Varint("truncated varint".into()))
}

/// Zigzag-encodes a signed integer so small magnitudes stay small.
pub fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
pub fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends a zigzag-encoded signed integer.
pub fn write_i64(out: &mut Vec<u8>, value: i64) -> usize {
    write_u64(out, zigzag_encode(value))
}

/// Reads a zigzag-encoded signed integer.
pub fn read_i64(buf: &[u8]) -> Result<(i64, usize)> {
    let (raw, n) = read_u64(buf)?;
    Ok((zigzag_decode(raw), n))
}

/// Number of bytes [`write_u64`] would emit for `value`.
pub fn encoded_len(value: u64) -> usize {
    if value == 0 {
        1
    } else {
        (64 - value.leading_zeros() as usize).div_ceil(7)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_boundaries() {
        let cases = [
            0u64,
            1,
            127,
            128,
            255,
            256,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ];
        for &v in &cases {
            let mut buf = Vec::new();
            let wrote = write_u64(&mut buf, v);
            assert_eq!(wrote, buf.len());
            assert_eq!(wrote, encoded_len(v), "encoded_len mismatch for {v}");
            let (decoded, read) = read_u64(&buf).unwrap();
            assert_eq!(decoded, v);
            assert_eq!(read, buf.len());
        }
    }

    #[test]
    fn stack_encoding_matches_write_u64_at_every_length() {
        let mut stack = [0u8; MAX_VARINT_LEN];
        let values = (0..64).flat_map(|s| [(1u64 << s) - 1, 1u64 << s]);
        for v in values.chain([u64::MAX]) {
            let mut heap = Vec::new();
            write_u64(&mut heap, v);
            let encoded = encode_u64(v, &mut stack);
            assert_eq!(encoded, &heap[..], "encode_u64({v})");
            assert_eq!(read_u64(encoded).unwrap(), (v, encoded.len()));
        }
    }

    #[test]
    fn signed_round_trip() {
        for &v in &[0i64, 1, -1, 63, -64, 64, -65, i64::MAX, i64::MIN] {
            let mut buf = Vec::new();
            write_i64(&mut buf, v);
            let (decoded, _) = read_i64(&buf).unwrap();
            assert_eq!(decoded, v);
        }
    }

    #[test]
    fn truncated_input_is_an_error() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::MAX);
        buf.pop();
        assert!(read_u64(&buf).is_err());
        assert!(read_u64(&[]).is_err());
    }

    #[test]
    fn overlong_varint_is_an_error() {
        // Eleven continuation bytes can never be a valid u64.
        let buf = [0x80u8; 11];
        assert!(read_u64(&buf).is_err());
    }

    #[test]
    fn zigzag_small_magnitudes_stay_small() {
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
        assert_eq!(zigzag_encode(-2), 3);
        for v in -1000..1000 {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
    }

    #[test]
    fn decoding_ignores_trailing_bytes() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 300);
        buf.extend_from_slice(&[0xde, 0xad]);
        let (v, n) = read_u64(&buf).unwrap();
        assert_eq!(v, 300);
        assert_eq!(n, 2);
    }
}
