//! Byte search for the text scans: line and word splitting and pattern
//! counting look for one byte value at a time, eight bytes per step.

/// `0x01` in every byte lane.
const LOW_BITS: u64 = u64::from_le_bytes([0x01; 8]);
/// `0x80` in every byte lane.
const HIGH_BITS: u64 = u64::from_le_bytes([0x80; 8]);

/// Position of the first `byte` in `hay`, or `None`.
///
/// Reads the haystack a little-endian word at a time and XORs `byte`
/// into every lane, so a match becomes a zero lane. `(w - 0x01…) & !w &
/// 0x80…` sets the high bit of every zero lane; it may also set it in a
/// lane above a zero one (the subtraction's borrow runs upwards), never
/// below, so the lowest set bit is exactly the first match. The last
/// `< 8` bytes are scanned one by one.
///
/// # Examples
/// ```
/// use dmpi_common::scan::find_byte;
///
/// assert_eq!(find_byte(b' ', b"lorem ipsum"), Some(5));
/// assert_eq!(find_byte(b'\n', b"no newline here"), None);
/// ```
pub fn find_byte(byte: u8, hay: &[u8]) -> Option<usize> {
    let lanes = u64::from_le_bytes([byte; 8]);
    let mut words = hay.chunks_exact(8);
    for (i, word) in words.by_ref().enumerate() {
        let w =
            u64::from_le_bytes(word.try_into().expect("chunks_exact(8) yields 8 bytes")) ^ lanes;
        let zero_lanes = w.wrapping_sub(LOW_BITS) & !w & HIGH_BITS;
        if zero_lanes != 0 {
            return Some(i * 8 + zero_lanes.trailing_zeros() as usize / 8);
        }
    }
    let tail = words.remainder();
    let tail_start = hay.len() - tail.len();
    tail.iter().position(|&b| b == byte).map(|p| tail_start + p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_the_first_match_at_every_offset() {
        for len in 0..40usize {
            for at in 0..len {
                let mut hay = vec![b'x'; len];
                hay[at] = b'\n';
                // A second match later must not win over the first.
                if at + 1 < len {
                    hay[len - 1] = b'\n';
                }
                assert_eq!(find_byte(b'\n', &hay), Some(at), "len {len}, at {at}");
            }
            assert_eq!(find_byte(b'\n', &vec![b'x'; len]), None, "len {len}");
        }
    }

    #[test]
    fn lanes_above_a_match_do_not_shadow_it() {
        // A lane holding `byte ^ 1` right above a match is the one the
        // borrow flags falsely; 0x00 and 0xFF probe the lane ends.
        for byte in [0x00u8, 0x01, 0x7F, 0x80, 0xFE, 0xFF] {
            let near = byte ^ 1;
            let hay = [near, byte, near, byte, near, near, near, near, near];
            assert_eq!(find_byte(byte, &hay), Some(1), "byte {byte:#x}");
            assert_eq!(find_byte(byte, &[near; 17]), None, "byte {byte:#x}");
        }
    }
}
