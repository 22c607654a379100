//! CRC-32C (Castagnoli) — the checksum HDFS attaches to every block by
//! default, chosen there for the same reason as here: x86 computes it
//! in hardware.
//!
//! Every frame payload is CRC-stamped on send and verified on receive,
//! and every spill block and footer is checked before it is decoded, so
//! each shuffled byte passes through this module at least twice. Two
//! implementations compute the same function:
//!
//! * the SSE4.2 `crc32` instruction, eight bytes per step, used whenever
//!   `is_x86_feature_detected!("sse4.2")` reports it — the choice follows
//!   the CPU only, there is no switch;
//! * a slicing-by-8 table loop (eight derived 256-entry tables built at
//!   first use, eight input bytes folded per iteration), the portable
//!   implementation on every other host and the reference the tests hold
//!   the hardware path to.
//!
//! The DFS uses the same routine to detect silent block corruption on
//! read (`dfs.verify` / the corruption-injection tests), mirroring
//! HDFS's per-chunk checksumming.

use std::sync::OnceLock;

/// The reflected Castagnoli polynomial.
const POLY: u32 = 0x82F6_3B78;

/// Slicing-by-8 tables: `tables[0]` is the classic bytewise table;
/// `tables[k][b]` is the CRC contribution of byte `b` seen `k` positions
/// earlier in an 8-byte block.
fn tables() -> &'static [[u32; 256]; 8] {
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut tables = [[0u32; 256]; 8];
        for (i, entry) in tables[0].iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
            *entry = crc;
        }
        for k in 1..8 {
            for i in 0..256usize {
                let prev = tables[k - 1][i];
                tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            }
        }
        tables
    })
}

/// The portable path: slicing-by-8 over the Castagnoli tables.
fn update_table(mut crc: u32, data: &[u8]) -> u32 {
    let t = tables();
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes(chunk[0..4].try_into().unwrap()) ^ crc;
        let hi = u32::from_le_bytes(chunk[4..8].try_into().unwrap());
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xff) as usize];
    }
    crc
}

/// The hardware path: the SSE4.2 `crc32` instruction over eight bytes at
/// a time, then bytewise over the tail.
///
/// # Safety
///
/// The CPU must support SSE4.2; [`update_state`] checks before calling.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn update_sse42(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut chunks = data.chunks_exact(8);
    let mut wide = u64::from(crc);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("chunks_exact(8) yields 8 bytes"));
        wide = _mm_crc32_u64(wide, word);
    }
    // The instruction leaves the upper half of its 64-bit result zero.
    let mut crc = wide as u32;
    for &b in chunks.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    crc
}

/// Advances the (pre-inverted) state over `data` on whichever path the
/// CPU offers.
fn update_state(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: the feature the function is compiled for was detected
        // on this CPU just above.
        return unsafe { update_sse42(crc, data) };
    }
    update_table(crc, data)
}

/// Computes the CRC-32C of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    !update_state(!0u32, data)
}

/// Incremental CRC-32C computation over multiple chunks.
#[derive(Clone, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Starts a new computation.
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Feeds a chunk.
    pub fn update(&mut self, data: &[u8]) {
        self.state = update_state(self.state, data);
    }

    /// Finishes, returning the checksum.
    pub fn finalize(self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The table path as a one-shot checksum, called directly so it is
    /// exercised on hosts whose `crc32` takes the hardware path.
    fn crc32_table(data: &[u8]) -> u32 {
        !update_table(!0u32, data)
    }

    #[test]
    fn known_vectors() {
        // Standard CRC-32C check values (RFC 3720 appendix B.4 for the
        // 32-byte patterns), on the dispatched and on the table path.
        let ascending: Vec<u8> = (0..32).collect();
        let vectors: [(&[u8], u32); 6] = [
            (b"", 0),
            (b"123456789", 0xE306_9283),
            (b"The quick brown fox jumps over the lazy dog", 0x2262_0404),
            (&[0u8; 32], 0x8A91_36AA),
            (&[0xFFu8; 32], 0x62A8_AB43),
            (&ascending, 0x46DD_794E),
        ];
        for (data, expected) in vectors {
            assert_eq!(crc32(data), expected, "dispatched, {data:?}");
            assert_eq!(crc32_table(data), expected, "table, {data:?}");
        }
    }

    #[test]
    fn sliced_loop_matches_bytewise_reference_at_every_length() {
        // Lengths straddling the 8-byte block boundary exercise both the
        // sliced main loop and the remainder tail.
        let data: Vec<u8> = (0..257u32).map(|i| (i * 31 + 7) as u8).collect();
        let t = tables();
        for len in 0..=data.len() {
            let mut reference = !0u32;
            for &b in &data[..len] {
                reference = (reference >> 8) ^ t[0][((reference ^ b as u32) & 0xff) as usize];
            }
            assert_eq!(crc32_table(&data[..len]), !reference, "length {len}");
        }
    }

    #[test]
    fn dispatched_path_matches_table_path_at_every_length_and_alignment() {
        // On an SSE4.2 host this holds the instruction to the tables; on
        // any other host both sides are the table path. Slicing from
        // `start` moves the data's address off the 8-byte grid.
        let data: Vec<u8> = (0..280u32).map(|i| (i * 131 + 89) as u8).collect();
        for start in [0usize, 1, 2, 3, 5, 7, 8, 13] {
            for len in 0..=257 {
                let slice = &data[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_table(slice),
                    "start {start} length {len}"
                );
            }
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"hello cruel checksummed world";
        let mut inc = Crc32::new();
        inc.update(&data[..7]);
        inc.update(&data[7..20]);
        inc.update(&data[20..]);
        assert_eq!(inc.finalize(), crc32(data));
    }

    #[test]
    fn incremental_split_points_do_not_matter() {
        let data: Vec<u8> = (0..257u32).map(|i| (i ^ (i >> 3)) as u8).collect();
        let oneshot = crc32_table(&data);
        for split in 0..=data.len() {
            let mut inc = Crc32::new();
            inc.update(&data[..split]);
            inc.update(&data[split..]);
            assert_eq!(inc.finalize(), oneshot, "split {split}");
        }
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let data = vec![0xA5u8; 256];
        let base = crc32(&data);
        for i in (0..data.len()).step_by(17) {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at {i}:{bit} undetected");
            }
        }
    }

    #[test]
    fn empty_update_is_identity() {
        let mut a = Crc32::new();
        a.update(b"");
        a.update(b"x");
        assert_eq!(a.finalize(), crc32(b"x"));
    }
}
