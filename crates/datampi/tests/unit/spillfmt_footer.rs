//! The run-file footer reader, and the tests that check the writer's
//! bytes through it. A sealed run keeps its [`RunIndex`] in memory, so
//! no production path parses a footer back; the reader pins the layout
//! of `spillfmt`'s module doc, and must reject a hostile image without
//! panicking. Compiled into `spillfmt`'s unit tests.

use proptest::prelude::*;

use super::*;

/// Fixed trailer length: `footer_offset u64 | footer_crc u32 | magic u32`.
pub(crate) const TRAILER_LEN: usize = 16;

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
    /// Decodes a footer previously produced by
    /// [`encode_footer`](Self::encode_footer). `file_len` is filled by
    /// the caller (it lives in the trailer, not the footer).
    fn decode_footer(buf: &[u8]) -> Result<RunIndex> {
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

/// Parses trailer + footer out of a complete run image: checks the
/// magic, the footer span and its CRC, decodes the footer, and checks
/// that every block stores exactly its raw bytes and lies before the
/// footer, so no reader sizes a buffer from a span the run cannot hold.
pub(crate) fn parse_image(image: &[u8]) -> Result<RunIndex> {
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
        if b.stored_len != b.raw_len {
            return Err(Error::corrupt(format!(
                "block at {} stores {} bytes for {} raw",
                b.offset, b.stored_len, b.raw_len
            )));
        }
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

fn record_strategy() -> impl Strategy<Value = Record> {
    (
        proptest::collection::vec(any::<u8>(), 0..24),
        proptest::collection::vec(any::<u8>(), 0..48),
    )
        .prop_map(|(k, v)| Record {
            key: Bytes::from(k),
            value: Bytes::from(v),
        })
}

/// An arrival-order run of `records` in blocks of `block_bytes`.
fn build_run(records: &[Record], block_bytes: usize) -> (Vec<u8>, RunIndex) {
    let mut w = RunWriter::new(block_bytes, false, false);
    for r in records {
        w.push(r);
    }
    w.finish()
}

/// `footer` behind a trailer whose magic and footer CRC are right, so
/// the parser gets past both and decodes the footer bytes.
fn image_with_footer(blocks: &[u8], footer: &[u8]) -> Vec<u8> {
    let mut image = blocks.to_vec();
    image.extend_from_slice(footer);
    image.extend_from_slice(&(blocks.len() as u64).to_le_bytes());
    image.extend_from_slice(&crc32(footer).to_le_bytes());
    image.extend_from_slice(&RUN_MAGIC.to_le_bytes());
    image
}

/// `parse_image` on hostile bytes: an error, or an index whose every
/// block lies before the footer the trailer names. A panic fails the
/// case on its own.
fn parse_is_safe(image: &[u8]) -> std::result::Result<(), proptest::test_runner::TestCaseError> {
    let Ok(index) = parse_image(image) else {
        return Ok(());
    };
    let trailer = &image[image.len() - TRAILER_LEN..];
    let footer_offset = u64::from_le_bytes(trailer[..8].try_into().unwrap());
    for b in &index.blocks {
        let end = b.offset.checked_add(b.stored_len as u64);
        prop_assert!(
            end.is_some_and(|end| end <= footer_offset),
            "block {}+{} past the footer at {}",
            b.offset,
            b.stored_len,
            footer_offset
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any record multiset, any block budget: the footer parsed back out
    /// of the image matches the index the writer kept.
    #[test]
    fn footer_round_trips_any_records_and_block_size(
        records in proptest::collection::vec(record_strategy(), 0..60),
        block_bytes in 1usize..512,
    ) {
        let (image, index) = build_run(&records, block_bytes);
        let reparsed = parse_image(&image).unwrap();
        prop_assert_eq!(&reparsed.blocks, &index.blocks);
        prop_assert_eq!(reparsed.raw_bytes, index.raw_bytes);
        prop_assert_eq!(reparsed.stored_bytes, index.stored_bytes);
    }

    /// The footer parser on hostile input: arbitrary bytes (also as a
    /// footer behind a valid trailer), every truncation of a valid
    /// image, and a valid image with one byte of its footer or trailer
    /// changed. Each is rejected or yields blocks that fit before the
    /// footer; none panics.
    #[test]
    fn footer_parser_rejects_hostile_images_without_panicking(
        noise in proptest::collection::vec(any::<u8>(), 0..256),
        blocks_len in 0usize..64,
        records in proptest::collection::vec(record_strategy(), 0..40),
        block_bytes in 1usize..128,
        poke in any::<prop::sample::Index>(),
        mask in 1u8..=255,
    ) {
        parse_is_safe(&noise)?;
        parse_is_safe(&image_with_footer(&vec![0; blocks_len], &noise))?;

        let (image, _) = build_run(&records, block_bytes);
        for len in 0..image.len() {
            parse_is_safe(&image[..len])?;
        }

        let index = parse_image(&image).unwrap();
        let footer_at = image.len() - TRAILER_LEN - index.encode_footer().len();
        let mut flipped = image.clone();
        flipped[footer_at + poke.index(image.len() - footer_at)] ^= mask;
        parse_is_safe(&flipped)?;
    }
}
