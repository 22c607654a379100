//! Property-based tests of the data generators: determinism, format
//! round-trips, and statistical sanity for arbitrary seeds and sizes.

use proptest::prelude::*;

use dmpi_common::ser::Writable;
use dmpi_datagen::seqfile;
use dmpi_datagen::text::{lines, words};
use dmpi_datagen::vectors::{vectorize, SparseVector};
use dmpi_datagen::{SeedModel, TextGenerator};

/// What `lines` / `words` must yield: the non-empty pieces between `sep`.
fn split_reference(data: &[u8], sep: u8) -> Vec<&[u8]> {
    data.split(|&b| b == sep)
        .filter(|p| !p.is_empty())
        .collect()
}

fn assert_splits_like_reference(data: &[u8]) {
    assert_eq!(
        lines(data).collect::<Vec<_>>(),
        split_reference(data, b'\n')
    );
    assert_eq!(words(data).collect::<Vec<_>>(), split_reference(data, b' '));
}

/// Bytes where both separators are common and `0x00`, `0x80` and `0xFF`
/// (the ends of the word-at-a-time lane arithmetic) occur often.
fn separator_heavy_bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        prop_oneof![
            Just(b'\n'),
            Just(b' '),
            Just(0x00u8),
            Just(0x80u8),
            Just(0xFFu8),
            Just(b'\n' ^ 1),
            Just(b' ' ^ 1),
            any::<u8>(),
        ],
        0..80,
    )
}

/// One separator, or a run of two, at every offset of haystacks up to
/// three words long, so that each lane of the eight-byte scan and its
/// tail meet a separator.
#[test]
fn splitters_match_the_reference_at_every_separator_offset() {
    for len in 0..=24usize {
        assert_splits_like_reference(&vec![b'x'; len]);
        for at in 0..len {
            for run in 1..=2usize {
                for sep in [b'\n', b' '] {
                    let mut data = vec![b'x'; len];
                    data[at..(at + run).min(len)].fill(sep);
                    assert_splits_like_reference(&data);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn splitters_match_the_reference_on_arbitrary_bytes(
        pad in 0usize..8,
        body in separator_heavy_bytes(),
    ) {
        // The pad shifts the body through every alignment mod 8.
        assert_splits_like_reference(&[&vec![b'\n'; pad][..], &body].concat());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn text_generation_is_deterministic_per_seed(seed in any::<u64>(), bytes in 64usize..4096) {
        let mut a = TextGenerator::new(SeedModel::lda_wiki1w(), seed);
        let mut b = TextGenerator::new(SeedModel::lda_wiki1w(), seed);
        prop_assert_eq!(a.generate_bytes(bytes), b.generate_bytes(bytes));
    }

    #[test]
    fn generated_text_is_well_formed(seed in any::<u64>(), bytes in 64usize..2048) {
        let mut gen = TextGenerator::new(SeedModel::amazon(1 + (seed % 5) as u8), seed);
        let data = gen.generate_bytes(bytes);
        prop_assert!(data.len() >= bytes);
        prop_assert_eq!(*data.last().unwrap(), b'\n');
        for line in dmpi_datagen::text::lines(&data) {
            let words: Vec<_> = dmpi_datagen::text::words(line).collect();
            prop_assert!(!words.is_empty());
            for w in words {
                prop_assert!(w.iter().all(|b| b.is_ascii_lowercase()));
            }
        }
    }

    #[test]
    fn seqfile_round_trips_arbitrary_text(seed in any::<u64>(), bytes in 0usize..2048) {
        let mut gen = TextGenerator::new(SeedModel::lda_wiki1w(), seed);
        let text = if bytes == 0 { Vec::new() } else { gen.generate_bytes(bytes) };
        let (img, logical) = seqfile::to_seq_file(&text);
        prop_assert_eq!(seqfile::logical_size(&img).unwrap(), logical);
        let batch = seqfile::read_compressed(&img).unwrap();
        prop_assert_eq!(batch.len(), dmpi_datagen::text::lines(&text).count());
        for rec in &batch {
            prop_assert_eq!(&rec.key, &rec.value);
        }
    }

    #[test]
    fn vectorize_preserves_total_term_count(seed in any::<u64>(), bytes in 64usize..2048, dims in 8u32..512) {
        let mut gen = TextGenerator::new(SeedModel::lda_wiki1w(), seed);
        let doc = gen.generate_bytes(bytes);
        let total_words = dmpi_datagen::text::lines(&doc)
            .map(|l| dmpi_datagen::text::words(l).count())
            .sum::<usize>() as f64;
        let v = vectorize(&doc, dims as usize);
        let mass: f64 = v.values.iter().sum();
        prop_assert!((mass - total_words).abs() < 1e-9);
        prop_assert!(v.nnz() <= dims as usize);
    }

    #[test]
    fn sparse_vector_serialization_round_trips(
        entries in proptest::collection::btree_map(0u32..1000, 0.001f64..100.0, 0..32),
    ) {
        let (indices, values): (Vec<u32>, Vec<f64>) = entries.into_iter().unzip();
        let v = SparseVector::new(1000, indices, values).unwrap();
        let bytes = v.to_bytes();
        prop_assert_eq!(SparseVector::from_bytes(&bytes).unwrap(), v);
    }
}
