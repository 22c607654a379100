//! Golden digests of the Text Generator's output. Every input the
//! executing workloads read comes from these bytes, and the simulator's
//! corpus statistics are measured on them, so a change to the sampler,
//! the vocabulary or the line writer must leave them identical. The
//! digests were taken from the generator as it was before its guide-table
//! sampler.

use dmpi_common::hashing::fnv1a;
use dmpi_datagen::{SeedModel, TextGenerator};

/// Every shipped model, and small-vocabulary models at a flat, the
/// default and a steep Zipf exponent (where the guide buckets hold the
/// most ranks each).
fn models() -> Vec<(String, SeedModel)> {
    let mut models = vec![("lda_wiki1w".to_string(), SeedModel::lda_wiki1w())];
    for i in 1..=5 {
        models.push((format!("amazon{i}"), SeedModel::amazon(i)));
    }
    for vocab in [1, 2, 100] {
        for s in [0.5, 1.05, 3.0] {
            let label = format!("t/{vocab}/{s}");
            models.push((label, SeedModel::with_params("t", vocab, s)));
        }
    }
    models
}

const SEEDS: [u64; 3] = [0, 42, 0xDEAD_BEEF];

/// FNV-1a over the concatenated `generate_bytes` output of each seed at
/// three sizes (the size is folded in by the output length).
fn generate_bytes_digest(model: &SeedModel) -> u64 {
    let mut all = Vec::new();
    for seed in SEEDS {
        let mut gen = TextGenerator::new(model.clone(), seed);
        for min_bytes in [1, 1000, 20_000] {
            all.extend_from_slice(&gen.generate_bytes(min_bytes));
        }
    }
    fnv1a(&all)
}

/// FNV-1a over `document` output, then one `line`, per seed.
fn document_digest(model: &SeedModel) -> u64 {
    let mut all = String::new();
    for seed in SEEDS {
        let mut gen = TextGenerator::new(model.clone(), seed);
        for lines in [0, 1, 40] {
            all.push_str(&gen.document(lines));
        }
        all.push_str(&gen.line());
        all.push('|');
    }
    fnv1a(all.as_bytes())
}

/// `(model, generate_bytes digest, document digest)`.
const GOLDEN: [(&str, u64, u64); 15] = [
    ("lda_wiki1w", 0x30a8b9b28590c1e0, 0xed86297745d7a2a7),
    ("amazon1", 0xf178ca18db3576ba, 0x5f55e3b4fe19fdcf),
    ("amazon2", 0x83cbee4c2ec094ec, 0x8d30d3ea878707d6),
    ("amazon3", 0x3b1dd54456a09227, 0x8e889dc0f3c1cd0e),
    ("amazon4", 0x19db0bdb804195a4, 0x8082716589f29530),
    ("amazon5", 0x5927b7477d8870f7, 0x8013aacad37c979e),
    ("t/1/0.5", 0x2d1472c84d0f0fa1, 0x3cb2162642be77b9),
    ("t/1/1.05", 0x2d1472c84d0f0fa1, 0x3cb2162642be77b9),
    ("t/1/3", 0x2d1472c84d0f0fa1, 0x3cb2162642be77b9),
    ("t/2/0.5", 0x0b2212c83dac45f5, 0x5f98187b48c98439),
    ("t/2/1.05", 0x5df4e2f99b7bbd19, 0x2385af0c82d5dd21),
    ("t/2/3", 0xc8a24a51d5d76a29, 0x45c1d013cc786749),
    ("t/100/0.5", 0xea69b5426418166a, 0xbe7c14c68838d361),
    ("t/100/1.05", 0x4ca6570492730c7e, 0xe04fe71bb5c548d6),
    ("t/100/3", 0xedf0c32a313eb462, 0x5b4db3d9c905cd86),
];

#[test]
fn generated_text_matches_the_golden_digests() {
    let got: Vec<(String, u64, u64)> = models()
        .iter()
        .map(|(label, m)| (label.clone(), generate_bytes_digest(m), document_digest(m)))
        .collect();
    let want: Vec<(String, u64, u64)> = GOLDEN
        .iter()
        .map(|&(label, g, d)| (label.to_string(), g, d))
        .collect();
    assert_eq!(got, want);
}
