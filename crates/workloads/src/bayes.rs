//! Naive Bayes — application benchmark #4 (social-network scenario).
//!
//! Mahout-style multinomial Naive Bayes over five document categories
//! (the `amazon1`–`amazon5` seed models). Per §4.6, the pipeline is a
//! chain of counting jobs ("the characteristics of Naive Bayes is similar
//! to WordCount"): term frequency per category, document counts, then the
//! probabilistic model. The paper compares only Hadoop and DataMPI
//! (BigDataBench 2.1 lacked a Spark implementation), and so do we.

use std::collections::BTreeMap;

use bytes::Bytes;

use dmpi_common::group::{Collector, GroupedValues};
use dmpi_common::kv::{Record, RecordBatch};
use dmpi_common::ser::Writable;
use dmpi_common::varint::{encode_u64, MAX_VARINT_LEN};
use dmpi_common::{Error, Result};

/// Separator between category and word in intermediate keys (never occurs
/// in generated words, which are lowercase ASCII).
const SEP: u8 = 0;
/// Pseudo-word counting documents per category.
const DOC_MARKER: &[u8] = b"\x01__doc__";

/// A labeled training document.
#[derive(Clone, Debug)]
pub struct LabeledDoc {
    /// Category name (e.g. `"amazon1"`).
    pub label: String,
    /// Document text.
    pub text: String,
}

/// Generates a labeled corpus from the five amazon seed models.
pub fn generate_corpus(docs_per_class: usize, lines_per_doc: usize, seed: u64) -> Vec<LabeledDoc> {
    let mut corpus = Vec::with_capacity(docs_per_class * 5);
    for class in 1..=5u8 {
        let label = format!("amazon{class}");
        let model = dmpi_datagen::SeedModel::amazon(class);
        let mut gen = dmpi_datagen::TextGenerator::new(model, seed ^ (class as u64) << 17);
        for _ in 0..docs_per_class {
            corpus.push(LabeledDoc {
                label: label.clone(),
                text: gen.document(lines_per_doc),
            });
        }
    }
    corpus
}

/// Serializes labeled docs into input splits: records of
/// `(label, document)`.
pub fn corpus_to_inputs(corpus: &[LabeledDoc], docs_per_split: usize) -> Vec<Bytes> {
    corpus
        .chunks(docs_per_split.max(1))
        .map(|docs| {
            let mut batch = RecordBatch::new();
            for d in docs {
                batch.push(Record::new(
                    d.label.as_bytes().to_vec(),
                    d.text.as_bytes().to_vec(),
                ));
            }
            Bytes::from(dmpi_common::ser::frame_batch(&batch))
        })
        .collect()
}

/// Map: emit `((category, word), 1)` per occurrence and a per-document
/// marker for priors.
pub fn count_map(_task: usize, split: &[u8], out: &mut dyn Collector) {
    let mut buf = [0; MAX_VARINT_LEN];
    let one = encode_u64(1, &mut buf);
    let mut reader = dmpi_common::ser::RecordReader::new(split);
    while let Some(rec) = reader.next_record().expect("valid bayes input") {
        let label = &rec.key;
        let mut doc_key = Vec::with_capacity(label.len() + 1 + DOC_MARKER.len());
        doc_key.extend_from_slice(label);
        doc_key.push(SEP);
        doc_key.extend_from_slice(DOC_MARKER);
        out.collect(&doc_key, one);
        for line in dmpi_datagen::text::lines(&rec.value) {
            for word in dmpi_datagen::text::words(line) {
                let mut key = Vec::with_capacity(label.len() + 1 + word.len());
                key.extend_from_slice(label);
                key.push(SEP);
                key.extend_from_slice(word);
                out.collect(&key, one);
            }
        }
    }
}

/// Reduce: sum counts.
pub fn count_reduce(group: &GroupedValues, out: &mut dyn Collector) {
    let total: u64 = group
        .values
        .iter()
        .map(|v| u64::from_bytes(v).unwrap_or(0))
        .sum();
    out.collect(&group.key, encode_u64(total, &mut [0; MAX_VARINT_LEN]));
}

/// A trained multinomial Naive Bayes model.
#[derive(Clone, Debug)]
pub struct NaiveBayesModel {
    /// Log prior per category.
    priors: BTreeMap<String, f64>,
    /// `(category, word)` log-likelihoods.
    word_log_prob: BTreeMap<(String, String), f64>,
    /// Per-category denominator: total words + vocabulary (for unseen
    /// words' Laplace mass).
    unseen_log_prob: BTreeMap<String, f64>,
}

impl NaiveBayesModel {
    /// Builds the model from the counting job's output records.
    pub fn from_counts(batch: RecordBatch) -> Result<Self> {
        let mut word_counts: BTreeMap<(String, String), u64> = BTreeMap::new();
        let mut docs_per_class: BTreeMap<String, u64> = BTreeMap::new();
        let mut words_per_class: BTreeMap<String, u64> = BTreeMap::new();
        let mut vocab: std::collections::BTreeSet<String> = Default::default();

        for rec in batch.into_records() {
            let sep = rec
                .key
                .iter()
                .position(|&b| b == SEP)
                .ok_or_else(|| Error::corrupt("bayes key missing separator"))?;
            let label = String::from_utf8_lossy(&rec.key[..sep]).into_owned();
            let token = &rec.key[sep + 1..];
            let count = u64::from_bytes(&rec.value)?;
            if token == DOC_MARKER {
                *docs_per_class.entry(label).or_default() += count;
            } else {
                let word = String::from_utf8_lossy(token).into_owned();
                vocab.insert(word.clone());
                *words_per_class.entry(label.clone()).or_default() += count;
                *word_counts.entry((label, word)).or_default() += count;
            }
        }

        let total_docs: u64 = docs_per_class.values().sum();
        if total_docs == 0 {
            return Err(Error::InvalidState("empty training corpus".into()));
        }
        let v = vocab.len() as f64;
        let mut priors = BTreeMap::new();
        let mut unseen = BTreeMap::new();
        for (label, &docs) in &docs_per_class {
            priors.insert(label.clone(), (docs as f64 / total_docs as f64).ln());
            let denom = words_per_class.get(label).copied().unwrap_or(0) as f64 + v;
            unseen.insert(label.clone(), (1.0 / denom).ln());
        }
        let mut word_log_prob = BTreeMap::new();
        for ((label, word), count) in word_counts {
            let denom = words_per_class.get(&label).copied().unwrap_or(0) as f64 + v;
            word_log_prob.insert((label, word), ((count as f64 + 1.0) / denom).ln());
        }
        Ok(NaiveBayesModel {
            priors,
            word_log_prob,
            unseen_log_prob: unseen,
        })
    }

    /// The known categories.
    pub fn categories(&self) -> Vec<&str> {
        self.priors.keys().map(String::as_str).collect()
    }

    /// Classifies a document, returning the most likely category.
    pub fn classify(&self, text: &str) -> Option<&str> {
        let mut best: Option<(&str, f64)> = None;
        for (label, &prior) in &self.priors {
            let unseen = self.unseen_log_prob[label];
            let mut score = prior;
            for line in dmpi_datagen::text::lines(text.as_bytes()) {
                for word in dmpi_datagen::text::words(line) {
                    let w = String::from_utf8_lossy(word).into_owned();
                    score += self
                        .word_log_prob
                        .get(&(label.clone(), w))
                        .copied()
                        .unwrap_or(unseen);
                }
            }
            if best.is_none_or(|(_, s)| score > s) {
                best = Some((label, score));
            }
        }
        best.map(|(l, _)| l)
    }
}

/// Trains on the DataMPI runtime.
pub fn train_datampi(config: &datampi::JobConfig, inputs: Vec<Bytes>) -> Result<NaiveBayesModel> {
    let out = datampi::run_job(config, inputs, count_map, count_reduce, None)?;
    NaiveBayesModel::from_counts(out.into_single_batch())
}

/// Trains on the MapReduce runtime.
pub fn train_mapred(
    config: &dmpi_mapred::MapRedConfig,
    inputs: Vec<Bytes>,
) -> Result<NaiveBayesModel> {
    let out =
        dmpi_mapred::run_mapreduce(config, inputs, count_map, Some(&count_reduce), count_reduce)?;
    NaiveBayesModel::from_counts(out.into_single_batch())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_classifies_training_distribution() {
        let corpus = generate_corpus(30, 8, 123);
        let inputs = corpus_to_inputs(&corpus, 10);
        let model = train_datampi(&datampi::JobConfig::new(4), inputs).unwrap();
        assert_eq!(model.categories().len(), 5);

        // Held-out documents from the same seed models (different stream).
        let held_out = generate_corpus(10, 8, 456);
        let correct = held_out
            .iter()
            .filter(|d| model.classify(&d.text) == Some(d.label.as_str()))
            .count();
        let acc = correct as f64 / held_out.len() as f64;
        assert!(acc > 0.9, "hold-out accuracy {acc}");
    }

    #[test]
    fn engines_train_identical_models() {
        let corpus = generate_corpus(10, 5, 99);
        let inputs = corpus_to_inputs(&corpus, 10);
        let dm = train_datampi(&datampi::JobConfig::new(3), inputs.clone()).unwrap();
        let mr = train_mapred(&dmpi_mapred::MapRedConfig::new(3), inputs).unwrap();
        assert_eq!(dm.priors, mr.priors);
        assert_eq!(dm.word_log_prob.len(), mr.word_log_prob.len());
        for (k, v) in &dm.word_log_prob {
            assert!((v - mr.word_log_prob[k]).abs() < 1e-12);
        }
    }

    #[test]
    fn priors_reflect_class_balance() {
        // 3:1 imbalance between two classes.
        let mut corpus = generate_corpus(3, 4, 7);
        corpus.retain(|d| d.label == "amazon1" || d.label == "amazon2");
        let mut extra = generate_corpus(6, 4, 8);
        extra.retain(|d| d.label == "amazon1");
        corpus.extend(extra);
        let inputs = corpus_to_inputs(&corpus, 4);
        let model = train_datampi(&datampi::JobConfig::new(2), inputs).unwrap();
        assert!(model.priors["amazon1"] > model.priors["amazon2"]);
    }

    #[test]
    fn empty_corpus_is_an_error() {
        let err = train_datampi(&datampi::JobConfig::new(2), vec![]).unwrap_err();
        assert!(matches!(err, Error::InvalidState(_)));
    }

    #[test]
    fn classify_unseen_words_still_picks_something() {
        let corpus = generate_corpus(5, 4, 55);
        let inputs = corpus_to_inputs(&corpus, 5);
        let model = train_datampi(&datampi::JobConfig::new(2), inputs).unwrap();
        assert!(model.classify("entirely novel vocabulary here").is_some());
    }
}
