//! The vectorization pipeline — Mahout's `seq2sparse`, which both
//! applications depend on.
//!
//! §4.6: "text files are converted to sequence files from directory, then
//! to the sparse vectors which are the input data of training clusters"
//! (K-means), and for Naive Bayes "some MapReduce jobs are launched to
//! count the term frequency in one document and document frequency of all
//! terms". This module implements that chain as **real jobs**:
//!
//! 1. **Dictionary job** — WordCount over the corpus; the driver keeps the
//!    `max_terms` most frequent words and assigns them dense indices.
//! 2. **Vectorization job** — maps each document to a sparse
//!    term-frequency vector over the dictionary's index space.
//!
//! Both jobs run on either the DataMPI or the MapReduce engine, and the
//! resulting vectors feed [`crate::kmeans`] directly — the full
//! `genData_Kmeans` path, text to trained centroids.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;

use dmpi_common::group::{Collector, GroupedValues};
use dmpi_common::kv::{Record, RecordBatch};
use dmpi_common::ser::Writable;
use dmpi_common::varint::{encode_u64, MAX_VARINT_LEN};
use dmpi_common::{Error, Result};
use dmpi_datagen::vectors::SparseVector;

/// Engine choice for the pipeline jobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PipelineEngine {
    /// DataMPI runtime.
    DataMpi,
    /// MapReduce runtime.
    MapRed,
}

/// A term dictionary: the `max_terms` most frequent corpus words, each
/// with a dense index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dictionary {
    /// Word → dense index, deterministic (frequency-desc, then lexical).
    index: BTreeMap<Vec<u8>, u32>,
}

impl Dictionary {
    /// Builds a dictionary from `(word, count)` pairs, keeping the
    /// `max_terms` most frequent (ties broken lexically for determinism).
    pub fn from_counts(counts: Vec<(Vec<u8>, u64)>, max_terms: usize) -> Self {
        let mut ranked = counts;
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        ranked.truncate(max_terms);
        // Re-sort lexically so indices are stable regardless of tie order.
        ranked.sort_by(|a, b| a.0.cmp(&b.0));
        let index = ranked
            .into_iter()
            .enumerate()
            .map(|(i, (w, _))| (w, i as u32))
            .collect();
        Dictionary { index }
    }

    /// Number of dictionary terms (= the vector dimensionality).
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True if the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Index of a word, if in the dictionary.
    pub fn lookup(&self, word: &[u8]) -> Option<u32> {
        self.index.get(word).copied()
    }

    /// Vectorizes a document: term frequencies over dictionary indices
    /// (out-of-dictionary words are dropped, like Mahout's pruning).
    pub fn vectorize(&self, doc: &[u8]) -> SparseVector {
        let mut counts: BTreeMap<u32, f64> = BTreeMap::new();
        for line in dmpi_datagen::text::lines(doc) {
            for word in dmpi_datagen::text::words(line) {
                if let Some(idx) = self.lookup(word) {
                    *counts.entry(idx).or_insert(0.0) += 1.0;
                }
            }
        }
        let (indices, values): (Vec<u32>, Vec<f64>) = counts.into_iter().unzip();
        SparseVector::new(self.len() as u32, indices, values)
            .expect("BTreeMap keys are sorted and in range")
    }
}

fn wc_map(_t: usize, split: &[u8], out: &mut dyn Collector) {
    let mut buf = [0; MAX_VARINT_LEN];
    let one = encode_u64(1, &mut buf);
    for line in dmpi_datagen::text::lines(split) {
        for word in dmpi_datagen::text::words(line) {
            out.collect(word, one);
        }
    }
}

fn wc_reduce(g: &GroupedValues, out: &mut dyn Collector) {
    let total: u64 = g
        .values
        .iter()
        .map(|v| u64::from_bytes(v).unwrap_or(0))
        .sum();
    out.collect(&g.key, encode_u64(total, &mut [0; MAX_VARINT_LEN]));
}

/// Job 1: builds the dictionary by running WordCount on the chosen engine.
pub fn build_dictionary(
    engine: PipelineEngine,
    corpus: &[Bytes],
    max_terms: usize,
) -> Result<Dictionary> {
    let batch = match engine {
        PipelineEngine::DataMpi => datampi::run_job(
            &datampi::JobConfig::new(4),
            corpus.to_vec(),
            wc_map,
            wc_reduce,
            None,
        )?
        .into_single_batch(),
        PipelineEngine::MapRed => dmpi_mapred::run_mapreduce(
            &dmpi_mapred::MapRedConfig::new(4),
            corpus.to_vec(),
            wc_map,
            Some(&wc_reduce),
            wc_reduce,
        )?
        .into_single_batch(),
    };
    let counts: Vec<(Vec<u8>, u64)> = batch
        .into_records()
        .into_iter()
        .map(|r| Ok((r.key.to_vec(), u64::from_bytes(&r.value)?)))
        .collect::<Result<_>>()?;
    if counts.is_empty() {
        return Err(Error::InvalidState("empty corpus: no dictionary".into()));
    }
    Ok(Dictionary::from_counts(counts, max_terms))
}

/// Job 2: vectorizes documents. Input splits hold framed `(doc_id, text)`
/// records; the output is `(doc_id, vector)` pairs gathered across
/// partitions, sorted by document id.
pub fn vectorize_documents(
    engine: PipelineEngine,
    dictionary: &Dictionary,
    doc_splits: &[Bytes],
) -> Result<Vec<(u64, SparseVector)>> {
    let dict = Arc::new(dictionary.clone());
    let map = {
        let dict = Arc::clone(&dict);
        move |_t: usize, split: &[u8], out: &mut dyn Collector| {
            let mut reader = dmpi_common::ser::RecordReader::new(split);
            while let Some(rec) = reader.next_record().expect("valid doc split") {
                let v = dict.vectorize(&rec.value);
                out.collect(&rec.key, &v.to_bytes());
            }
        }
    };
    let identity = |g: &GroupedValues, out: &mut dyn Collector| {
        for v in &g.values {
            out.collect_shared(&g.key, v);
        }
    };
    let batch = match engine {
        PipelineEngine::DataMpi => datampi::run_job(
            &datampi::JobConfig::new(4),
            doc_splits.to_vec(),
            map,
            identity,
            None,
        )?
        .into_single_batch(),
        PipelineEngine::MapRed => dmpi_mapred::run_mapreduce(
            &dmpi_mapred::MapRedConfig::new(4),
            doc_splits.to_vec(),
            map,
            None,
            identity,
        )?
        .into_single_batch(),
    };
    let mut vectors: Vec<(u64, SparseVector)> = batch
        .into_records()
        .into_iter()
        .map(|r| {
            let (id, _) = dmpi_common::varint::read_u64(&r.key)?;
            Ok((id, SparseVector::from_bytes(&r.value)?))
        })
        .collect::<Result<_>>()?;
    vectors.sort_by_key(|(id, _)| *id);
    Ok(vectors)
}

/// Packs documents into framed `(doc_id, text)` splits for job 2.
pub fn documents_to_splits(docs: &[String], docs_per_split: usize) -> Vec<Bytes> {
    docs.chunks(docs_per_split.max(1))
        .enumerate()
        .map(|(chunk_idx, chunk)| {
            let mut batch = RecordBatch::new();
            for (i, doc) in chunk.iter().enumerate() {
                let id = (chunk_idx * docs_per_split.max(1) + i) as u64;
                batch.push(Record::new(id.to_bytes(), doc.as_bytes().to_vec()));
            }
            Bytes::from(dmpi_common::ser::frame_batch(&batch))
        })
        .collect()
}

/// The full `genData_Kmeans` path: corpus text → dictionary → sparse
/// vectors, both jobs on the chosen engine.
pub fn text_to_vectors(
    engine: PipelineEngine,
    docs: &[String],
    max_terms: usize,
    docs_per_split: usize,
) -> Result<Vec<SparseVector>> {
    let corpus: Vec<Bytes> = docs
        .iter()
        .map(|d| Bytes::from(d.as_bytes().to_vec()))
        .collect();
    let dictionary = build_dictionary(engine, &corpus, max_terms)?;
    let splits = documents_to_splits(docs, docs_per_split);
    Ok(vectorize_documents(engine, &dictionary, &splits)?
        .into_iter()
        .map(|(_, v)| v)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmpi_datagen::{SeedModel, TextGenerator};

    fn docs(seed: u64, n: usize) -> Vec<String> {
        let mut gen = TextGenerator::new(SeedModel::amazon(1), seed);
        (0..n).map(|_| gen.document(6)).collect()
    }

    #[test]
    fn dictionary_keeps_most_frequent_terms() {
        let counts = vec![
            (b"rare".to_vec(), 1u64),
            (b"common".to_vec(), 100),
            (b"medium".to_vec(), 10),
        ];
        let d = Dictionary::from_counts(counts, 2);
        assert_eq!(d.len(), 2);
        assert!(d.lookup(b"common").is_some());
        assert!(d.lookup(b"medium").is_some());
        assert!(d.lookup(b"rare").is_none());
    }

    #[test]
    fn dictionary_indices_are_dense_and_stable() {
        let counts = vec![
            (b"b".to_vec(), 5u64),
            (b"a".to_vec(), 5),
            (b"c".to_vec(), 5),
        ];
        let d1 = Dictionary::from_counts(counts.clone(), 3);
        let d2 = Dictionary::from_counts(counts, 3);
        assert_eq!(d1, d2);
        let mut indices: Vec<u32> = [b"a", b"b", b"c"]
            .iter()
            .map(|w| d1.lookup(*w).unwrap())
            .collect();
        indices.sort_unstable();
        assert_eq!(indices, vec![0, 1, 2]);
    }

    #[test]
    fn vectorize_counts_in_dictionary_terms_only() {
        let d = Dictionary::from_counts(vec![(b"cat".to_vec(), 5), (b"dog".to_vec(), 3)], 2);
        let v = d.vectorize(b"cat dog cat bird\n");
        assert_eq!(v.nnz(), 2);
        let total: f64 = v.values.iter().sum();
        assert_eq!(total, 3.0, "bird is out of dictionary");
    }

    #[test]
    fn engines_build_identical_dictionaries() {
        let corpus: Vec<Bytes> = docs(50, 8)
            .iter()
            .map(|d| Bytes::from(d.as_bytes().to_vec()))
            .collect();
        let a = build_dictionary(PipelineEngine::DataMpi, &corpus, 200).unwrap();
        let b = build_dictionary(PipelineEngine::MapRed, &corpus, 200).unwrap();
        assert_eq!(a, b);
        assert!(a.len() <= 200);
        assert!(a.len() > 20);
    }

    #[test]
    fn full_pipeline_matches_direct_vectorization() {
        let documents = docs(51, 10);
        let engine_vectors = text_to_vectors(PipelineEngine::DataMpi, &documents, 500, 4).unwrap();
        assert_eq!(engine_vectors.len(), documents.len());
        // Rebuild the dictionary directly and compare each vector.
        let corpus: Vec<Bytes> = documents
            .iter()
            .map(|d| Bytes::from(d.as_bytes().to_vec()))
            .collect();
        let dict = build_dictionary(PipelineEngine::DataMpi, &corpus, 500).unwrap();
        for (doc, v) in documents.iter().zip(&engine_vectors) {
            assert_eq!(&dict.vectorize(doc.as_bytes()), v);
        }
    }

    #[test]
    fn pipeline_output_feeds_kmeans() {
        // End to end: text -> vectors -> clustering. Two distinct seed
        // models give two separable clusters.
        let mut documents = Vec::new();
        let mut gen1 = dmpi_datagen::TextGenerator::new(SeedModel::amazon(1), 60);
        let mut gen2 = dmpi_datagen::TextGenerator::new(SeedModel::amazon(5), 61);
        for _ in 0..12 {
            documents.push(gen1.document(8));
        }
        for _ in 0..12 {
            documents.push(gen2.document(8));
        }
        let vectors = text_to_vectors(PipelineEngine::DataMpi, &documents, 1000, 6).unwrap();
        let dims = vectors[0].dims as usize;
        let params = crate::kmeans::KMeans::new(2, dims);
        let inputs = crate::kmeans::vectors_to_inputs(&vectors, 8);
        let (centroids, _) = crate::kmeans::train(
            &params,
            crate::kmeans::TrainEngine::DataMpi,
            &vectors,
            &inputs,
        )
        .unwrap();
        // The two clusters should separate the two seed models.
        let labels: Vec<usize> = vectors
            .iter()
            .map(|v| crate::kmeans::nearest(v, &centroids))
            .collect();
        let first_half_majority = labels[..12].iter().filter(|&&l| l == labels[0]).count();
        let second_half_matches_first = labels[12..].iter().filter(|&&l| l == labels[0]).count();
        assert!(first_half_majority >= 10, "cluster 1 coherent");
        assert!(second_half_matches_first <= 2, "cluster 2 distinct");
    }

    #[test]
    fn empty_corpus_is_an_error() {
        assert!(build_dictionary(PipelineEngine::DataMpi, &[], 10).is_err());
    }
}
