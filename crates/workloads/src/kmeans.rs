//! K-means — application benchmark #5 (e-commerce scenario).
//!
//! Mahout-style iterative clustering: each iteration is one job whose
//! map/O side assigns every input vector to its nearest centroid and emits
//! partial sums, and whose reduce/A side averages them into new centroids
//! (§4.6: "most of K-means calculation happens in Map phase, and few
//! intermediate data is generated"). The paper times the **first
//! iteration** including data loading, which is what the simulation
//! profiles model.

use bytes::Bytes;

use dmpi_common::group::{Collector, GroupedValues};
use dmpi_common::kv::{Record, RecordBatch};
use dmpi_common::ser::Writable;
use dmpi_common::{Error, Result};
use dmpi_datagen::vectors::{vectorize, SparseVector};

/// Parameters of a K-means training run.
#[derive(Clone, Debug)]
pub struct KMeans {
    /// Number of clusters.
    pub k: usize,
    /// Dimensionality of the (hashed) vector space.
    pub dims: usize,
    /// Maximum iterations.
    pub max_iters: usize,
    /// Convergence threshold on the max centroid displacement (squared).
    pub tol: f64,
}

impl KMeans {
    /// Sensible defaults for tests/examples.
    pub fn new(k: usize, dims: usize) -> Self {
        KMeans {
            k,
            dims,
            max_iters: 20,
            tol: 1e-6,
        }
    }
}

/// Generates clustered sparse vectors: documents drawn from the five
/// `amazon` seed models, whose disjoint-ish vocabularies give naturally
/// separable clusters. Returns `(vectors, true_model_index_per_vector)`.
pub fn generate_clustered_vectors(
    per_class: usize,
    dims: usize,
    seed: u64,
) -> (Vec<SparseVector>, Vec<usize>) {
    let mut vectors = Vec::with_capacity(per_class * 5);
    let mut labels = Vec::with_capacity(per_class * 5);
    for class in 1..=5u8 {
        let model = dmpi_datagen::SeedModel::amazon(class);
        let mut gen = dmpi_datagen::TextGenerator::new(model, seed + class as u64);
        for _ in 0..per_class {
            let doc = gen.document(10);
            vectors.push(vectorize(doc.as_bytes(), dims));
            labels.push((class - 1) as usize);
        }
    }
    (vectors, labels)
}

/// Serializes vectors into input splits (framed records, `chunk` vectors
/// per split).
pub fn vectors_to_inputs(vectors: &[SparseVector], chunk: usize) -> Vec<Bytes> {
    vectors
        .chunks(chunk.max(1))
        .map(|vs| {
            let mut batch = RecordBatch::new();
            for (i, v) in vs.iter().enumerate() {
                batch.push(Record::new((i as u64).to_bytes(), v.to_bytes()));
            }
            Bytes::from(dmpi_common::ser::frame_batch(&batch))
        })
        .collect()
}

/// Strided initial centroids: picking every `n/k`-th vector spreads the
/// seeds across the dataset (a class-ordered input would otherwise seed
/// all centroids inside one cluster).
pub fn initial_centroids(vectors: &[SparseVector], k: usize, dims: usize) -> Vec<Vec<f64>> {
    (0..k)
        .map(|i| {
            let idx = i * vectors.len() / k;
            let mut dense = vec![0.0; dims];
            vectors[idx].add_into(&mut dense);
            dense
        })
        .collect()
}

/// Index of the nearest centroid to `v`.
pub fn nearest(v: &SparseVector, centroids: &[Vec<f64>]) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (i, c) in centroids.iter().enumerate() {
        let d = v.dist_sq_dense(c);
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

/// Value payload of one partial: `(count, dense sum)`.
type Partial = (u64, Vec<f64>);

fn encode_partial(count: u64, sum: &[f64]) -> Vec<u8> {
    (count, sum.to_vec()).to_bytes()
}

fn decode_partial(bytes: &[u8]) -> Result<Partial> {
    Partial::from_bytes(bytes)
}

/// Builds the map function for one iteration over `centroids`.
pub fn assign_map(
    centroids: Vec<Vec<f64>>,
    dims: usize,
) -> impl Fn(usize, &[u8], &mut dyn Collector) + Send + Sync {
    move |_task, split, out| {
        let mut reader = dmpi_common::ser::RecordReader::new(split);
        // Map-side partial aggregation: one partial per cluster per split.
        let mut sums: Vec<Vec<f64>> = vec![vec![0.0; dims]; centroids.len()];
        let mut counts = vec![0u64; centroids.len()];
        while let Some(rec) = reader.next_record().expect("valid kmeans input") {
            let v = SparseVector::from_bytes(&rec.value).expect("valid sparse vector");
            let c = nearest(&v, &centroids);
            v.add_into(&mut sums[c]);
            counts[c] += 1;
        }
        for (c, (count, sum)) in counts.iter().zip(&sums).enumerate() {
            if *count > 0 {
                out.collect(&(c as u64).to_bytes(), &encode_partial(*count, sum));
            }
        }
    }
}

/// Reduce: average the partials of one cluster into the new centroid.
pub fn update_reduce(group: &GroupedValues, out: &mut dyn Collector) {
    let mut total = 0u64;
    let mut sum: Option<Vec<f64>> = None;
    for v in &group.values {
        let (count, partial) = decode_partial(v).expect("valid partial");
        total += count;
        match &mut sum {
            None => sum = Some(partial),
            Some(acc) => {
                for (a, b) in acc.iter_mut().zip(&partial) {
                    *a += b;
                }
            }
        }
    }
    if let Some(mut sum) = sum {
        if total > 0 {
            for x in sum.iter_mut() {
                *x /= total as f64;
            }
        }
        out.collect(&group.key, &encode_partial(total, &sum));
    }
}

/// Extracts `(cluster, centroid)` pairs from a job's output.
fn decode_centroids(batch: RecordBatch, k: usize, dims: usize) -> Result<Vec<Vec<f64>>> {
    let mut centroids = vec![vec![0.0; dims]; k];
    for rec in batch.into_records() {
        let (idx, _) = dmpi_common::varint::read_u64(&rec.key)?;
        let (_, centroid) = decode_partial(&rec.value)?;
        let idx = idx as usize;
        if idx >= k {
            return Err(Error::corrupt(format!("cluster index {idx} out of range")));
        }
        centroids[idx] = centroid;
    }
    Ok(centroids)
}

fn max_shift_sq(a: &[Vec<f64>], b: &[Vec<f64>]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| x.iter().zip(y).map(|(p, q)| (p - q) * (p - q)).sum::<f64>())
        .fold(0.0, f64::max)
}

/// Which engine to train on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrainEngine {
    /// DataMPI runtime.
    DataMpi,
    /// MapReduce runtime.
    MapRed,
}

/// Trains K-means by iterating jobs on the chosen engine. Initial
/// centroids are the dense forms of the first `k` vectors.
pub fn train(
    params: &KMeans,
    engine: TrainEngine,
    vectors: &[SparseVector],
    inputs: &[Bytes],
) -> Result<(Vec<Vec<f64>>, usize)> {
    if vectors.len() < params.k {
        return Err(Error::Config("fewer vectors than clusters".into()));
    }
    let mut centroids = initial_centroids(vectors, params.k, params.dims);

    for iter in 0..params.max_iters {
        let map = assign_map(centroids.clone(), params.dims);
        let output = match engine {
            TrainEngine::DataMpi => datampi::run_job(
                &datampi::JobConfig::new(4),
                inputs.to_vec(),
                map,
                update_reduce,
                None,
            )?
            .into_single_batch(),
            TrainEngine::MapRed => dmpi_mapred::run_mapreduce(
                &dmpi_mapred::MapRedConfig::new(4),
                inputs.to_vec(),
                map,
                None,
                update_reduce,
            )?
            .into_single_batch(),
        };
        let mut next = decode_centroids(output, params.k, params.dims)?;
        // Empty clusters keep their previous centroid.
        for (c, centroid) in next.iter_mut().enumerate() {
            if centroid.iter().all(|&x| x == 0.0) {
                centroid.clone_from(&centroids[c]);
            }
        }
        let shift = max_shift_sq(&centroids, &next);
        centroids = next;
        if shift < params.tol {
            return Ok((centroids, iter + 1));
        }
    }
    Ok((centroids, params.max_iters))
}

/// Trains on DataMPI's **Iteration mode**: vectors are deserialized once
/// into an [`datampi::iteration::IterationCache`] and stay resident across
/// iterations — the library's counterpart to Spark's RDD cache, and the
/// "detail performance comparison between Spark and DataMPI in the
/// iterative applications" the paper defers to future work. Returns the
/// centroids, the iterations run, and how many splits were parsed (one
/// per input, however many iterations ran).
pub fn train_iterative(params: &KMeans, inputs: &[Bytes]) -> Result<(Vec<Vec<f64>>, usize, u64)> {
    let mut parses = 0u64;
    let cache = datampi::iteration::IterationCache::load(inputs, |split| {
        parses += 1;
        let mut reader = dmpi_common::ser::RecordReader::new(split);
        let mut vectors = Vec::new();
        while let Some(rec) = reader.next_record().expect("valid kmeans input") {
            vectors.push(SparseVector::from_bytes(&rec.value).expect("valid sparse vector"));
        }
        vectors
    });
    if cache.len() < params.k {
        return Err(Error::Config("fewer vectors than clusters".into()));
    }
    // Seed from the resident data (strided, like the other paths) — no
    // re-parse needed, the cache holds the deserialized vectors.
    let flat: Vec<SparseVector> = cache.iter().cloned().collect();
    let mut centroids = initial_centroids(&flat, params.k, params.dims);

    let config = datampi::JobConfig::new(4);
    for iter in 0..params.max_iters {
        let cents = centroids.clone();
        let dims = params.dims;
        let output = datampi::iteration::run_iteration(
            &config,
            &cache,
            move |_task, vectors: &[SparseVector], out: &mut dyn Collector| {
                let mut sums: Vec<Vec<f64>> = vec![vec![0.0; dims]; cents.len()];
                let mut counts = vec![0u64; cents.len()];
                for v in vectors {
                    let c = nearest(v, &cents);
                    v.add_into(&mut sums[c]);
                    counts[c] += 1;
                }
                for (c, (count, sum)) in counts.iter().zip(&sums).enumerate() {
                    if *count > 0 {
                        out.collect(&(c as u64).to_bytes(), &encode_partial(*count, sum));
                    }
                }
            },
            update_reduce,
            None,
        )?
        .into_single_batch();
        let mut next = decode_centroids(output, params.k, params.dims)?;
        for (c, centroid) in next.iter_mut().enumerate() {
            if centroid.iter().all(|&x| x == 0.0) {
                centroid.clone_from(&centroids[c]);
            }
        }
        let shift = max_shift_sq(&centroids, &next);
        centroids = next;
        if shift < params.tol {
            return Ok((centroids, iter + 1, parses));
        }
    }
    Ok((centroids, params.max_iters, parses))
}

/// Trains on the RDD engine with a cached dataset — Spark's headline
/// pattern (load once, iterate in memory).
pub fn train_spark(
    params: &KMeans,
    ctx: &dmpi_rddsim::SparkContext,
    vectors: &[SparseVector],
) -> Result<(Vec<Vec<f64>>, usize)> {
    if vectors.len() < params.k {
        return Err(Error::Config("fewer vectors than clusters".into()));
    }
    let partitions: Vec<RecordBatch> = vectors
        .chunks(vectors.len().div_ceil(4).max(1))
        .map(|vs| {
            vs.iter()
                .enumerate()
                .map(|(i, v)| Record::new((i as u64).to_bytes(), v.to_bytes()))
                .collect()
        })
        .collect();
    let cached = ctx.parallelize(partitions).cache();

    let mut centroids = initial_centroids(vectors, params.k, params.dims);

    for iter in 0..params.max_iters {
        let cents = centroids.clone();
        let dims = params.dims;
        let assigned = cached
            .flat_map(move |rec, out| {
                let v = SparseVector::from_bytes(&rec.value).expect("valid vector");
                let c = nearest(&v, &cents);
                let mut dense = vec![0.0; dims];
                v.add_into(&mut dense);
                out.collect(&(c as u64).to_bytes(), &encode_partial(1, &dense));
            })
            .reduce_by_key(params.k, |a, b| {
                let (ca, mut sa) = decode_partial(a).expect("partial");
                let (cb, sb) = decode_partial(b).expect("partial");
                for (x, y) in sa.iter_mut().zip(&sb) {
                    *x += y;
                }
                encode_partial(ca + cb, &sa)
            });
        let mut batch = RecordBatch::new();
        for mut p in assigned.collect()? {
            batch.append(&mut p);
        }
        // reduce_by_key returns sums; normalize here.
        let mut next = vec![vec![0.0; params.dims]; params.k];
        for rec in batch.into_records() {
            let (idx, _) = dmpi_common::varint::read_u64(&rec.key)?;
            let (count, sum) = decode_partial(&rec.value)?;
            let idx = idx as usize;
            if count > 0 && idx < params.k {
                next[idx] = sum.into_iter().map(|x| x / count as f64).collect();
            }
        }
        for (c, centroid) in next.iter_mut().enumerate() {
            if centroid.iter().all(|&x| x == 0.0) {
                centroid.clone_from(&centroids[c]);
            }
        }
        let shift = max_shift_sq(&centroids, &next);
        centroids = next;
        if shift < params.tol {
            return Ok((centroids, iter + 1));
        }
    }
    Ok((centroids, params.max_iters))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accuracy(vectors: &[SparseVector], labels: &[usize], centroids: &[Vec<f64>]) -> f64 {
        // Majority-label purity of the learned clusters.
        let k = centroids.len();
        let mut assign_count = vec![[0usize; 5]; k];
        for (v, &l) in vectors.iter().zip(labels) {
            assign_count[nearest(v, centroids)][l] += 1;
        }
        let correct: usize = assign_count
            .iter()
            .map(|c| *c.iter().max().expect("nonempty"))
            .sum();
        correct as f64 / vectors.len() as f64
    }

    #[test]
    fn datampi_training_converges_and_clusters_well() {
        let params = KMeans::new(5, 256);
        let (vectors, labels) = generate_clustered_vectors(30, 256, 77);
        let inputs = vectors_to_inputs(&vectors, 25);
        let (centroids, iters) = train(&params, TrainEngine::DataMpi, &vectors, &inputs).unwrap();
        assert!(iters <= params.max_iters);
        let acc = accuracy(&vectors, &labels, &centroids);
        assert!(acc > 0.8, "cluster purity {acc}");
    }

    #[test]
    fn engines_learn_identical_centroids() {
        let params = KMeans::new(3, 128);
        let (vectors, _) = generate_clustered_vectors(12, 128, 78);
        let vectors = &vectors[..36];
        let inputs = vectors_to_inputs(vectors, 9);
        let (dm, it_dm) = train(&params, TrainEngine::DataMpi, vectors, &inputs).unwrap();
        let (mr, it_mr) = train(&params, TrainEngine::MapRed, vectors, &inputs).unwrap();
        assert_eq!(it_dm, it_mr);
        for (a, b) in dm.iter().zip(&mr) {
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-9, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn spark_training_matches_mapreduce_engines() {
        let params = KMeans::new(3, 128);
        let (vectors, _) = generate_clustered_vectors(12, 128, 79);
        let vectors = &vectors[..36];
        let inputs = vectors_to_inputs(vectors, 9);
        let (dm, _) = train(&params, TrainEngine::DataMpi, vectors, &inputs).unwrap();
        let ctx = dmpi_rddsim::SparkContext::new(dmpi_rddsim::SparkConfig::new(4)).unwrap();
        let (sp, _) = train_spark(&params, &ctx, vectors).unwrap();
        for (a, b) in dm.iter().zip(&sp) {
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-6, "{x} vs {y}");
            }
        }
        // The cache was exercised.
        assert!(
            ctx.stats()
                .cache_hits
                .load(std::sync::atomic::Ordering::SeqCst)
                > 0
        );
    }

    #[test]
    fn too_few_vectors_is_an_error() {
        let params = KMeans::new(10, 16);
        let (vectors, _) = generate_clustered_vectors(1, 16, 80);
        let v = &vectors[..3];
        let inputs = vectors_to_inputs(v, 3);
        assert!(train(&params, TrainEngine::DataMpi, v, &inputs).is_err());
    }

    #[test]
    fn iteration_mode_matches_byte_mode_training() {
        let params = KMeans::new(3, 128);
        let (vectors, _) = generate_clustered_vectors(12, 128, 81);
        let vectors = &vectors[..36];
        let inputs = vectors_to_inputs(vectors, 9);
        let (byte_mode, it_a) = train(&params, TrainEngine::DataMpi, vectors, &inputs).unwrap();
        let (iter_mode, it_b, parses) = train_iterative(&params, &inputs).unwrap();
        assert_eq!(it_a, it_b, "same convergence trajectory");
        assert_eq!(parses, inputs.len() as u64, "each split parsed once");
        for (a, b) in byte_mode.iter().zip(&iter_mode) {
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn partial_encoding_round_trips() {
        let p = encode_partial(7, &[1.0, -2.5, 0.0]);
        let (c, s) = decode_partial(&p).unwrap();
        assert_eq!(c, 7);
        assert_eq!(s, vec![1.0, -2.5, 0.0]);
    }
}
