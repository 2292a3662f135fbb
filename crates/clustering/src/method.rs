//! Unified facade over the 14 baseline methods of the Benchmark frame.
//!
//! Each [`MethodKind`] knows how to prepare a [`tscore::Dataset`] (resample
//! to equal length, z-score, project, …) and produce a flat partition, so
//! the benchmark harness can iterate over `MethodKind::all_baselines()`
//! uniformly. k-Graph itself lives in the `kgraph` crate and is added by
//! the harness on top.

use crate::agglo::{Agglomerative, Linkage};
use crate::birch::Birch;
use crate::dbscan::{assign_noise_to_nearest, Dbscan};
use crate::features::{FeatTsLike, Time2FeatLike};
use crate::gmm::Gmm;
use crate::kdba::Kdba;
use crate::kmeans::KMeans;
use crate::ksc::Ksc;
use crate::kshape::KShape;
use crate::meanshift::MeanShift;
use crate::neural::{DenseAe, DtcLike};
use crate::spectral::{rbf_affinity, spectral_clustering, SpectralOptions};
use linalg::matrix::Matrix;
use linalg::pca::Pca;
use tscore::kernel::sq_dist;
use tscore::Dataset;

/// The baseline methods of the Benchmark frame (paper: "14 baselines").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MethodKind {
    /// k-Means on raw values (k-AVG in the benchmark literature).
    KMeansRaw,
    /// k-Means on z-normalised values.
    KMeansZnorm,
    /// k-Shape.
    KShape,
    /// k-Spectral-Centroid.
    Ksc,
    /// k-Means under DTW with DBA averaging.
    Kdba,
    /// Spectral clustering with an RBF affinity on raw values.
    SpectralRbf,
    /// Agglomerative clustering, Ward linkage.
    AggloWard,
    /// Agglomerative clustering, complete linkage.
    AggloComplete,
    /// DBSCAN (eps from the distance distribution; noise reassigned).
    Dbscan,
    /// Gaussian mixture (EM) on a PCA projection.
    Gmm,
    /// BIRCH CF-tree + Ward global phase.
    Birch,
    /// Mean-shift on a PCA projection.
    MeanShift,
    /// FeatTS-like feature pipeline.
    FeatTs,
    /// Time2Feat-like feature pipeline.
    Time2Feat,
    /// Dense auto-encoder + k-Means on latent codes (DAE).
    DenseAe,
    /// Auto-encoder + DEC-style refinement (DTC).
    DtcLike,
}

impl MethodKind {
    /// The 14 baselines shown in the Benchmark frame, plus two k-Means
    /// variants folded into one slot each per the paper's grouping.
    pub fn all_baselines() -> Vec<MethodKind> {
        vec![
            MethodKind::KMeansRaw,
            MethodKind::KMeansZnorm,
            MethodKind::KShape,
            MethodKind::Ksc,
            MethodKind::Kdba,
            MethodKind::SpectralRbf,
            MethodKind::AggloWard,
            MethodKind::AggloComplete,
            MethodKind::Dbscan,
            MethodKind::Gmm,
            MethodKind::Birch,
            MethodKind::MeanShift,
            MethodKind::FeatTs,
            MethodKind::Time2Feat,
            MethodKind::DenseAe,
            MethodKind::DtcLike,
        ]
    }

    /// Stable display name (used in tables, CSV and plots).
    pub fn name(&self) -> &'static str {
        match self {
            MethodKind::KMeansRaw => "k-Means",
            MethodKind::KMeansZnorm => "k-Means-z",
            MethodKind::KShape => "k-Shape",
            MethodKind::Ksc => "k-SC",
            MethodKind::Kdba => "k-DBA",
            MethodKind::SpectralRbf => "Spectral",
            MethodKind::AggloWard => "Agglo-Ward",
            MethodKind::AggloComplete => "Agglo-Compl",
            MethodKind::Dbscan => "DBSCAN",
            MethodKind::Gmm => "GMM",
            MethodKind::Birch => "BIRCH",
            MethodKind::MeanShift => "MeanShift",
            MethodKind::FeatTs => "FeatTS",
            MethodKind::Time2Feat => "Time2Feat",
            MethodKind::DenseAe => "DAE",
            MethodKind::DtcLike => "DTC",
        }
    }
}

/// A configured clustering method ready to run on datasets.
#[derive(Debug, Clone, Copy)]
pub struct ClusteringMethod {
    /// Which algorithm.
    pub kind: MethodKind,
    /// Number of clusters (ignored by DBSCAN/MeanShift which infer it, but
    /// used by their post-processing fallbacks).
    pub k: usize,
    /// RNG seed threaded into every stochastic component.
    pub seed: u64,
}

impl ClusteringMethod {
    /// Creates a configured method.
    pub fn new(kind: MethodKind, k: usize, seed: u64) -> Self {
        ClusteringMethod { kind, k, seed }
    }

    /// Runs the method on a dataset and returns a full partition
    /// (one label per series, labels in `0..k'`).
    ///
    /// Variable-length datasets are resampled to the minimum length first.
    pub fn run(&self, dataset: &Dataset) -> Vec<usize> {
        assert!(self.k > 0, "k must be > 0");
        assert!(!dataset.is_empty(), "cannot cluster an empty dataset");
        let ds;
        let dataset = if dataset.is_equal_length() {
            dataset
        } else {
            ds = dataset
                .resampled(dataset.min_len().max(2))
                .expect("resampling cannot fail for non-empty series");
            &ds
        };
        let raw = dataset.to_rows();
        let z = dataset.znormed_rows();
        match self.kind {
            MethodKind::KMeansRaw => KMeans::new(self.k, self.seed).fit(&raw).labels,
            MethodKind::KMeansZnorm => KMeans::new(self.k, self.seed).fit(&z).labels,
            MethodKind::KShape => KShape::new(self.k, self.seed).fit(&z).labels,
            MethodKind::Ksc => Ksc::new(self.k, self.seed).fit(&z).labels,
            MethodKind::Kdba => Kdba::new(self.k, self.seed).fit(&z).labels,
            MethodKind::SpectralRbf => {
                let aff = rbf_affinity(&z, None);
                spectral_clustering(&aff, SpectralOptions::new(self.k, self.seed))
            }
            MethodKind::AggloWard => Agglomerative::new(self.k, Linkage::Ward).fit(&z),
            MethodKind::AggloComplete => Agglomerative::new(self.k, Linkage::Complete).fit(&z),
            MethodKind::Dbscan => {
                let eps = dbscan_eps(&z);
                let labels = Dbscan::new(eps, 3).fit(&z);
                assign_noise_to_nearest(&z, &labels)
            }
            MethodKind::Gmm => {
                let proj = pca_project(&z, 8);
                Gmm::new(self.k, self.seed).fit(&proj).labels
            }
            MethodKind::Birch => {
                let proj = pca_project(&z, 8);
                Birch {
                    threshold: birch_threshold(&proj),
                    ..Birch::new(self.k, self.seed)
                }
                .fit(&proj)
            }
            MethodKind::MeanShift => {
                let proj = pca_project(&z, 4);
                MeanShift::default().fit(&proj).0
            }
            MethodKind::FeatTs => FeatTsLike::new(self.k, self.seed).fit(&raw),
            MethodKind::Time2Feat => Time2FeatLike::new(self.k, self.seed).fit(&raw),
            MethodKind::DenseAe => DenseAe {
                epochs: 80,
                ..DenseAe::new(8, self.seed)
            }
            .fit_cluster(&raw, self.k),
            MethodKind::DtcLike => {
                let mut cfg = DtcLike::new(self.k, 8, self.seed);
                cfg.ae.epochs = 80;
                cfg.fit(&raw)
            }
        }
    }
}

/// PCA projection helper: rows → `dims` columns (capped by data rank).
fn pca_project(rows: &[Vec<f64>], dims: usize) -> Vec<Vec<f64>> {
    let m = Matrix::from_rows(rows);
    let (_, proj) = Pca::fit_transform(&m, dims.min(m.cols()).max(1));
    proj.to_rows()
}

/// eps heuristic: 25 % quantile of pairwise distances (excluding zeros).
fn dbscan_eps(rows: &[Vec<f64>]) -> f64 {
    let n = rows.len();
    let mut dists = Vec::with_capacity(n * (n - 1) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            let d = sq_dist(&rows[i], &rows[j]).sqrt();
            if d > 1e-12 {
                dists.push(d);
            }
        }
    }
    if dists.is_empty() {
        return 1.0;
    }
    dists.sort_by(f64::total_cmp);
    dists[dists.len() / 4].max(1e-6)
}

/// BIRCH threshold heuristic: 10 % of the data's RMS radius.
fn birch_threshold(rows: &[Vec<f64>]) -> f64 {
    let n = rows.len();
    if n == 0 {
        return 0.5;
    }
    let d = rows[0].len();
    let mut mean = vec![0.0; d];
    for r in rows {
        for (m, v) in mean.iter_mut().zip(r) {
            *m += v;
        }
    }
    for m in &mut mean {
        *m /= n as f64;
    }
    let rms = (rows.iter().map(|r| sq_dist(r, &mean)).sum::<f64>() / n as f64).sqrt();
    (rms * 0.1).max(1e-6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::adjusted_rand_index;
    use tscore::{DatasetKind, TimeSeries};

    /// Easy two-class dataset: sines vs. square waves, slight phase jitter.
    fn easy_dataset() -> Dataset {
        let m = 48;
        let mut series = Vec::new();
        let mut labels = Vec::new();
        for v in 0..8 {
            let phase = v as f64 * 0.05;
            series.push(TimeSeries::new(
                (0..m)
                    .map(|i| (i as f64 * 0.4 + phase).sin() * 2.0)
                    .collect(),
            ));
            labels.push(0);
            series.push(TimeSeries::new(
                (0..m)
                    .map(|i| if (i / 6) % 2 == 0 { 1.5 + phase } else { -1.5 })
                    .collect(),
            ));
            labels.push(1);
        }
        Dataset::with_labels("easy", DatasetKind::Simulated, series, labels).unwrap()
    }

    #[test]
    fn all_baselines_produce_full_partitions() {
        let ds = easy_dataset();
        for kind in MethodKind::all_baselines() {
            let labels = ClusteringMethod::new(kind, 2, 0).run(&ds);
            assert_eq!(labels.len(), ds.len(), "{kind:?} label count");
            assert!(
                labels.iter().all(|&l| l < ds.len()),
                "{kind:?} produced out-of-range label"
            );
        }
    }

    #[test]
    fn strong_methods_solve_the_easy_case() {
        let ds = easy_dataset();
        let truth = ds.labels().unwrap().to_vec();
        for kind in [
            MethodKind::KMeansZnorm,
            MethodKind::KShape,
            MethodKind::SpectralRbf,
            MethodKind::AggloWard,
        ] {
            let labels = ClusteringMethod::new(kind, 2, 0).run(&ds);
            let ari = adjusted_rand_index(&truth, &labels);
            assert!(ari > 0.8, "{kind:?} ARI {ari}");
        }
    }

    #[test]
    fn variable_length_datasets_are_resampled() {
        let series = vec![
            TimeSeries::new((0..40).map(|i| (i as f64 * 0.5).sin()).collect()),
            TimeSeries::new((0..60).map(|i| (i as f64 * 0.5).sin()).collect()),
            TimeSeries::new((0..40).map(|i| if i < 20 { 1.0 } else { -1.0 }).collect()),
            TimeSeries::new((0..50).map(|i| if i < 25 { 1.0 } else { -1.0 }).collect()),
        ];
        let ds = Dataset::with_labels("var", DatasetKind::Other, series, vec![0, 0, 1, 1]).unwrap();
        let labels = ClusteringMethod::new(MethodKind::KMeansZnorm, 2, 0).run(&ds);
        assert_eq!(labels.len(), 4);
    }

    #[test]
    fn method_names_unique() {
        let names: std::collections::HashSet<_> = MethodKind::all_baselines()
            .iter()
            .map(|m| m.name())
            .collect();
        assert_eq!(names.len(), MethodKind::all_baselines().len());
    }

    #[test]
    fn deterministic_across_runs() {
        let ds = easy_dataset();
        for kind in [MethodKind::KMeansRaw, MethodKind::Gmm, MethodKind::FeatTs] {
            let a = ClusteringMethod::new(kind, 2, 7).run(&ds);
            let b = ClusteringMethod::new(kind, 2, 7).run(&ds);
            assert_eq!(a, b, "{kind:?} not deterministic");
        }
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_panics() {
        let ds = Dataset::new("e", DatasetKind::Other, vec![]);
        ClusteringMethod::new(MethodKind::KMeansRaw, 2, 0).run(&ds);
    }

    #[test]
    fn baseline_count_matches_paper() {
        // Paper: "k-Graph against 14 baselines" — we expose 16 configured
        // variants covering those 14 families (two k-Means and two agglo
        // variants share families).
        assert!(MethodKind::all_baselines().len() >= 14);
    }
}
