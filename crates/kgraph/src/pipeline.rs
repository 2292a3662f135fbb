//! The end-to-end k-Graph pipeline (paper Figure 1).
//!
//! [`KGraph::fit`] produces a [`KGraphModel`]: one immutable model
//! version. Serving reads that depend on the model alone — the selected
//! layer's crossing statistics ([`KGraphModel::best_stats`]), the
//! per-cluster mean histograms behind [`KGraphModel::predict`], the auto
//! (λ, γ) thresholds and the node layouts — are derived once per version
//! and cached inside it (see [`crate::serving`]). Every model, whether
//! fitted, loaded or compacted, is assembled by [`KGraphModel::new`] and
//! so starts with an empty cache; a changed model is a new model.

use crate::build::GraphLayer;
use crate::config::KGraphConfig;
use crate::consensus::{consensus_labels_from_partitions, consensus_matrix};
use crate::embed::project_subsequences;
use crate::features::cluster_layer;
use crate::graphoid::{gamma_graphoid, lambda_graphoid, Graphoid};
use crate::interpret::{score_lengths, LengthScore};
use crate::nodes::radial_scan;
use crate::serving::ServingCache;
use linalg::matrix::Matrix;
use tscore::par::par_map;
use tscore::Dataset;

/// The k-Graph estimator. Construct with a [`KGraphConfig`], call
/// [`KGraph::fit`].
#[derive(Debug, Clone)]
pub struct KGraph {
    /// Pipeline configuration.
    pub config: KGraphConfig,
}

/// A fitted k-Graph model: the final partition plus every intermediate
/// artefact the Graphint frames visualise.
///
/// The fields are public for reading. Serving state derived from them is
/// cached on first use, so build a new model with [`KGraphModel::new`]
/// rather than editing the fields of one that has already been served.
#[derive(Debug)]
pub struct KGraphModel {
    /// The configuration used.
    pub config: KGraphConfig,
    /// One graph layer per subsequence length, ascending by length; each
    /// holds `G_ℓ`, the node paths and the per-length partition `L_ℓ`.
    /// The consensus matrix `MC` is not stored: it is a function of these
    /// partitions, rebuilt on demand by [`KGraphModel::consensus`].
    pub layers: Vec<GraphLayer>,
    /// Final labels `L`.
    pub labels: Vec<usize>,
    /// Per-length `(Wc, We)` scores.
    pub scores: Vec<LengthScore>,
    /// Index (into [`Self::layers`]) of the selected length ℓ̄.
    pub best_layer: usize,
    /// Serving state derived from the fields above, filled on first use.
    pub(crate) serving: ServingCache,
}

impl KGraph {
    /// Creates an estimator with the given configuration.
    pub fn new(config: KGraphConfig) -> Self {
        KGraph { config }
    }

    /// Convenience: canonical configuration for `k` clusters.
    pub fn with_k(k: usize, seed: u64) -> Self {
        KGraph {
            config: KGraphConfig::new(k).with_seed(seed),
        }
    }

    /// Runs the full pipeline on a dataset.
    ///
    /// Panics when the dataset is empty or no valid subsequence length
    /// exists (series shorter than 5 points).
    pub fn fit(&self, dataset: &Dataset) -> KGraphModel {
        assert!(!dataset.is_empty(), "cannot fit on an empty dataset");
        let cfg = &self.config;
        let lengths = cfg.resolve_lengths(dataset.min_len());
        assert!(
            !lengths.is_empty(),
            "no valid subsequence lengths for min series length {}",
            dataset.min_len()
        );

        // Stages 1–2, one job per length (Figure 1's Job 0 … Job M). The
        // jobs cost about the same: embedding grows with the length while
        // the radial scan and k-Means shrink (198–252 ms each on 1,002
        // series × 256). So `par_map`'s contiguous chunks finish no later
        // than jobs claimed one at a time would.
        let mut layers = par_map(&lengths, |&length| fit_layer(dataset, cfg, length));

        // Stage 3: consensus across the per-length partitions.
        let partitions: Vec<Vec<usize>> = layers.iter().map(|l| l.labels.clone()).collect();
        let labels = consensus_labels_from_partitions(&partitions, cfg.k, cfg.seed);

        // Stage 4: score lengths and select ℓ̄.
        let (scores, best_layer) = score_lengths(&layers, &labels, cfg.k);

        // Keep layers sorted by length for stable reporting.
        debug_assert!(layers.windows(2).all(|w| w[0].length <= w[1].length));
        layers.shrink_to_fit();
        KGraphModel::new(cfg.clone(), layers, labels, scores, best_layer)
    }
}

/// One per-length job: embed → nodes → graph → features → k-Means.
fn fit_layer(dataset: &Dataset, cfg: &KGraphConfig, length: usize) -> GraphLayer {
    let proj = project_subsequences(dataset, length, cfg.stride, cfg.pca_sample);
    let assign = radial_scan(&proj, cfg.psi, cfg.kde_grid, cfg.min_density_ratio);
    let mut layer = crate::build::build_graph_with_stride(dataset, &proj, &assign, cfg.stride);
    layer.labels = cluster_layer(
        &layer,
        cfg.k,
        cfg.n_init,
        cfg.seed_for_length(length),
        cfg.node_features,
        cfg.edge_features,
    );
    layer
}

impl KGraphModel {
    /// Assembles a model version from its parts, with an empty serving
    /// cache. Every model — fitted, loaded or compacted — is built here.
    pub fn new(
        config: KGraphConfig,
        layers: Vec<GraphLayer>,
        labels: Vec<usize>,
        scores: Vec<LengthScore>,
        best_layer: usize,
    ) -> KGraphModel {
        KGraphModel {
            config,
            layers,
            labels,
            scores,
            best_layer,
            serving: ServingCache::default(),
        }
    }

    /// The consensus matrix `MC` (paper §II-A), rebuilt from the layers'
    /// partitions: `MC[i][j]` is the share of layers that put series `i`
    /// and `j` together. Each call costs `O(M · n²)` time and `8 n²` bytes;
    /// the fit itself never builds it (see [`crate::consensus`]).
    pub fn consensus(&self) -> Matrix {
        let partitions: Vec<Vec<usize>> = self.layers.iter().map(|l| l.labels.clone()).collect();
        consensus_matrix(&partitions)
    }

    /// The selected ("most interpretable") layer `G_ℓ̄`.
    pub fn best(&self) -> &GraphLayer {
        &self.layers[self.best_layer]
    }

    /// The selected subsequence length ℓ̄.
    pub fn best_length(&self) -> usize {
        self.best().length
    }

    /// Number of clusters of the final partition.
    pub fn k(&self) -> usize {
        self.config.k
    }

    /// λ-graphoid of `cluster` on the selected layer.
    pub fn lambda_graphoid(&self, cluster: usize, lambda: f64) -> Graphoid {
        lambda_graphoid(self.best_stats(), self.best(), cluster, lambda)
    }

    /// γ-graphoid of `cluster` on the selected layer.
    pub fn gamma_graphoid(&self, cluster: usize, gamma: f64) -> Graphoid {
        gamma_graphoid(self.best_stats(), self.best(), cluster, gamma)
    }

    /// γ-graphoids for every cluster at once (shares one stats pass).
    pub fn all_gamma_graphoids(&self, gamma: f64) -> Vec<Graphoid> {
        let stats = self.best_stats();
        (0..self.config.k)
            .map(|c| gamma_graphoid(stats, self.best(), c, gamma))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consensus::consensus_labels;
    use clustering::metrics::adjusted_rand_index;
    use tscore::{DatasetKind, TimeSeries};

    /// Two clearly distinct subsequence vocabularies.
    fn toy_dataset() -> Dataset {
        let mut series = Vec::new();
        let mut labels = Vec::new();
        for (label, f) in [0.2f64, 0.9].into_iter().enumerate() {
            for p in 0..6 {
                series.push(TimeSeries::new(
                    (0..80).map(|i| ((i + p) as f64 * f).sin()).collect(),
                ));
                labels.push(label);
            }
        }
        Dataset::with_labels("toy", DatasetKind::Simulated, series, labels).unwrap()
    }

    fn quick_config(k: usize) -> KGraphConfig {
        KGraphConfig {
            n_lengths: 3,
            psi: 12,
            pca_sample: 500,
            n_init: 3,
            ..KGraphConfig::new(k)
        }
    }

    #[test]
    fn end_to_end_recovers_clusters() {
        let ds = toy_dataset();
        let model = KGraph::new(quick_config(2)).fit(&ds);
        let ari = adjusted_rand_index(ds.labels().unwrap(), &model.labels);
        assert!(ari > 0.8, "ARI {ari}");
    }

    #[test]
    fn model_artifacts_consistent() {
        let ds = toy_dataset();
        let model = KGraph::new(quick_config(2)).fit(&ds);
        assert_eq!(model.labels.len(), ds.len());
        let mc = model.consensus();
        assert_eq!(mc.shape(), (ds.len(), ds.len()));
        assert!(mc.is_symmetric(1e-12));
        assert_eq!(model.scores.len(), model.layers.len());
        assert!(model.best_layer < model.layers.len());
        assert_eq!(model.best_length(), model.layers[model.best_layer].length);
        assert_eq!(model.k(), 2);
        for layer in &model.layers {
            assert_eq!(layer.labels.len(), ds.len());
            assert_eq!(layer.paths.len(), ds.len());
            assert!(layer.graph.node_count() > 0);
        }
    }

    #[test]
    fn fit_matches_a_staged_serial_oracle() {
        // `fit` runs the per-length jobs through `par_map`; the same stages
        // called one after another on this thread must reproduce its
        // per-layer partitions, consensus and selected length.
        let ds = toy_dataset();
        let cfg = quick_config(2);
        let model = KGraph::new(cfg.clone()).fit(&ds);
        let lengths = cfg.resolve_lengths(ds.min_len());
        assert!(lengths.len() > 1, "the oracle must span several jobs");
        let layers: Vec<GraphLayer> = lengths
            .iter()
            .map(|&length| {
                let proj = project_subsequences(&ds, length, cfg.stride, cfg.pca_sample);
                let assign = radial_scan(&proj, cfg.psi, cfg.kde_grid, cfg.min_density_ratio);
                let mut layer =
                    crate::build::build_graph_with_stride(&ds, &proj, &assign, cfg.stride);
                layer.labels = cluster_layer(
                    &layer,
                    cfg.k,
                    cfg.n_init,
                    cfg.seed_for_length(length),
                    cfg.node_features,
                    cfg.edge_features,
                );
                layer
            })
            .collect();
        let partitions: Vec<Vec<usize>> = layers.iter().map(|l| l.labels.clone()).collect();
        let labels = consensus_labels(&consensus_matrix(&partitions), cfg.k, cfg.seed);
        let (_, best_layer) = score_lengths(&layers, &labels, cfg.k);

        assert_eq!(model.layers.len(), layers.len());
        for (fitted, oracle) in model.layers.iter().zip(&layers) {
            assert_eq!(fitted.length, oracle.length);
            assert_eq!(fitted.labels, oracle.labels);
            assert_eq!(fitted.paths, oracle.paths);
        }
        assert_eq!(model.labels, labels);
        assert_eq!(model.best_layer, best_layer);
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = toy_dataset();
        let a = KGraph::new(quick_config(2).with_seed(5)).fit(&ds);
        let b = KGraph::new(quick_config(2).with_seed(5)).fit(&ds);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.best_layer, b.best_layer);
    }

    #[test]
    fn graphoids_from_model() {
        let ds = toy_dataset();
        let model = KGraph::new(quick_config(2)).fit(&ds);
        let g0 = model.gamma_graphoid(0, 0.7);
        let g1 = model.gamma_graphoid(1, 0.7);
        assert!(!g0.nodes.is_empty(), "cluster 0 needs exclusive nodes");
        assert!(!g1.nodes.is_empty(), "cluster 1 needs exclusive nodes");
        // Exclusive node sets must be disjoint above 0.5.
        let set0: std::collections::HashSet<_> = g0.nodes.iter().collect();
        assert!(g1.nodes.iter().all(|n| !set0.contains(n)));
        let all = model.all_gamma_graphoids(0.7);
        assert_eq!(all.len(), 2);
        let lam = model.lambda_graphoid(0, 0.5);
        assert!(!lam.nodes.is_empty());
    }

    #[test]
    fn scores_have_valid_ranges() {
        let ds = toy_dataset();
        let model = KGraph::new(quick_config(2)).fit(&ds);
        for s in &model.scores {
            assert!((0.0..=1.0).contains(&s.wc), "Wc {s:?}");
            assert!((0.0..=1.0).contains(&s.we), "We {s:?}");
        }
        // Best layer attains the max product.
        let best = model.scores[model.best_layer].product();
        assert!(model.scores.iter().all(|s| best >= s.product() - 1e-12));
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_panics() {
        let ds = Dataset::new("e", DatasetKind::Other, vec![]);
        KGraph::with_k(2, 0).fit(&ds);
    }

    #[test]
    fn single_length_configuration() {
        let ds = toy_dataset();
        let cfg = quick_config(2).with_lengths(vec![16]);
        let model = KGraph::new(cfg).fit(&ds);
        assert_eq!(model.layers.len(), 1);
        assert_eq!(model.best_layer, 0);
    }

    #[test]
    fn assign_path_reproduces_training_paths() {
        let ds = toy_dataset();
        let model = KGraph::new(quick_config(2)).fit(&ds);
        let layer = model.best();
        // Routing a *training* series through the stored embedding must
        // reproduce the path computed at fit time exactly.
        for (i, series) in ds.series().iter().enumerate().take(4) {
            let path = layer.assign_path(series.values()).expect("long enough");
            assert_eq!(path, layer.paths[i], "series {i} path mismatch");
        }
    }

    #[test]
    fn predict_matches_fit_labels_in_sample() {
        let ds = toy_dataset();
        let model = KGraph::new(quick_config(2)).fit(&ds);
        let predicted: Vec<usize> = ds
            .series()
            .iter()
            .map(|s| model.predict(s.values()).expect("long enough"))
            .collect();
        let agreement = adjusted_rand_index(&model.labels, &predicted);
        assert!(agreement > 0.8, "in-sample predict ARI {agreement}");
    }

    #[test]
    fn predict_generalises_to_new_series() {
        let ds = toy_dataset();
        let model = KGraph::new(quick_config(2)).fit(&ds);
        // Unseen phase shifts of the same two generators.
        for (label_gen, f) in [0.2f64, 0.9].into_iter().enumerate() {
            let fresh: Vec<f64> = (0..80).map(|i| ((i + 17) as f64 * f).sin()).collect();
            let pred = model.predict(&fresh).expect("long enough");
            // Find the model's cluster for this generator from a training
            // member and compare.
            let train_idx = label_gen * 6; // 6 per class in toy_dataset
            assert_eq!(
                pred, model.labels[train_idx],
                "generator {label_gen} predicted into the wrong cluster"
            );
        }
    }

    #[test]
    fn predict_short_series_is_none() {
        let ds = toy_dataset();
        let model = KGraph::new(quick_config(2)).fit(&ds);
        let tiny = vec![0.0; model.best_length() - 1];
        assert_eq!(model.predict(&tiny), None);
    }
}
