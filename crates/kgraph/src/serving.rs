//! Per-version serving state of a fitted model.
//!
//! A [`KGraphModel`] never changes once it is built: streaming compaction
//! publishes a *new* model rather than editing the old one. Everything a
//! serving request derives from the model alone — the crossing statistics
//! of the selected layer, the per-cluster mean path histograms `predict`
//! compares against, the auto (λ, γ) thresholds of the Graph frame and the
//! node layouts — is therefore computed at most once per model version and
//! kept in a [`ServingCache`] inside the model.
//!
//! Every slot fills lazily on its first read (`OnceLock`: concurrent first
//! readers wait for one computation), so publishing a model costs nothing
//! extra and a model nobody renders never pays for a layout. The cached
//! values are computed by exactly the code that used to run per request,
//! so answers are bit-identical to the uncached ones.

use crate::build::GraphLayer;
use crate::graphoid::{auto_thresholds, ClusterStats};
use crate::pipeline::KGraphModel;
use std::sync::OnceLock;
use tscore::kernel::sq_dist;
use tsgraph::layout::{layout_graph, BarnesHutOptions, Layout, LayoutEngine};

/// Grid resolution of the cached [`auto_thresholds`] search.
const AUTO_THRESHOLD_GRID: usize = 20;

/// Lazily filled serving state of one model version. Empty at
/// construction; see the module docs.
#[derive(Debug, Default)]
pub struct ServingCache {
    stats: OnceLock<ClusterStats>,
    centroids: OnceLock<Centroids>,
    thresholds: OnceLock<(f64, f64)>,
    /// One slot per concrete engine: circular, exact, Barnes–Hut.
    layouts: [OnceLock<Layout>; 3],
}

/// Per-cluster mean length-normalised path histograms of the training
/// series on the selected layer, with the cluster sizes.
#[derive(Debug)]
struct Centroids {
    means: Vec<Vec<f64>>,
    sizes: Vec<usize>,
}

/// Length-normalised node-crossing histogram of a path.
fn path_histogram(path: &[tsgraph::NodeId], n_nodes: usize) -> Vec<f64> {
    let mut h = vec![0.0f64; n_nodes];
    for node in path {
        h[node.index()] += 1.0;
    }
    let total = path.len().max(1) as f64;
    for v in h.iter_mut() {
        *v /= total;
    }
    h
}

impl Centroids {
    fn compute(layer: &GraphLayer, labels: &[usize], k: usize) -> Centroids {
        let n_nodes = layer.graph.node_count();
        let mut means = vec![vec![0.0f64; n_nodes]; k];
        let mut sizes = vec![0usize; k];
        for (train_path, &label) in layer.paths.iter().zip(labels) {
            sizes[label] += 1;
            let h = path_histogram(train_path, n_nodes);
            for (c, v) in means[label].iter_mut().zip(&h) {
                *c += v;
            }
        }
        for (c, &s) in means.iter_mut().zip(&sizes) {
            if s > 0 {
                for v in c.iter_mut() {
                    *v /= s as f64;
                }
            }
        }
        Centroids { means, sizes }
    }
}

impl KGraphModel {
    /// Crossing statistics of the selected layer under the final labels,
    /// computed once per model.
    pub fn best_stats(&self) -> &ClusterStats {
        self.serving
            .stats
            .get_or_init(|| ClusterStats::compute(self.best(), &self.labels, self.config.k))
    }

    /// The Graph frame's automatic `(λ, γ)` thresholds
    /// ([`auto_thresholds`] over [`Self::best_stats`]), computed once per
    /// model.
    pub fn auto_thresholds(&self) -> (f64, f64) {
        *self
            .serving
            .thresholds
            .get_or_init(|| auto_thresholds(self.best_stats(), self.best(), AUTO_THRESHOLD_GRID))
    }

    /// Node positions of the selected graph under `engine` with the
    /// default options (seed 42, θ 0.8), computed once per model and
    /// engine. `Auto` resolves by node count first, so it shares the slot
    /// of the engine it resolves to.
    pub fn layout(&self, engine: LayoutEngine) -> &[(f64, f64)] {
        let graph = &self.best().graph;
        let engine = engine.resolve(graph.node_count());
        let slot = match engine {
            LayoutEngine::Circular => 0,
            LayoutEngine::Exact => 1,
            LayoutEngine::BarnesHut => 2,
            LayoutEngine::Auto => unreachable!("resolve() never returns Auto"),
        };
        self.serving.layouts[slot]
            .get_or_init(|| layout_graph(graph, engine, BarnesHutOptions::default()))
    }

    /// Predicts the cluster of a **new** series (out-of-sample).
    ///
    /// The series is routed through the selected graph `G_ℓ̄` using the
    /// stored embedding and turned into its length-normalised
    /// node-crossing histogram; the nearest per-cluster mean histogram of
    /// the training series (under the final labels, cached per model)
    /// wins, ties to the lowest cluster id.
    ///
    /// Returns `None` when the series is shorter than the selected
    /// subsequence length.
    pub fn predict(&self, values: &[f64]) -> Option<usize> {
        let layer = self.best();
        let path = layer.assign_path(values)?;
        let query = path_histogram(&path, layer.graph.node_count());
        let centroids = self
            .serving
            .centroids
            .get_or_init(|| Centroids::compute(layer, &self.labels, self.config.k));
        (0..self.config.k)
            .filter(|&c| centroids.sizes[c] > 0)
            .map(|c| (c, sq_dist(&centroids.means[c], &query)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(c, _)| c)
            .or(Some(0))
    }
}
