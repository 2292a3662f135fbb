//! Stage 2 — per-length feature matrices and graph clustering.
//!
//! "For each time series, two types of features are generated: node-based
//! and edge-based, by counting intersections with nodes and edges in the
//! graph" (paper §II-A). k-Means over the concatenated features yields the
//! per-length partition `L_ℓ`.
//!
//! The features are raw crossing counts, so [`cluster_layer`] clusters them
//! exactly: each path becomes a sparse integer [`CountRow`] and
//! [`KMeans::fit_counts`] runs k-Means in integer arithmetic, with no
//! `n × dim` float matrix. It is exact while `n · T < 2^31`, where `T` is
//! the largest count total of a path, less than twice the path's length.
//! [`feature_row`] and [`feature_matrix`] give the same counts as dense
//! `f64` rows for serving and the frames.

use crate::build::GraphLayer;
use clustering::count_kmeans::CountRow;
use clustering::kmeans::KMeans;
use tsgraph::NodeId;

/// Calls `count` with the feature column of every crossing of `path`:
/// node `i` is column `i`, edge `e` is column `e` after the node block
/// (either block can be disabled for ablations).
pub(crate) fn for_each_crossing(
    layer: &GraphLayer,
    path: &[NodeId],
    node_features: bool,
    edge_features: bool,
    mut count: impl FnMut(usize),
) {
    assert!(
        node_features || edge_features,
        "at least one feature family must be enabled"
    );
    if node_features {
        path.iter().for_each(|node| count(node.index()));
    }
    if edge_features {
        let n_nodes = layer.graph.node_count();
        let offset = if node_features { n_nodes } else { 0 };
        for w in path.windows(2) {
            if w[0] == w[1] {
                continue;
            }
            // O(log deg) binary search over the sorted CSR out-slice.
            if let Some(e) = layer.graph.edge_id(w[0], w[1]) {
                count(offset + e.index());
            }
        }
    }
}

/// Feature vector of one node path through `layer`'s graph:
/// `[count(node 0), …, count(node N−1), count(edge 0), …, count(edge E−1)]`
/// (either block can be disabled for ablations). Counts are raw crossing
/// frequencies, matching the paper's construction. This is the single-row
/// building block shared by [`feature_matrix`] and the serving layer's
/// per-request/batch feature endpoints — one definition keeps their
/// results bit-identical.
pub fn feature_row(
    layer: &GraphLayer,
    path: &[NodeId],
    node_features: bool,
    edge_features: bool,
) -> Vec<f64> {
    let n_nodes = layer.graph.node_count();
    let n_edges = layer.graph.edge_count();
    let dim = if node_features { n_nodes } else { 0 } + if edge_features { n_edges } else { 0 };
    let mut row = vec![0.0f64; dim];
    for_each_crossing(layer, path, node_features, edge_features, |c| row[c] += 1.0);
    row
}

/// Builds the feature matrix of a layer: row `i` is
/// [`feature_row`] of series `i`'s fit-time path.
pub fn feature_matrix(
    layer: &GraphLayer,
    node_features: bool,
    edge_features: bool,
) -> Vec<Vec<f64>> {
    layer
        .paths
        .iter()
        .map(|path| feature_row(layer, path, node_features, edge_features))
        .collect()
}

/// Clusters a layer's crossing counts with k-Means, returning `L_ℓ`.
///
/// Each fit-time path becomes a sparse [`CountRow`] over the columns of
/// [`feature_row`], and [`KMeans::fit_counts`] clusters them in exact
/// integer arithmetic (`max_iter` 100). Its seeding, tie rules and restart
/// choice are those of [`KMeans::fit`] on [`feature_matrix`], so the labels
/// are that fit's, save where a float rounding broke an exact tie there.
/// Exact while the path count times the largest count total of a path is
/// below `2^31`; `fit_counts` panics otherwise.
pub fn cluster_layer(
    layer: &GraphLayer,
    k: usize,
    n_init: usize,
    seed: u64,
    node_features: bool,
    edge_features: bool,
) -> Vec<usize> {
    let rows: Vec<CountRow> = layer
        .paths
        .iter()
        .map(|path| {
            let mut columns = Vec::with_capacity(2 * path.len());
            for_each_crossing(layer, path, node_features, edge_features, |c| {
                columns.push(u32::try_from(c).expect("a layer has under 2^32 nodes and edges"))
            });
            CountRow::tally(columns)
        })
        .collect();
    KMeans {
        k,
        max_iter: 100,
        n_init,
        seed,
    }
    .fit_counts(&rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_graph;
    use crate::embed::project_subsequences;
    use crate::nodes::radial_scan;
    use clustering::metrics::adjusted_rand_index;
    use tscore::{Dataset, DatasetKind, TimeSeries};

    fn toy() -> (Dataset, GraphLayer, Vec<usize>) {
        let mut series = Vec::new();
        let mut truth = Vec::new();
        for (label, f) in [0.2f64, 0.9].into_iter().enumerate() {
            for p in 0..5 {
                series.push(TimeSeries::new(
                    (0..80).map(|i| ((i + p) as f64 * f).sin()).collect(),
                ));
                truth.push(label);
            }
        }
        let ds = Dataset::new("toy", DatasetKind::Simulated, series);
        let proj = project_subsequences(&ds, 16, 1, 2000);
        let assign = radial_scan(&proj, 12, 128, 0.05);
        let layer = build_graph(&ds, &proj, &assign);
        (ds, layer, truth)
    }

    #[test]
    fn feature_matrix_shape() {
        let (ds, layer, _) = toy();
        let f = feature_matrix(&layer, true, true);
        assert_eq!(f.len(), ds.len());
        let dim = layer.graph.node_count() + layer.graph.edge_count();
        assert!(f.iter().all(|r| r.len() == dim));
    }

    #[test]
    fn node_block_sums_to_path_length() {
        let (_, layer, _) = toy();
        let f = feature_matrix(&layer, true, false);
        for (row, path) in f.iter().zip(&layer.paths) {
            let total: f64 = row.iter().sum();
            assert_eq!(total as usize, path.len());
        }
    }

    #[test]
    fn edge_block_sums_to_transitions() {
        let (_, layer, _) = toy();
        let f = feature_matrix(&layer, false, true);
        for (row, path) in f.iter().zip(&layer.paths) {
            let total: f64 = row.iter().sum();
            let changes = path.windows(2).filter(|w| w[0] != w[1]).count();
            assert_eq!(total as usize, changes);
        }
    }

    #[test]
    fn clustering_separates_generators() {
        let (_, layer, truth) = toy();
        let labels = cluster_layer(&layer, 2, 5, 0, true, true);
        let ari = adjusted_rand_index(&truth, &labels);
        assert!(ari > 0.8, "ARI {ari}");
    }

    #[test]
    fn node_only_and_edge_only_still_work() {
        let (_, layer, truth) = toy();
        for (nf, ef) in [(true, false), (false, true)] {
            let labels = cluster_layer(&layer, 2, 5, 0, nf, ef);
            let ari = adjusted_rand_index(&truth, &labels);
            assert!(ari > 0.5, "nf={nf} ef={ef} ARI {ari}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one feature family")]
    fn no_features_panics() {
        let (_, layer, _) = toy();
        feature_matrix(&layer, false, false);
    }
}
