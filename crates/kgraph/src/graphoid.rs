//! Graphoids: representativity, exclusivity and interpretable subgraphs.
//!
//! For a cluster `C_i` and a node `N` (paper §II):
//!
//! * **representativity** `|N|_{C_i}` — fraction of `C_i`'s series that
//!   cross `N`,
//! * **exclusivity** `Pr_{C_i}(N)` — fraction of *all* series crossing `N`
//!   that belong to `C_i`.
//!
//! The **λ-graphoid** of `C_i` keeps nodes/edges with representativity ≥ λ;
//! the **γ-graphoid** keeps those with exclusivity ≥ γ. The same
//! definitions apply to edges.

use crate::build::GraphLayer;
use crate::features::for_each_crossing;
use tsgraph::{EdgeId, NodeId};

/// Per-cluster crossing statistics of one layer's graph.
#[derive(Debug, Clone)]
pub struct ClusterStats {
    /// Number of clusters.
    pub k: usize,
    /// `node_crossings[c][n]` — series of cluster `c` crossing node `n`.
    pub node_crossings: Vec<Vec<usize>>,
    /// `edge_crossings[c][e]` — series of cluster `c` crossing edge `e`.
    pub edge_crossings: Vec<Vec<usize>>,
    /// Cluster sizes.
    pub cluster_sizes: Vec<usize>,
}

impl ClusterStats {
    /// Computes crossing statistics for `layer` under the partition
    /// `labels` (values in `0..k`).
    pub fn compute(layer: &GraphLayer, labels: &[usize], k: usize) -> ClusterStats {
        assert_eq!(
            labels.len(),
            layer.paths.len(),
            "labels must cover all series"
        );
        assert!(k >= 1, "k must be >= 1");
        let n_nodes = layer.graph.node_count();
        let n_edges = layer.graph.edge_count();
        let mut node_crossings = vec![vec![0usize; n_nodes]; k];
        let mut edge_crossings = vec![vec![0usize; n_edges]; k];
        let mut cluster_sizes = vec![0usize; k];
        // A series "crosses" a node/edge once regardless of repetition.
        // Dedup via generation-stamped scratch allocated once: a slot is
        // "seen in this series" iff its stamp equals the current
        // generation, so no per-series allocation or O(n+e) clearing.
        // Slots are feature columns: node `c < n_nodes`, else edge
        // `c - n_nodes`.
        let mut seen = vec![0u32; n_nodes + n_edges];
        for (gen, (path, &label)) in layer.paths.iter().zip(labels).enumerate() {
            assert!(label < k, "label {label} out of range 0..{k}");
            cluster_sizes[label] += 1;
            let gen = gen as u32 + 1;
            let (nodes, edges) = (&mut node_crossings[label], &mut edge_crossings[label]);
            for_each_crossing(layer, path, true, true, |c| {
                if seen[c] == gen {
                    return;
                }
                seen[c] = gen;
                match c.checked_sub(n_nodes) {
                    None => nodes[c] += 1,
                    Some(e) => edges[e] += 1,
                }
            });
        }
        ClusterStats {
            k,
            node_crossings,
            edge_crossings,
            cluster_sizes,
        }
    }

    /// Representativity of node `n` in cluster `c` ∈ [0, 1].
    pub fn node_representativity(&self, c: usize, n: usize) -> f64 {
        if self.cluster_sizes[c] == 0 {
            return 0.0;
        }
        self.node_crossings[c][n] as f64 / self.cluster_sizes[c] as f64
    }

    /// Exclusivity of node `n` in cluster `c` ∈ [0, 1].
    pub fn node_exclusivity(&self, c: usize, n: usize) -> f64 {
        let total: usize = (0..self.k).map(|ci| self.node_crossings[ci][n]).sum();
        if total == 0 {
            return 0.0;
        }
        self.node_crossings[c][n] as f64 / total as f64
    }

    /// Representativity of edge `e` in cluster `c` ∈ [0, 1].
    pub fn edge_representativity(&self, c: usize, e: usize) -> f64 {
        if self.cluster_sizes[c] == 0 {
            return 0.0;
        }
        self.edge_crossings[c][e] as f64 / self.cluster_sizes[c] as f64
    }

    /// Exclusivity of edge `e` in cluster `c` ∈ [0, 1].
    pub fn edge_exclusivity(&self, c: usize, e: usize) -> f64 {
        let total: usize = (0..self.k).map(|ci| self.edge_crossings[ci][e]).sum();
        if total == 0 {
            return 0.0;
        }
        self.edge_crossings[c][e] as f64 / total as f64
    }

    /// Maximum node exclusivity of cluster `c` (0 for empty graphs) — the
    /// ingredient of the interpretability factor `We`.
    pub fn max_node_exclusivity(&self, c: usize) -> f64 {
        (0..self.node_crossings[c].len())
            .map(|n| self.node_exclusivity(c, n))
            .fold(0.0, f64::max)
    }
}

/// An interpretable subgraph of one cluster.
#[derive(Debug, Clone)]
pub struct Graphoid {
    /// The cluster this graphoid describes.
    pub cluster: usize,
    /// Threshold used (λ for representativity, γ for exclusivity).
    pub threshold: f64,
    /// Selected nodes.
    pub nodes: Vec<NodeId>,
    /// Selected edges.
    pub edges: Vec<EdgeId>,
}

impl Graphoid {
    /// Whether the graphoid is empty (no nodes and no edges).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty() && self.edges.is_empty()
    }
}

/// λ-graphoid of a cluster: nodes/edges with representativity ≥ λ.
pub fn lambda_graphoid(
    stats: &ClusterStats,
    layer: &GraphLayer,
    cluster: usize,
    lambda: f64,
) -> Graphoid {
    let nodes = (0..layer.graph.node_count())
        .filter(|&n| stats.node_representativity(cluster, n) >= lambda)
        .map(|n| NodeId(n as u32))
        .collect();
    let edges = (0..layer.graph.edge_count())
        .filter(|&e| stats.edge_representativity(cluster, e) >= lambda)
        .map(|e| EdgeId(e as u32))
        .collect();
    Graphoid {
        cluster,
        threshold: lambda,
        nodes,
        edges,
    }
}

/// γ-graphoid of a cluster: nodes/edges with exclusivity ≥ γ.
pub fn gamma_graphoid(
    stats: &ClusterStats,
    layer: &GraphLayer,
    cluster: usize,
    gamma: f64,
) -> Graphoid {
    let nodes = (0..layer.graph.node_count())
        .filter(|&n| stats.node_exclusivity(cluster, n) >= gamma)
        .map(|n| NodeId(n as u32))
        .collect();
    let edges = (0..layer.graph.edge_count())
        .filter(|&e| stats.edge_exclusivity(cluster, e) >= gamma)
        .map(|e| EdgeId(e as u32))
        .collect();
    Graphoid {
        cluster,
        threshold: gamma,
        nodes,
        edges,
    }
}

/// Scenario-2 helper ("find the correct value of γ and λ so we have at
/// least one colored node per cluster"): the best `(λ, γ)` pair, searched
/// on a joint grid, such that **every** cluster keeps at least one node
/// satisfying *both* thresholds simultaneously (that is the colouring rule
/// of the Graph frame). Pairs are ranked by `λ + γ`, ties broken toward
/// larger γ (exclusivity is the more informative axis).
pub fn auto_thresholds(stats: &ClusterStats, layer: &GraphLayer, grid: usize) -> (f64, f64) {
    let grid = grid.max(2);
    let joint_ok = |lambda: f64, gamma: f64| -> bool {
        (0..stats.k).all(|c| {
            (0..layer.graph.node_count()).any(|n| {
                stats.node_representativity(c, n) >= lambda && stats.node_exclusivity(c, n) >= gamma
            })
        })
    };
    let mut best = (0.0, 0.0);
    let mut best_key = (-1.0, -1.0);
    for li in 0..=grid {
        let lambda = li as f64 / grid as f64;
        for gi in 0..=grid {
            let gamma = gi as f64 / grid as f64;
            let key = (lambda + gamma, gamma);
            if key <= best_key {
                continue;
            }
            if joint_ok(lambda, gamma) {
                best = (lambda, gamma);
                best_key = key;
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_graph;
    use crate::embed::project_subsequences;
    use crate::nodes::radial_scan;
    use tscore::{Dataset, DatasetKind, TimeSeries};

    fn toy() -> (GraphLayer, Vec<usize>) {
        let mut series = Vec::new();
        let mut labels = Vec::new();
        for (label, f) in [0.2f64, 0.9].into_iter().enumerate() {
            for p in 0..5 {
                series.push(TimeSeries::new(
                    (0..80).map(|i| ((i + p) as f64 * f).sin()).collect(),
                ));
                labels.push(label);
            }
        }
        let ds = Dataset::new("toy", DatasetKind::Simulated, series);
        let proj = project_subsequences(&ds, 16, 1, 2000);
        let assign = radial_scan(&proj, 12, 128, 0.05);
        (build_graph(&ds, &proj, &assign), labels)
    }

    #[test]
    fn stats_bounds_and_sums() {
        let (layer, labels) = toy();
        let stats = ClusterStats::compute(&layer, &labels, 2);
        assert_eq!(stats.cluster_sizes, vec![5, 5]);
        for n in 0..layer.graph.node_count() {
            let mut excl_sum = 0.0;
            let mut crossed = 0usize;
            for c in 0..2 {
                let r = stats.node_representativity(c, n);
                let e = stats.node_exclusivity(c, n);
                assert!((0.0..=1.0).contains(&r));
                assert!((0.0..=1.0).contains(&e));
                excl_sum += e;
                crossed += stats.node_crossings[c][n];
            }
            if crossed > 0 {
                // Exclusivities partition the crossing set.
                assert!((excl_sum - 1.0).abs() < 1e-12);
            } else {
                assert_eq!(excl_sum, 0.0);
            }
        }
    }

    #[test]
    fn edge_stats_bounds() {
        let (layer, labels) = toy();
        let stats = ClusterStats::compute(&layer, &labels, 2);
        for e in 0..layer.graph.edge_count() {
            for c in 0..2 {
                assert!((0.0..=1.0).contains(&stats.edge_representativity(c, e)));
                assert!((0.0..=1.0).contains(&stats.edge_exclusivity(c, e)));
            }
        }
    }

    #[test]
    fn lambda_monotone() {
        let (layer, labels) = toy();
        let stats = ClusterStats::compute(&layer, &labels, 2);
        let loose = lambda_graphoid(&stats, &layer, 0, 0.2);
        let tight = lambda_graphoid(&stats, &layer, 0, 0.8);
        assert!(tight.nodes.len() <= loose.nodes.len());
        assert!(tight.edges.len() <= loose.edges.len());
        // Subset relation.
        for n in &tight.nodes {
            assert!(loose.nodes.contains(n));
        }
    }

    #[test]
    fn gamma_monotone() {
        let (layer, labels) = toy();
        let stats = ClusterStats::compute(&layer, &labels, 2);
        let loose = gamma_graphoid(&stats, &layer, 1, 0.3);
        let tight = gamma_graphoid(&stats, &layer, 1, 0.9);
        assert!(tight.nodes.len() <= loose.nodes.len());
        for n in &tight.nodes {
            assert!(loose.nodes.contains(n));
        }
    }

    #[test]
    fn zero_threshold_keeps_everything() {
        let (layer, labels) = toy();
        let stats = ClusterStats::compute(&layer, &labels, 2);
        let g = lambda_graphoid(&stats, &layer, 0, 0.0);
        assert_eq!(g.nodes.len(), layer.graph.node_count());
        assert_eq!(g.edges.len(), layer.graph.edge_count());
        assert!(!g.is_empty());
    }

    #[test]
    fn distinct_generators_have_exclusive_nodes() {
        let (layer, labels) = toy();
        let stats = ClusterStats::compute(&layer, &labels, 2);
        // Each cluster must own at least one highly exclusive node — the
        // core interpretability claim.
        for c in 0..2 {
            let max_excl = stats.max_node_exclusivity(c);
            assert!(max_excl > 0.8, "cluster {c} max exclusivity {max_excl}");
        }
    }

    #[test]
    fn auto_thresholds_give_nonempty_graphoids() {
        let (layer, labels) = toy();
        let stats = ClusterStats::compute(&layer, &labels, 2);
        let (lambda, gamma) = auto_thresholds(&stats, &layer, 20);
        assert!(lambda > 0.0);
        assert!(gamma > 0.0);
        for c in 0..2 {
            assert!(!lambda_graphoid(&stats, &layer, c, lambda).nodes.is_empty());
            assert!(!gamma_graphoid(&stats, &layer, c, gamma).nodes.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "labels must cover")]
    fn label_mismatch_panics() {
        let (layer, _) = toy();
        ClusterStats::compute(&layer, &[0, 1], 2);
    }
}
