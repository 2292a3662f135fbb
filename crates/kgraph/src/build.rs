//! Stage 1c — graph construction.
//!
//! Nodes from the radial scan become graph nodes carrying the *pattern*
//! they represent (the mean of their z-normalised subsequences); edges
//! connect temporally consecutive nodes within each series, weighted by
//! transition frequency. The result is the paper's `G_ℓ = (N_ℓ, E_ℓ)`.
//!
//! Construction is builder-based: node payloads are accumulated in a flat
//! vector, every observed transition is emitted as one `(src, dst, 1.0)`
//! triple into a [`GraphBuilder`], and a single sort + aggregate pass
//! produces the CSR graph — no per-edge adjacency probing anywhere.

use crate::embed::{project_windows, Projection};
use crate::nodes::{sector_of, to_polar, NodeAssignment, RadialNode, SectorIndex};
use linalg::pca::Pca;
use tscore::error::TsError;
use tscore::kernel::ZnormScratch;
use tscore::Dataset;
use tsgraph::{CsrGraph, GraphBuilder, NodeId};

/// Payload of a graph node.
#[derive(Debug, Clone)]
pub struct NodePattern {
    /// Radial-scan sector the node came from.
    pub sector: usize,
    /// Radial position of the density mode.
    pub radius: f64,
    /// Number of subsequences mapped to this node.
    pub count: usize,
    /// Mean z-normalised subsequence of the node (length ℓ) — the pattern
    /// the Graph frame displays when a node is selected.
    pub pattern: Vec<f64>,
}

/// A k-Graph graph: nodes carry patterns, edges carry transition counts.
/// Stored as CSR — all downstream consumers (features, graphoids, anomaly
/// scoring, the Graph frame) are pure readers.
pub type PatternGraph = CsrGraph<NodePattern, f64>;

/// The stored embedding of one layer: everything needed to map *new*
/// series into the layer's graph (out-of-sample assignment).
///
/// [`LayerEmbedding::new`] derives the routing lookups from `nodes` and
/// `psi`; build a new embedding rather than editing those fields.
#[derive(Debug, Clone)]
pub struct LayerEmbedding {
    /// The PCA fitted on this layer's subsequences.
    pub pca: Pca,
    /// Node polar coordinates, in graph-node-id order.
    pub nodes: Vec<RadialNode>,
    /// Polar origin of the radial scan.
    pub center: (f64, f64),
    /// Number of angular sectors.
    pub psi: usize,
    /// Subsequence stride used at fit time.
    pub stride: usize,
    /// `nodes` grouped by sector. Derived on fit and on load, never
    /// serialised.
    sectors: SectorIndex,
    /// The median node radius (at least 1e-9): the scale of embedding-gap
    /// scores. Derived like `sectors`.
    radial_scale: f64,
}

impl LayerEmbedding {
    /// Assembles an embedding and derives its per-sector node index and
    /// radial scale.
    pub fn new(
        pca: Pca,
        nodes: Vec<RadialNode>,
        center: (f64, f64),
        psi: usize,
        stride: usize,
    ) -> LayerEmbedding {
        let sectors = SectorIndex::new(&nodes, psi);
        let mut radii: Vec<f64> = nodes.iter().map(|n| n.radius).collect();
        radii.sort_by(f64::total_cmp);
        let radial_scale = radii.get(radii.len() / 2).map_or(1e-9, |r| r.max(1e-9));
        LayerEmbedding {
            pca,
            nodes,
            center,
            psi,
            stride,
            sectors,
            radial_scale,
        }
    }

    /// The node a projected point maps to, by the radial scan's rule:
    /// sector by angle, then nearest node radius within the sector (every
    /// node when the sector has none). Panics when there are no nodes.
    pub fn assign_point(&self, p: (f64, f64)) -> usize {
        let (theta, r) = to_polar(p, self.center);
        self.sectors
            .nearest(&self.nodes, sector_of(theta, self.psi), r)
    }

    /// The median node radius (at least 1e-9), which normalises
    /// embedding-gap scores.
    pub fn radial_scale(&self) -> f64 {
        self.radial_scale
    }

    /// The window router shared by every serve path: projects the windows
    /// of `values` from window index `first_window` on, exactly as the fit
    /// did ([`project_windows`]), and yields each window's `(point, node)`.
    /// Panics on the first window when there are no nodes.
    pub fn route<'a>(
        &'a self,
        values: &'a [f64],
        first_window: usize,
    ) -> impl ExactSizeIterator<Item = ((f64, f64), usize)> + 'a {
        project_windows(&self.pca, values, self.stride, first_window)
            .map(move |p| (p, self.assign_point(p)))
    }
}

/// Everything the pipeline derives for one subsequence length ℓ.
#[derive(Debug, Clone)]
pub struct GraphLayer {
    /// Subsequence length ℓ.
    pub length: usize,
    /// The graph `G_ℓ`.
    pub graph: PatternGraph,
    /// Node path of every series (temporal order, one entry per window).
    pub paths: Vec<Vec<NodeId>>,
    /// Per-length clustering partition `L_ℓ` (filled by the pipeline).
    pub labels: Vec<usize>,
    /// The embedding, kept so new series can be routed through the graph.
    pub embedding: LayerEmbedding,
}

impl GraphLayer {
    /// Refuses a layer whose graph has no nodes, since no window can be
    /// routed through it, with [`TsError::Degenerate`].
    pub fn check_routable(&self) -> Result<(), TsError> {
        if self.graph.node_count() == 0 {
            return Err(TsError::Degenerate(
                "graph layer has no nodes; cannot route series".into(),
            ));
        }
        Ok(())
    }

    /// Routes an arbitrary series through this layer's graph: z-normalises
    /// each (strided) window, projects it with the stored PCA and assigns
    /// it to the nearest node of its sector.
    ///
    /// Returns the node path; errors (with `None`) when the series is
    /// shorter than one window or the graph is empty.
    pub fn assign_path(&self, values: &[f64]) -> Option<Vec<NodeId>> {
        self.assign_path_from(values, 0)
    }

    /// Like [`assign_path`](Self::assign_path) but starting at window index
    /// `first_window` (window `i` covers `values[i·stride .. i·stride+ℓ]`).
    /// Window indices past the end yield an empty path (`Some(vec![])`).
    pub fn assign_path_from(&self, values: &[f64], first_window: usize) -> Option<Vec<NodeId>> {
        if values.len() < self.length || self.graph.node_count() == 0 {
            return None;
        }
        Some(
            self.embedding
                .route(values, first_window)
                .map(|(_, node)| NodeId(node as u32))
                .collect(),
        )
    }
}

/// Builds `G_ℓ` and the per-series node paths from a projection and its
/// node assignment. `stride` is recorded in the layer's embedding so
/// out-of-sample routing matches fit-time extraction.
pub fn build_graph_with_stride(
    dataset: &Dataset,
    proj: &Projection,
    assign: &NodeAssignment,
    stride: usize,
) -> GraphLayer {
    // Node payloads first (graph node id i == radial-scan node i).
    let mut payloads: Vec<NodePattern> = assign
        .nodes
        .iter()
        .map(|n| NodePattern {
            sector: n.sector,
            radius: n.radius,
            count: 0,
            pattern: vec![0.0; proj.length],
        })
        .collect();

    // Accumulate per-node pattern sums and counts; one reused z-norm
    // scratch instead of a fresh Vec per window.
    let mut scratch = ZnormScratch::new();
    for (pi, &ni) in assign.point_node.iter().enumerate() {
        let r = proj.refs[pi];
        let series = dataset.series()[r.series].values();
        let sub = scratch.znormed(&series[r.start..r.start + r.len]);
        let node = &mut payloads[ni];
        node.count += 1;
        for (acc, v) in node.pattern.iter_mut().zip(sub) {
            *acc += v;
        }
    }
    for node in payloads.iter_mut() {
        if node.count > 0 {
            let c = node.count as f64;
            for v in node.pattern.iter_mut() {
                *v /= c;
            }
        }
    }

    // Node paths per series; every transition becomes one builder triple
    // (duplicates aggregate into edge weights at build time).
    let mut builder = GraphBuilder::with_capacity(assign.point_node.len());
    let mut paths: Vec<Vec<NodeId>> = Vec::with_capacity(dataset.len());
    for s in 0..dataset.len() {
        let range = proj.starts[s]..proj.starts[s + 1];
        let path: Vec<NodeId> = assign.point_node[range]
            .iter()
            .map(|&ni| NodeId(ni as u32))
            .collect();
        for w in path.windows(2) {
            let (a, b) = (w[0], w[1]);
            if a == b {
                // Self-transitions (staying in the same pattern) are not
                // informative edges; k-Graph graphs omit self loops.
                continue;
            }
            builder.add_edge(a, b, 1.0);
        }
        paths.push(path);
    }
    let graph: PatternGraph = builder.build(payloads, |acc, w| *acc += w);

    let embedding = LayerEmbedding::new(
        proj.pca.clone(),
        assign.nodes.clone(),
        assign.center,
        assign.psi,
        stride,
    );
    GraphLayer {
        length: proj.length,
        graph,
        paths,
        labels: Vec::new(),
        embedding,
    }
}

/// Builds `G_ℓ` with the default stride of 1. See
/// [`build_graph_with_stride`].
pub fn build_graph(dataset: &Dataset, proj: &Projection, assign: &NodeAssignment) -> GraphLayer {
    build_graph_with_stride(dataset, proj, assign, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embed::project_subsequences;
    use crate::nodes::radial_scan;
    use tscore::{DatasetKind, TimeSeries};

    fn toy_layer() -> (Dataset, GraphLayer) {
        let mut series = Vec::new();
        for f in [0.2f64, 0.9] {
            for p in 0..4 {
                series.push(TimeSeries::new(
                    (0..80).map(|i| ((i + p) as f64 * f).sin()).collect(),
                ));
            }
        }
        let ds = Dataset::new("toy", DatasetKind::Simulated, series);
        let proj = project_subsequences(&ds, 16, 1, 2000);
        let assign = radial_scan(&proj, 12, 128, 0.05);
        let layer = build_graph(&ds, &proj, &assign);
        (ds, layer)
    }

    #[test]
    fn paths_cover_all_series_windows() {
        let (ds, layer) = toy_layer();
        assert_eq!(layer.paths.len(), ds.len());
        for path in &layer.paths {
            assert_eq!(path.len(), 80 - 16 + 1);
        }
        assert_eq!(layer.length, 16);
    }

    #[test]
    fn edges_reference_valid_nodes_with_positive_weights() {
        let (_, layer) = toy_layer();
        assert!(
            layer.graph.edge_count() > 0,
            "graph should have transitions"
        );
        for (e, s, t, &w) in layer.graph.edges_iter() {
            assert!(s.index() < layer.graph.node_count());
            assert!(t.index() < layer.graph.node_count());
            assert!(w >= 1.0, "edge {e:?} weight {w}");
            assert_ne!(s, t, "no self loops");
        }
    }

    #[test]
    fn node_counts_sum_to_total_windows() {
        let (ds, layer) = toy_layer();
        let total: usize = layer.graph.nodes_iter().map(|(_, n)| n.count).sum();
        assert_eq!(total, ds.len() * (80 - 16 + 1));
    }

    #[test]
    fn node_patterns_are_znormed_averages() {
        let (_, layer) = toy_layer();
        for (_, node) in layer.graph.nodes_iter() {
            assert_eq!(node.pattern.len(), 16);
            assert!(node.count > 0, "no orphan nodes expected in this toy");
            // Average of z-normalised windows has near-zero mean.
            let mean: f64 = node.pattern.iter().sum::<f64>() / 16.0;
            assert!(mean.abs() < 0.2, "pattern mean {mean}");
            assert!(node.pattern.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn edge_weights_count_transitions() {
        let (_, layer) = toy_layer();
        // Summed edge weights = number of consecutive pairs that changed
        // node.
        let total_weight: f64 = layer.graph.edges_iter().map(|(_, _, _, &w)| w).sum();
        let changes: usize = layer
            .paths
            .iter()
            .map(|p| p.windows(2).filter(|w| w[0] != w[1]).count())
            .sum();
        assert_eq!(total_weight as usize, changes);
    }

    #[test]
    fn similar_series_share_nodes() {
        let (_, layer) = toy_layer();
        // Series 0..4 come from the same generator (phase-shifted): their
        // path node sets should overlap substantially.
        let set = |p: &Vec<NodeId>| p.iter().copied().collect::<std::collections::HashSet<_>>();
        let s0 = set(&layer.paths[0]);
        let s1 = set(&layer.paths[1]);
        let inter = s0.intersection(&s1).count();
        let union = s0.union(&s1).count();
        assert!(inter as f64 / union as f64 > 0.5, "{inter}/{union}");
    }
}
