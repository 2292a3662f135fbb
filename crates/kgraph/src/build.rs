//! Stage 1c — graph construction.
//!
//! Nodes from the radial scan become graph nodes carrying the *pattern*
//! they represent (the mean of their z-normalised subsequences); edges
//! connect temporally consecutive nodes within each series, weighted by
//! transition frequency. The result is the paper's `G_ℓ = (N_ℓ, E_ℓ)`.
//!
//! Construction walks each series' windows once, in temporal order
//! (window `w` starts at `w · stride`, its node is the projection's point
//! `starts[s] + w`). Each window's z-normalised values join its node's
//! pattern sum, and each change of node between consecutive windows is
//! emitted as one `(src, dst, 1.0)` triple into a [`GraphBuilder`]; a
//! single sort + aggregate pass then produces the CSR graph — no per-edge
//! adjacency probing anywhere.

use crate::embed::{project_windows, Projection};
use crate::nodes::{sector_of, to_polar, NodeAssignment, RadialNode, SectorIndex};
use linalg::pca::Pca;
use tscore::error::TsError;
use tscore::kernel::ZnormScratch;
use tscore::windows::window_count;
use tscore::Dataset;
use tsgraph::{CsrGraph, GraphBuilder, NodeId};

/// Payload of a graph node.
#[derive(Debug, Clone)]
pub struct NodePattern {
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
        if values.len() < self.length || self.graph.node_count() == 0 {
            return None;
        }
        Some(
            self.embedding
                .route(values, 0)
                .map(|(_, node)| NodeId(node as u32))
                .collect(),
        )
    }
}

/// Builds `G_ℓ` and the per-series node paths from a projection and its
/// node assignment. `stride` must be the projection's; it is recorded in
/// the layer's embedding so out-of-sample routing matches fit-time
/// extraction. Panics when a series' window count under `stride` differs
/// from the projection's.
pub fn build_graph_with_stride(
    dataset: &Dataset,
    proj: &Projection,
    assign: &NodeAssignment,
    stride: usize,
) -> GraphLayer {
    // Node payloads first (graph node id i == radial-scan node i).
    let empty = NodePattern {
        count: 0,
        pattern: vec![0.0; proj.length],
    };
    let mut payloads = vec![empty; assign.nodes.len()];

    // One pass over every window, series by series in temporal order, with
    // one reused z-norm scratch: the window joins its node's pattern sum
    // and path, and a change of node becomes one builder triple
    // (duplicates aggregate into edge weights at build time).
    let mut scratch = ZnormScratch::new();
    let mut builder = GraphBuilder::with_capacity(assign.point_node.len());
    let mut paths: Vec<Vec<NodeId>> = Vec::with_capacity(dataset.len());
    for (s, series) in dataset.series().iter().enumerate() {
        let nodes = &assign.point_node[proj.starts[s]..proj.starts[s + 1]];
        let values = series.values();
        assert_eq!(
            nodes.len(),
            window_count(values.len(), proj.length, stride),
            "series {s}: stride {stride} is not the projection's"
        );
        let mut path: Vec<NodeId> = Vec::with_capacity(nodes.len());
        for (w, &ni) in nodes.iter().enumerate() {
            let start = w * stride;
            let z = scratch.znormed(&values[start..start + proj.length]);
            let node = &mut payloads[ni];
            node.count += 1;
            for (acc, v) in node.pattern.iter_mut().zip(z) {
                *acc += v;
            }
            let id = NodeId(ni as u32);
            // Self-transitions (staying in the same pattern) are not
            // informative edges; k-Graph graphs omit self loops.
            match path.last() {
                Some(&prev) if prev != id => builder.add_edge(prev, id, 1.0),
                _ => {}
            }
            path.push(id);
        }
        paths.push(path);
    }
    for node in payloads.iter_mut() {
        if node.count > 0 {
            let c = node.count as f64;
            for v in node.pattern.iter_mut() {
                *v /= c;
            }
        }
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

    /// Summed weight per `(src, dst)` transition.
    type Transitions = std::collections::BTreeMap<(u32, u32), f64>;
    /// `(count, pattern)` per node.
    type NodeSums = Vec<(usize, Vec<f64>)>;

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

    /// The graph the build must produce, derived without the projection's
    /// `starts`: every window at `w · stride` of every series, walked with
    /// its own counter into `point_node` and z-normalised on its own.
    /// Returns each node's `(count, pattern)`, the paths and the summed
    /// transition weights.
    fn window_oracle(
        ds: &Dataset,
        length: usize,
        stride: usize,
        assign: &NodeAssignment,
    ) -> (NodeSums, Vec<Vec<NodeId>>, Transitions) {
        let mut nodes = vec![(0usize, vec![0.0; length]); assign.nodes.len()];
        let mut paths = Vec::new();
        let mut edges = Transitions::new();
        let mut point = 0;
        for series in ds.series() {
            let values = series.values();
            let mut path: Vec<NodeId> = Vec::new();
            let mut start = 0;
            while start + length <= values.len() {
                let ni = assign.point_node[point];
                point += 1;
                let z = tscore::transform::znorm(&values[start..start + length]);
                nodes[ni].0 += 1;
                for (acc, v) in nodes[ni].1.iter_mut().zip(&z) {
                    *acc += v;
                }
                if let Some(&prev) = path.last() {
                    if prev != NodeId(ni as u32) {
                        *edges.entry((prev.0, ni as u32)).or_insert(0.0) += 1.0;
                    }
                }
                path.push(NodeId(ni as u32));
                start += stride;
            }
            paths.push(path);
        }
        assert_eq!(point, assign.point_node.len());
        for (count, pattern) in &mut nodes {
            if *count > 0 {
                for v in pattern.iter_mut() {
                    *v /= *count as f64;
                }
            }
        }
        (nodes, paths, edges)
    }

    #[test]
    fn strided_build_of_mixed_lengths_matches_the_window_oracle() {
        // Mixed lengths, one of them (10 points) shorter than ℓ = 12, so
        // that series has no window at all.
        let series: Vec<TimeSeries> = [90usize, 61, 10, 47, 76, 33]
            .iter()
            .enumerate()
            .map(|(k, &n)| {
                let f = if k % 2 == 0 { 0.3 } else { 0.85 };
                TimeSeries::new(
                    (0..n)
                        .map(|i| ((i + 5 * k) as f64 * f).sin() + 0.1 * (i % 4) as f64)
                        .collect(),
                )
            })
            .collect();
        let ds = Dataset::new("mixed", DatasetKind::Simulated, series);
        let length = 12;
        for stride in [2, 3] {
            let proj = project_subsequences(&ds, length, stride, 500);
            let assign = radial_scan(&proj, 8, 64, 0.05);
            let layer = build_graph_with_stride(&ds, &proj, &assign, stride);
            let (nodes, paths, edges) = window_oracle(&ds, length, stride, &assign);

            assert_eq!(layer.embedding.stride, stride);
            assert_eq!(layer.graph.node_count(), nodes.len(), "stride {stride}");
            for ((_, got), (count, pattern)) in layer.graph.nodes_iter().zip(&nodes) {
                assert_eq!(got.count, *count, "stride {stride}");
                let bits = |p: &[f64]| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got.pattern), bits(pattern), "stride {stride}");
            }
            assert!(paths[2].is_empty());
            assert_eq!(paths[0].len(), (90 - length) / stride + 1);
            assert_eq!(layer.paths, paths, "stride {stride}");
            let got: Transitions = layer
                .graph
                .edges_iter()
                .map(|(_, s, t, &w)| ((s.0, t.0), w))
                .collect();
            assert!(!got.is_empty());
            assert_eq!(got, edges, "stride {stride}");
        }
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
