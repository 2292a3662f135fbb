//! Graph frame — "k-Graph in action" (Figure 3, frame 2).
//!
//! Draws the selected graph with λ/γ colouring, lets callers inspect a
//! node (its pattern and per-cluster representativity/exclusivity
//! histogram) and highlights a node's subsequences on a chosen series —
//! the three interactions of the demo's Graph frame.

use crate::color::category_color;
use crate::plot::graphplot::{DetailLevel, GraphPlot, RenderBudget};
use crate::plot::line::{LineChart, Series};
use crate::svg::{LinearScale, SvgDoc};
use kgraph::graphoid::ClusterStats;
use kgraph::KGraphModel;
use tsgraph::layout::LayoutEngine;

/// Per-node inspection data (bottom-right panel of the Graph frame).
#[derive(Debug, Clone)]
pub struct NodeDetail {
    /// Node index in the selected layer's graph.
    pub node: usize,
    /// The pattern the node represents (mean z-normalised subsequence).
    pub pattern: Vec<f64>,
    /// Crossing count.
    pub count: usize,
    /// Per-cluster representativity.
    pub representativity: Vec<f64>,
    /// Per-cluster exclusivity.
    pub exclusivity: Vec<f64>,
}

/// The assembled Graph frame for one fitted model.
#[derive(Debug)]
pub struct GraphFrame<'a> {
    model: &'a KGraphModel,
    stats: &'a ClusterStats,
    /// Representativity threshold λ.
    pub lambda: f64,
    /// Exclusivity threshold γ.
    pub gamma: f64,
}

impl<'a> GraphFrame<'a> {
    /// Creates the frame with explicit thresholds.
    pub fn new(model: &'a KGraphModel, lambda: f64, gamma: f64) -> Self {
        GraphFrame {
            stats: model.best_stats(),
            model,
            lambda,
            gamma,
        }
    }

    /// Creates the frame with automatically searched thresholds
    /// (Scenario 2's goal: ≥ 1 coloured node per cluster), cached per
    /// model.
    pub fn with_auto_thresholds(model: &'a KGraphModel) -> Self {
        let (lambda, gamma) = model.auto_thresholds();
        GraphFrame::new(model, lambda, gamma)
    }

    /// The crossing statistics in use.
    pub fn stats(&self) -> &ClusterStats {
        self.stats
    }

    /// Renders the node-link view.
    pub fn render_graph(&self) -> String {
        self.render_graph_with(
            LayoutEngine::Auto,
            DetailLevel::Auto,
            RenderBudget::unlimited(),
        )
        .0
    }

    /// Renders the node-link view with explicit layout engine, detail
    /// level and element budget, returning the SVG and the emitted
    /// element count (what the budget is accounted against). The layout
    /// comes from the model's per-version cache.
    pub fn render_graph_with(
        &self,
        engine: LayoutEngine,
        detail: DetailLevel,
        budget: RenderBudget,
    ) -> (String, usize) {
        GraphPlot::new(self.model.best(), self.stats, self.lambda, self.gamma)
            .with_detail(detail)
            .with_budget(budget)
            .render_counted(self.model.layout(engine))
    }

    /// Inspection data for one node.
    pub fn node_detail(&self, node: usize) -> NodeDetail {
        let g = &self.model.best().graph;
        assert!(node < g.node_count(), "node {node} out of range");
        let payload = g.node(tsgraph::NodeId(node as u32));
        let k = self.model.k();
        NodeDetail {
            node,
            pattern: payload.pattern.clone(),
            count: payload.count,
            representativity: (0..k)
                .map(|c| self.stats.node_representativity(c, node))
                .collect(),
            exclusivity: (0..k)
                .map(|c| self.stats.node_exclusivity(c, node))
                .collect(),
        }
    }

    /// Renders a node's pattern plus its per-cluster histogram.
    pub fn render_node_detail(&self, node: usize) -> String {
        let detail = self.node_detail(node);
        let chart = LineChart::new(format!(
            "node {} pattern (count {})",
            detail.node, detail.count
        ))
        .add(Series::from_values("pattern", &detail.pattern).with_color("#d62728"));
        let mut svg = chart.render();
        svg.push_str(&render_cluster_histogram(&detail));
        svg
    }

    /// Windows `(start, len)` of `series_idx` that pass through `node` —
    /// the subsequences the frame highlights below the graph.
    pub fn node_windows(&self, series_idx: usize, node: usize) -> Vec<(usize, usize)> {
        let layer = self.model.best();
        let path = &layer.paths[series_idx];
        let len = layer.length;
        let stride = layer.embedding.stride;
        path.iter()
            .enumerate()
            .filter(|(_, n)| n.index() == node)
            .map(|(w, _)| (w * stride, len))
            .collect()
    }

    /// Renders `series_idx` with the subsequences of `node` highlighted.
    pub fn render_highlighted_series(
        &self,
        series_idx: usize,
        node: usize,
        dataset: &tscore::Dataset,
    ) -> String {
        let values = dataset.series()[series_idx].values();
        let windows = self.node_windows(series_idx, node);
        let w = 560.0;
        let h = 150.0;
        let mut doc = SvgDoc::new(w, h);
        doc.rect(0.0, 0.0, w, h, "#ffffff", "none");
        doc.text(
            w / 2.0,
            14.0,
            &format!("series {series_idx}: subsequences of node {node}"),
            11.0,
            "middle",
            "#111111",
        );
        let xs = LinearScale::new((0.0, (values.len() - 1).max(1) as f64), (14.0, w - 14.0));
        let lo = tscore::stats::min(values);
        let hi = tscore::stats::max(values);
        let ys = LinearScale::new((lo, hi), (h - 12.0, 26.0));
        // Highlight bands under the curve.
        for (start, len) in &windows {
            let x0 = xs.apply(*start as f64);
            let x1 = xs.apply((start + len - 1) as f64);
            doc.rect(x0, 26.0, (x1 - x0).max(1.0), h - 38.0, "#ffe8a3", "none");
        }
        let pts: Vec<(f64, f64)> = values
            .iter()
            .enumerate()
            .map(|(t, &v)| (xs.apply(t as f64), ys.apply(v)))
            .collect();
        doc.polyline(&pts, "#1f77b4", 1.0);
        doc.finish()
    }

    /// Nodes whose owner (per the current λ/γ) is each cluster — used by
    /// tests and the report to check "≥ 1 coloured node per cluster".
    pub fn colored_nodes_per_cluster(&self) -> Vec<usize> {
        let plot = GraphPlot::new(self.model.best(), self.stats, self.lambda, self.gamma);
        let mut counts = vec![0usize; self.model.k()];
        for n in 0..self.model.best().graph.node_count() {
            if let Some(c) = plot.node_owner(n) {
                counts[c] += 1;
            }
        }
        counts
    }

    /// Node exploration order: PageRank over the transition weights,
    /// most central patterns first. This is the order in which the frame
    /// suggests nodes to inspect. Runs CSR-native — the push loop walks
    /// each node's contiguous target/weight slices.
    pub fn exploration_order(&self) -> Vec<usize> {
        let g = &self.model.best().graph;
        let pr = tsgraph::algo::pagerank(g, 0.85, 60, |&w: &f64| w);
        let mut order: Vec<usize> = (0..g.node_count()).collect();
        order.sort_by(|&a, &b| pr[b].total_cmp(&pr[a]));
        order
    }
}

/// Bar histogram of per-cluster representativity and exclusivity.
fn render_cluster_histogram(detail: &NodeDetail) -> String {
    let k = detail.representativity.len();
    let w = 280.0;
    let h = 160.0;
    let mut doc = SvgDoc::new(w, h);
    doc.rect(0.0, 0.0, w, h, "#ffffff", "none");
    doc.text(
        w / 2.0,
        14.0,
        "representativity / exclusivity",
        10.0,
        "middle",
        "#111111",
    );
    let band = (w - 40.0) / k as f64;
    let base = h - 24.0;
    let scale = base - 30.0;
    for c in 0..k {
        let x = 24.0 + band * c as f64;
        let r = detail.representativity[c];
        let e = detail.exclusivity[c];
        doc.rect(
            x,
            base - r * scale,
            band * 0.3,
            r * scale,
            category_color(c),
            "none",
        );
        doc.rect(
            x + band * 0.35,
            base - e * scale,
            band * 0.3,
            e * scale,
            "#999999",
            "none",
        );
        doc.text(
            x + band * 0.3,
            base + 12.0,
            &format!("C{c}"),
            9.0,
            "middle",
            "#333333",
        );
    }
    doc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgraph::{KGraph, KGraphConfig};
    use tscore::{Dataset, DatasetKind, TimeSeries};

    fn fixture() -> (Dataset, KGraphModel) {
        let mut series = Vec::new();
        for f in [0.2f64, 0.9] {
            for p in 0..5 {
                series.push(TimeSeries::new(
                    (0..80).map(|i| ((i + p) as f64 * f).sin()).collect(),
                ));
            }
        }
        let ds = Dataset::new("toy", DatasetKind::Simulated, series);
        let cfg = KGraphConfig {
            n_lengths: 2,
            psi: 10,
            pca_sample: 400,
            n_init: 2,
            ..KGraphConfig::new(2)
        };
        let model = KGraph::new(cfg).fit(&ds);
        (ds, model)
    }

    #[test]
    fn auto_thresholds_color_every_cluster() {
        let (_, model) = fixture();
        let frame = GraphFrame::with_auto_thresholds(&model);
        let counts = frame.colored_nodes_per_cluster();
        assert!(counts.iter().all(|&c| c >= 1), "counts {counts:?}");
        assert!(frame.lambda > 0.0);
        assert!(frame.gamma > 0.0);
    }

    #[test]
    fn node_detail_fields() {
        let (_, model) = fixture();
        let frame = GraphFrame::new(&model, 0.5, 0.5);
        let d = frame.node_detail(0);
        assert_eq!(d.pattern.len(), model.best_length());
        assert_eq!(d.representativity.len(), 2);
        assert_eq!(d.exclusivity.len(), 2);
        assert!(d.representativity.iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert!(d.exclusivity.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_node_panics() {
        let (_, model) = fixture();
        GraphFrame::new(&model, 0.5, 0.5).node_detail(10_000);
    }

    #[test]
    fn node_windows_match_path() {
        let (_, model) = fixture();
        let frame = GraphFrame::new(&model, 0.5, 0.5);
        let node = model.best().paths[0][0].index();
        let windows = frame.node_windows(0, node);
        assert!(!windows.is_empty());
        assert!(
            windows.iter().any(|&(s, _)| s == 0),
            "first window starts at 0"
        );
        for (start, len) in windows {
            assert_eq!(len, model.best_length());
            assert!(start + len <= 80);
        }
    }

    #[test]
    fn exploration_order_is_a_permutation_led_by_central_nodes() {
        let (_, model) = fixture();
        let frame = GraphFrame::new(&model, 0.5, 0.5);
        let order = frame.exploration_order();
        let n = model.best().graph.node_count();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>());
        // The top node should have above-average crossing count: central
        // patterns are visited by many series.
        let counts: Vec<usize> = model
            .best()
            .graph
            .nodes_iter()
            .map(|(_, p)| p.count)
            .collect();
        let mean = counts.iter().sum::<usize>() as f64 / n as f64;
        assert!(
            counts[order[0]] as f64 >= mean * 0.5,
            "top-ranked node unexpectedly peripheral"
        );
    }

    #[test]
    fn renders_all_panels() {
        let (ds, model) = fixture();
        let frame = GraphFrame::with_auto_thresholds(&model);
        assert!(frame.render_graph().contains("k-Graph graph"));
        let node = model.best().paths[0][0].index();
        let detail_svg = frame.render_node_detail(node);
        assert!(detail_svg.contains("pattern"));
        assert!(detail_svg.contains("representativity"));
        let hl = frame.render_highlighted_series(0, node, &ds);
        assert!(hl.contains("subsequences of node"));
        assert!(hl.contains("#ffe8a3"), "highlight bands present");
    }
}
