//! Node-link rendering of k-Graph graphs — the heart of the Graph frame.
//!
//! Nodes are sized by crossing count and coloured by the cluster whose
//! γ-graphoid (and λ-graphoid) they belong to; unselected elements are
//! muted grey, exactly like the demo's "nodes and edges are colored if
//! their representativity and exclusivity exceed the values the user
//! selects".
//!
//! The renderer reads the layer's CSR view: edge iteration order is
//! deterministic ((source, target)-sorted), so the emitted SVG is
//! byte-stable across re-renders of the same model.
//!
//! ## Rendering at scale
//!
//! Full detail emits ~3 elements per edge — fine at the paper's demo
//! sizes, hopeless at 10k–100k-node graphoid layers. A [`RenderBudget`]
//! caps the element count and [`DetailLevel`] picks how to spend it:
//!
//! * **Full** — the classic render: one arrow per edge, one circle per
//!   node. Byte-identical to the historical output.
//! * **Aggregated** — nodes stay individual (bare circles inside shared
//!   `<g>` style groups, one group per cluster colour); the heaviest
//!   edges draw as individual lines up to the remaining budget and the
//!   long tail bundles into one `<path>` per owning cluster.
//! * **Glyph** — the zoomed-out view: one glyph per cluster at the
//!   centroid of its nodes, sized by crossing share, with aggregate
//!   inter-cluster edges. O(k) elements regardless of graph size.
//!
//! `DetailLevel::Auto` degrades Full → Aggregated → Glyph at the first
//! level whose element count fits the budget, so callers can promise a
//! bounded response cost (the `graphserve` render route does exactly
//! that).
//!
//! The plot draws the node positions it is given and computes no layout
//! of its own: the Graph frame passes the model's cached
//! `KGraphModel::layout`, and a bare graph's caller passes
//! `tsgraph::layout::layout_graph`'s.

use crate::color::{category_color, MUTED};
use crate::svg::{fixed, SvgDoc};
use kgraph::graphoid::ClusterStats;
use kgraph::{GraphLayer, PatternGraph};
use tsgraph::layout::fit_to_viewport;

/// Maximum number of SVG elements a render may emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RenderBudget {
    /// Element cap; [`RenderBudget::unlimited`] for no cap.
    pub max_elements: usize,
}

impl RenderBudget {
    /// No cap at all (the default — small graphs render in full).
    pub fn unlimited() -> Self {
        RenderBudget {
            max_elements: usize::MAX,
        }
    }

    /// At most `max_elements` visual elements.
    pub fn capped(max_elements: usize) -> Self {
        RenderBudget { max_elements }
    }

    /// Whether this budget caps anything.
    pub fn is_unlimited(&self) -> bool {
        self.max_elements == usize::MAX
    }
}

impl Default for RenderBudget {
    fn default() -> Self {
        RenderBudget::unlimited()
    }
}

/// How much of the graph to draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetailLevel {
    /// Pick the highest level that fits the [`RenderBudget`].
    Auto,
    /// One arrow per edge, one circle per node.
    Full,
    /// Individual nodes, bundled low-weight edges.
    Aggregated,
    /// One glyph per cluster.
    Glyph,
}

impl DetailLevel {
    /// Parses the wire names used by the render endpoints.
    pub fn parse(s: &str) -> Option<DetailLevel> {
        match s {
            "auto" => Some(DetailLevel::Auto),
            "full" => Some(DetailLevel::Full),
            "aggregated" | "agg" => Some(DetailLevel::Aggregated),
            "glyph" | "glyphs" => Some(DetailLevel::Glyph),
            _ => None,
        }
    }
}

/// Renderer for one graph layer.
#[derive(Debug)]
pub struct GraphPlot<'a> {
    /// Chart title.
    pub title: String,
    /// The graph to draw.
    pub graph: &'a PatternGraph,
    /// Crossing statistics under the final labels.
    pub stats: &'a ClusterStats,
    /// Representativity threshold λ for colouring.
    pub lambda: f64,
    /// Exclusivity threshold γ for colouring.
    pub gamma: f64,
    /// Pixel size.
    pub size: (f64, f64),
    /// Detail level; `Auto` degrades until the budget fits.
    pub detail: DetailLevel,
    /// Element budget for `Auto` detail and edge-bundling quotas.
    pub budget: RenderBudget,
}

impl<'a> GraphPlot<'a> {
    /// Creates a renderer with the thresholds of the advanced-settings
    /// window (size 640 × 520, auto detail, no budget).
    pub fn new(layer: &'a GraphLayer, stats: &'a ClusterStats, lambda: f64, gamma: f64) -> Self {
        GraphPlot::from_graph(&layer.graph, layer.length, stats, lambda, gamma)
    }

    /// Same, over a bare graph (tests and synthetic layers don't need to
    /// fabricate a full `GraphLayer` around it).
    pub fn from_graph(
        graph: &'a PatternGraph,
        length: usize,
        stats: &'a ClusterStats,
        lambda: f64,
        gamma: f64,
    ) -> Self {
        GraphPlot {
            title: format!("k-Graph graph (ℓ = {length})"),
            graph,
            stats,
            lambda,
            gamma,
            size: (640.0, 520.0),
            detail: DetailLevel::Auto,
            budget: RenderBudget::unlimited(),
        }
    }

    /// Sets the detail level.
    pub fn with_detail(mut self, detail: DetailLevel) -> Self {
        self.detail = detail;
        self
    }

    /// Sets the element budget.
    pub fn with_budget(mut self, budget: RenderBudget) -> Self {
        self.budget = budget;
        self
    }

    /// The cluster that "owns" node `n` under (λ, γ), if any: the cluster
    /// with maximal exclusivity among those where both thresholds hold.
    pub fn node_owner(&self, n: usize) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for c in 0..self.stats.k {
            let repr = self.stats.node_representativity(c, n);
            let excl = self.stats.node_exclusivity(c, n);
            if repr >= self.lambda && excl >= self.gamma && best.is_none_or(|(_, e)| excl > e) {
                best = Some((c, excl));
            }
        }
        best.map(|(c, _)| c)
    }

    /// Same ownership rule for edge `e`.
    pub fn edge_owner(&self, e: usize) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for c in 0..self.stats.k {
            let repr = self.stats.edge_representativity(c, e);
            let excl = self.stats.edge_exclusivity(c, e);
            if repr >= self.lambda && excl >= self.gamma && best.is_none_or(|(_, x)| excl > x) {
                best = Some((c, excl));
            }
        }
        best.map(|(c, _)| c)
    }

    /// Elements spent on background, title and legend (every level pays
    /// these).
    fn overhead(&self) -> usize {
        2 + 2 * self.stats.k + 1
    }

    /// Resolves `Auto` detail to the highest concrete level whose element
    /// count fits the budget. Explicit levels pass through unchanged.
    pub fn resolve_detail(&self) -> DetailLevel {
        match self.detail {
            DetailLevel::Auto => {
                let n = self.graph.node_count();
                let e = self.graph.edge_count();
                let cap = self.budget.max_elements;
                // Full: up to 3 lines per edge (arrow) + 1 circle per node.
                let full = self.overhead() + 3 * e + n;
                if full <= cap {
                    return DetailLevel::Full;
                }
                // Aggregated: 1 circle per node + at least one bundle path
                // per owning cluster (the direct-edge quota only spends
                // what remains).
                let aggregated = self.overhead() + n + self.stats.k + 1;
                if aggregated <= cap {
                    return DetailLevel::Aggregated;
                }
                DetailLevel::Glyph
            }
            concrete => concrete,
        }
    }

    /// Renders to SVG with the nodes at `layout` (one position per node,
    /// in layout coordinates; fitted to the viewport here).
    pub fn render(&self, layout: &[(f64, f64)]) -> String {
        self.render_counted(layout).0
    }

    /// [`Self::render`], also reporting the emitted element count (what
    /// the budget is accounted against).
    pub fn render_counted(&self, layout: &[(f64, f64)]) -> (String, usize) {
        let (w, h) = self.size;
        let mut doc = SvgDoc::new(w, h);
        doc.rect(0.0, 0.0, w, h, "#ffffff", "none");
        doc.text(w / 2.0, 18.0, &self.title, 12.0, "middle", "#111111");
        let g = self.graph;
        if g.node_count() == 0 {
            doc.text(w / 2.0, h / 2.0, "(empty graph)", 11.0, "middle", "#777777");
            let count = doc.element_count();
            return (doc.finish(), count);
        }
        let pos = fit_to_viewport(layout, w, h - 40.0, 30.0);
        let pos: Vec<(f64, f64)> = pos.into_iter().map(|(x, y)| (x, y + 30.0)).collect();

        match self.resolve_detail() {
            DetailLevel::Full => self.render_full(&mut doc, &pos),
            DetailLevel::Aggregated => self.render_aggregated(&mut doc, &pos),
            DetailLevel::Glyph => self.render_glyph(&mut doc, &pos),
            DetailLevel::Auto => unreachable!("resolve_detail() never returns Auto"),
        }
        self.render_legend(&mut doc);
        let count = doc.element_count();
        (doc.finish(), count)
    }

    /// Node radius rule shared by every detail level.
    fn radius_fn(&self) -> impl Fn(usize) -> f64 {
        let max_count = self
            .graph
            .nodes_iter()
            .map(|(_, n)| n.count)
            .max()
            .unwrap_or(1)
            .max(1) as f64;
        move |count: usize| 3.0 + 9.0 * (count as f64 / max_count).sqrt()
    }

    /// The classic render: one arrow per edge, one circle per node.
    fn render_full(&self, doc: &mut SvgDoc, pos: &[(f64, f64)]) {
        let g = self.graph;
        let radius = self.radius_fn();
        // Edges first (under nodes).
        let max_weight = g.edges_iter().map(|(_, _, _, &w)| w).fold(1.0f64, f64::max);
        for (e, s, t, &weight) in g.edges_iter() {
            let color = self.edge_owner(e.index()).map_or(MUTED, category_color);
            let (x1, y1) = pos[s.index()];
            let (x2, y2) = pos[t.index()];
            // Shorten toward the target so the arrow tip meets the circle.
            let rt = radius(g.node(t).count);
            let dx = x2 - x1;
            let dy = y2 - y1;
            let len = (dx * dx + dy * dy).sqrt().max(1e-9);
            let (ex, ey) = (x2 - dx / len * rt, y2 - dy / len * rt);
            let width = 0.5 + 2.0 * (weight / max_weight);
            doc.arrow(x1, y1, ex, ey, color, width);
        }
        // Nodes.
        for (id, node) in g.nodes_iter() {
            let color = self.node_owner(id.index()).map_or(MUTED, category_color);
            let (x, y) = pos[id.index()];
            doc.circle(x, y, radius(node.count), color, "#555555");
        }
    }

    /// Individual nodes, bundled low-weight edges: the heaviest edges (up
    /// to the budget's remainder) draw as single lines, the tail folds
    /// into one `<path>` per owning cluster; node circles share `<g>`
    /// style groups per colour.
    fn render_aggregated(&self, doc: &mut SvgDoc, pos: &[(f64, f64)]) {
        let g = self.graph;
        let n = g.node_count();
        let radius = self.radius_fn();
        let k = self.stats.k;

        // Owner per edge (None → the muted bucket at index k).
        let owners: Vec<usize> = (0..g.edge_count())
            .map(|e| self.edge_owner(e).unwrap_or(k))
            .collect();
        let bundles_present = {
            let mut seen = vec![false; k + 1];
            for &o in &owners {
                seen[o] = true;
            }
            seen
        };
        let bundle_count = bundles_present.iter().filter(|&&s| s).count();

        // Direct-edge quota: whatever the budget leaves after the fixed
        // cost; defaults to ~one direct edge per node when uncapped.
        let quota = if self.budget.is_unlimited() {
            n
        } else {
            self.budget
                .max_elements
                .saturating_sub(self.overhead() + n + bundle_count)
        };
        // Heaviest edges first, ties broken by edge id for determinism.
        let mut by_weight: Vec<usize> = (0..g.edge_count()).collect();
        let weights: Vec<f64> = g.edges_iter().map(|(_, _, _, &w)| w).collect();
        by_weight.sort_by(|&a, &b| weights[b].total_cmp(&weights[a]).then(a.cmp(&b)));
        let mut direct = vec![false; g.edge_count()];
        for &e in by_weight.iter().take(quota) {
            direct[e] = true;
        }

        // Bundle tails: one path per owner bucket, segments in edge order.
        let max_weight = weights.iter().copied().fold(1.0f64, f64::max);
        let mut bundle_d: Vec<String> = vec![String::new(); k + 1];
        for (e, s, t, _) in g.edges_iter() {
            if direct[e.index()] {
                continue;
            }
            let (x1, y1) = pos[s.index()];
            let (x2, y2) = pos[t.index()];
            let d = &mut bundle_d[owners[e.index()]];
            d.push('M');
            fixed(d, x1, 1);
            d.push(' ');
            fixed(d, y1, 1);
            d.push('L');
            fixed(d, x2, 1);
            d.push(' ');
            fixed(d, y2, 1);
        }
        for (c, d) in bundle_d.iter().enumerate() {
            if d.is_empty() {
                continue;
            }
            let color = if c < k { category_color(c) } else { MUTED };
            doc.path(d, color, 0.6);
        }
        // Direct edges as plain lines (arrowheads are 2 extra elements
        // each — aggregation spends them on more edges instead).
        for (e, s, t, &weight) in g.edges_iter() {
            if !direct[e.index()] {
                continue;
            }
            let color = if owners[e.index()] < k {
                category_color(owners[e.index()])
            } else {
                MUTED
            };
            let (x1, y1) = pos[s.index()];
            let (x2, y2) = pos[t.index()];
            let width = 0.5 + 2.0 * (weight / max_weight);
            doc.line(x1, y1, x2, y2, color, width);
        }
        // Nodes: bare circles in per-colour style groups.
        for c in 0..=k {
            let color = if c < k { category_color(c) } else { MUTED };
            let mut open = false;
            for (id, node) in g.nodes_iter() {
                if self.node_owner(id.index()).unwrap_or(k) != c {
                    continue;
                }
                if !open {
                    doc.begin_group(&format!(r##"fill="{color}" stroke="#555555""##));
                    open = true;
                }
                let (x, y) = pos[id.index()];
                doc.plain_circle(x, y, radius(node.count));
            }
            if open {
                doc.end_group();
            }
        }
    }

    /// The zoomed-out view: one glyph per cluster at the centroid of its
    /// nodes, aggregate inter-cluster edges, O(k) elements total.
    fn render_glyph(&self, doc: &mut SvgDoc, pos: &[(f64, f64)]) {
        let g = self.graph;
        let k = self.stats.k;
        // Per-bucket centroid and crossing mass (bucket k = unowned).
        let mut sums = vec![(0.0f64, 0.0f64); k + 1];
        let mut members = vec![0usize; k + 1];
        let mut mass = vec![0usize; k + 1];
        let node_bucket: Vec<usize> = (0..g.node_count())
            .map(|n| self.node_owner(n).unwrap_or(k))
            .collect();
        for (id, node) in g.nodes_iter() {
            let b = node_bucket[id.index()];
            sums[b].0 += pos[id.index()].0;
            sums[b].1 += pos[id.index()].1;
            members[b] += 1;
            mass[b] += node.count;
        }
        let centroid = |b: usize| {
            (
                sums[b].0 / members[b].max(1) as f64,
                sums[b].1 / members[b].max(1) as f64,
            )
        };
        // Aggregate inter-bucket edge weight.
        let mut flow = vec![0.0f64; (k + 1) * (k + 1)];
        for (_, s, t, &w) in g.edges_iter() {
            let (a, b) = (node_bucket[s.index()], node_bucket[t.index()]);
            if a != b && members[a] > 0 && members[b] > 0 {
                flow[a * (k + 1) + b] += w;
            }
        }
        let max_flow = flow.iter().copied().fold(1e-12f64, f64::max);
        for a in 0..=k {
            for b in 0..=k {
                let f = flow[a * (k + 1) + b];
                if f <= 0.0 {
                    continue;
                }
                let (x1, y1) = centroid(a);
                let (x2, y2) = centroid(b);
                let color = if a < k { category_color(a) } else { MUTED };
                doc.line(x1, y1, x2, y2, color, 1.0 + 5.0 * (f / max_flow));
            }
        }
        // Glyphs on top, sized by crossing share.
        let total_mass = mass.iter().sum::<usize>().max(1) as f64;
        for b in 0..=k {
            if members[b] == 0 {
                continue;
            }
            let (x, y) = centroid(b);
            let color = if b < k { category_color(b) } else { MUTED };
            let r = 10.0 + 40.0 * (mass[b] as f64 / total_mass).sqrt();
            doc.circle(x, y, r, color, "#555555");
            let label = if b < k {
                format!("C{b} ({} nodes)", members[b])
            } else {
                format!("unassigned ({} nodes)", members[b])
            };
            doc.text(x, y + 3.0, &label, 9.0, "middle", "#111111");
        }
    }

    /// Legend: one swatch per cluster plus the thresholds.
    fn render_legend(&self, doc: &mut SvgDoc) {
        let h = self.size.1;
        let mut lx = 30.0;
        for c in 0..self.stats.k {
            doc.circle(lx, h - 14.0, 5.0, category_color(c), "#555555");
            doc.text(
                lx + 9.0,
                h - 10.0,
                &format!("cluster {c}"),
                9.0,
                "start",
                "#333333",
            );
            lx += 80.0;
        }
        doc.text(
            lx + 10.0,
            h - 10.0,
            &format!("λ={:.2} γ={:.2}", self.lambda, self.gamma),
            9.0,
            "start",
            "#333333",
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgraph::{KGraph, KGraphConfig};
    use tscore::{Dataset, DatasetKind, TimeSeries};
    use tsgraph::layout::LayoutEngine;

    fn model() -> kgraph::KGraphModel {
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
        KGraph::new(cfg).fit(&ds)
    }

    #[test]
    fn renders_nodes_and_edges() {
        let m = model();
        let stats = m.best_stats();
        let plot = GraphPlot::new(m.best(), stats, 0.5, 0.7);
        let svg = plot.render(m.layout(LayoutEngine::Auto));
        assert!(svg.contains("k-Graph graph"));
        assert!(svg.matches("<circle").count() >= m.best().graph.node_count());
        assert!(svg.contains("cluster 0"));
        assert!(svg.contains("cluster 1"));
    }

    #[test]
    fn muted_color_for_thresholds_of_one() {
        let m = model();
        let stats = m.best_stats();
        // λ = γ = 1.01 cannot be satisfied → everything muted.
        let plot = GraphPlot::new(m.best(), stats, 1.01, 1.01);
        for n in 0..m.best().graph.node_count() {
            assert!(plot.node_owner(n).is_none());
        }
        let svg = plot.render(m.layout(LayoutEngine::Auto));
        assert!(svg.contains(MUTED));
    }

    #[test]
    fn zero_thresholds_color_everything_crossed() {
        let m = model();
        let stats = m.best_stats();
        let plot = GraphPlot::new(m.best(), stats, 0.0, 0.0);
        let owned = (0..m.best().graph.node_count())
            .filter(|&n| plot.node_owner(n).is_some())
            .count();
        assert_eq!(owned, m.best().graph.node_count());
    }

    #[test]
    fn owner_picks_max_exclusivity() {
        let m = model();
        let stats = m.best_stats();
        let plot = GraphPlot::new(m.best(), stats, 0.0, 0.0);
        for n in 0..m.best().graph.node_count() {
            if let Some(c) = plot.node_owner(n) {
                let e_owner = stats.node_exclusivity(c, n);
                for other in 0..stats.k {
                    assert!(e_owner >= stats.node_exclusivity(other, n) - 1e-12);
                }
            }
        }
    }

    #[test]
    fn detail_levels_render_and_shrink() {
        let m = model();
        let stats = m.best_stats();
        let layout = m.layout(LayoutEngine::Auto);
        let base = GraphPlot::new(m.best(), stats, 0.5, 0.7);
        let (full, full_n) = base.render_counted(layout);
        let plot = GraphPlot::new(m.best(), stats, 0.5, 0.7);
        let (agg, agg_n) = plot
            .with_detail(DetailLevel::Aggregated)
            .render_counted(layout);
        let plot = GraphPlot::new(m.best(), stats, 0.5, 0.7);
        let (glyph, glyph_n) = plot.with_detail(DetailLevel::Glyph).render_counted(layout);
        assert!(full.contains("<line"));
        assert!(agg.contains("<g "), "aggregated uses style groups");
        assert!(glyph.contains("nodes)"), "glyph labels clusters");
        assert!(glyph_n < agg_n, "glyph {glyph_n} < aggregated {agg_n}");
        assert!(agg_n < full_n, "aggregated {agg_n} < full {full_n}");
    }

    #[test]
    fn auto_detail_obeys_budget() {
        let m = model();
        let stats = m.best_stats();
        let n = m.best().graph.node_count();
        // A budget too small for full detail but enough for nodes.
        let budget = RenderBudget::capped(2 + 2 * stats.k + 1 + n + stats.k + 1 + 4);
        let plot = GraphPlot::new(m.best(), stats, 0.5, 0.7).with_budget(budget);
        assert_eq!(plot.resolve_detail(), DetailLevel::Aggregated);
        let (_, count) = plot.render_counted(m.layout(LayoutEngine::Auto));
        assert!(
            count <= budget.max_elements,
            "{count} > {}",
            budget.max_elements
        );
        // A budget below the node count forces glyphs.
        let tiny = RenderBudget::capped(n);
        let plot = GraphPlot::new(m.best(), stats, 0.5, 0.7).with_budget(tiny);
        assert_eq!(plot.resolve_detail(), DetailLevel::Glyph);
    }

    #[test]
    fn detail_parsing() {
        assert_eq!(DetailLevel::parse("auto"), Some(DetailLevel::Auto));
        assert_eq!(DetailLevel::parse("full"), Some(DetailLevel::Full));
        assert_eq!(DetailLevel::parse("agg"), Some(DetailLevel::Aggregated));
        assert_eq!(DetailLevel::parse("glyph"), Some(DetailLevel::Glyph));
        assert_eq!(DetailLevel::parse("bogus"), None);
    }
}
