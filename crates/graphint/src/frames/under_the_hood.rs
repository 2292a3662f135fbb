//! Under-the-hood frame (Figure 3, frame 4).
//!
//! Exposes k-Graph's internals for the selected dataset: 4.1 the length
//! selection (Wc, We and their product per length, with ℓ̄ marked), 4.2 the
//! feature matrix of the selected length, 4.3 the consensus matrix — all
//! reordered by the final clustering so block structure is visible.

use crate::ascii::render_table;
use crate::plot::heatmap::Heatmap;
use crate::plot::line::{LineChart, Series};
use kgraph::features::feature_matrix;
use kgraph::KGraphModel;
use linalg::matrix::Matrix;

/// The assembled Under-the-hood frame.
#[derive(Debug)]
pub struct UnderTheHoodFrame<'a> {
    model: &'a KGraphModel,
}

impl<'a> UnderTheHoodFrame<'a> {
    /// Creates the frame for a fitted model.
    pub fn new(model: &'a KGraphModel) -> Self {
        UnderTheHoodFrame { model }
    }

    /// 4.1 — length-selection chart: `Wc(ℓ)`, `We(ℓ)` and `Wc·We`, with a
    /// marker at the selected ℓ̄.
    pub fn render_length_selection(&self) -> String {
        let wc: Vec<(f64, f64)> = self
            .model
            .scores
            .iter()
            .map(|s| (s.length as f64, s.wc))
            .collect();
        let we: Vec<(f64, f64)> = self
            .model
            .scores
            .iter()
            .map(|s| (s.length as f64, s.we))
            .collect();
        let prod: Vec<(f64, f64)> = self
            .model
            .scores
            .iter()
            .map(|s| (s.length as f64, s.product()))
            .collect();
        let mut chart = LineChart::new("4.1 Length selection");
        chart.x_label = "subsequence length ℓ".into();
        chart.y_label = "score".into();
        chart.series.push(Series {
            label: "Wc (consistency)".into(),
            points: wc,
            color: "#1f77b4".into(),
            width: 1.5,
        });
        chart.series.push(Series {
            label: "We (interpretability)".into(),
            points: we,
            color: "#ff7f0e".into(),
            width: 1.5,
        });
        chart.series.push(Series {
            label: "Wc x We".into(),
            points: prod,
            color: "#2ca02c".into(),
            width: 2.0,
        });
        let best = self.model.best_length() as f64;
        chart
            .vlines
            .push((best, format!("selected ℓ = {}", self.model.best_length())));
        chart.render()
    }

    /// Series order that groups rows by final cluster (for heatmaps).
    fn cluster_order(&self) -> (Vec<usize>, Vec<usize>) {
        let labels = &self.model.labels;
        let k = self.model.k();
        let mut order = Vec::with_capacity(labels.len());
        let mut boundaries = Vec::new();
        for c in 0..k {
            for (i, &l) in labels.iter().enumerate() {
                if l == c {
                    order.push(i);
                }
            }
            if c + 1 < k {
                boundaries.push(order.len());
            }
        }
        (order, boundaries)
    }

    /// 4.2 — feature-matrix heatmap of the selected layer (rows = series
    /// grouped by final cluster, columns = node then edge features).
    pub fn render_feature_matrix(&self) -> String {
        let layer = self.model.best();
        let features = feature_matrix(
            layer,
            self.model.config.node_features,
            self.model.config.edge_features,
        );
        let (order, boundaries) = self.cluster_order();
        let reordered: Vec<Vec<f64>> = order.iter().map(|&i| features[i].clone()).collect();
        let mut hm = Heatmap::new(
            format!("4.2 Feature matrix (ℓ = {})", layer.length),
            Matrix::from_rows(&reordered),
        );
        hm.row_groups = boundaries;
        hm.render()
    }

    /// 4.3 — consensus-matrix heatmap (rows and columns grouped by final
    /// cluster; block-diagonal structure = stable consensus).
    pub fn render_consensus_matrix(&self) -> String {
        let (order, boundaries) = self.cluster_order();
        let n = order.len();
        let mc = self.model.consensus();
        let reordered = Matrix::from_fn(n, n, |i, j| mc[(order[i], order[j])]);
        let mut hm = Heatmap::new("4.3 Consensus matrix", reordered);
        hm.domain = Some((0.0, 1.0));
        hm.row_groups = boundaries;
        hm.render()
    }

    /// Text summary of the per-length scores.
    pub fn summary(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .model
            .scores
            .iter()
            .enumerate()
            .map(|(i, s)| {
                vec![
                    s.length.to_string(),
                    format!("{:.3}", s.wc),
                    format!("{:.3}", s.we),
                    format!("{:.3}", s.product()),
                    if i == self.model.best_layer {
                        "<- selected".into()
                    } else {
                        String::new()
                    },
                ]
            })
            .collect();
        render_table(&["length", "Wc", "We", "Wc*We", ""], &rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgraph::{KGraph, KGraphConfig};
    use tscore::{Dataset, DatasetKind, TimeSeries};

    fn model() -> KGraphModel {
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
            n_lengths: 3,
            psi: 10,
            pca_sample: 400,
            n_init: 2,
            ..KGraphConfig::new(2)
        };
        KGraph::new(cfg).fit(&ds)
    }

    #[test]
    fn length_selection_chart() {
        let m = model();
        let svg = UnderTheHoodFrame::new(&m).render_length_selection();
        assert!(svg.contains("4.1 Length selection"));
        assert!(svg.contains("Wc (consistency)"));
        assert!(svg.contains("We (interpretability)"));
        assert!(svg.contains(&format!("selected ℓ = {}", m.best_length())));
        assert_eq!(svg.matches("<polyline").count(), 3);
    }

    #[test]
    fn feature_matrix_heatmap() {
        let m = model();
        let svg = UnderTheHoodFrame::new(&m).render_feature_matrix();
        assert!(svg.contains("4.2 Feature matrix"));
        assert!(svg.contains(&format!("ℓ = {}", m.best_length())));
    }

    #[test]
    fn consensus_heatmap() {
        let m = model();
        let svg = UnderTheHoodFrame::new(&m).render_consensus_matrix();
        assert!(svg.contains("4.3 Consensus matrix"));
        // Domain pinned to [0, 1].
        assert!(svg.contains("1.00"));
        assert!(svg.contains("0.00"));
    }

    #[test]
    fn summary_marks_selected() {
        let m = model();
        let s = UnderTheHoodFrame::new(&m).summary();
        assert!(s.contains("<- selected"));
        assert!(s.contains("Wc*We"));
        // One row per length.
        assert!(s.matches('\n').count() >= m.scores.len());
    }

    #[test]
    fn cluster_order_is_permutation() {
        let m = model();
        let frame = UnderTheHoodFrame::new(&m);
        let (order, boundaries) = frame.cluster_order();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..m.labels.len()).collect::<Vec<_>>());
        assert!(boundaries.len() <= m.k().saturating_sub(1));
    }
}
