//! Clustering-comparison frame (Figure 3, frame 1.1).
//!
//! Shows the dataset organised by each method's partition, with series
//! coloured by their **true** labels — "mixed colors mean low clustering
//! accuracy" — plus a ground-truth panel, and each method's ARI.

use crate::ascii::render_table;
use crate::color::category_color;
use crate::svg::{LinearScale, SvgDoc};
use clustering::metrics::adjusted_rand_index;
use tscore::Dataset;

/// One method's entry in the comparison.
#[derive(Debug, Clone)]
pub struct MethodPartition {
    /// Display name.
    pub name: String,
    /// The partition it produced.
    pub labels: Vec<usize>,
}

/// The assembled frame.
#[derive(Debug, Clone)]
pub struct ComparisonFrame {
    /// Dataset name.
    pub dataset_name: String,
    /// Per-method `(name, ARI)` in input order.
    pub aris: Vec<(String, f64)>,
    /// Rendered SVG panels: one per method + one ground-truth panel.
    pub panels: Vec<(String, String)>,
}

impl ComparisonFrame {
    /// Builds the frame. The dataset must be labelled; every partition must
    /// cover the dataset.
    pub fn build(dataset: &Dataset, methods: &[MethodPartition]) -> ComparisonFrame {
        let truth = dataset
            .labels()
            .expect("comparison frame needs true labels");
        let mut aris = Vec::with_capacity(methods.len());
        let mut panels = Vec::with_capacity(methods.len() + 1);
        for m in methods {
            assert_eq!(m.labels.len(), dataset.len(), "{} partition size", m.name);
            let ari = adjusted_rand_index(truth, &m.labels);
            aris.push((m.name.clone(), ari));
            panels.push((
                m.name.clone(),
                render_partition_panel(dataset, &m.labels, &format!("{} (ARI {:.3})", m.name, ari)),
            ));
        }
        panels.push((
            "true labels".to_string(),
            render_partition_panel(dataset, truth, "True labels"),
        ));
        ComparisonFrame {
            dataset_name: dataset.name().to_string(),
            aris,
            panels,
        }
    }

    /// Text summary: methods ranked by ARI.
    pub fn summary(&self) -> String {
        let mut rows: Vec<(String, f64)> = self.aris.clone();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        let table: Vec<Vec<String>> = rows
            .into_iter()
            .map(|(name, ari)| vec![name, format!("{ari:.3}")])
            .collect();
        format!(
            "Clustering comparison on {}\n{}",
            self.dataset_name,
            render_table(&["method", "ARI"], &table)
        )
    }
}

/// Renders one partition panel: one horizontal band per cluster, member
/// series overlaid and coloured by their true label.
pub fn render_partition_panel(dataset: &Dataset, labels: &[usize], title: &str) -> String {
    let truth = dataset.labels().expect("panel needs true labels");
    let k = labels.iter().copied().max().map_or(0, |m| m + 1);
    let band_h = 76.0;
    let w = 560.0;
    let h = 34.0 + band_h * k as f64;
    let mut doc = SvgDoc::new(w, h);
    doc.rect(0.0, 0.0, w, h, "#ffffff", "none");
    doc.text(w / 2.0, 16.0, title, 11.0, "middle", "#111111");
    for c in 0..k {
        let top = 26.0 + band_h * c as f64;
        let bottom = top + band_h - 12.0;
        doc.rect(40.0, top, w - 54.0, band_h - 12.0, "#fafafa", "#dddddd");
        doc.text(
            8.0,
            (top + bottom) / 2.0,
            &format!("C{c}"),
            10.0,
            "start",
            "#333333",
        );
        // Global y-range of members keeps bands comparable.
        let members: Vec<usize> = (0..dataset.len()).filter(|&i| labels[i] == c).collect();
        if members.is_empty() {
            doc.text(
                w / 2.0,
                (top + bottom) / 2.0,
                "(empty)",
                9.0,
                "middle",
                "#999999",
            );
            continue;
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        let mut max_len = 1usize;
        for &i in &members {
            let s = dataset.series()[i].values();
            lo = lo.min(tscore::stats::min(s));
            hi = hi.max(tscore::stats::max(s));
            max_len = max_len.max(s.len());
        }
        let xs = LinearScale::new((0.0, (max_len - 1).max(1) as f64), (42.0, w - 16.0));
        let ys = LinearScale::new((lo, hi), (bottom - 2.0, top + 2.0));
        for &i in &members {
            let pts: Vec<(f64, f64)> = dataset.series()[i]
                .values()
                .iter()
                .enumerate()
                .map(|(t, &v)| (xs.apply(t as f64), ys.apply(v)))
                .collect();
            doc.polyline(&pts, category_color(truth[i]), 0.8);
        }
    }
    doc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tscore::{DatasetKind, TimeSeries};

    fn toy() -> Dataset {
        let mut series = Vec::new();
        let mut labels = Vec::new();
        for (label, base) in [0.0f64, 5.0].into_iter().enumerate() {
            for p in 0..4 {
                series.push(TimeSeries::new(
                    (0..30)
                        .map(|i| base + ((i + p) as f64 * 0.4).sin())
                        .collect(),
                ));
                labels.push(label);
            }
        }
        Dataset::with_labels("toy", DatasetKind::Simulated, series, labels).unwrap()
    }

    #[test]
    fn frame_builds_with_aris() {
        let ds = toy();
        let perfect = ds.labels().unwrap().to_vec();
        let broken: Vec<usize> = (0..ds.len()).map(|i| i % 2).collect();
        let frame = ComparisonFrame::build(
            &ds,
            &[
                MethodPartition {
                    name: "good".into(),
                    labels: perfect,
                },
                MethodPartition {
                    name: "bad".into(),
                    labels: broken,
                },
            ],
        );
        assert_eq!(frame.panels.len(), 3); // 2 methods + truth
        assert!((frame.aris[0].1 - 1.0).abs() < 1e-12);
        assert!(frame.aris[1].1 < 0.3);
        assert!(frame.panels[0].1.contains("ARI 1.000"));
        assert!(frame.panels[2].0.contains("true"));
    }

    #[test]
    fn summary_ranked() {
        let ds = toy();
        let perfect = ds.labels().unwrap().to_vec();
        let broken: Vec<usize> = (0..ds.len()).map(|i| i % 2).collect();
        let frame = ComparisonFrame::build(
            &ds,
            &[
                MethodPartition {
                    name: "bad".into(),
                    labels: broken,
                },
                MethodPartition {
                    name: "good".into(),
                    labels: perfect,
                },
            ],
        );
        let s = frame.summary();
        let good_pos = s.find("good").unwrap();
        let bad_pos = s.find("bad").unwrap();
        assert!(good_pos < bad_pos, "ranked by ARI:\n{s}");
    }

    #[test]
    fn panel_draws_every_series() {
        let ds = toy();
        let labels = ds.labels().unwrap().to_vec();
        let svg = render_partition_panel(&ds, &labels, "p");
        assert_eq!(svg.matches("<polyline").count(), ds.len());
    }

    #[test]
    fn empty_cluster_marked() {
        let ds = toy();
        // Partition that uses label 2 but leaves label 1 empty.
        let labels: Vec<usize> = (0..ds.len()).map(|i| if i < 4 { 0 } else { 2 }).collect();
        let svg = render_partition_panel(&ds, &labels, "p");
        assert!(svg.contains("(empty)"));
    }

    #[test]
    #[should_panic(expected = "partition size")]
    fn wrong_partition_size_panics() {
        let ds = toy();
        ComparisonFrame::build(
            &ds,
            &[MethodPartition {
                name: "x".into(),
                labels: vec![0, 1],
            }],
        );
    }
}
