//! Box plots — the Benchmark frame's main visual.

use crate::color::category_color;
use crate::svg::{LinearScale, SvgDoc};
use tscore::stats::five_number_summary;

/// One box (a method's score distribution).
#[derive(Debug, Clone)]
pub struct Box {
    /// Category label (method name).
    pub label: String,
    /// (min, q1, median, q3, max).
    pub summary: (f64, f64, f64, f64, f64),
    /// Number of observations behind the box.
    pub n: usize,
}

impl Box {
    /// Builds a box from raw samples.
    pub fn from_samples(label: impl Into<String>, samples: &[f64]) -> Self {
        Box {
            label: label.into(),
            summary: five_number_summary(samples),
            n: samples.len(),
        }
    }
}

/// A vertical box-plot chart.
#[derive(Debug, Clone)]
pub struct BoxPlot {
    /// Chart title.
    pub title: String,
    /// Y-axis label (the evaluation measure).
    pub y_label: String,
    /// The boxes, plotted left to right.
    pub boxes: Vec<Box>,
    /// Pixel size.
    pub size: (f64, f64),
    /// Highlighted category (drawn in colour; others grey) — Graphint
    /// highlights k-Graph against the baselines.
    pub highlight: Option<String>,
}

impl BoxPlot {
    /// Creates an empty box plot (size 720 × 320).
    pub fn new(title: impl Into<String>, y_label: impl Into<String>) -> Self {
        BoxPlot {
            title: title.into(),
            y_label: y_label.into(),
            boxes: Vec::new(),
            size: (720.0, 320.0),
            highlight: None,
        }
    }

    /// Adds a box (builder style).
    #[allow(clippy::should_implement_trait)] // builder verb, not arithmetic
    pub fn add(mut self, b: Box) -> Self {
        self.boxes.push(b);
        self
    }

    /// Renders to SVG.
    pub fn render(&self) -> String {
        let (w, h) = self.size;
        let (left, right, top, bottom) = (52.0, w - 14.0, 34.0, h - 58.0);
        let mut doc = SvgDoc::new(w, h);
        doc.rect(0.0, 0.0, w, h, "#ffffff", "none");
        doc.text(w / 2.0, 18.0, &self.title, 12.0, "middle", "#111111");
        if self.boxes.is_empty() {
            doc.text(w / 2.0, h / 2.0, "(no data)", 11.0, "middle", "#777777");
            return doc.finish();
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for b in &self.boxes {
            lo = lo.min(b.summary.0);
            hi = hi.max(b.summary.4);
        }
        let pad = ((hi - lo) * 0.06).max(1e-9);
        let ys = LinearScale::new((lo - pad, hi + pad), (bottom, top));
        // Y axis.
        doc.line(left, top, left, bottom, "#333333", 1.0);
        for t in ys.ticks(6) {
            let py = ys.apply(t);
            if py > bottom + 1e-6 || py < top - 1e-6 {
                continue;
            }
            doc.line(left - 4.0, py, left, py, "#333333", 1.0);
            doc.text(
                left - 6.0,
                py + 3.0,
                &crate::svg::format_tick(t),
                9.0,
                "end",
                "#333333",
            );
            doc.dashed_line(left, py, right, py, "#eeeeee", 0.6);
        }
        if !self.y_label.is_empty() {
            let cy = (top + bottom) / 2.0;
            doc.rotated_text(
                left - 34.0,
                cy,
                -90.0,
                &self.y_label,
                10.0,
                "middle",
                "#333333",
            );
        }

        let slot = (right - left) / self.boxes.len() as f64;
        let box_w = (slot * 0.55).min(46.0);
        for (i, b) in self.boxes.iter().enumerate() {
            let cx = left + slot * (i as f64 + 0.5);
            let highlighted = self.highlight.as_deref() == Some(b.label.as_str());
            let color = if self.highlight.is_none() || highlighted {
                category_color(i).to_string()
            } else {
                "#bbbbbb".to_string()
            };
            let (mn, q1, md, q3, mx) = b.summary;
            let (y_mn, y_q1, y_md, y_q3, y_mx) = (
                ys.apply(mn),
                ys.apply(q1),
                ys.apply(md),
                ys.apply(q3),
                ys.apply(mx),
            );
            // Whiskers.
            doc.line(cx, y_mn, cx, y_q1, &color, 1.0);
            doc.line(cx, y_q3, cx, y_mx, &color, 1.0);
            doc.line(cx - box_w / 4.0, y_mn, cx + box_w / 4.0, y_mn, &color, 1.0);
            doc.line(cx - box_w / 4.0, y_mx, cx + box_w / 4.0, y_mx, &color, 1.0);
            // Box + median.
            doc.rect(
                cx - box_w / 2.0,
                y_q3,
                box_w,
                (y_q1 - y_q3).max(0.5),
                "none",
                &color,
            );
            doc.line(cx - box_w / 2.0, y_md, cx + box_w / 2.0, y_md, &color, 2.0);
            doc.rotated_text(cx, bottom + 12.0, -35.0, &b.label, 9.0, "end", "#333333");
        }
        doc.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn box_from_samples() {
        let b = Box::from_samples("m", &[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(b.summary.0, 1.0);
        assert_eq!(b.summary.2, 3.0);
        assert_eq!(b.summary.4, 5.0);
        assert_eq!(b.n, 5);
    }

    #[test]
    fn renders_boxes() {
        let plot = BoxPlot::new("Benchmark", "ARI")
            .add(Box::from_samples("k-Graph", &[0.7, 0.8, 0.9]))
            .add(Box::from_samples("k-Means", &[0.3, 0.5, 0.6]));
        let svg = plot.render();
        assert!(svg.contains("Benchmark"));
        assert!(svg.contains("k-Graph"));
        assert!(svg.contains("k-Means"));
        assert!(svg.contains("ARI"));
        assert!(svg.matches("<rect").count() >= 3); // background + 2 boxes
    }

    #[test]
    fn highlight_greys_out_others() {
        let mut plot = BoxPlot::new("b", "ARI")
            .add(Box::from_samples("k-Graph", &[0.8, 0.9]))
            .add(Box::from_samples("other", &[0.1, 0.2]));
        plot.highlight = Some("k-Graph".into());
        let svg = plot.render();
        assert!(svg.contains("#bbbbbb"));
    }

    #[test]
    fn empty_plot_graceful() {
        let svg = BoxPlot::new("b", "y").render();
        assert!(svg.contains("(no data)"));
    }

    #[test]
    fn constant_samples_do_not_break() {
        let plot = BoxPlot::new("b", "y").add(Box::from_samples("c", &[0.5, 0.5, 0.5]));
        let svg = plot.render();
        assert!(!svg.contains("NaN"));
    }
}
