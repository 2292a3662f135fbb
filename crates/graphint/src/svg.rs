//! Minimal SVG document writer.
//!
//! Every chart in this crate is assembled from these primitives; keeping
//! the writer tiny (strings in, string out) avoids an XML dependency.

use std::fmt::Write as _;

/// Escapes text content for XML.
pub fn escape(text: &str) -> String {
    text.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

/// An SVG document being built.
///
/// The opening `<svg …>` tag is written at construction and
/// [`finish`](SvgDoc::finish) only appends the closing tag, so the
/// document accumulates into one flat buffer that callers can recycle
/// across renders via [`with_buffer`](SvgDoc::with_buffer) — SVG emission
/// is the fixed cost that dominates large renders, and reallocation is a
/// measurable slice of it.
///
/// Every visual element written bumps
/// [`element_count`](SvgDoc::element_count); structural wrappers (`<g>`,
/// the root) do not count. Level-of-detail renderers budget against this
/// counter.
#[derive(Debug, Clone)]
pub struct SvgDoc {
    width: f64,
    height: f64,
    body: String,
    elements: usize,
    groups_open: usize,
}

impl SvgDoc {
    /// Creates a document of the given pixel size.
    pub fn new(width: f64, height: f64) -> Self {
        SvgDoc::with_buffer(width, height, String::new())
    }

    /// Creates a document reusing `buf`'s allocation (cleared first).
    /// Feed the string returned by [`finish`](SvgDoc::finish) back in to
    /// render repeatedly without reallocating.
    pub fn with_buffer(width: f64, height: f64, mut buf: String) -> Self {
        buf.clear();
        let _ = write!(
            buf,
            r#"<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0}" height="{height:.0}" viewBox="0 0 {width:.0} {height:.0}">"#
        );
        SvgDoc {
            width,
            height,
            body: buf,
            elements: 0,
            groups_open: 0,
        }
    }

    /// Document width.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Document height.
    pub fn height(&self) -> f64 {
        self.height
    }

    /// Number of visual elements written so far (`<g>` wrappers and the
    /// root element excluded).
    pub fn element_count(&self) -> usize {
        self.elements
    }

    /// Opens a `<g>` style group; attributes written here are inherited
    /// by every bare element inside (e.g.
    /// [`plain_circle`](SvgDoc::plain_circle)), which is what keeps
    /// per-element markup small in aggregated renders. `attrs` is raw
    /// attribute markup.
    pub fn begin_group(&mut self, attrs: &str) {
        let _ = write!(self.body, "<g {attrs}>");
        self.groups_open += 1;
    }

    /// Closes the innermost open `<g>` group.
    pub fn end_group(&mut self) {
        debug_assert!(self.groups_open > 0, "end_group without begin_group");
        self.body.push_str("</g>");
        self.groups_open = self.groups_open.saturating_sub(1);
    }

    /// Filled/stroked rectangle.
    pub fn rect(&mut self, x: f64, y: f64, w: f64, h: f64, fill: &str, stroke: &str) {
        self.elements += 1;
        let _ = write!(
            self.body,
            r#"<rect x="{x:.2}" y="{y:.2}" width="{w:.2}" height="{h:.2}" fill="{fill}" stroke="{stroke}"/>"#
        );
    }

    /// Circle.
    pub fn circle(&mut self, cx: f64, cy: f64, r: f64, fill: &str, stroke: &str) {
        self.elements += 1;
        let _ = write!(
            self.body,
            r#"<circle cx="{cx:.2}" cy="{cy:.2}" r="{r:.2}" fill="{fill}" stroke="{stroke}"/>"#
        );
    }

    /// Circle with no style attributes of its own — it inherits fill and
    /// stroke from the enclosing [`begin_group`](SvgDoc::begin_group).
    pub fn plain_circle(&mut self, cx: f64, cy: f64, r: f64) {
        self.elements += 1;
        let _ = write!(
            self.body,
            r#"<circle cx="{cx:.2}" cy="{cy:.2}" r="{r:.2}"/>"#
        );
    }

    /// Straight line segment.
    pub fn line(&mut self, x1: f64, y1: f64, x2: f64, y2: f64, stroke: &str, width: f64) {
        self.elements += 1;
        let _ = write!(
            self.body,
            r#"<line x1="{x1:.2}" y1="{y1:.2}" x2="{x2:.2}" y2="{y2:.2}" stroke="{stroke}" stroke-width="{width:.2}"/>"#
        );
    }

    /// Dashed line segment.
    pub fn dashed_line(&mut self, x1: f64, y1: f64, x2: f64, y2: f64, stroke: &str, width: f64) {
        self.elements += 1;
        let _ = write!(
            self.body,
            r#"<line x1="{x1:.2}" y1="{y1:.2}" x2="{x2:.2}" y2="{y2:.2}" stroke="{stroke}" stroke-width="{width:.2}" stroke-dasharray="4 3"/>"#
        );
    }

    /// Unfilled path with raw `d` data — one element no matter how many
    /// segments it bundles, which is what makes edge aggregation pay.
    pub fn path(&mut self, d: &str, stroke: &str, width: f64) {
        self.elements += 1;
        let _ = write!(
            self.body,
            r#"<path d="{d}" fill="none" stroke="{stroke}" stroke-width="{width:.2}"/>"#
        );
    }

    /// Open polyline through the given points.
    pub fn polyline(&mut self, points: &[(f64, f64)], stroke: &str, width: f64) {
        if points.is_empty() {
            return;
        }
        self.elements += 1;
        let pts: String = points
            .iter()
            .map(|(x, y)| format!("{x:.2},{y:.2}"))
            .collect::<Vec<_>>()
            .join(" ");
        let _ = write!(
            self.body,
            r#"<polyline points="{pts}" fill="none" stroke="{stroke}" stroke-width="{width:.2}"/>"#
        );
    }

    /// Text anchored at `(x, y)`; `anchor` is `start`, `middle` or `end`.
    pub fn text(&mut self, x: f64, y: f64, content: &str, size: f64, anchor: &str, fill: &str) {
        self.elements += 1;
        let _ = write!(
            self.body,
            r#"<text x="{x:.2}" y="{y:.2}" font-size="{size:.1}" text-anchor="{anchor}" fill="{fill}" font-family="sans-serif">{}</text>"#,
            escape(content)
        );
    }

    /// Arrow head + shaft from `(x1, y1)` to `(x2, y2)` (directed edges).
    pub fn arrow(&mut self, x1: f64, y1: f64, x2: f64, y2: f64, stroke: &str, width: f64) {
        self.line(x1, y1, x2, y2, stroke, width);
        let dx = x2 - x1;
        let dy = y2 - y1;
        let len = (dx * dx + dy * dy).sqrt();
        if len < 1e-9 {
            return;
        }
        let ux = dx / len;
        let uy = dy / len;
        let size = (3.0 + width * 1.5).min(8.0);
        // Two short strokes splaying back from the tip.
        let (bx, by) = (x2 - ux * size, y2 - uy * size);
        let (px, py) = (-uy, ux);
        self.line(
            x2,
            y2,
            bx + px * size * 0.5,
            by + py * size * 0.5,
            stroke,
            width,
        );
        self.line(
            x2,
            y2,
            bx - px * size * 0.5,
            by - py * size * 0.5,
            stroke,
            width,
        );
    }

    /// Appends raw SVG markup (escape hatch for niche shapes). Counts as
    /// one visual element.
    pub fn raw(&mut self, markup: &str) {
        self.elements += 1;
        self.body.push_str(markup);
    }

    /// Finalises the document, returning the buffer (reusable through
    /// [`with_buffer`](SvgDoc::with_buffer)). Any `<g>` groups left open
    /// are closed.
    pub fn finish(mut self) -> String {
        for _ in 0..self.groups_open {
            self.body.push_str("</g>");
        }
        self.body.push_str("</svg>");
        self.body
    }
}

/// A linear mapping from data space to pixel space.
#[derive(Debug, Clone, Copy)]
pub struct LinearScale {
    /// Data-space domain.
    pub domain: (f64, f64),
    /// Pixel-space range.
    pub range: (f64, f64),
}

impl LinearScale {
    /// Creates a scale; a degenerate domain is widened symmetrically so the
    /// scale stays invertible.
    pub fn new(domain: (f64, f64), range: (f64, f64)) -> Self {
        let (lo, hi) = domain;
        let domain = if (hi - lo).abs() < 1e-12 {
            (lo - 0.5, hi + 0.5)
        } else {
            domain
        };
        LinearScale { domain, range }
    }

    /// Maps a data value to pixels.
    pub fn apply(&self, v: f64) -> f64 {
        let t = (v - self.domain.0) / (self.domain.1 - self.domain.0);
        self.range.0 + t * (self.range.1 - self.range.0)
    }

    /// Reasonable tick positions (about `n` of them).
    pub fn ticks(&self, n: usize) -> Vec<f64> {
        let n = n.max(2);
        let span = self.domain.1 - self.domain.0;
        let raw_step = span / (n - 1) as f64;
        // Round to 1/2/5 × 10^k.
        let mag = 10f64.powf(raw_step.abs().log10().floor());
        let norm = raw_step / mag;
        let step = if norm < 1.5 {
            mag
        } else if norm < 3.5 {
            2.0 * mag
        } else if norm < 7.5 {
            5.0 * mag
        } else {
            10.0 * mag
        };
        let first = (self.domain.0 / step).ceil() * step;
        let mut out = Vec::new();
        let mut v = first;
        while v <= self.domain.1 + 1e-9 {
            out.push(v);
            v += step;
        }
        out
    }
}

/// Draws standard chart axes (left + bottom, ticks, labels) into `doc`.
///
/// Returns nothing; the plot area is `(margin_left, margin_top)` to
/// `(width − margin_right, height − margin_bottom)` by convention of the
/// calling charts.
#[allow(clippy::too_many_arguments)]
pub fn draw_axes(
    doc: &mut SvgDoc,
    x: &LinearScale,
    y: &LinearScale,
    x_label: &str,
    y_label: &str,
    plot_left: f64,
    plot_bottom: f64,
    plot_right: f64,
    plot_top: f64,
) {
    let axis_color = "#333333";
    doc.line(plot_left, plot_top, plot_left, plot_bottom, axis_color, 1.0);
    doc.line(
        plot_left,
        plot_bottom,
        plot_right,
        plot_bottom,
        axis_color,
        1.0,
    );
    for t in x.ticks(6) {
        let px = x.apply(t);
        if px < plot_left - 1e-6 || px > plot_right + 1e-6 {
            continue;
        }
        doc.line(px, plot_bottom, px, plot_bottom + 4.0, axis_color, 1.0);
        doc.text(
            px,
            plot_bottom + 14.0,
            &format_tick(t),
            9.0,
            "middle",
            axis_color,
        );
    }
    for t in y.ticks(6) {
        let py = y.apply(t);
        if py > plot_bottom + 1e-6 || py < plot_top - 1e-6 {
            continue;
        }
        doc.line(plot_left - 4.0, py, plot_left, py, axis_color, 1.0);
        doc.text(
            plot_left - 6.0,
            py + 3.0,
            &format_tick(t),
            9.0,
            "end",
            axis_color,
        );
    }
    if !x_label.is_empty() {
        doc.text(
            (plot_left + plot_right) / 2.0,
            plot_bottom + 28.0,
            x_label,
            10.0,
            "middle",
            axis_color,
        );
    }
    if !y_label.is_empty() {
        let cx = plot_left - 30.0;
        let cy = (plot_top + plot_bottom) / 2.0;
        doc.raw(&format!(
            r#"<text x="{cx:.1}" y="{cy:.1}" font-size="10" text-anchor="middle" fill="{axis_color}" font-family="sans-serif" transform="rotate(-90 {cx:.1} {cy:.1})">{}</text>"#,
            escape(y_label)
        ));
    }
}

/// Short human formatting of tick values.
pub fn format_tick(v: f64) -> String {
    if v == 0.0 {
        return "0".to_string();
    }
    let a = v.abs();
    if a >= 10.0 {
        format!("{:.0}", v)
    } else if a >= 1.0 {
        format!("{:.1}", v)
    } else {
        format!("{:.2}", v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn document_structure() {
        let mut doc = SvgDoc::new(100.0, 50.0);
        doc.rect(0.0, 0.0, 10.0, 10.0, "#ff0000", "none");
        doc.circle(5.0, 5.0, 2.0, "blue", "black");
        doc.line(0.0, 0.0, 9.0, 9.0, "#000", 1.0);
        doc.text(1.0, 1.0, "hi", 10.0, "start", "#000");
        let svg = doc.finish();
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        assert!(svg.contains("<rect"));
        assert!(svg.contains("<circle"));
        assert!(svg.contains("<line"));
        assert!(svg.contains(">hi</text>"));
        assert!(svg.contains(r#"width="100""#));
    }

    #[test]
    fn escaping() {
        assert_eq!(escape("a<b>&\"c\""), "a&lt;b&gt;&amp;&quot;c&quot;");
        let mut doc = SvgDoc::new(10.0, 10.0);
        doc.text(0.0, 0.0, "x<y", 8.0, "start", "#000");
        assert!(doc.finish().contains("x&lt;y"));
    }

    #[test]
    fn polyline_and_empty() {
        let mut doc = SvgDoc::new(10.0, 10.0);
        doc.polyline(&[], "#000", 1.0);
        doc.polyline(&[(0.0, 0.0), (1.0, 1.0)], "#000", 1.0);
        let svg = doc.finish();
        assert_eq!(svg.matches("<polyline").count(), 1);
    }

    #[test]
    fn scale_mapping() {
        let s = LinearScale::new((0.0, 10.0), (100.0, 200.0));
        assert_eq!(s.apply(0.0), 100.0);
        assert_eq!(s.apply(10.0), 200.0);
        assert_eq!(s.apply(5.0), 150.0);
        // Inverted pixel range (SVG y axis).
        let y = LinearScale::new((0.0, 1.0), (200.0, 0.0));
        assert_eq!(y.apply(1.0), 0.0);
    }

    #[test]
    fn degenerate_domain_widened() {
        let s = LinearScale::new((3.0, 3.0), (0.0, 100.0));
        let px = s.apply(3.0);
        assert!(px.is_finite());
        assert!((px - 50.0).abs() < 1e-9);
    }

    #[test]
    fn ticks_are_round_and_inside() {
        let s = LinearScale::new((0.0, 9.7), (0.0, 100.0));
        let ticks = s.ticks(6);
        assert!(!ticks.is_empty());
        assert!(ticks.windows(2).all(|w| w[1] > w[0]));
        for t in &ticks {
            assert!(*t >= -1e-9 && *t <= 9.7 + 1e-9);
        }
    }

    #[test]
    fn arrow_draws_three_lines() {
        let mut doc = SvgDoc::new(10.0, 10.0);
        doc.arrow(0.0, 0.0, 5.0, 5.0, "#000", 1.0);
        let svg = doc.finish();
        assert_eq!(svg.matches("<line").count(), 3);
        // Degenerate arrow: only the shaft.
        let mut doc2 = SvgDoc::new(10.0, 10.0);
        doc2.arrow(1.0, 1.0, 1.0, 1.0, "#000", 1.0);
        assert_eq!(doc2.finish().matches("<line").count(), 1);
    }

    #[test]
    fn tick_formatting() {
        assert_eq!(format_tick(0.0), "0");
        assert_eq!(format_tick(1234.0), "1234");
        assert_eq!(format_tick(12.0), "12");
        assert_eq!(format_tick(1.25), "1.2");
        // 0.125 rounds half-to-even under `{:.2}` formatting.
        assert_eq!(format_tick(0.125), "0.12");
    }

    #[test]
    fn axes_render() {
        let mut doc = SvgDoc::new(300.0, 200.0);
        let x = LinearScale::new((0.0, 10.0), (40.0, 280.0));
        let y = LinearScale::new((0.0, 1.0), (170.0, 20.0));
        draw_axes(&mut doc, &x, &y, "time", "value", 40.0, 170.0, 280.0, 20.0);
        let svg = doc.finish();
        assert!(svg.contains("time"));
        assert!(svg.contains("value"));
        assert!(svg.contains("rotate(-90"));
    }
}
