//! Minimal SVG document writer.
//!
//! Every chart in this crate is assembled from these primitives; keeping
//! the writer tiny (strings in, string out) avoids an XML dependency.
//!
//! ## Numbers
//!
//! Every number an [`SvgDoc`] primitive emits goes through [`fixed`],
//! which appends exactly the bytes `format!("{x:.N}")` would: the exact
//! decimal value of the `f64` rounded to `N` places, ties to even, with a
//! leading `-` on every negative value (so `-0.001` and `-0.0` print as
//! `-0.00`). It writes the digits itself and hands the value to
//! `write!` only where that shortcut cannot be shown exact: non-finite
//! values, `N > 9`, `|x|·10^N ≥ 2^26`, and fractions within `1e-7` of a
//! half-way point (every exact tie such as `0.125` at two places among
//! them).

use std::fmt::Write as _;

/// Largest scaled magnitude [`fixed`] rounds by hand. Below it the
/// product `|x|·10^d` is within 2^-27 of the exact one, so it rounds to
/// the same integer unless it lies within `HALF_BAND` of a half-way point.
const FAST_LIMIT: f64 = (1u32 << 26) as f64;

/// Distance from a half-way point inside which [`fixed`] defers to
/// `write!`.
const HALF_BAND: f64 = 1e-7;

/// Appends `x` with `decimals` digits after the point, byte-identical to
/// `format!("{x:.decimals$}")`.
pub fn fixed(out: &mut String, x: f64, decimals: usize) {
    // 10^d is exact as a `u32`, and so as an `f64`, for d ≤ 9.
    let pow = u32::try_from(decimals)
        .ok()
        .and_then(|d| 10u32.checked_pow(d));
    if let Some(pow) = pow {
        let y = x.abs() * f64::from(pow);
        // NaN and infinities fail this comparison too.
        if y < FAST_LIMIT {
            // Truncation is the floor here: 0 ≤ y < 2^26.
            let whole = y as u32;
            let frac = y - f64::from(whole);
            if (frac - 0.5).abs() >= HALF_BAND {
                let mut n = whole + u32::from(frac > 0.5);
                // Digits right to left: `decimals` fraction digits, the
                // point, the integer digits (at least one), the sign.
                let mut buf = [0u8; 24];
                let mut i = buf.len();
                for _ in 0..decimals {
                    i -= 1;
                    buf[i] = b'0' + (n % 10) as u8;
                    n /= 10;
                }
                if decimals > 0 {
                    i -= 1;
                    buf[i] = b'.';
                }
                loop {
                    i -= 1;
                    buf[i] = b'0' + (n % 10) as u8;
                    n /= 10;
                    if n == 0 {
                        break;
                    }
                }
                if x.is_sign_negative() {
                    i -= 1;
                    buf[i] = b'-';
                }
                out.push_str(std::str::from_utf8(&buf[i..]).expect("ASCII digits"));
                return;
            }
        }
    }
    let _ = write!(out, "{x:.decimals$}");
}

/// Appends `text` to `out`, escaped for XML text and attribute values.
fn escape_into(out: &mut String, text: &str) {
    let mut start = 0;
    for (i, b) in text.bytes().enumerate() {
        let entity = match b {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' => "&quot;",
            _ => continue,
        };
        // The four bytes are ASCII, so `i` is a char boundary.
        out.push_str(&text[start..i]);
        out.push_str(entity);
        start = i + 1;
    }
    out.push_str(&text[start..]);
}

/// Escapes text content for XML.
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    escape_into(&mut out, text);
    out
}

/// An SVG document being built.
///
/// The opening `<svg …>` tag is written at construction and
/// [`finish`](SvgDoc::finish) only appends the closing tag, so the
/// document accumulates into one flat buffer. Numbers are written by
/// [`fixed`] straight into that buffer, with no temporary strings.
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
        let mut doc = SvgDoc {
            width,
            height,
            body: String::new(),
            elements: 0,
            groups_open: 0,
        };
        doc.put(r#"<svg xmlns="http://www.w3.org/2000/svg" width=""#)
            .num(width, 0)
            .put(r#"" height=""#)
            .num(height, 0)
            .put(r#"" viewBox="0 0 "#)
            .num(width, 0)
            .put(" ")
            .num(height, 0)
            .put(r#"">"#);
        doc
    }

    /// Appends raw markup.
    fn put(&mut self, s: &str) -> &mut Self {
        self.body.push_str(s);
        self
    }

    /// Appends `x` with `decimals` places (see [`fixed`]).
    fn num(&mut self, x: f64, decimals: usize) -> &mut Self {
        fixed(&mut self.body, x, decimals);
        self
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
        self.put("<g ").put(attrs).put(">");
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
        self.put(r#"<rect x=""#)
            .num(x, 2)
            .put(r#"" y=""#)
            .num(y, 2)
            .put(r#"" width=""#)
            .num(w, 2)
            .put(r#"" height=""#)
            .num(h, 2)
            .put(r#"" fill=""#)
            .put(fill)
            .put(r#"" stroke=""#)
            .put(stroke)
            .put(r#""/>"#);
    }

    /// Circle.
    pub fn circle(&mut self, cx: f64, cy: f64, r: f64, fill: &str, stroke: &str) {
        self.elements += 1;
        self.circle_centre(cx, cy, r)
            .put(r#"" fill=""#)
            .put(fill)
            .put(r#"" stroke=""#)
            .put(stroke)
            .put(r#""/>"#);
    }

    /// Circle with no style attributes of its own — it inherits fill and
    /// stroke from the enclosing [`begin_group`](SvgDoc::begin_group).
    pub fn plain_circle(&mut self, cx: f64, cy: f64, r: f64) {
        self.elements += 1;
        self.circle_centre(cx, cy, r).put(r#""/>"#);
    }

    /// `<circle cx=… cy=… r="…` up to the closing quote of `r`.
    fn circle_centre(&mut self, cx: f64, cy: f64, r: f64) -> &mut Self {
        self.put(r#"<circle cx=""#)
            .num(cx, 2)
            .put(r#"" cy=""#)
            .num(cy, 2)
            .put(r#"" r=""#)
            .num(r, 2)
    }

    /// Straight line segment.
    pub fn line(&mut self, x1: f64, y1: f64, x2: f64, y2: f64, stroke: &str, width: f64) {
        self.elements += 1;
        self.line_open(x1, y1, x2, y2, stroke, width).put(r#""/>"#);
    }

    /// Dashed line segment.
    pub fn dashed_line(&mut self, x1: f64, y1: f64, x2: f64, y2: f64, stroke: &str, width: f64) {
        self.elements += 1;
        self.line_open(x1, y1, x2, y2, stroke, width)
            .put(r#"" stroke-dasharray="4 3"/>"#);
    }

    /// `<line …` up to the closing quote of `stroke-width`.
    fn line_open(
        &mut self,
        x1: f64,
        y1: f64,
        x2: f64,
        y2: f64,
        stroke: &str,
        width: f64,
    ) -> &mut Self {
        self.put(r#"<line x1=""#)
            .num(x1, 2)
            .put(r#"" y1=""#)
            .num(y1, 2)
            .put(r#"" x2=""#)
            .num(x2, 2)
            .put(r#"" y2=""#)
            .num(y2, 2)
            .put(r#"" stroke=""#)
            .put(stroke)
            .put(r#"" stroke-width=""#)
            .num(width, 2)
    }

    /// Unfilled path with raw `d` data — one element no matter how many
    /// segments it bundles, which is what makes edge aggregation pay.
    pub fn path(&mut self, d: &str, stroke: &str, width: f64) {
        self.elements += 1;
        self.put(r#"<path d=""#)
            .put(d)
            .put(r#"" fill="none" stroke=""#)
            .put(stroke)
            .put(r#"" stroke-width=""#)
            .num(width, 2)
            .put(r#""/>"#);
    }

    /// Open polyline through the given points.
    pub fn polyline(&mut self, points: &[(f64, f64)], stroke: &str, width: f64) {
        if points.is_empty() {
            return;
        }
        self.elements += 1;
        self.put(r#"<polyline points=""#);
        for (i, &(x, y)) in points.iter().enumerate() {
            if i > 0 {
                self.put(" ");
            }
            self.num(x, 2).put(",").num(y, 2);
        }
        self.put(r#"" fill="none" stroke=""#)
            .put(stroke)
            .put(r#"" stroke-width=""#)
            .num(width, 2)
            .put(r#""/>"#);
    }

    /// Text anchored at `(x, y)`; `anchor` is `start`, `middle` or `end`.
    pub fn text(&mut self, x: f64, y: f64, content: &str, size: f64, anchor: &str, fill: &str) {
        self.elements += 1;
        self.put(r#"<text x=""#)
            .num(x, 2)
            .put(r#"" y=""#)
            .num(y, 2)
            .put(r#"" font-size=""#)
            .num(size, 1)
            .put(r#"" text-anchor=""#)
            .put(anchor)
            .put(r#"" fill=""#)
            .put(fill)
            .put(r#"" font-family="sans-serif">"#);
        escape_into(&mut self.body, content);
        self.body.push_str("</text>");
    }

    /// Text anchored at `(x, y)` and turned `degrees` about that point
    /// (negative turns counter-clockwise): axis titles and slanted
    /// category labels. Coordinates carry one decimal and the size none.
    #[allow(clippy::too_many_arguments)]
    pub fn rotated_text(
        &mut self,
        x: f64,
        y: f64,
        degrees: f64,
        content: &str,
        size: f64,
        anchor: &str,
        fill: &str,
    ) {
        self.elements += 1;
        self.put(r#"<text x=""#)
            .num(x, 1)
            .put(r#"" y=""#)
            .num(y, 1)
            .put(r#"" font-size=""#)
            .num(size, 0)
            .put(r#"" text-anchor=""#)
            .put(anchor)
            .put(r#"" fill=""#)
            .put(fill)
            .put(r#"" font-family="sans-serif" transform="rotate("#)
            .num(degrees, 0)
            .put(" ")
            .num(x, 1)
            .put(" ")
            .num(y, 1)
            .put(r#")">"#);
        escape_into(&mut self.body, content);
        self.body.push_str("</text>");
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

    /// Finalises the document, returning the markup. Any `<g>` groups
    /// left open are closed.
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
        let mut out = Vec::new();
        if !(step.is_finite() && step > 0.0) {
            return out;
        }
        let mut v = (self.domain.0 / step).ceil() * step;
        while v <= self.domain.1 + 1e-9 {
            out.push(v);
            // Far from zero a step can fall below half an ulp of `v`.
            let next = v + step;
            if next <= v {
                break;
            }
            v = next;
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
        let cy = (plot_top + plot_bottom) / 2.0;
        doc.rotated_text(
            plot_left - 30.0,
            cy,
            -90.0,
            y_label,
            10.0,
            "middle",
            axis_color,
        );
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
    fn ticks_stop_when_the_step_vanishes_against_the_domain() {
        // At 1e20 one ulp is 16384, so adding the 5000 step leaves the
        // tick where it is.
        let s = LinearScale::new((1e20, 1e20 + 32768.0), (0.0, 100.0));
        assert_eq!(s.ticks(6), vec![1e20]);
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
