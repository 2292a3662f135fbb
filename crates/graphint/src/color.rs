//! Colour palettes and colormaps for the frames.

/// Categorical palette (matplotlib "tab10"), used for cluster colours —
/// the comparison frame colours series by their *true* label with these.
pub const CATEGORY10: [&str; 10] = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#e377c2", "#7f7f7f",
    "#bcbd22", "#17becf",
];

/// Colour for cluster `c` (cycles after 10).
pub fn category_color(c: usize) -> &'static str {
    CATEGORY10[c % CATEGORY10.len()]
}

/// An RGB colour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rgb(pub u8, pub u8, pub u8);

impl Rgb {
    /// `#rrggbb` notation.
    pub fn to_hex(self) -> String {
        format!("#{:02x}{:02x}{:02x}", self.0, self.1, self.2)
    }
}

/// Linear interpolation between two colours.
pub fn lerp(a: Rgb, b: Rgb, t: f64) -> Rgb {
    let t = t.clamp(0.0, 1.0);
    let mix = |x: u8, y: u8| -> u8 { (x as f64 + (y as f64 - x as f64) * t).round() as u8 };
    Rgb(mix(a.0, b.0), mix(a.1, b.1), mix(a.2, b.2))
}

/// Viridis anchors (5-point approximation of the perceptual map).
const VIRIDIS: [Rgb; 5] = [
    Rgb(68, 1, 84),
    Rgb(59, 82, 139),
    Rgb(33, 145, 140),
    Rgb(94, 201, 98),
    Rgb(253, 231, 37),
];

/// Viridis-like colormap: maps `t ∈ [0, 1]` to a perceptual colour.
/// Used by the heatmaps (feature and consensus matrices).
pub fn viridis(t: f64) -> Rgb {
    let t = t.clamp(0.0, 1.0);
    let scaled = t * (VIRIDIS.len() - 1) as f64;
    let lo = scaled.floor() as usize;
    let hi = (lo + 1).min(VIRIDIS.len() - 1);
    lerp(VIRIDIS[lo], VIRIDIS[hi], scaled - lo as f64)
}

/// Grey for "unselected" graph elements.
pub const MUTED: &str = "#cccccc";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_cycles() {
        assert_eq!(category_color(0), CATEGORY10[0]);
        assert_eq!(category_color(10), CATEGORY10[0]);
        assert_eq!(category_color(13), CATEGORY10[3]);
    }

    #[test]
    fn hex_format() {
        assert_eq!(Rgb(255, 0, 16).to_hex(), "#ff0010");
        assert_eq!(Rgb(0, 0, 0).to_hex(), "#000000");
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Rgb(0, 0, 0);
        let b = Rgb(100, 200, 50);
        assert_eq!(lerp(a, b, 0.0), a);
        assert_eq!(lerp(a, b, 1.0), b);
        assert_eq!(lerp(a, b, 0.5), Rgb(50, 100, 25));
        // Clamped outside [0, 1].
        assert_eq!(lerp(a, b, -1.0), a);
        assert_eq!(lerp(a, b, 2.0), b);
    }

    #[test]
    fn viridis_endpoints() {
        assert_eq!(viridis(0.0), VIRIDIS[0]);
        assert_eq!(viridis(1.0), VIRIDIS[4]);
        // Monotone brightness-ish: green channel increases.
        assert!(viridis(0.8).1 > viridis(0.2).1);
    }
}
