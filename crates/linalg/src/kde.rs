//! One-dimensional Gaussian kernel density estimation.
//!
//! k-Graph creates graph nodes at the *local maxima of the radial density*
//! inside each angular sector of the PCA projection. [`Kde`] estimates the
//! density of the radial distances; [`Kde::local_maxima_on_grid`] extracts
//! the modes that become nodes.

/// A 1-D Gaussian KDE over a sample of points.
#[derive(Debug, Clone)]
pub struct Kde {
    points: Vec<f64>,
    bandwidth: f64,
}

impl Kde {
    /// Creates a KDE with an explicit bandwidth (> 0).
    pub fn with_bandwidth(points: Vec<f64>, bandwidth: f64) -> Self {
        assert!(bandwidth > 0.0, "KDE bandwidth must be positive");
        Kde { points, bandwidth }
    }

    /// Creates a KDE with Silverman's rule-of-thumb bandwidth:
    /// `0.9 · min(σ̂, IQR/1.34) · n^{−1/5}` (floored to a small epsilon so
    /// near-constant samples still work).
    pub fn silverman(points: Vec<f64>) -> Self {
        let bw = silverman_bandwidth(&points).max(1e-6);
        Kde {
            points,
            bandwidth: bw,
        }
    }

    /// The sample the KDE was built from.
    pub fn points(&self) -> &[f64] {
        &self.points
    }

    /// The bandwidth in use.
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// Density estimate at `x`.
    pub fn density(&self, x: f64) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        let h = self.bandwidth;
        let norm = 1.0 / ((2.0 * std::f64::consts::PI).sqrt() * h * self.points.len() as f64);
        self.points
            .iter()
            .map(|&p| {
                let u = (x - p) / h;
                (-0.5 * u * u).exp()
            })
            .sum::<f64>()
            * norm
    }

    /// Evaluates the density on `n` equally spaced points of `[lo, hi]`.
    ///
    /// Returns `(grid, densities)`.
    pub fn evaluate_grid(&self, lo: f64, hi: f64, n: usize) -> (Vec<f64>, Vec<f64>) {
        if n == 0 || hi < lo {
            return (Vec::new(), Vec::new());
        }
        if n == 1 {
            let x = (lo + hi) / 2.0;
            return (vec![x], vec![self.density(x)]);
        }
        let step = (hi - lo) / (n - 1) as f64;
        let grid: Vec<f64> = (0..n).map(|i| lo + step * i as f64).collect();
        let dens: Vec<f64> = grid.iter().map(|&x| self.density(x)).collect();
        (grid, dens)
    }

    /// Finds local maxima of the density on a grid over the sample range
    /// (padded by one bandwidth on each side).
    ///
    /// A grid point is a local maximum when its density is strictly greater
    /// than both neighbours (plateaus report their left edge) and at least
    /// `min_density_ratio` times the global peak. Returns the mode
    /// locations, most prominent first.
    pub fn local_maxima_on_grid(&self, grid_size: usize, min_density_ratio: f64) -> Vec<f64> {
        if self.points.is_empty() || grid_size < 3 {
            return Vec::new();
        }
        let lo = self.points.iter().cloned().fold(f64::INFINITY, f64::min) - self.bandwidth;
        let hi = self
            .points
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max)
            + self.bandwidth;
        let (grid, dens) = self.evaluate_grid(lo, hi, grid_size);
        let peak = dens.iter().cloned().fold(0.0f64, f64::max);
        if peak <= 0.0 {
            return Vec::new();
        }
        let threshold = peak * min_density_ratio.clamp(0.0, 1.0);
        let mut maxima: Vec<(f64, f64)> = Vec::new();
        for i in 1..grid.len() - 1 {
            if dens[i] >= dens[i - 1] && dens[i] > dens[i + 1] && dens[i] >= threshold {
                // Skip plateau interiors: require a strict rise somewhere
                // to the left.
                let mut j = i;
                while j > 0 && dens[j - 1] == dens[i] {
                    j -= 1;
                }
                if j == 0 || dens[j - 1] < dens[i] {
                    maxima.push((grid[i], dens[i]));
                }
            }
        }
        // Interior-free edge case: single-mode density can peak at an
        // endpoint of the padded grid only if the pad is too small; with a
        // 1-bandwidth pad the Gaussian tails guarantee interior maxima.
        maxima.sort_by(|a, b| b.1.total_cmp(&a.1));
        maxima.into_iter().map(|(x, _)| x).collect()
    }
}

/// Silverman's rule-of-thumb bandwidth for a 1-D sample.
pub fn silverman_bandwidth(points: &[f64]) -> f64 {
    let n = points.len();
    if n < 2 {
        return 1.0;
    }
    let mean = points.iter().sum::<f64>() / n as f64;
    let var = points.iter().map(|p| (p - mean) * (p - mean)).sum::<f64>() / n as f64;
    let sd = var.sqrt();
    let mut sorted = points.to_vec();
    sorted.sort_by(f64::total_cmp);
    let q = |f: f64| {
        let h = f * (n - 1) as f64;
        let lo = h.floor() as usize;
        let hi = h.ceil() as usize;
        if lo == hi {
            sorted[lo]
        } else {
            sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
        }
    };
    let iqr = q(0.75) - q(0.25);
    let spread = if iqr > 0.0 { sd.min(iqr / 1.34) } else { sd };
    0.9 * spread.max(f64::MIN_POSITIVE) * (n as f64).powf(-0.2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_integrates_to_one() {
        let kde = Kde::with_bandwidth(vec![0.0, 1.0, 2.0, 1.5, 0.5], 0.3);
        let (grid, dens) = kde.evaluate_grid(-3.0, 5.0, 2001);
        let step = grid[1] - grid[0];
        let integral: f64 = dens.iter().sum::<f64>() * step;
        assert!((integral - 1.0).abs() < 1e-3, "integral {integral}");
    }

    #[test]
    fn density_peaks_near_data() {
        let kde = Kde::with_bandwidth(vec![5.0; 10], 0.5);
        assert!(kde.density(5.0) > kde.density(6.0));
        assert!(kde.density(5.0) > kde.density(4.0));
    }

    #[test]
    fn bimodal_sample_has_two_modes() {
        let mut pts = Vec::new();
        for i in 0..50 {
            pts.push(0.0 + (i % 5) as f64 * 0.01);
            pts.push(10.0 + (i % 5) as f64 * 0.01);
        }
        let kde = Kde::with_bandwidth(pts, 0.5);
        let modes = kde.local_maxima_on_grid(512, 0.1);
        assert_eq!(modes.len(), 2, "expected 2 modes, got {modes:?}");
        let mut sorted = modes.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((sorted[0] - 0.02).abs() < 0.5);
        assert!((sorted[1] - 10.02).abs() < 0.5);
    }

    #[test]
    fn unimodal_sample_has_one_mode() {
        let pts: Vec<f64> = (0..100).map(|i| (i as f64 - 50.0) / 25.0).collect();
        let kde = Kde::silverman(pts);
        let modes = kde.local_maxima_on_grid(512, 0.1);
        assert_eq!(modes.len(), 1, "got {modes:?}");
        assert!(modes[0].abs() < 0.5);
    }

    #[test]
    fn min_density_ratio_filters_small_bumps() {
        let mut pts = vec![0.0; 100];
        pts.extend(std::iter::repeat_n(8.0, 3)); // tiny side bump
        let kde = Kde::with_bandwidth(pts, 0.4);
        let strict = kde.local_maxima_on_grid(512, 0.5);
        assert_eq!(strict.len(), 1);
        let lax = kde.local_maxima_on_grid(512, 0.0);
        assert_eq!(lax.len(), 2);
    }

    #[test]
    fn modes_sorted_by_prominence() {
        let mut pts = vec![0.0; 60];
        pts.extend(std::iter::repeat_n(5.0, 20));
        let kde = Kde::with_bandwidth(pts, 0.4);
        let modes = kde.local_maxima_on_grid(512, 0.0);
        assert_eq!(modes.len(), 2);
        assert!(modes[0].abs() < 0.5, "biggest mode first: {modes:?}");
    }

    #[test]
    fn degenerate_inputs() {
        let empty = Kde::with_bandwidth(Vec::new(), 1.0);
        assert_eq!(empty.density(0.0), 0.0);
        assert!(empty.local_maxima_on_grid(128, 0.1).is_empty());
        let (g, d) = empty.evaluate_grid(0.0, 1.0, 0);
        assert!(g.is_empty() && d.is_empty());
        let kde = Kde::silverman(vec![1.0]);
        assert!(kde.bandwidth() > 0.0);
        assert!(kde.density(1.0) > 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bandwidth_panics() {
        Kde::with_bandwidth(vec![1.0], 0.0);
    }

    #[test]
    fn silverman_scales_with_spread() {
        let tight: Vec<f64> = (0..100).map(|i| (i % 10) as f64 * 0.01).collect();
        let wide: Vec<f64> = (0..100).map(|i| (i % 10) as f64).collect();
        assert!(silverman_bandwidth(&wide) > silverman_bandwidth(&tight));
        assert_eq!(silverman_bandwidth(&[1.0]), 1.0);
    }
}
