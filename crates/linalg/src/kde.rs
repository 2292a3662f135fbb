//! One-dimensional Gaussian kernel density estimation.
//!
//! k-Graph creates graph nodes at the *local maxima of the radial density*
//! inside each angular sector of the PCA projection. [`Kde`] estimates the
//! density of the radial distances; [`Kde::local_maxima_on_grid`] extracts
//! the modes that become nodes.
//!
//! [`Kde::density`] evaluates one point directly, one `exp` per sample
//! point. [`Kde::evaluate_grid`] instead walks outward from each sample
//! point along the evenly spaced grid. With `u` the grid point's offset
//! from the sample point in bandwidths and `δ = step / h`, consecutive
//! kernel terms obey `e_{j+1} = e_j · r_j` and `r_{j+1} = r_j · exp(−δ²)`,
//! where `r_j = exp(−u_j·δ − δ²/2)`. A sample point then costs three `exp`s
//! (its nearest grid point and the two neighbours) plus two multiplies per
//! grid point it reaches: O(n·w) for n sample points, where w is the
//! kernel's reach in grid steps, instead of one `exp` per (point, grid
//! point) pair.
//!
//! A walk stops once its term falls to ≤ 1e-22, about 10 bandwidths out;
//! terms are ≤ 1. (A 1e-17 cut-off reaches 8.9 bandwidths, but in the
//! valleys of a small sample, where the density is ~1e-6 of a peak made of
//! a few unit terms, dropping terms of 1e-17 already costs 1e-11 of the
//! density.)
//!
//! Accuracy contract, against [`Kde::density`] at the same grid points:
//! within 1e-12 relative wherever the density is ≥ 1e-6 of its grid peak,
//! and within 1e-12 of that peak everywhere. It holds for grids that span
//! the sample and lie within a few hundred bandwidths of zero, as the
//! radial scan's do. Further out, `density`'s own rounding of the grid
//! positions (~1e-16·|x|/h in `u`) dominates the difference.

/// A walk stops once its kernel term falls to or below this.
const TRUNCATE: f64 = 1e-22;

/// Whether a walk stops at kernel term `e`: at or below the cut-off, or
/// NaN (a NaN grid point).
fn negligible(e: f64) -> bool {
    e.is_nan() || e <= TRUNCATE
}

/// Steps a walk takes between exact kernel evaluations. Each anchor resets
/// the recurrence's rounding drift, which grows with the square of the
/// steps taken from it.
const ANCHOR_EVERY: usize = 64;

/// The unnormalised Gaussian kernel of sample point `p` at `x`.
fn kernel(x: f64, p: f64, h: f64) -> f64 {
    let u = (x - p) / h;
    (-0.5 * u * u).exp()
}

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
        let mut sorted = points.clone();
        sorted.sort_by(f64::total_cmp);
        Kde::silverman_presorted(points, &sorted)
    }

    /// [`Kde::silverman`] for a caller that already holds `sorted`, the
    /// sample sorted by `f64::total_cmp`; the bandwidth is bit-identical.
    pub fn silverman_presorted(points: Vec<f64>, sorted: &[f64]) -> Self {
        let bw = silverman_bandwidth_presorted(&points, sorted).max(1e-6);
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

    /// `1 / (√(2π) · h · n)`: turns a sum of kernel terms into a density.
    fn norm(&self) -> f64 {
        1.0 / ((2.0 * std::f64::consts::PI).sqrt() * self.bandwidth * self.points.len() as f64)
    }

    /// Density estimate at `x`.
    pub fn density(&self, x: f64) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        let h = self.bandwidth;
        self.points.iter().map(|&p| kernel(x, p, h)).sum::<f64>() * self.norm()
    }

    /// Evaluates the density on `n` equally spaced points of `[lo, hi]`.
    ///
    /// Returns `(grid, densities)`, by the walk in the module doc. Each
    /// sample point is anchored at its nearest grid point `j₀`, whose term
    /// — and the terms at `j₀ ± 1` — are computed exactly as
    /// [`Kde::density`] computes them. The walk re-anchors on an exact term
    /// every 64 steps and stops once its term falls to ≤ 1e-22. Terms
    /// accumulate per grid point in sample order, and the `1/(√(2π)·h·n)`
    /// normalisation is applied once at the end. A non-finite sample point
    /// is evaluated at every grid point directly, so its NaN (or zero)
    /// terms land where [`Kde::density`] puts them.
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
        if self.points.is_empty() {
            return (grid, vec![0.0; n]);
        }
        let h = self.bandwidth;
        let delta = step / h;
        let q = (-delta * delta).exp();
        let mut acc = vec![0.0f64; n];
        for &p in &self.points {
            if !p.is_finite() {
                for (a, &x) in acc.iter_mut().zip(&grid) {
                    *a += kernel(x, p, h);
                }
                continue;
            }
            // `as usize` saturates (NaN → 0), so the clamp covers samples
            // off the grid and non-finite spacings alike.
            let j0 = (((p - lo) / step).round() as usize).min(n - 1);
            let e0 = kernel(grid[j0], p, h);
            acc[j0] += e0;
            // The nearest grid point carries the largest term.
            if negligible(e0) {
                continue;
            }
            let walk = Walk {
                grid: &grid,
                p,
                h,
                delta,
                q,
                e0,
            };
            walk.run(&mut acc, j0 + 1..n, 1.0);
            walk.run(&mut acc, (0..j0).rev(), -1.0);
        }
        let norm = self.norm();
        let dens = acc.into_iter().map(|a| a * norm).collect();
        (grid, dens)
    }

    /// The sample range padded by one bandwidth on each side: the span
    /// [`Kde::local_maxima_on_grid`] evaluates.
    fn padded_range(&self) -> (f64, f64) {
        let lo = self.points.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = self
            .points
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        (lo - self.bandwidth, hi + self.bandwidth)
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
        let (lo, hi) = self.padded_range();
        let (grid, dens) = self.evaluate_grid(lo, hi, grid_size);
        maxima(&grid, &dens, min_density_ratio)
    }
}

/// The local maxima of `dens` over `grid`, as
/// [`Kde::local_maxima_on_grid`] defines them, most prominent first.
fn maxima(grid: &[f64], dens: &[f64], min_density_ratio: f64) -> Vec<f64> {
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

/// One sample point's kernel terms walked along the grid away from its
/// anchor.
struct Walk<'a> {
    grid: &'a [f64],
    p: f64,
    h: f64,
    /// `δ = step / h`, the grid step in bandwidths.
    delta: f64,
    /// `exp(−δ²)`, the step-to-step factor of the term ratio.
    q: f64,
    /// The nearest grid point's exact term.
    e0: f64,
}

impl Walk<'_> {
    /// Adds the terms at the grid indices `path` yields — consecutive,
    /// nearest the anchor first, in the direction `sign` (+1 up, −1 down)
    /// — to `acc`, stopping once a term falls to ≤ 1e-17 (or is NaN).
    fn run(&self, acc: &mut [f64], path: impl Iterator<Item = usize>, sign: f64) {
        let (mut e, mut r) = (0.0, 0.0);
        for (t, j) in path.enumerate() {
            if t == 0 {
                // The anchor's neighbour, exact; its ratio to the anchor
                // times exp(−δ²) is the ratio of the next step.
                e = kernel(self.grid[j], self.p, self.h);
                r = e / self.e0 * self.q;
            } else if t % ANCHOR_EVERY == 0 {
                // Re-anchor: this term exact, and the ratio of the next
                // step, exp(∓u·δ − δ²/2), from this grid point's u.
                let u = (self.grid[j] - self.p) / self.h;
                e = (-0.5 * u * u).exp();
                r = (-sign * u * self.delta - 0.5 * self.delta * self.delta).exp();
            } else {
                e *= r;
                r *= self.q;
            }
            if negligible(e) {
                break;
            }
            acc[j] += e;
        }
    }
}

/// Silverman's rule-of-thumb bandwidth for a 1-D sample.
pub fn silverman_bandwidth(points: &[f64]) -> f64 {
    let mut sorted = points.to_vec();
    sorted.sort_by(f64::total_cmp);
    silverman_bandwidth_presorted(points, &sorted)
}

/// [`silverman_bandwidth`] for a caller that already holds `sorted`, the
/// sample sorted by `f64::total_cmp`. The moments are summed over
/// `points` in sample order, so the result is bit-identical.
fn silverman_bandwidth_presorted(points: &[f64], sorted: &[f64]) -> f64 {
    let n = points.len();
    debug_assert_eq!(n, sorted.len(), "sorted must be a sorted copy of points");
    if n < 2 {
        return 1.0;
    }
    let mean = points.iter().sum::<f64>() / n as f64;
    let var = points.iter().map(|p| (p - mean) * (p - mean)).sum::<f64>() / n as f64;
    let sd = var.sqrt();
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
    use proptest::prelude::*;

    /// The dense evaluator the grid walk replaces: one `density` call per
    /// grid point.
    fn dense(kde: &Kde, grid: &[f64]) -> Vec<f64> {
        grid.iter().map(|&x| kde.density(x)).collect()
    }

    /// [`Kde::local_maxima_on_grid`] over the dense evaluator.
    fn dense_modes(kde: &Kde, grid_size: usize, min_density_ratio: f64) -> Vec<f64> {
        if kde.points.is_empty() || grid_size < 3 {
            return Vec::new();
        }
        let (lo, hi) = kde.padded_range();
        let (grid, _) = kde.evaluate_grid(lo, hi, grid_size);
        maxima(&grid, &dense(kde, &grid), min_density_ratio)
    }

    /// Asserts the walk's densities meet the accuracy contract against the
    /// dense oracle.
    fn assert_matches_dense(kde: &Kde, lo: f64, hi: f64, n: usize) {
        let (grid, fast) = kde.evaluate_grid(lo, hi, n);
        let slow = dense(kde, &grid);
        let peak = slow.iter().cloned().fold(0.0f64, f64::max);
        for (j, (&f, &d)) in fast.iter().zip(&slow).enumerate() {
            let err = (f - d).abs();
            assert!(
                err <= 1e-12 * peak,
                "grid point {j}: {f} vs {d} (peak {peak})"
            );
            if d >= 1e-6 * peak {
                assert!(
                    err <= 1e-12 * d,
                    "grid point {j}: {f} vs {d}, rel {}",
                    err / d
                );
            }
        }
    }

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
        let (g, d) = empty.evaluate_grid(0.0, 1.0, 16);
        assert_eq!(g.len(), 16);
        assert!(d.iter().all(|&v| v == 0.0));
        let kde = Kde::silverman(vec![1.0]);
        assert!(kde.bandwidth() > 0.0);
        assert!(kde.density(1.0) > 0.0);
    }

    /// Samples and bandwidths at the edges of what the walk handles: each
    /// runs without panicking and finds the dense oracle's modes.
    #[test]
    fn hostile_samples_match_the_dense_modes() {
        let cases: Vec<(&str, Kde)> = vec![
            ("empty", Kde::with_bandwidth(Vec::new(), 1.0)),
            ("one point", Kde::silverman(vec![3.7])),
            ("all equal", Kde::silverman(vec![2.5; 40])),
            ("all zero", Kde::silverman(vec![0.0; 7])),
            (
                "bandwidth far below a grid step",
                Kde::with_bandwidth(vec![0.0, 0.3, 4.1, 4.1, 7.77, 10.0], 1e-6),
            ),
            (
                "bandwidth wider than the grid",
                Kde::with_bandwidth(vec![0.0, 0.5, 1.0, 1.0, 2.0], 50.0),
            ),
            ("NaN", Kde::silverman(vec![1.0, f64::NAN, 2.0, 2.5])),
            ("+inf", Kde::silverman(vec![1.0, f64::INFINITY, 2.0, 2.5])),
            (
                "-inf",
                Kde::silverman(vec![1.0, f64::NEG_INFINITY, 2.0, 2.5]),
            ),
            (
                "NaN bandwidth floor",
                Kde::silverman(vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY]),
            ),
        ];
        for (name, kde) in &cases {
            for grid_size in [16, 128, 512] {
                for ratio in [0.0, 0.05, 0.5] {
                    let fast = kde.local_maxima_on_grid(grid_size, ratio);
                    let slow = dense_modes(kde, grid_size, ratio);
                    let bits = |m: &[f64]| m.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&fast),
                        bits(&slow),
                        "{name}, grid {grid_size}, ratio {ratio}"
                    );
                }
            }
        }
        // The walk itself, on grids that miss the sample or do not span it.
        let wide = Kde::with_bandwidth(vec![0.0, 0.5, 1.0, 1.0, 2.0], 50.0);
        assert_matches_dense(&wide, -1.0, 3.0, 512);
        let narrow = Kde::with_bandwidth(vec![0.0, 0.3, 4.1, 7.77, 10.0], 1e-6);
        assert_matches_dense(&narrow, 0.0, 10.0, 128);
        // Off the grid, a sample point's terms there can all be below the
        // cut-off: the error is then bounded by the dropped terms.
        let off_grid = Kde::with_bandwidth(vec![-5.0, 20.0, 1e300, -1e300], 0.7);
        for (lo, hi, n) in [(0.0, 10.0, 128), (4.0, 4.0, 16)] {
            let (grid, fast) = off_grid.evaluate_grid(lo, hi, n);
            let slow = dense(&off_grid, &grid);
            let dropped = 4.0 * TRUNCATE * off_grid.norm();
            for (f, d) in fast.iter().zip(&slow) {
                assert!((f - d).abs() <= dropped + 1e-12 * d, "{f} vs {d}");
            }
        }
        for kde in [
            Kde::silverman(vec![1.0, f64::NAN]),
            Kde::silverman(vec![1.0, f64::INFINITY]),
            Kde::silverman(vec![f64::NEG_INFINITY, 1.0]),
        ] {
            for (lo, hi) in [(0.0, 2.0), (f64::NEG_INFINITY, 2.0), (0.0, f64::INFINITY)] {
                let (grid, fast) = kde.evaluate_grid(lo, hi, 32);
                let slow = dense(&kde, &grid);
                for (f, d) in fast.iter().zip(&slow) {
                    assert!(f.is_nan() == d.is_nan(), "{lo}..{hi}: {f} vs {d}");
                }
            }
        }
    }

    /// Where one sample point's term is ~1e-6 of the peak, another's term
    /// of ~1e-17 is already 1e-11 of the density: the walk must not drop it.
    #[test]
    fn small_sample_valleys_keep_the_accuracy_contract() {
        let kde = Kde::with_bandwidth(vec![0.0, 14.1], 1.0);
        let (lo, hi) = kde.padded_range();
        for grid_size in [128, 512, 2048] {
            assert_matches_dense(&kde, lo, hi, grid_size);
        }
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The walk against the dense oracle on one to four clusters of
        /// radii. The bandwidths keep the grid within a few hundred
        /// bandwidths of zero, the range the accuracy contract covers.
        #[test]
        fn grid_walk_matches_the_dense_oracle(
            centers in proptest::collection::vec(0.0..10.0f64, 1..5),
            offsets in proptest::collection::vec((0usize..5, -1.0..1.0f64), 1..400),
            spread in 0.25..3.0f64,
            h in 0.05..4.0f64,
            silverman in 0usize..2,
        ) {
            let points: Vec<f64> = offsets
                .iter()
                .map(|&(c, o)| centers[c % centers.len()] + o * spread)
                .collect();
            let kde = if silverman == 1 {
                Kde::silverman(points)
            } else {
                Kde::with_bandwidth(points, h)
            };
            let (lo, hi) = kde.padded_range();
            for grid_size in [16, 128, 512] {
                assert_matches_dense(&kde, lo, hi, grid_size);
                for ratio in [0.0, 0.05, 0.5] {
                    let fast = kde.local_maxima_on_grid(grid_size, ratio);
                    let slow = dense_modes(&kde, grid_size, ratio);
                    let bits = |m: &[f64]| m.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    prop_assert_eq!(bits(&fast), bits(&slow));
                }
            }
        }
    }
}
