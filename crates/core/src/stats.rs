//! Descriptive statistics over `&[f64]` slices.
//!
//! All functions treat the slice as a *population* unless stated otherwise
//! (matching the conventions of z-normalisation in the time series
//! literature, where the population standard deviation is used).

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance; `0.0` for slices with fewer than one element.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn std(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Minimum value; `+∞` for an empty slice (so that `min` folds cleanly).
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Maximum value; `−∞` for an empty slice.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Index of the largest element (first occurrence); `None` when empty.
pub fn argmax(xs: &[f64]) -> Option<usize> {
    if xs.is_empty() {
        return None;
    }
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate().skip(1) {
        if x > xs[best] {
            best = i;
        }
    }
    Some(best)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of an *unsorted* slice.
///
/// Uses the same convention as NumPy's default (`linear`): the quantile of a
/// sorted sample `s` is `s[floor(h)] + (h − floor(h)) · (s[ceil(h)] −
/// s[floor(h)])` with `h = q · (n − 1)`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// Quantile of an already-sorted slice (ascending). See [`quantile`].
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let q = q.clamp(0.0, 1.0);
    let h = q * (sorted.len() - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
    }
}

/// Median (50 % quantile).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Five-number summary used by box plots: (min, q1, median, q3, max).
pub fn five_number_summary(xs: &[f64]) -> (f64, f64, f64, f64, f64) {
    if xs.is_empty() {
        return (f64::NAN, f64::NAN, f64::NAN, f64::NAN, f64::NAN);
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    (
        sorted[0],
        quantile_sorted(&sorted, 0.25),
        quantile_sorted(&sorted, 0.5),
        quantile_sorted(&sorted, 0.75),
        sorted[sorted.len() - 1],
    )
}

/// Population covariance of two equal-length slices.
pub fn covariance(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "covariance requires equal lengths");
    if xs.is_empty() {
        return 0.0;
    }
    let mx = mean(xs);
    let my = mean(ys);
    xs.iter()
        .zip(ys)
        .map(|(x, y)| (x - mx) * (y - my))
        .sum::<f64>()
        / xs.len() as f64
}

/// Pearson correlation coefficient; `0.0` when either side is constant.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    let sx = std(xs);
    let sy = std(ys);
    if sx <= f64::EPSILON || sy <= f64::EPSILON {
        return 0.0;
    }
    covariance(xs, ys) / (sx * sy)
}

/// Sample skewness (Fisher–Pearson, population normalisation).
pub fn skewness(xs: &[f64]) -> f64 {
    let s = std(xs);
    if xs.len() < 2 || s <= f64::EPSILON {
        return 0.0;
    }
    let m = mean(xs);
    let n = xs.len() as f64;
    xs.iter().map(|x| ((x - m) / s).powi(3)).sum::<f64>() / n
}

/// Excess kurtosis (population normalisation; 0 for a normal distribution).
pub fn kurtosis(xs: &[f64]) -> f64 {
    let s = std(xs);
    if xs.len() < 2 || s <= f64::EPSILON {
        return 0.0;
    }
    let m = mean(xs);
    let n = xs.len() as f64;
    xs.iter().map(|x| ((x - m) / s).powi(4)).sum::<f64>() / n - 3.0
}

/// Autocorrelation at `lag` (biased estimator); `0.0` for constant series.
pub fn autocorrelation(xs: &[f64], lag: usize) -> f64 {
    if lag >= xs.len() {
        return 0.0;
    }
    let m = mean(xs);
    let denom: f64 = xs.iter().map(|x| (x - m) * (x - m)).sum();
    if denom <= f64::EPSILON {
        return 0.0;
    }
    let num: f64 = (0..xs.len() - lag)
        .map(|i| (xs[i] - m) * (xs[i + lag] - m))
        .sum();
    num / denom
}

/// Slope of the least-squares line fit through `(i, xs[i])`.
pub fn trend_slope(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let tx: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let vx = variance(&tx);
    if vx <= f64::EPSILON {
        return 0.0;
    }
    covariance(&tx, xs) / vx
}

/// Number of mean crossings (sign changes of the mean-centred series).
pub fn mean_crossings(xs: &[f64]) -> usize {
    if xs.len() < 2 {
        return 0;
    }
    let m = mean(xs);
    let mut crossings = 0;
    for w in xs.windows(2) {
        if (w[0] - m) * (w[1] - m) < 0.0 {
            crossings += 1;
        }
    }
    crossings
}

/// Shannon entropy (nats) of a histogram with `bins` equal-width bins.
pub fn histogram_entropy(xs: &[f64], bins: usize) -> f64 {
    if xs.is_empty() || bins == 0 {
        return 0.0;
    }
    let lo = min(xs);
    let hi = max(xs);
    if (hi - lo).abs() <= f64::EPSILON {
        return 0.0;
    }
    let mut counts = vec![0usize; bins];
    for &x in xs {
        let mut b = (((x - lo) / (hi - lo)) * bins as f64) as usize;
        if b >= bins {
            b = bins - 1;
        }
        counts[b] += 1;
    }
    let n = xs.len() as f64;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / n;
            -p * p.ln()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn mean_var_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < EPS);
        assert!((variance(&xs) - 4.0).abs() < EPS);
        assert!((std(&xs) - 2.0).abs() < EPS);
    }

    #[test]
    fn empty_slices_are_safe() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(min(&[]), f64::INFINITY);
        assert_eq!(max(&[]), f64::NEG_INFINITY);
        assert_eq!(argmax(&[]), None);
        assert!(quantile(&[], 0.5).is_nan());
        assert_eq!(mean_crossings(&[]), 0);
        assert_eq!(histogram_entropy(&[], 4), 0.0);
    }

    #[test]
    fn nan_inputs_do_not_panic() {
        // `total_cmp` sorts a positive NaN above every number.
        let xs = [3.0, f64::NAN, 1.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 0.5), 3.0);
        let (lo, _, median, _, hi) = five_number_summary(&xs);
        assert_eq!((lo, median), (1.0, 3.0));
        assert!(hi.is_nan());
    }

    #[test]
    fn argmax_first_occurrence() {
        let xs = [1.0, 3.0, 3.0, 0.0, 0.0];
        assert_eq!(argmax(&xs), Some(1));
    }

    #[test]
    fn quantiles_match_numpy_convention() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((quantile(&xs, 0.0) - 1.0).abs() < EPS);
        assert!((quantile(&xs, 1.0) - 4.0).abs() < EPS);
        assert!((quantile(&xs, 0.5) - 2.5).abs() < EPS);
        assert!((quantile(&xs, 0.25) - 1.75).abs() < EPS);
        assert!((median(&[5.0, 1.0, 3.0]) - 3.0).abs() < EPS);
    }

    #[test]
    fn five_numbers() {
        let xs = [7.0, 1.0, 3.0, 5.0, 9.0];
        let (mn, q1, md, q3, mx) = five_number_summary(&xs);
        assert_eq!(mn, 1.0);
        assert_eq!(mx, 9.0);
        assert!((md - 5.0).abs() < EPS);
        assert!((q1 - 3.0).abs() < EPS);
        assert!((q3 - 7.0).abs() < EPS);
    }

    #[test]
    fn covariance_and_pearson() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-9);
        let ys_neg: Vec<f64> = ys.iter().map(|y| -y).collect();
        assert!((pearson(&xs, &ys_neg) + 1.0).abs() < 1e-9);
        let constant = [3.0; 4];
        assert_eq!(pearson(&xs, &constant), 0.0);
    }

    #[test]
    fn skew_kurt_of_symmetric_data() {
        let xs = [-2.0, -1.0, 0.0, 1.0, 2.0];
        assert!(skewness(&xs).abs() < 1e-9);
        // Uniform-ish discrete data is platykurtic (negative excess kurtosis).
        assert!(kurtosis(&xs) < 0.0);
        assert_eq!(skewness(&[1.0]), 0.0);
    }

    #[test]
    fn autocorrelation_of_alternating_signal() {
        let xs: Vec<f64> = (0..64)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        assert!((autocorrelation(&xs, 0) - 1.0).abs() < EPS);
        assert!(autocorrelation(&xs, 1) < -0.9);
        assert!(autocorrelation(&xs, 2) > 0.9);
        assert_eq!(autocorrelation(&xs, 100), 0.0);
    }

    #[test]
    fn trend_of_line() {
        let xs: Vec<f64> = (0..10).map(|i| 3.0 * i as f64 + 1.0).collect();
        assert!((trend_slope(&xs) - 3.0).abs() < 1e-9);
        assert_eq!(trend_slope(&[5.0]), 0.0);
    }

    #[test]
    fn crossings_counts_sign_changes() {
        let xs = [1.0, -1.0, 1.0, -1.0];
        assert_eq!(mean_crossings(&xs), 3);
        let flat = [2.0, 2.0, 2.0];
        assert_eq!(mean_crossings(&flat), 0);
    }

    #[test]
    fn entropy_bounds() {
        // All mass in one bin → entropy 0 (constant input short-circuits too).
        assert_eq!(histogram_entropy(&[1.0, 1.0, 1.0], 8), 0.0);
        // Uniform over bins → ln(bins).
        let xs: Vec<f64> = (0..800).map(|i| (i % 8) as f64).collect();
        let h = histogram_entropy(&xs, 8);
        assert!((h - (8f64).ln()).abs() < 1e-9);
    }
}
