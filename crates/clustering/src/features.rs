//! Statistical feature extraction and feature-based clustering pipelines.
//!
//! Implements the "feature-based" family that Graphint's intro discusses:
//!
//! * [`extract_features`] — a catch22-inspired battery of descriptive
//!   statistics per series,
//! * [`FeatTsLike`] — FeatTS-style pipeline: extract features, keep the
//!   most relevant ones (variance ranking + correlation de-duplication),
//!   cluster with k-Means,
//! * [`Time2FeatLike`] — Time2Feat-style pipeline: a wider feature space
//!   (adds spectral descriptors computed via FFT) with the same selection
//!   and clustering backbone.
//!
//! The original FeatTS selects features with ground-truth-seeded PFA;
//! being unsupervised here, selection is variance-driven — the behaviour
//! preserved is "cluster in a compact, discriminative feature space".

use crate::kmeans::KMeans;
use linalg::fft::{next_pow2, rfft};
use tscore::stats;

/// Names of the base feature battery, in output order.
pub const BASE_FEATURE_NAMES: [&str; 14] = [
    "mean",
    "std",
    "skewness",
    "kurtosis",
    "min",
    "max",
    "median",
    "iqr",
    "trend_slope",
    "acf_lag1",
    "acf_lag5",
    "mean_crossings",
    "entropy",
    "rms_diff",
];

/// Extracts the base feature battery from one series.
pub fn extract_features(xs: &[f64]) -> Vec<f64> {
    if xs.is_empty() {
        return vec![0.0; BASE_FEATURE_NAMES.len()];
    }
    let (min, q1, median, q3, max) = stats::five_number_summary(xs);
    let diffs: Vec<f64> = xs.windows(2).map(|w| w[1] - w[0]).collect();
    let rms_diff = if diffs.is_empty() {
        0.0
    } else {
        (diffs.iter().map(|d| d * d).sum::<f64>() / diffs.len() as f64).sqrt()
    };
    vec![
        stats::mean(xs),
        stats::std(xs),
        stats::skewness(xs),
        stats::kurtosis(xs),
        min,
        max,
        median,
        q3 - q1,
        stats::trend_slope(xs),
        stats::autocorrelation(xs, 1),
        stats::autocorrelation(xs, 5),
        stats::mean_crossings(xs) as f64 / xs.len() as f64,
        stats::histogram_entropy(xs, 16),
        rms_diff,
    ]
}

/// Spectral descriptors via FFT: spectral centroid, spectral spread,
/// dominant-frequency index (normalised), dominant-frequency power ratio,
/// spectral flatness-ish low/high band ratio.
pub fn extract_spectral_features(xs: &[f64]) -> Vec<f64> {
    let n = xs.len();
    if n < 4 {
        return vec![0.0; 5];
    }
    let size = next_pow2(n);
    let spectrum = rfft(xs, size);
    // Power in the positive-frequency half (skip DC).
    let half = size / 2;
    let power: Vec<f64> = (1..half)
        .map(|i| spectrum[i].re * spectrum[i].re + spectrum[i].im * spectrum[i].im)
        .collect();
    let total: f64 = power.iter().sum();
    if total <= f64::MIN_POSITIVE {
        return vec![0.0; 5];
    }
    let centroid: f64 = power
        .iter()
        .enumerate()
        .map(|(i, p)| (i + 1) as f64 * p)
        .sum::<f64>()
        / total
        / half as f64;
    let spread: f64 = (power
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let f = (i + 1) as f64 / half as f64;
            (f - centroid) * (f - centroid) * p
        })
        .sum::<f64>()
        / total)
        .sqrt();
    let (dom_idx, dom_power) = power
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, &p)| (i, p))
        .unwrap_or((0, 0.0));
    let low: f64 = power.iter().take(power.len() / 4).sum();
    let band_ratio = low / total;
    vec![
        centroid,
        spread,
        (dom_idx + 1) as f64 / half as f64,
        dom_power / total,
        band_ratio,
    ]
}

/// Column-wise z-scores a feature matrix (constant columns become zeros).
pub fn zscore_columns(features: &mut [Vec<f64>]) {
    if features.is_empty() {
        return;
    }
    let d = features[0].len();
    for j in 0..d {
        let col: Vec<f64> = features.iter().map(|r| r[j]).collect();
        let m = stats::mean(&col);
        let s = stats::std(&col);
        for row in features.iter_mut() {
            row[j] = if s > 1e-12 { (row[j] - m) / s } else { 0.0 };
        }
    }
}

/// Selects up to `keep` feature columns.
///
/// Candidates are ranked by the **bimodality coefficient**
/// `b = (skew² + 1) / (excess-kurtosis + 3)` — multimodal columns (the ones
/// that can actually separate clusters) score high, unimodal noise scores
/// low. Degenerate (zero-variance) columns are dropped; a greedy pass then
/// removes any candidate correlating above `max_corr` with an already-kept
/// column. Returns the kept column indices (sorted).
pub fn select_features(features: &[Vec<f64>], keep: usize, max_corr: f64) -> Vec<usize> {
    if features.is_empty() || keep == 0 {
        return Vec::new();
    }
    let d = features[0].len();
    let cols: Vec<Vec<f64>> = (0..d)
        .map(|j| features.iter().map(|r| r[j]).collect())
        .collect();
    let mut order: Vec<usize> = (0..d).collect();
    let variances: Vec<f64> = cols.iter().map(|c| stats::variance(c)).collect();
    let bimodality: Vec<f64> = cols
        .iter()
        .map(|c| {
            let s = stats::skewness(c);
            let k = stats::kurtosis(c) + 3.0;
            (s * s + 1.0) / k.max(1e-9)
        })
        .collect();
    order.sort_by(|&a, &b| bimodality[b].total_cmp(&bimodality[a]));
    // b ≥ 0.555… is the uniform-distribution baseline: anything below it is
    // effectively unimodal noise and would only blur the cluster structure.
    const BIMODALITY_FLOOR: f64 = 5.0 / 9.0;
    let mut kept: Vec<usize> = Vec::new();
    for pass in 0..2 {
        for &j in &order {
            if variances[j] <= 1e-12 || kept.contains(&j) {
                continue;
            }
            // First pass admits only bimodal columns; the fallback pass
            // (only reached when nothing qualified) takes the best-ranked
            // remaining ones so the output is never empty.
            if pass == 0 && bimodality[j] < BIMODALITY_FLOOR {
                continue;
            }
            let redundant = kept
                .iter()
                .any(|&k| stats::pearson(&cols[j], &cols[k]).abs() > max_corr);
            if !redundant {
                kept.push(j);
                if kept.len() == keep {
                    break;
                }
            }
        }
        if !kept.is_empty() {
            break;
        }
    }
    if kept.is_empty() {
        // All features degenerate: keep the first column to stay non-empty.
        kept.push(0);
    }
    kept.sort_unstable();
    kept
}

/// FeatTS-like pipeline configuration.
#[derive(Debug, Clone, Copy)]
pub struct FeatTsLike {
    /// Number of clusters.
    pub k: usize,
    /// Maximum features kept after selection.
    pub max_features: usize,
    /// Seed for the k-Means step.
    pub seed: u64,
}

impl FeatTsLike {
    /// Creates a configuration keeping up to 8 features.
    pub fn new(k: usize, seed: u64) -> Self {
        FeatTsLike {
            k,
            max_features: 8,
            seed,
        }
    }

    /// Runs: base features → z-score → select → k-Means.
    pub fn fit(&self, rows: &[Vec<f64>]) -> Vec<usize> {
        assert!(!rows.is_empty(), "feature pipeline requires input");
        let mut feats: Vec<Vec<f64>> = rows.iter().map(|r| extract_features(r)).collect();
        zscore_columns(&mut feats);
        let kept = select_features(&feats, self.max_features, 0.95);
        let reduced: Vec<Vec<f64>> = feats
            .iter()
            .map(|r| kept.iter().map(|&j| r[j]).collect())
            .collect();
        KMeans::new(self.k, self.seed).fit(&reduced).labels
    }
}

/// Time2Feat-like pipeline configuration (wider feature space).
#[derive(Debug, Clone, Copy)]
pub struct Time2FeatLike {
    /// Number of clusters.
    pub k: usize,
    /// Maximum features kept after selection.
    pub max_features: usize,
    /// Seed for the k-Means step.
    pub seed: u64,
}

impl Time2FeatLike {
    /// Creates a configuration keeping up to 12 features.
    pub fn new(k: usize, seed: u64) -> Self {
        Time2FeatLike {
            k,
            max_features: 12,
            seed,
        }
    }

    /// Runs: base + spectral features → z-score → select → k-Means.
    pub fn fit(&self, rows: &[Vec<f64>]) -> Vec<usize> {
        assert!(!rows.is_empty(), "feature pipeline requires input");
        let mut feats: Vec<Vec<f64>> = rows
            .iter()
            .map(|r| {
                let mut f = extract_features(r);
                f.extend(extract_spectral_features(r));
                f
            })
            .collect();
        zscore_columns(&mut feats);
        let kept = select_features(&feats, self.max_features, 0.95);
        let reduced: Vec<Vec<f64>> = feats
            .iter()
            .map(|r| kept.iter().map(|&j| r[j]).collect())
            .collect();
        KMeans::new(self.k, self.seed).fit(&reduced).labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::adjusted_rand_index;

    #[test]
    fn feature_vector_shape() {
        let xs: Vec<f64> = (0..50).map(|i| (i as f64 * 0.3).sin()).collect();
        let f = extract_features(&xs);
        assert_eq!(f.len(), BASE_FEATURE_NAMES.len());
        assert!(f.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn empty_series_features_are_zero() {
        let f = extract_features(&[]);
        assert!(f.iter().all(|&x| x == 0.0));
        assert_eq!(extract_spectral_features(&[1.0, 2.0]), vec![0.0; 5]);
    }

    #[test]
    fn spectral_features_detect_frequency() {
        let slow: Vec<f64> = (0..128).map(|i| (i as f64 * 0.1).sin()).collect();
        let fast: Vec<f64> = (0..128).map(|i| (i as f64 * 1.5).sin()).collect();
        let fs = extract_spectral_features(&slow);
        let ff = extract_spectral_features(&fast);
        assert!(
            ff[2] > fs[2],
            "dominant frequency should be higher: {} vs {}",
            ff[2],
            fs[2]
        );
        assert!(
            fs[4] > ff[4],
            "low-band ratio should favour the slow signal"
        );
    }

    #[test]
    fn spectral_features_flat_signal() {
        let f = extract_spectral_features(&[2.0; 64]);
        assert!(f.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn zscore_makes_columns_standard() {
        let mut feats = vec![vec![1.0, 100.0], vec![2.0, 200.0], vec![3.0, 300.0]];
        zscore_columns(&mut feats);
        for j in 0..2 {
            let col: Vec<f64> = feats.iter().map(|r| r[j]).collect();
            assert!(stats::mean(&col).abs() < 1e-12);
            assert!((stats::std(&col) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn zscore_constant_column_zeroed() {
        let mut feats = vec![vec![5.0], vec![5.0]];
        zscore_columns(&mut feats);
        assert_eq!(feats, vec![vec![0.0], vec![0.0]]);
    }

    #[test]
    fn selection_drops_duplicates() {
        // col1 duplicates col0; col2 is constant; col3 independent.
        let feats: Vec<Vec<f64>> = (0..20)
            .map(|i| {
                let x = i as f64;
                vec![x, 2.0 * x, 7.0, (x * 1.7).sin() * 10.0]
            })
            .collect();
        let kept = select_features(&feats, 4, 0.95);
        assert!(!kept.contains(&2), "constant column must go, kept {kept:?}");
        assert!(
            !(kept.contains(&0) && kept.contains(&1)),
            "correlated pair must be deduplicated, kept {kept:?}"
        );
        assert!(kept.contains(&3));
    }

    #[test]
    fn selection_keep_budget() {
        let feats: Vec<Vec<f64>> = (0..10)
            .map(|i| (0..6).map(|j| ((i * (j + 1)) as f64 * 0.7).sin()).collect())
            .collect();
        let kept = select_features(&feats, 3, 0.99);
        assert!(kept.len() <= 3);
        assert!(!kept.is_empty());
    }

    #[test]
    fn selection_all_degenerate() {
        let feats = vec![vec![1.0, 1.0], vec![1.0, 1.0]];
        let kept = select_features(&feats, 2, 0.9);
        assert_eq!(kept, vec![0]);
    }

    fn noisy_vs_trending() -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut rows = Vec::new();
        let mut truth = Vec::new();
        for v in 0..12 {
            // Class 0: oscillating, no trend.
            rows.push(
                (0..64)
                    .map(|i| ((i + v) as f64 * 0.9).sin() * 2.0)
                    .collect(),
            );
            truth.push(0);
            // Class 1: strong upward trend, mild noise.
            rows.push(
                (0..64)
                    .map(|i| i as f64 * 0.3 + ((i * v) as f64 * 0.1).sin() * 0.2)
                    .collect(),
            );
            truth.push(1);
        }
        (rows, truth)
    }

    #[test]
    fn featts_like_separates_by_features() {
        let (rows, truth) = noisy_vs_trending();
        let labels = FeatTsLike::new(2, 0).fit(&rows);
        let ari = adjusted_rand_index(&truth, &labels);
        assert!(ari > 0.8, "ARI {ari}");
    }

    #[test]
    fn time2feat_like_separates_by_features() {
        let (rows, truth) = noisy_vs_trending();
        let labels = Time2FeatLike::new(2, 0).fit(&rows);
        let ari = adjusted_rand_index(&truth, &labels);
        assert!(ari > 0.8, "ARI {ari}");
    }

    #[test]
    fn pipelines_deterministic() {
        let (rows, _) = noisy_vs_trending();
        assert_eq!(
            FeatTsLike::new(2, 4).fit(&rows),
            FeatTsLike::new(2, 4).fit(&rows)
        );
        assert_eq!(
            Time2FeatLike::new(2, 4).fit(&rows),
            Time2FeatLike::new(2, 4).fit(&rows)
        );
    }
}
