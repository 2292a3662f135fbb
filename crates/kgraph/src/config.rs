//! Configuration of the k-Graph pipeline.

/// All tunables of [`crate::KGraph`].
///
/// Defaults follow the spirit of the paper: several subsequence lengths
/// spread over a fraction of the series length, a radial scan with 24
/// sectors and Silverman-bandwidth KDE for node extraction.
#[derive(Debug, Clone)]
pub struct KGraphConfig {
    /// Number of clusters `k`.
    pub k: usize,
    /// Explicit subsequence lengths `R`; empty = derive [`Self::n_lengths`]
    /// lengths automatically from the dataset's minimum series length.
    pub lengths: Vec<usize>,
    /// How many lengths to derive when [`Self::lengths`] is empty
    /// (the paper's `M`).
    pub n_lengths: usize,
    /// Smallest/largest automatic length as fractions of the minimum
    /// series length.
    pub length_fraction_range: (f64, f64),
    /// Number of angular sectors ψ of the radial scan.
    pub psi: usize,
    /// KDE evaluation grid size per sector.
    pub kde_grid: usize,
    /// Minimum density (relative to the sector's peak) for a KDE mode to
    /// become a node.
    pub min_density_ratio: f64,
    /// Subsequence extraction stride (1 = every subsequence).
    pub stride: usize,
    /// Maximum number of subsequences used to *fit* each PCA (all
    /// subsequences are still projected).
    pub pca_sample: usize,
    /// Restarts of the per-length k-Means.
    pub n_init: usize,
    /// Use edge-crossing features in addition to node-crossing features.
    pub edge_features: bool,
    /// Use node-crossing features (disable to ablate edges-only).
    pub node_features: bool,
    /// Master seed.
    pub seed: u64,
}

impl KGraphConfig {
    /// Canonical configuration for `k` clusters.
    pub fn new(k: usize) -> Self {
        KGraphConfig {
            k,
            lengths: Vec::new(),
            n_lengths: 5,
            length_fraction_range: (0.1, 0.5),
            psi: 24,
            kde_grid: 128,
            min_density_ratio: 0.05,
            stride: 1,
            pca_sample: 2000,
            n_init: 5,
            edge_features: true,
            node_features: true,
            seed: 0,
        }
    }

    /// Sets explicit lengths (builder style).
    pub fn with_lengths(mut self, lengths: Vec<usize>) -> Self {
        self.lengths = lengths;
        self
    }

    /// Sets the seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Resolves the length set `R` for a dataset whose shortest series has
    /// `min_len` points. Automatic lengths are evenly spaced fractions of
    /// `min_len`, clamped to `[4, min_len − 1]`, deduplicated, ascending.
    pub fn resolve_lengths(&self, min_len: usize) -> Vec<usize> {
        if !self.lengths.is_empty() {
            let mut out: Vec<usize> = self
                .lengths
                .iter()
                .copied()
                .filter(|&l| l >= 2 && l < min_len.max(3))
                .collect();
            out.sort_unstable();
            out.dedup();
            return out;
        }
        let (lo, hi) = self.length_fraction_range;
        let m = self.n_lengths.max(1);
        let mut out = Vec::with_capacity(m);
        for i in 0..m {
            let frac = if m == 1 {
                (lo + hi) / 2.0
            } else {
                lo + (hi - lo) * i as f64 / (m - 1) as f64
            };
            let l = ((min_len as f64) * frac).round() as usize;
            out.push(l.clamp(4, min_len.saturating_sub(1).max(4)));
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Deterministic per-length seed (used by the parallel jobs).
    pub fn seed_for_length(&self, length: usize) -> u64 {
        self.seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(length as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_lengths_spread() {
        let cfg = KGraphConfig::new(3);
        let lens = cfg.resolve_lengths(128);
        assert_eq!(lens.len(), 5);
        assert_eq!(lens[0], 13); // 0.1 × 128 ≈ 13
        assert_eq!(*lens.last().unwrap(), 64); // 0.5 × 128
        assert!(lens.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn auto_lengths_clamped_for_short_series() {
        let cfg = KGraphConfig::new(2);
        let lens = cfg.resolve_lengths(10);
        assert!(!lens.is_empty());
        assert!(lens.iter().all(|&l| (4..10).contains(&l)), "{lens:?}");
    }

    #[test]
    fn explicit_lengths_filtered_and_sorted() {
        let cfg = KGraphConfig::new(2).with_lengths(vec![64, 16, 16, 1, 500]);
        let lens = cfg.resolve_lengths(128);
        assert_eq!(lens, vec![16, 64]);
    }

    #[test]
    fn single_auto_length() {
        let cfg = KGraphConfig {
            n_lengths: 1,
            ..KGraphConfig::new(2)
        };
        let lens = cfg.resolve_lengths(100);
        assert_eq!(lens.len(), 1);
        assert_eq!(lens[0], 30); // midpoint fraction 0.3
    }

    #[test]
    fn per_length_seeds_differ() {
        let cfg = KGraphConfig::new(2).with_seed(9);
        assert_ne!(cfg.seed_for_length(16), cfg.seed_for_length(32));
        let cfg2 = KGraphConfig::new(2).with_seed(10);
        assert_ne!(cfg.seed_for_length(16), cfg2.seed_for_length(16));
    }
}
