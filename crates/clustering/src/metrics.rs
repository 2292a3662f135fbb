//! External and internal clustering quality metrics.
//!
//! External metrics compare a predicted partition against ground truth via
//! the contingency table: Rand Index, Adjusted Rand Index (the measure
//! Graphint reports per frame), Normalised/Adjusted Mutual Information and
//! purity. Internal metrics (silhouette, inertia) require only the data.

use tscore::kernel::sq_dist;

/// Dense contingency table between two labelings.
///
/// `table[i][j]` counts points with true label `i` and predicted label `j`.
#[derive(Debug, Clone)]
pub struct Contingency {
    /// The counts.
    pub table: Vec<Vec<usize>>,
    /// Row sums (true-class sizes).
    pub row_sums: Vec<usize>,
    /// Column sums (predicted-cluster sizes).
    pub col_sums: Vec<usize>,
    /// Total number of points.
    pub n: usize,
}

impl Contingency {
    /// Builds the contingency table; panics if the labelings have different
    /// lengths. Labels are compacted, so arbitrary label values are fine.
    pub fn new(truth: &[usize], pred: &[usize]) -> Self {
        assert_eq!(truth.len(), pred.len(), "labelings must have equal length");
        let (tmap, rows) = compact(truth);
        let (pmap, cols) = compact(pred);
        let mut table = vec![vec![0usize; cols]; rows];
        for (&t, &p) in truth.iter().zip(pred) {
            table[tmap[&t]][pmap[&p]] += 1;
        }
        let row_sums: Vec<usize> = table.iter().map(|r| r.iter().sum()).collect();
        let mut col_sums = vec![0usize; cols];
        for row in &table {
            for (j, &c) in row.iter().enumerate() {
                col_sums[j] += c;
            }
        }
        Contingency {
            table,
            row_sums,
            col_sums,
            n: truth.len(),
        }
    }
}

fn compact(labels: &[usize]) -> (std::collections::HashMap<usize, usize>, usize) {
    let mut map = std::collections::HashMap::new();
    for &l in labels {
        let next = map.len();
        map.entry(l).or_insert(next);
    }
    let k = map.len();
    (map, k)
}

#[inline]
fn comb2(n: usize) -> f64 {
    if n < 2 {
        0.0
    } else {
        n as f64 * (n - 1) as f64 / 2.0
    }
}

/// Rand Index ∈ [0, 1]: fraction of point pairs on which the two
/// partitions agree (together-together or apart-apart).
pub fn rand_index(truth: &[usize], pred: &[usize]) -> f64 {
    let c = Contingency::new(truth, pred);
    let total = comb2(c.n);
    if total == 0.0 {
        return 1.0;
    }
    let sum_nij: f64 = c.table.iter().flatten().map(|&x| comb2(x)).sum();
    let sum_a: f64 = c.row_sums.iter().map(|&x| comb2(x)).sum();
    let sum_b: f64 = c.col_sums.iter().map(|&x| comb2(x)).sum();
    // agreements = pairs together in both + pairs apart in both
    let together_both = sum_nij;
    let apart_both = total - sum_a - sum_b + sum_nij;
    (together_both + apart_both) / total
}

/// Adjusted Rand Index ∈ [−1, 1]: Rand index corrected for chance.
/// 1 for identical partitions, ~0 for independent ones.
pub fn adjusted_rand_index(truth: &[usize], pred: &[usize]) -> f64 {
    let c = Contingency::new(truth, pred);
    let total = comb2(c.n);
    if total == 0.0 {
        return 1.0;
    }
    let sum_nij: f64 = c.table.iter().flatten().map(|&x| comb2(x)).sum();
    let sum_a: f64 = c.row_sums.iter().map(|&x| comb2(x)).sum();
    let sum_b: f64 = c.col_sums.iter().map(|&x| comb2(x)).sum();
    let expected = sum_a * sum_b / total;
    let max_index = 0.5 * (sum_a + sum_b);
    if (max_index - expected).abs() < 1e-12 {
        // Both partitions are single-cluster (or all-singleton): identical
        // structure means perfect agreement.
        return 1.0;
    }
    (sum_nij - expected) / (max_index - expected)
}

/// Mutual information (nats) between two labelings.
pub fn mutual_information(truth: &[usize], pred: &[usize]) -> f64 {
    let c = Contingency::new(truth, pred);
    let n = c.n as f64;
    if c.n == 0 {
        return 0.0;
    }
    let mut mi = 0.0;
    for (i, row) in c.table.iter().enumerate() {
        for (j, &nij) in row.iter().enumerate() {
            if nij == 0 {
                continue;
            }
            let pij = nij as f64 / n;
            let pi = c.row_sums[i] as f64 / n;
            let pj = c.col_sums[j] as f64 / n;
            mi += pij * (pij / (pi * pj)).ln();
        }
    }
    mi.max(0.0)
}

/// Shannon entropy (nats) of a labeling.
pub fn label_entropy(labels: &[usize]) -> f64 {
    if labels.is_empty() {
        return 0.0;
    }
    let (map, k) = compact(labels);
    let mut counts = vec![0usize; k];
    for &l in labels {
        counts[map[&l]] += 1;
    }
    let n = labels.len() as f64;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / n;
            -p * p.ln()
        })
        .sum()
}

/// Normalised Mutual Information with sqrt normalisation:
/// `NMI = MI / sqrt(H(truth) · H(pred))` ∈ [0, 1].
pub fn normalized_mutual_information(truth: &[usize], pred: &[usize]) -> f64 {
    let mi = mutual_information(truth, pred);
    let ht = label_entropy(truth);
    let hp = label_entropy(pred);
    if ht <= 1e-12 && hp <= 1e-12 {
        // Both partitions trivial → identical.
        return 1.0;
    }
    let denom = (ht * hp).sqrt();
    if denom <= 1e-12 {
        return 0.0;
    }
    (mi / denom).clamp(0.0, 1.0)
}

/// Expected mutual information under the permutation model (hypergeometric),
/// the correction term of AMI. O(k_t · k_p · n) worst case but the sums are
/// short in practice.
pub fn expected_mutual_information(c: &Contingency) -> f64 {
    let n = c.n;
    if n == 0 {
        return 0.0;
    }
    let nf = n as f64;
    // ln(x!) table for 0..=n.
    let mut ln_fact = vec![0.0f64; n + 1];
    for i in 1..=n {
        ln_fact[i] = ln_fact[i - 1] + (i as f64).ln();
    }
    let mut emi = 0.0;
    for &a in &c.row_sums {
        for &b in &c.col_sums {
            let lo = (a + b).saturating_sub(n).max(1);
            let hi = a.min(b);
            for nij in lo..=hi {
                let nij_f = nij as f64;
                let term1 = nij_f / nf * ((nf * nij_f) / (a as f64 * b as f64)).ln();
                // Hypergeometric probability of the cell value nij.
                // `n + nij − a − b` is ≥ 0 by the loop's lower bound, but
                // must be computed in this order to avoid usize underflow.
                let ln_p = ln_fact[a] + ln_fact[b] + ln_fact[n - a] + ln_fact[n - b]
                    - ln_fact[n]
                    - ln_fact[nij]
                    - ln_fact[a - nij]
                    - ln_fact[b - nij]
                    - ln_fact[n + nij - a - b];
                emi += term1 * ln_p.exp();
            }
        }
    }
    emi
}

/// Adjusted Mutual Information (max normalisation):
/// `AMI = (MI − E[MI]) / (max(H_t, H_p) − E[MI])`.
pub fn adjusted_mutual_information(truth: &[usize], pred: &[usize]) -> f64 {
    let c = Contingency::new(truth, pred);
    let mi = mutual_information(truth, pred);
    let ht = label_entropy(truth);
    let hp = label_entropy(pred);
    if ht <= 1e-12 && hp <= 1e-12 {
        return 1.0;
    }
    let emi = expected_mutual_information(&c);
    let denom = ht.max(hp) - emi;
    if denom.abs() <= 1e-12 {
        return 0.0;
    }
    ((mi - emi) / denom).clamp(-1.0, 1.0)
}

/// Purity ∈ (0, 1]: each predicted cluster votes for its majority true
/// class; purity is the fraction of correctly "voted" points.
pub fn purity(truth: &[usize], pred: &[usize]) -> f64 {
    let c = Contingency::new(truth, pred);
    if c.n == 0 {
        return 1.0;
    }
    let mut correct = 0usize;
    for j in 0..c.col_sums.len() {
        let best = c.table.iter().map(|row| row[j]).max().unwrap_or(0);
        correct += best;
    }
    correct as f64 / c.n as f64
}

/// Sum of squared distances from each point to its cluster centroid.
pub fn inertia(rows: &[Vec<f64>], labels: &[usize], centroids: &[Vec<f64>]) -> f64 {
    rows.iter()
        .zip(labels)
        .map(|(row, &l)| sq_dist(&centroids[l], row))
        .sum()
}

/// Mean silhouette coefficient ∈ [−1, 1] under Euclidean distance.
///
/// Returns 0.0 when fewer than 2 clusters are present (undefined case).
pub fn silhouette(rows: &[Vec<f64>], labels: &[usize]) -> f64 {
    let n = rows.len();
    if n == 0 {
        return 0.0;
    }
    let k = labels.iter().copied().max().map_or(0, |m| m + 1);
    let mut sizes = vec![0usize; k];
    for &l in labels {
        sizes[l] += 1;
    }
    if sizes.iter().filter(|&&s| s > 0).count() < 2 {
        return 0.0;
    }
    let mut total = 0.0;
    let mut counted = 0usize;
    for i in 0..n {
        let li = labels[i];
        if sizes[li] <= 1 {
            // Silhouette of singleton clusters is defined as 0.
            counted += 1;
            continue;
        }
        let mut intra = 0.0;
        let mut inter = vec![0.0f64; k];
        let mut inter_cnt = vec![0usize; k];
        for j in 0..n {
            if i == j {
                continue;
            }
            let d = sq_dist(&rows[i], &rows[j]).sqrt();
            if labels[j] == li {
                intra += d;
            } else {
                inter[labels[j]] += d;
                inter_cnt[labels[j]] += 1;
            }
        }
        let a = intra / (sizes[li] - 1) as f64;
        let b = (0..k)
            .filter(|&c| c != li && inter_cnt[c] > 0)
            .map(|c| inter[c] / inter_cnt[c] as f64)
            .fold(f64::INFINITY, f64::min);
        if b.is_finite() {
            total += (b - a) / a.max(b);
        }
        counted += 1;
    }
    if counted == 0 {
        0.0
    } else {
        total / counted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contingency_shape() {
        let c = Contingency::new(&[0, 0, 1, 1], &[1, 1, 0, 2]);
        assert_eq!(c.n, 4);
        assert_eq!(c.row_sums, vec![2, 2]);
        assert_eq!(c.col_sums.iter().sum::<usize>(), 4);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn contingency_length_mismatch_panics() {
        Contingency::new(&[0, 1], &[0]);
    }

    #[test]
    fn perfect_agreement() {
        let t = [0, 0, 1, 1, 2, 2];
        assert!((rand_index(&t, &t) - 1.0).abs() < 1e-12);
        assert!((adjusted_rand_index(&t, &t) - 1.0).abs() < 1e-12);
        assert!((normalized_mutual_information(&t, &t) - 1.0).abs() < 1e-9);
        assert!((adjusted_mutual_information(&t, &t) - 1.0).abs() < 1e-9);
        assert!((purity(&t, &t) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn permuted_labels_still_perfect() {
        let t = [0, 0, 1, 1, 2, 2];
        let p = [2, 2, 0, 0, 1, 1];
        assert!((adjusted_rand_index(&t, &p) - 1.0).abs() < 1e-12);
        assert!((normalized_mutual_information(&t, &p) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ari_known_value() {
        // Classic example: ARI of this split is 0.24242...
        let t = [0, 0, 0, 1, 1, 1];
        let p = [0, 0, 1, 1, 2, 2];
        let ari = adjusted_rand_index(&t, &p);
        assert!((ari - 0.24242424242424243).abs() < 1e-9, "got {ari}");
        let ri = rand_index(&t, &p);
        assert!((ri - 0.6666666666666666).abs() < 1e-9, "got {ri}");
    }

    #[test]
    fn independent_partitions_near_zero_ari() {
        // Alternating vs block: ARI should be ≤ small.
        let t: Vec<usize> = (0..40).map(|i| i % 2).collect();
        let p: Vec<usize> = (0..40).map(|i| usize::from(i < 20)).collect();
        let ari = adjusted_rand_index(&t, &p);
        assert!(ari.abs() < 0.1, "got {ari}");
    }

    #[test]
    fn single_cluster_each_side() {
        let t = [0, 0, 0];
        let p = [1, 1, 1];
        assert!((adjusted_rand_index(&t, &p) - 1.0).abs() < 1e-12);
        assert!((normalized_mutual_information(&t, &p) - 1.0).abs() < 1e-12);
        assert!((adjusted_mutual_information(&t, &p) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_labelings() {
        let e: [usize; 0] = [];
        assert_eq!(rand_index(&e, &e), 1.0);
        assert_eq!(adjusted_rand_index(&e, &e), 1.0);
        assert_eq!(mutual_information(&e, &e), 0.0);
        assert_eq!(purity(&e, &e), 1.0);
    }

    #[test]
    fn nmi_bounds_random() {
        let t: Vec<usize> = (0..60).map(|i| i % 3).collect();
        let p: Vec<usize> = (0..60).map(|i| (i / 7) % 4).collect();
        let nmi = normalized_mutual_information(&t, &p);
        assert!((0.0..=1.0).contains(&nmi));
        let ami = adjusted_mutual_information(&t, &p);
        assert!((-1.0..=1.0).contains(&ami));
        assert!(ami <= nmi + 1e-9, "AMI {ami} should not exceed NMI {nmi}");
    }

    #[test]
    fn ami_near_zero_for_random_partitions() {
        // Deterministic pseudo-random labels: a block partition vs labels
        // derived from a multiplicative hash (independent of the blocks).
        let t: Vec<usize> = (0..200).map(|i| i / 50).collect();
        let p: Vec<usize> = (0..200usize)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) % 4)
            .collect();
        let ami = adjusted_mutual_information(&t, &p);
        assert!(ami.abs() < 0.12, "AMI for unrelated partitions was {ami}");
    }

    #[test]
    fn entropy_values() {
        assert_eq!(label_entropy(&[]), 0.0);
        assert_eq!(label_entropy(&[3, 3, 3]), 0.0);
        let h = label_entropy(&[0, 1, 0, 1]);
        assert!((h - (2f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn purity_majority() {
        let t = [0, 0, 0, 1];
        let p = [0, 0, 0, 0];
        assert!((purity(&t, &p) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn inertia_of_exact_centroids() {
        let rows = vec![vec![0.0, 0.0], vec![2.0, 0.0], vec![10.0, 0.0]];
        let labels = vec![0, 0, 1];
        let centroids = vec![vec![1.0, 0.0], vec![10.0, 0.0]];
        assert!((inertia(&rows, &labels, &centroids) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn silhouette_separated_blobs() {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..10 {
            rows.push(vec![i as f64 * 0.01, 0.0]);
            labels.push(0);
            rows.push(vec![100.0 + i as f64 * 0.01, 0.0]);
            labels.push(1);
        }
        let s = silhouette(&rows, &labels);
        assert!(s > 0.95, "got {s}");
        // A split orthogonal to the blob structure must score much worse
        // (rows alternate blobs, so halving the index range mixes them).
        let bad: Vec<usize> = (0..20).map(|i| usize::from(i < 10)).collect();
        assert!(silhouette(&rows, &bad) < s);
    }

    #[test]
    fn silhouette_degenerate() {
        assert_eq!(silhouette(&[], &[]), 0.0);
        let rows = vec![vec![0.0], vec![1.0]];
        assert_eq!(silhouette(&rows, &[0, 0]), 0.0);
        // Singletons are defined as 0.
        let s = silhouette(&rows, &[0, 1]);
        assert_eq!(s, 0.0);
    }
}
