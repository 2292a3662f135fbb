//! k-DBA: k-Means under Dynamic Time Warping with DBA averaging.
//!
//! Assignment uses banded DTW; centroid refinement uses DTW Barycenter
//! Averaging (Petitjean et al.). This is the "k-DBA" baseline of the
//! Benchmark frame. DTW is O(m·w) per pair, so the band keeps large
//! datasets tractable.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tscore::kernel::{dtw, dtw_path, sq_dist, DtwOptions, DtwScratch};
use tscore::{Result, TsError};

/// k-DBA configuration.
#[derive(Debug, Clone, Copy)]
pub struct Kdba {
    /// Number of clusters.
    pub k: usize,
    /// Maximum alternation iterations.
    pub max_iter: usize,
    /// DBA refinement iterations per centroid update.
    pub dba_iter: usize,
    /// Sakoe–Chiba half-band for all DTW computations (`None` = full).
    pub window: Option<usize>,
    /// RNG seed for initial centroid choice.
    pub seed: u64,
}

/// Output of a k-DBA fit.
#[derive(Debug, Clone)]
pub struct KdbaResult {
    /// Cluster label per series.
    pub labels: Vec<usize>,
    /// DBA centroids.
    pub centroids: Vec<Vec<f64>>,
    /// Sum of DTW distances to assigned centroids.
    pub total_distance: f64,
}

impl Kdba {
    /// Creates a configuration with `max_iter = 10`, `dba_iter = 5` and a
    /// 10 %-of-length band (resolved at fit time).
    pub fn new(k: usize, seed: u64) -> Self {
        Kdba {
            k,
            max_iter: 10,
            dba_iter: 5,
            window: None,
            seed,
        }
    }

    /// Fits k-DBA on equal-length rows.
    pub fn fit(&self, rows: &[Vec<f64>]) -> KdbaResult {
        assert!(self.k > 0, "k must be > 0");
        assert!(!rows.is_empty(), "k-DBA requires at least one series");
        let m = rows[0].len();
        assert!(rows.iter().all(|r| r.len() == m), "ragged input rows");
        let n = rows.len();
        let k = self.k.min(n);
        let opts = DtwOptions {
            window: Some(self.window.unwrap_or((m / 10).max(2))),
        };

        // Initialise centroids as k distinct random members.
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut picks: Vec<usize> = (0..n).collect();
        for i in (1..picks.len()).rev() {
            let j = rng.gen_range(0..=i);
            picks.swap(i, j);
        }
        let mut centroids: Vec<Vec<f64>> = picks.iter().take(k).map(|&i| rows[i].clone()).collect();
        let mut labels = vec![0usize; n];
        // One DTW scratch for the whole fit: every assignment, DBA
        // alignment and final-cost evaluation reuses its DP rows instead of
        // allocating two fresh ones per pair.
        let mut scratch = DtwScratch::new();

        for _ in 0..self.max_iter {
            // Assignment.
            let mut changed = false;
            for (i, row) in rows.iter().enumerate() {
                let mut best = labels[i];
                let mut best_d = f64::INFINITY;
                for (c, centroid) in centroids.iter().enumerate() {
                    let d = dtw(centroid, row, opts, &mut scratch).unwrap_or(f64::INFINITY);
                    if d < best_d {
                        best_d = d;
                        best = c;
                    }
                }
                if labels[i] != best {
                    labels[i] = best;
                    changed = true;
                }
            }
            // Refinement via DBA.
            for (c, centroid) in centroids.iter_mut().enumerate() {
                let members: Vec<&[f64]> = rows
                    .iter()
                    .zip(&labels)
                    .filter(|(_, &l)| l == c)
                    .map(|(r, _)| r.as_slice())
                    .collect();
                if members.is_empty() {
                    continue;
                }
                if let Ok(new_c) = dba_with(centroid, &members, opts, self.dba_iter, &mut scratch) {
                    *centroid = new_c;
                }
            }
            if !changed {
                break;
            }
        }

        let total_distance = rows
            .iter()
            .zip(&labels)
            .map(|(row, &l)| dtw(&centroids[l], row, opts, &mut scratch).unwrap_or(0.0))
            .sum();
        KdbaResult {
            labels,
            centroids,
            total_distance,
        }
    }
}

/// One DBA (DTW Barycenter Averaging) refinement step.
///
/// Aligns every series in `members` to `center` and replaces each centre
/// point by the mean of all points warped onto it. Series may have varying
/// lengths; the centre length is preserved.
fn dba_step_with(
    center: &[f64],
    members: &[&[f64]],
    opts: DtwOptions,
    scratch: &mut DtwScratch,
) -> Result<Vec<f64>> {
    if center.is_empty() {
        return Err(TsError::TooShort {
            required: 1,
            actual: 0,
        });
    }
    let mut sums = vec![0.0; center.len()];
    let mut counts = vec![0usize; center.len()];
    for series in members {
        let (_, path) = dtw_path(center, series, opts, scratch)?;
        for (ci, sj) in path {
            sums[ci] += series[sj];
            counts[ci] += 1;
        }
    }
    Ok(sums
        .iter()
        .zip(&counts)
        .zip(center)
        .map(|((&s, &c), &old)| if c > 0 { s / c as f64 } else { old })
        .collect())
}

/// Full DBA: iterates [`dba_step_with`] from `init` until the centre moves
/// less than 1e-8 or `max_iter` steps have run.
fn dba_with(
    init: &[f64],
    members: &[&[f64]],
    opts: DtwOptions,
    max_iter: usize,
    scratch: &mut DtwScratch,
) -> Result<Vec<f64>> {
    let mut center = init.to_vec();
    for _ in 0..max_iter {
        let next = dba_step_with(&center, members, opts, scratch)?;
        let delta = sq_dist(&next, &center).sqrt();
        center = next;
        if delta < 1e-8 {
            break;
        }
    }
    Ok(center)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::adjusted_rand_index;
    use proptest::prelude::*;

    /// Two bump shapes whose members are time-shifted — Euclidean k-Means
    /// struggles, DTW absorbs the warp.
    fn warped_bumps() -> (Vec<Vec<f64>>, Vec<usize>) {
        let m = 40;
        let bump = |center: f64, width: f64, i: usize| -> f64 {
            (-((i as f64 - center) / width).powi(2)).exp()
        };
        let mut rows = Vec::new();
        let mut truth = Vec::new();
        for s in 0..8 {
            let shift = s as f64;
            // Class 0: narrow early bump.
            rows.push((0..m).map(|i| bump(8.0 + shift, 2.0, i)).collect());
            truth.push(0);
            // Class 1: broad late bump.
            rows.push((0..m).map(|i| bump(28.0 + shift, 6.0, i)).collect());
            truth.push(1);
        }
        (rows, truth)
    }

    #[test]
    fn separates_warped_bumps() {
        let (rows, truth) = warped_bumps();
        let result = Kdba::new(2, 2).fit(&rows);
        let ari = adjusted_rand_index(&truth, &result.labels);
        assert!(ari > 0.8, "ARI {ari}");
    }

    #[test]
    fn deterministic() {
        let (rows, _) = warped_bumps();
        let a = Kdba::new(2, 4).fit(&rows);
        let b = Kdba::new(2, 4).fit(&rows);
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn total_distance_finite_and_nonnegative() {
        let (rows, _) = warped_bumps();
        let r = Kdba::new(2, 0).fit(&rows);
        assert!(r.total_distance.is_finite());
        assert!(r.total_distance >= 0.0);
    }

    #[test]
    fn k_one_returns_global_average() {
        let (rows, _) = warped_bumps();
        let r = Kdba::new(1, 0).fit(&rows);
        assert!(r.labels.iter().all(|&l| l == 0));
        assert_eq!(r.centroids.len(), 1);
        assert_eq!(r.centroids[0].len(), rows[0].len());
    }

    #[test]
    fn explicit_window_respected() {
        let (rows, truth) = warped_bumps();
        let r = Kdba {
            window: Some(10),
            ..Kdba::new(2, 2)
        }
        .fit(&rows);
        let ari = adjusted_rand_index(&truth, &r.labels);
        assert!(ari > 0.8, "ARI {ari}");
    }

    #[test]
    #[should_panic(expected = "k must be > 0")]
    fn zero_k_panics() {
        Kdba::new(0, 0).fit(&[vec![1.0, 2.0]]);
    }

    #[test]
    #[should_panic(expected = "at least one series")]
    fn empty_panics() {
        Kdba::new(1, 0).fit(&[]);
    }

    fn dba(init: &[f64], members: &[&[f64]], max_iter: usize) -> Vec<f64> {
        dba_with(
            init,
            members,
            DtwOptions::default(),
            max_iter,
            &mut DtwScratch::new(),
        )
        .unwrap()
    }

    #[test]
    fn dba_of_identical_members_is_member() {
        let a = [1.0, 2.0, 3.0, 2.0, 1.0];
        let members: Vec<&[f64]> = vec![&a, &a, &a];
        let c = dba(&a, &members, 10);
        for (x, y) in c.iter().zip(&a) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn dba_averages_offsets() {
        let a = [0.0, 0.0, 0.0, 0.0];
        let b = [2.0, 2.0, 2.0, 2.0];
        let init = [1.0, 1.0, 1.0, 1.0];
        let members: Vec<&[f64]> = vec![&a, &b];
        let c = dba(&init, &members, 20);
        for x in &c {
            assert!((x - 1.0).abs() < 1e-9, "expected 1.0, got {x}");
        }
    }

    #[test]
    fn dba_step_empty_center_errors() {
        let members: Vec<&[f64]> = vec![];
        let opts = DtwOptions::default();
        assert!(dba_step_with(&[], &members, opts, &mut DtwScratch::new()).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn dba_stays_in_member_envelope(
            members in proptest::collection::vec(
                proptest::collection::vec(-5.0..5.0f64, 8..=8),
                2..5,
            ),
        ) {
            let refs: Vec<&[f64]> = members.iter().map(Vec::as_slice).collect();
            let c = dba(&members[0], &refs, 5);
            // Every centre point is a mean of member points, so it must
            // stay inside the global min/max envelope.
            let lo = members.iter().flatten().cloned().fold(f64::INFINITY, f64::min) - 1e-9;
            let hi = members.iter().flatten().cloned().fold(f64::NEG_INFINITY, f64::max) + 1e-9;
            prop_assert!(c.iter().all(|&v| v >= lo && v <= hi));
        }
    }
}
