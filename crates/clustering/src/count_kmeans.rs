//! Exact k-Means over sparse rows of non-negative integer counts.
//!
//! [`KMeans::fit_counts`] runs the algorithm of [`KMeans::fit`] — k-means++
//! seeding through [`kmeanspp_seeds`], Lloyd iterations, an empty cluster
//! re-seeded at the row farthest from its own centroid, the lowest inertia
//! over `n_init` restarts — in integer arithmetic, so no distance is
//! rounded. A centroid is the integer column sum `S` of its `m` members,
//! and a row `x`'s squared distance to it, scaled by `m²`,
//!
//! ```text
//! m²‖x − S/m‖² = m²‖x‖² − 2m(x·S) + ‖S‖²
//! ```
//!
//! is an exact integer. Clusters of different sizes compare by
//! cross-multiplying in `i128`. Rows stay sparse, so a distance costs the
//! row's nonzero count, not the column count, and no dense float row or
//! matrix is built.
//!
//! **Overflow bound.** Let `n` be the row count and `T` the largest row
//! sum. Each of `m²‖x‖²`, `‖S‖²` and `m(x·S)` is at most `(n·T)²`, so the
//! `i64` arithmetic is exact while `n·T < 2^31` (asserted), and a cross
//! product stays below `2^126`.

use crate::kmeans::{kmeanspp_seeds, KMeans};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Ordering;

/// One row of non-negative integer counts, stored as its nonzero entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountRow {
    /// `(column, count)` pairs, columns strictly ascending, counts > 0.
    entries: Vec<(u32, u32)>,
    /// `‖x‖²`.
    sq_norm: i64,
}

impl CountRow {
    /// The row whose count in column `j` is the number of times `j` occurs
    /// in `columns` (in any order).
    pub fn tally(mut columns: Vec<u32>) -> CountRow {
        columns.sort_unstable();
        let mut entries: Vec<(u32, u32)> = Vec::new();
        for column in columns {
            match entries.last_mut() {
                Some((last, count)) if *last == column => *count += 1,
                _ => entries.push((column, 1)),
            }
        }
        let sq_norm = entries.iter().map(|&(_, v)| i64::from(v).pow(2)).sum();
        CountRow { entries, sq_norm }
    }

    fn total(&self) -> u64 {
        self.entries.iter().map(|&(_, v)| u64::from(v)).sum()
    }

    /// `x·S` against a dense column sum.
    fn dot_dense(&self, dense: &[i64]) -> i64 {
        self.entries
            .iter()
            .map(|&(c, v)| i64::from(v) * dense[c as usize])
            .sum()
    }
}

/// An exact squared distance `num / scale`, with `scale = m²`.
#[derive(Debug, Clone, Copy)]
struct Dist {
    num: i64,
    scale: i64,
}

impl Dist {
    fn cmp_exact(&self, other: &Dist) -> Ordering {
        (i128::from(self.num) * i128::from(other.scale))
            .cmp(&(i128::from(other.num) * i128::from(self.scale)))
    }

    fn to_f64(self) -> f64 {
        self.num as f64 / self.scale as f64
    }
}

/// The centroids `S_c / m_c`. The column sums are interleaved,
/// `sums[j · k + c]`, so one pass over a row's entries reads every cluster.
struct Centroids {
    k: usize,
    sums: Vec<i64>,
    members: Vec<i64>,
    /// `‖S_c‖²`.
    sq_norms: Vec<i64>,
}

impl Centroids {
    /// One single-member centroid at each of `seeds`.
    fn at(rows: &[CountRow], seeds: &[usize], dim: usize) -> Centroids {
        let k = seeds.len();
        let mut centroids = Centroids {
            k,
            sums: vec![0; dim * k],
            members: vec![0; k],
            sq_norms: vec![0; k],
        };
        for (c, &i) in seeds.iter().enumerate() {
            centroids.reseed(c, &rows[i]);
        }
        centroids
    }

    fn reseed(&mut self, c: usize, row: &CountRow) {
        for column in self.sums.chunks_exact_mut(self.k) {
            column[c] = 0;
        }
        for &(j, v) in &row.entries {
            self.sums[j as usize * self.k + c] = i64::from(v);
        }
        self.members[c] = 1;
        self.sq_norms[c] = row.sq_norm;
    }

    /// Re-sums every centroid from `labels`; returns whether one is empty.
    fn update(&mut self, rows: &[CountRow], labels: &[usize]) -> bool {
        self.sums.fill(0);
        self.members.fill(0);
        for (row, &l) in rows.iter().zip(labels) {
            self.members[l] += 1;
            for &(j, v) in &row.entries {
                self.sums[j as usize * self.k + l] += i64::from(v);
            }
        }
        self.sq_norms.fill(0);
        for column in self.sums.chunks_exact(self.k) {
            for (norm, s) in self.sq_norms.iter_mut().zip(column) {
                *norm += s * s;
            }
        }
        self.members.contains(&0)
    }

    /// The lowest-index centroid at the smallest exact distance from
    /// `row`. `dots` is scratch of length `k`.
    fn nearest(&self, row: &CountRow, dots: &mut [i64]) -> (usize, Dist) {
        dots.fill(0);
        for &(j, v) in &row.entries {
            let sums = &self.sums[j as usize * self.k..][..self.k];
            for (dot, &s) in dots.iter_mut().zip(sums) {
                *dot += i64::from(v) * s;
            }
        }
        let dist = |c: usize| {
            let m = self.members[c];
            Dist {
                num: m * m * row.sq_norm + self.sq_norms[c] - 2 * m * dots[c],
                scale: m * m,
            }
        };
        let mut best = (0, dist(0));
        for c in 1..self.k {
            let d = dist(c);
            if d.cmp_exact(&best.1).is_lt() {
                best = (c, d);
            }
        }
        best
    }
}

impl KMeans {
    /// Fits on sparse count rows in exact integer arithmetic (see the
    /// [module docs](crate::count_kmeans)) and returns the labels.
    ///
    /// The seeding draws, tie rules and restart choice are those of
    /// [`KMeans::fit`], so on the same rows as `f64` it returns the same
    /// labels unless a float rounding broke an exact tie there. Lloyd
    /// iterations stop after an assignment step that changes no label (the
    /// float path stops one step later with the same labels). The best
    /// restart has the lowest row-order sum of each row's exact distance as
    /// `f64`; the first wins a tie, so two restarts that reach one partition
    /// under different numbering keep the first's numbering.
    ///
    /// Panics if `k == 0`, `rows` is empty, or `rows.len()` times the
    /// largest row sum is `2^31` or more.
    pub fn fit_counts(&self, rows: &[CountRow]) -> Vec<usize> {
        assert!(self.k > 0, "k must be > 0");
        assert!(!rows.is_empty(), "k-Means requires at least one point");
        let widest = rows.iter().map(CountRow::total).max().unwrap_or(0).max(1);
        assert!(
            rows.len() as u128 * u128::from(widest) < 1 << 31,
            "{} count rows summing to up to {widest} overflow exact i64 distances",
            rows.len()
        );
        let dim = rows
            .iter()
            .filter_map(|r| r.entries.last())
            .map(|&(c, _)| c as usize + 1)
            .max()
            .unwrap_or(0);

        let mut best: Option<(Vec<usize>, f64)> = None;
        for restart in 0..self.n_init.max(1) {
            let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(restart as u64));
            // `‖x_i − x_c‖²` against centre `c` spread over `dense`.
            let (mut centre, mut dense) = (usize::MAX, vec![0; dim]);
            let seeds = kmeanspp_seeds(rows.len(), self.k, &mut rng, |i, c| {
                if c != centre {
                    dense.fill(0);
                    for &(j, v) in &rows[c].entries {
                        dense[j as usize] = i64::from(v);
                    }
                    centre = c;
                }
                (rows[i].sq_norm + rows[c].sq_norm - 2 * rows[i].dot_dense(&dense)) as f64
            });
            let (labels, inertia) = self.lloyd_counts(rows, dim, &seeds);
            if best.as_ref().is_none_or(|b| inertia < b.1) {
                best = Some((labels, inertia));
            }
        }
        best.expect("at least one restart ran").0
    }

    /// Lloyd iterations from the centroids at rows `seeds`; returns the
    /// labels and their row-order inertia.
    fn lloyd_counts(&self, rows: &[CountRow], dim: usize, seeds: &[usize]) -> (Vec<usize>, f64) {
        let mut centroids = Centroids::at(rows, seeds, dim);
        let mut labels = vec![0usize; rows.len()];
        // Each row's exact distance to its assigned centroid.
        let mut dists = vec![Dist { num: 0, scale: 1 }; rows.len()];
        let mut dots = vec![0; seeds.len()];
        for iter in 0..self.max_iter {
            let mut changed = iter == 0;
            for ((row, label), dist) in rows.iter().zip(&mut labels).zip(&mut dists) {
                let (nearest, d) = centroids.nearest(row, &mut dots);
                changed |= nearest != *label;
                (*label, *dist) = (nearest, d);
            }
            if !changed {
                break;
            }
            if centroids.update(rows, &labels) {
                // An empty cluster re-seeds at the row farthest from its own
                // centroid, the last such row on ties (as `max_by` takes).
                let far = (0..rows.len())
                    .max_by(|&a, &b| dists[a].cmp_exact(&dists[b]))
                    .expect("rows is non-empty");
                for c in 0..seeds.len() {
                    if centroids.members[c] == 0 {
                        centroids.reseed(c, &rows[far]);
                    }
                }
            }
        }
        let inertia = dists.iter().map(|d| d.to_f64()).sum();
        (labels, inertia)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(dense: &[[u32; 2]]) -> Vec<CountRow> {
        dense
            .iter()
            .map(|r| {
                let columns = r.iter().enumerate();
                CountRow::tally(
                    columns
                        .flat_map(|(j, &v)| vec![j as u32; v as usize])
                        .collect(),
                )
            })
            .collect()
    }

    #[test]
    fn tally_counts_each_column_once_in_order() {
        let row = CountRow::tally(vec![5, 1, 5, 0, 5]);
        assert_eq!(row.entries, vec![(0, 1), (1, 1), (5, 3)]);
        assert_eq!(row.sq_norm, 11);
        assert_eq!(row.dot_dense(&[0, 2, 0, 0, 0, 1]), 2 + 3);
    }

    #[test]
    fn a_tied_restart_keeps_the_first_restarts_numbering() {
        // Restarts 0 and 1 (seeds 15 and 16) reach one partition, numbered
        // [0, 0, 2, 2, 2, 1, 1, 1] and [1, 1, 0, 0, 0, 2, 2, 2]. Their
        // row-order inertias are equal, so the first restart wins. Summed
        // per cluster in cluster order (Σ‖x‖² − ‖S‖²/m), restart 1's reads
        // one ulp lower and would permute the labels.
        let rows = rows(&[
            [4, 1],
            [2, 2],
            [1, 1],
            [0, 0],
            [1, 0],
            [0, 4],
            [2, 4],
            [3, 4],
        ]);
        let restart = |seed| {
            KMeans {
                k: 3,
                max_iter: 100,
                n_init: 1,
                seed,
            }
            .fit_counts(&rows)
        };
        assert_eq!(restart(15), vec![0, 0, 2, 2, 2, 1, 1, 1]);
        assert_eq!(restart(16), vec![1, 1, 0, 0, 0, 2, 2, 2]);
        let both = KMeans {
            k: 3,
            max_iter: 100,
            n_init: 2,
            seed: 15,
        };
        assert_eq!(both.fit_counts(&rows), restart(15));
    }

    #[test]
    fn an_empty_cluster_reseeds_at_the_last_of_the_farthest_rows() {
        // Seeds at rows 0, 4 and 0 again leave cluster 2 empty. Rows 1 and 2
        // tie as the farthest from their centroid (36 from 6); re-seeding
        // at the last of them, row 2, converges to {6, 0}, {50, 51, 52},
        // {12}. Row 1 would give {6, 12}, {50, 51, 52}, {0}.
        let rows = rows(&[[6, 0], [0, 0], [12, 0], [50, 0], [51, 0], [52, 0]]);
        let (labels, inertia) = KMeans::new(3, 0).lloyd_counts(&rows, 1, &[0, 4, 0]);
        assert_eq!(labels, vec![0, 0, 2, 1, 1, 1]);
        assert_eq!(inertia, 9.0 + 9.0 + 0.0 + 1.0 + 0.0 + 1.0);
    }

    #[test]
    #[should_panic(expected = "overflow exact i64 distances")]
    fn rows_past_the_overflow_bound_panic() {
        let wide = CountRow {
            entries: vec![(0, 1 << 30)],
            sq_norm: 1 << 60,
        };
        KMeans::new(2, 0).fit_counts(&[wide.clone(), wide]);
    }
}
