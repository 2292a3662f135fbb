//! Stage 1a — subsequence projection.
//!
//! For one length ℓ: z-normalise every (strided) subsequence of every
//! series and project it into 2-D with PCA, "retaining the essential
//! shapes" (paper §II-A). The PCA is fitted on a bounded deterministic
//! sample so the cost stays linear in the number of subsequences.
//!
//! A window is named by its series `s` and window index `w`: it covers
//! `values[w·stride .. w·stride + ℓ]` of series `s`, and its point is
//! `points[starts[s] + w]`. Nothing else is stored per window.
//!
//! Windows are never materialised as a `total × ℓ` matrix. Only the PCA
//! fit set (at most `pca_sample` windows) is copied out; every window is
//! then z-normalised into one reused buffer and projected at once by
//! [`project_windows`], so window memory is O(total + `pca_sample`·ℓ).
//! [`project_windows`] is also the first half of serve-time routing
//! ([`crate::build::LayerEmbedding::route`]): fit and serve share one
//! window loop, which keeps routed paths bit-identical to training paths.

use linalg::matrix::Matrix;
use linalg::pca::Pca;
use tscore::kernel::{znorm_into, ZnormScratch};
use tscore::windows::window_count;
use tscore::Dataset;

/// The 2-D projection of all subsequences of one length.
#[derive(Debug, Clone)]
pub struct Projection {
    /// Subsequence length ℓ.
    pub length: usize,
    /// One `(x, y)` point per window: window `w` of series `s` is
    /// `points[starts[s] + w]`.
    pub points: Vec<(f64, f64)>,
    /// Index of the first point of each series (plus a trailing sentinel),
    /// so `points[starts[s]..starts[s+1]]` are series `s`'s points in
    /// temporal order. A series shorter than ℓ has none.
    pub starts: Vec<usize>,
    /// The fitted PCA (kept for inspection in the Under-the-hood frame).
    pub pca: Pca,
}

/// Projects all subsequences of length `length` (stride `stride`).
///
/// `pca_sample` bounds the PCA *fit* set: subsequences are sampled evenly
/// (deterministically) when there are more. Panics if no series is long
/// enough for one window.
pub fn project_subsequences(
    dataset: &Dataset,
    length: usize,
    stride: usize,
    pca_sample: usize,
) -> Projection {
    assert!(length >= 2, "subsequence length must be >= 2");
    assert!(stride >= 1, "stride must be >= 1");
    let mut starts: Vec<usize> = Vec::with_capacity(dataset.len() + 1);
    let mut total = 0usize;
    for series in dataset.series() {
        starts.push(total);
        total += window_count(series.len(), length, stride);
    }
    starts.push(total);
    assert!(total > 0, "no series admits a window of length {length}");

    let pca = fit_pca(dataset, &starts, length, stride, pca_sample);

    let mut points: Vec<(f64, f64)> = Vec::with_capacity(total);
    for series in dataset.series() {
        points.extend(project_windows(&pca, series.values(), stride, 0));
    }
    debug_assert_eq!(points.len(), total);
    Projection {
        length,
        points,
        starts,
        pca,
    }
}

/// Fits the 2-D PCA on an even deterministic sample of `pca_sample`
/// windows, or on every window when there are at most
/// `pca_sample.max(8)`. Only these windows are z-normalised into a
/// matrix. `starts` holds each series' first window index plus the total.
fn fit_pca(
    dataset: &Dataset,
    starts: &[usize],
    length: usize,
    stride: usize,
    pca_sample: usize,
) -> Pca {
    let total = starts[starts.len() - 1];
    let rows: Vec<usize> = if total <= pca_sample.max(8) {
        (0..total).collect()
    } else {
        let step = total as f64 / pca_sample as f64;
        (0..pca_sample)
            .map(|i| (i as f64 * step) as usize)
            .collect()
    };
    let mut sample = vec![0.0; rows.len() * length];
    for (&row, dst) in rows.iter().zip(sample.chunks_exact_mut(length)) {
        // The series holding global window `row`: the last one starting at
        // or before it (series without windows share their successor's
        // start and are skipped).
        let s = starts.partition_point(|&first| first <= row) - 1;
        let start = (row - starts[s]) * stride;
        znorm_into(&dataset.series()[s].values()[start..start + length], dst);
    }
    Pca::fit(&Matrix::from_vec(rows.len(), length, sample), 2)
}

/// Projects the windows of one series, from window index `first_window`
/// on (window `w` covers `values[w·stride .. w·stride + ℓ]`, where ℓ is
/// the PCA's input dimension), one `(x, y)` point per window in temporal
/// order. Each window is z-normalised into one reused buffer and projected
/// with [`Pca::project2`] as it is yielded; nothing is allocated per
/// window.
pub fn project_windows<'a>(
    pca: &'a Pca,
    values: &'a [f64],
    stride: usize,
    first_window: usize,
) -> impl ExactSizeIterator<Item = (f64, f64)> + 'a {
    let length = pca.mean().len();
    let n = window_count(values.len(), length, stride);
    let mut scratch = ZnormScratch::new();
    (first_window.min(n)..n).map(move |w| {
        let start = w * stride;
        pca.project2(scratch.znormed(&values[start..start + length]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tscore::{DatasetKind, TimeSeries};

    /// Points of series `s` in temporal order.
    fn series_points(proj: &Projection, s: usize) -> &[(f64, f64)] {
        &proj.points[proj.starts[s]..proj.starts[s + 1]]
    }

    fn toy_dataset() -> Dataset {
        let mut series = Vec::new();
        for f in [0.2f64, 0.8] {
            for p in 0..3 {
                series.push(TimeSeries::new(
                    (0..60).map(|i| ((i + p) as f64 * f).sin()).collect(),
                ));
            }
        }
        Dataset::new("toy", DatasetKind::Simulated, series)
    }

    #[test]
    fn projection_counts() {
        let ds = toy_dataset();
        let proj = project_subsequences(&ds, 16, 1, 1000);
        // 6 series × (60 − 16 + 1) windows.
        assert_eq!(proj.points.len(), 6 * 45);
        assert_eq!(proj.starts.len(), 7);
        assert_eq!(series_points(&proj, 0).len(), 45);
        assert_eq!(proj.length, 16);
    }

    #[test]
    fn strided_projection() {
        let ds = toy_dataset();
        let proj = project_subsequences(&ds, 16, 4, 1000);
        assert_eq!(series_points(&proj, 0).len(), (60 - 16) / 4 + 1);
        // Window 1 starts at one stride.
        let z = tscore::transform::znorm(&ds.series()[0].values()[4..20]);
        assert_eq!(series_points(&proj, 0)[1], proj.pca.project2(&z));
    }

    #[test]
    fn different_shapes_separate_in_projection() {
        // Two very different generators; their projected clouds should not
        // fully overlap. Compare centroid distance to cloud spread.
        let ds = toy_dataset();
        let proj = project_subsequences(&ds, 16, 1, 1000);
        let cloud_a: Vec<(f64, f64)> = (0..3)
            .flat_map(|s| series_points(&proj, s).to_vec())
            .collect();
        let cloud_b: Vec<(f64, f64)> = (3..6)
            .flat_map(|s| series_points(&proj, s).to_vec())
            .collect();
        let centroid = |c: &[(f64, f64)]| {
            let n = c.len() as f64;
            (
                c.iter().map(|p| p.0).sum::<f64>() / n,
                c.iter().map(|p| p.1).sum::<f64>() / n,
            )
        };
        let ca = centroid(&cloud_a);
        let cb = centroid(&cloud_b);
        let dist = ((ca.0 - cb.0).powi(2) + (ca.1 - cb.1).powi(2)).sqrt();
        assert!(dist > 0.1, "clouds should separate, centroid gap {dist}");
    }

    #[test]
    fn pca_sampling_bounds_fit_cost() {
        let ds = toy_dataset();
        // Tiny sample still produces a valid projection of all points.
        let proj = project_subsequences(&ds, 16, 1, 16);
        assert_eq!(proj.points.len(), 6 * 45);
        assert!(proj
            .points
            .iter()
            .all(|p| p.0.is_finite() && p.1.is_finite()));
    }

    /// The materialising projection this module used to ship: every
    /// z-normalised window in one `total × ℓ` buffer, the PCA fitted on an
    /// even sample of its rows, then every row projected. Kept only as the
    /// oracle the streamed projection must match bit for bit.
    fn materialising_oracle(
        dataset: &Dataset,
        length: usize,
        stride: usize,
        pca_sample: usize,
    ) -> Projection {
        let total: usize = dataset
            .series()
            .iter()
            .map(|s| window_count(s.len(), length, stride))
            .sum();
        let mut flat: Vec<f64> = vec![0.0; total * length];
        let mut starts: Vec<usize> = Vec::with_capacity(dataset.len() + 1);
        let mut n_rows = 0usize;
        for series in dataset.series() {
            starts.push(n_rows);
            let vals = series.values();
            let mut start = 0usize;
            while start + length <= vals.len() {
                znorm_into(
                    &vals[start..start + length],
                    &mut flat[n_rows * length..(n_rows + 1) * length],
                );
                n_rows += 1;
                start += stride;
            }
        }
        starts.push(n_rows);
        let pca = if total <= pca_sample.max(8) {
            Pca::fit(&Matrix::from_vec(total, length, flat.clone()), 2)
        } else {
            let step = total as f64 / pca_sample as f64;
            let mut sample = Vec::with_capacity(pca_sample * length);
            for i in 0..pca_sample {
                let r = (i as f64 * step) as usize;
                sample.extend_from_slice(&flat[r * length..(r + 1) * length]);
            }
            Pca::fit(&Matrix::from_vec(pca_sample, length, sample), 2)
        };
        let points = flat.chunks_exact(length).map(|r| pca.project2(r)).collect();
        Projection {
            length,
            points,
            starts,
            pca,
        }
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    fn assert_bit_identical(got: &Projection, want: &Projection, case: &str) {
        assert_eq!(got.length, want.length, "{case}: length");
        assert_eq!(got.starts, want.starts, "{case}: starts");
        let point_bits = |p: &Projection| -> Vec<(u64, u64)> {
            p.points
                .iter()
                .map(|q| (q.0.to_bits(), q.1.to_bits()))
                .collect()
        };
        assert_eq!(point_bits(got), point_bits(want), "{case}: points");
        assert_eq!(
            bits(got.pca.mean()),
            bits(want.pca.mean()),
            "{case}: PCA mean"
        );
        assert_eq!(
            bits(got.pca.components().as_slice()),
            bits(want.pca.components().as_slice()),
            "{case}: PCA components"
        );
        assert_eq!(
            bits(got.pca.explained_variance()),
            bits(want.pca.explained_variance()),
            "{case}: PCA variances"
        );
        assert_eq!(
            got.pca.total_variance().to_bits(),
            want.pca.total_variance().to_bits(),
            "{case}: PCA total variance"
        );
    }

    /// Series of varied lengths with flat stretches, so some windows are
    /// constant (z-normalisation only centres them), plus one series too
    /// short for the longer windows.
    fn mixed_dataset() -> Dataset {
        let mut series = Vec::new();
        for (k, f) in [0.17f64, 0.6, 1.3].into_iter().enumerate() {
            for p in 0..3 {
                let n = 70 + 9 * p + 4 * k;
                series.push(TimeSeries::new(
                    (0..n)
                        .map(|i| {
                            if (20..45).contains(&i) && p != 1 {
                                k as f64 - 0.5
                            } else {
                                ((i + 3 * p) as f64 * f).sin() + 0.1 * (i % 7) as f64
                            }
                        })
                        .collect(),
                ));
            }
        }
        series.push(TimeSeries::new(vec![2.0; 12]));
        series.push(TimeSeries::new((0..20).map(|i| i as f64).collect()));
        Dataset::new("mixed", DatasetKind::Simulated, series)
    }

    #[test]
    fn streamed_projection_is_bit_identical_to_the_materialising_oracle() {
        let ds = mixed_dataset();
        for length in [3usize, 8, 16, 30] {
            for stride in 1..=4 {
                // 40 samples take the sampled branch; 100 000 fits on every
                // window.
                for pca_sample in [40usize, 100_000] {
                    let case = format!("ℓ={length} stride={stride} pca_sample={pca_sample}");
                    let got = project_subsequences(&ds, length, stride, pca_sample);
                    let want = materialising_oracle(&ds, length, stride, pca_sample);
                    assert_bit_identical(&got, &want, &case);
                }
            }
        }
    }

    #[test]
    fn project_windows_resumes_at_any_window() {
        let ds = mixed_dataset();
        let proj = project_subsequences(&ds, 16, 3, 40);
        for s in 0..ds.len() {
            let values = ds.series()[s].values();
            let full = series_points(&proj, s);
            for first in [0usize, 1, full.len(), full.len() + 5] {
                let tail = project_windows(&proj.pca, values, 3, first);
                assert_eq!(tail.len(), full.len().saturating_sub(first));
                let tail: Vec<(f64, f64)> = tail.collect();
                assert_eq!(tail.as_slice(), &full[first.min(full.len())..]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "no series admits a window")]
    fn oversized_window_panics() {
        let ds = toy_dataset();
        project_subsequences(&ds, 100, 1, 100);
    }

    #[test]
    #[should_panic(expected = "length must be >= 2")]
    fn tiny_length_panics() {
        let ds = toy_dataset();
        project_subsequences(&ds, 1, 1, 100);
    }
}
