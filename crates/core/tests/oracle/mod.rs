//! Scalar test oracles for the fused distance kernels in `tscore::kernel`:
//! the straightforward O(m) / O(m²) / O(n·m) forms, with sequential
//! reductions and fresh allocations, that the kernels are pinned against.
//!
//! Test-only. It sits in a subdirectory so Cargo does not build it as its
//! own test target; a test crate outside `crates/core/tests` includes it
//! with `#[path = ".../crates/core/tests/oracle/mod.rs"] mod oracle;`.

#![allow(dead_code)]

use tscore::kernel::DtwOptions;
use tscore::{stats, Result, TsError};

/// Scalar z-normalised copy (one allocation, sequential reductions).
pub fn znorm(xs: &[f64]) -> Vec<f64> {
    let mut out = xs.to_vec();
    let m = stats::mean(&out);
    let s = stats::std(&out);
    if s <= f64::EPSILON {
        for x in out.iter_mut() {
            *x -= m;
        }
    } else {
        for x in out.iter_mut() {
            *x = (*x - m) / s;
        }
    }
    out
}

/// Scalar Euclidean distance.
pub fn euclidean(a: &[f64], b: &[f64]) -> Result<f64> {
    if a.len() != b.len() {
        return Err(TsError::LengthMismatch {
            left: a.len(),
            right: b.len(),
        });
    }
    Ok(a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt())
}

/// Scalar z-normalised Euclidean: two z-normalised copies then the plain
/// distance (two allocations per call).
pub fn znorm_euclidean(a: &[f64], b: &[f64]) -> Result<f64> {
    if a.len() != b.len() {
        return Err(TsError::LengthMismatch {
            left: a.len(),
            right: b.len(),
        });
    }
    euclidean(&znorm(a), &znorm(b))
}

/// Full normalised cross-correlation sequence `NCC_c(a, b)`, evaluated
/// directly in O(m²).
///
/// Output has length `2m − 1`; index `s` corresponds to shift
/// `s − (m − 1) ∈ [−(m−1), m−1]` of `b` relative to `a`. Values are
/// normalised by `‖a‖·‖b‖`, so a perfect alignment of identical (up to
/// scale) signals yields 1.
pub fn ncc(a: &[f64], b: &[f64]) -> Result<Vec<f64>> {
    if a.len() != b.len() {
        return Err(TsError::LengthMismatch {
            left: a.len(),
            right: b.len(),
        });
    }
    let m = a.len();
    if m == 0 {
        return Err(TsError::TooShort {
            required: 1,
            actual: 0,
        });
    }
    let na: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
    let nb: f64 = b.iter().map(|x| x * x).sum::<f64>().sqrt();
    let denom = if na * nb <= f64::EPSILON {
        1.0
    } else {
        na * nb
    };
    let mut out = vec![0.0; 2 * m - 1];
    for (s, slot) in out.iter_mut().enumerate() {
        let k = s as isize - (m as isize - 1);
        let mut acc = 0.0;
        for i in 0..m as isize {
            let j = i - k;
            if j >= 0 && j < m as isize {
                acc += a[i as usize] * b[j as usize];
            }
        }
        *slot = acc / denom;
    }
    Ok(out)
}

/// Scalar SBD via the full correlation sequence.
pub fn sbd(a: &[f64], b: &[f64]) -> Result<f64> {
    Ok(1.0 - ncc(a, b)?.into_iter().fold(f64::NEG_INFINITY, f64::max))
}

/// Scalar banded DTW: two fresh DP rows per call, `a[i−1]` re-read in the
/// band loop, full O(m) row fill per row.
pub fn dtw(a: &[f64], b: &[f64], opts: DtwOptions) -> Result<f64> {
    if a.is_empty() || b.is_empty() {
        return Err(TsError::TooShort {
            required: 1,
            actual: a.len().min(b.len()),
        });
    }
    let n = a.len();
    let m = b.len();
    let w = match opts.window {
        Some(w) => w.max(n.abs_diff(m)),
        None => n.max(m),
    };
    let inf = f64::INFINITY;
    let mut prev = vec![inf; m + 1];
    let mut curr = vec![inf; m + 1];
    prev[0] = 0.0;
    for i in 1..=n {
        curr.fill(inf);
        let lo = i.saturating_sub(w).max(1);
        let hi = (i + w).min(m);
        if lo > hi {
            return Err(TsError::InvalidParameter(format!(
                "DTW band too narrow: window {w} for lengths {n} x {m}"
            )));
        }
        for j in lo..=hi {
            let cost = (a[i - 1] - b[j - 1]) * (a[i - 1] - b[j - 1]);
            let best = prev[j].min(curr[j - 1]).min(prev[j - 1]);
            curr[j] = cost + best;
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    Ok(prev[m].sqrt())
}
