//! Series transformations: normalisation and resampling.

use crate::error::{Result, TsError};
use crate::kernel;
use crate::stats;

/// Z-normalises a slice in place: zero mean, unit (population) standard
/// deviation. Constant slices are centred only (std would be zero).
///
/// Mean/std come from the lane-chunked [`kernel::mean_std`]; the scaling
/// multiplies by the reciprocal so the loop vectorises. Hot per-window
/// loops should prefer [`kernel::ZnormScratch`] / [`kernel::znorm_into`],
/// which skip the copy this in-place form implies.
pub fn znorm_inplace(xs: &mut [f64]) {
    let (m, s) = kernel::mean_std(xs);
    if s <= f64::EPSILON {
        for x in xs.iter_mut() {
            *x -= m;
        }
    } else {
        let inv = 1.0 / s;
        for x in xs.iter_mut() {
            *x = (*x - m) * inv;
        }
    }
}

/// Returns a z-normalised copy. See [`znorm_inplace`].
pub fn znorm(xs: &[f64]) -> Vec<f64> {
    let mut out = xs.to_vec();
    znorm_inplace(&mut out);
    out
}

/// Linear-interpolation resampling to exactly `target_len` points.
///
/// This is how variable-length datasets are made commensurable before
/// feeding raw-based clustering algorithms (k-Means, k-Shape, ...).
pub fn resample(xs: &[f64], target_len: usize) -> Result<Vec<f64>> {
    if target_len == 0 {
        return Err(TsError::InvalidParameter(
            "target length must be > 0".into(),
        ));
    }
    if xs.is_empty() {
        return Err(TsError::TooShort {
            required: 1,
            actual: 0,
        });
    }
    if xs.len() == 1 {
        return Ok(vec![xs[0]; target_len]);
    }
    if target_len == 1 {
        return Ok(vec![stats::mean(xs)]);
    }
    let scale = (xs.len() - 1) as f64 / (target_len - 1) as f64;
    let mut out = Vec::with_capacity(target_len);
    for i in 0..target_len {
        let pos = i as f64 * scale;
        let lo = pos.floor() as usize;
        let frac = pos - lo as f64;
        let v = if lo + 1 < xs.len() {
            xs[lo] * (1.0 - frac) + xs[lo + 1] * frac
        } else {
            xs[xs.len() - 1]
        };
        out.push(v);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn znorm_properties() {
        let xs = [1.0, 5.0, 3.0, 7.0, 2.0];
        let z = znorm(&xs);
        assert!(stats::mean(&z).abs() < 1e-12);
        assert!((stats::std(&z) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn znorm_constant_centres_only() {
        let z = znorm(&[4.0, 4.0, 4.0]);
        assert_eq!(z, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn resample_identity_and_endpoints() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let same = resample(&xs, 4).unwrap();
        assert_eq!(same, xs.to_vec());
        let up = resample(&xs, 7).unwrap();
        assert_eq!(up.len(), 7);
        assert!((up[0] - 0.0).abs() < 1e-12);
        assert!((up[6] - 3.0).abs() < 1e-12);
        assert!((up[3] - 1.5).abs() < 1e-12);
        let down = resample(&xs, 2).unwrap();
        assert_eq!(down, vec![0.0, 3.0]);
    }

    #[test]
    fn resample_degenerate() {
        assert_eq!(resample(&[5.0], 3).unwrap(), vec![5.0, 5.0, 5.0]);
        assert_eq!(resample(&[1.0, 3.0], 1).unwrap(), vec![2.0]);
        assert!(resample(&[], 3).is_err());
        assert!(resample(&[1.0], 0).is_err());
    }
}
