//! SIMD-friendly, allocation-free distance kernels.
//!
//! Every kernel here is a fused, zero-allocation rewrite of a scalar
//! function elsewhere in this crate, structured as fixed-width lane loops
//! over [`chunks_exact`](slice::chunks_exact) so the autovectoriser turns
//! them into SIMD (the workspace has no external SIMD crates). The lane
//! accumulators also break the floating-point dependency chain, so even
//! without vector units the reductions run several adds per cycle instead
//! of one.
//!
//! * [`sum`] / [`sum_sq_dev`] / [`mean_std`] — lane-parallel reductions,
//! * [`dot`] / [`sq_euclidean`] — lane-parallel pairwise reductions,
//! * [`znorm_euclidean`] — mean/std/distance fused into two passes per
//!   input, no intermediate z-normalised copies,
//! * [`znorm_into`] + [`ZnormScratch`] — z-normalisation into caller-owned
//!   storage (the per-window hot path of embedding and serving),
//! * [`sbd`] / [`ncc_max_with_shift`] — shape-based distance as sliding
//!   lane dots over contiguous slices, no `2m−1` output buffer,
//! * [`dtw`] + [`DtwScratch`] — banded DTW with reusable DP rows, a
//!   hoisted `a[i−1]`, vectorisable cost/min passes and O(1) band-edge
//!   sentinels instead of an O(m) row fill.
//!
//! The original scalar implementations are kept as reference
//! implementations in [`reference`](mod@reference); property tests pin
//! every kernel to its reference (bit-identical for DTW, ≤ 1e-12 relative
//! elsewhere).

use crate::error::{Result, TsError};

/// Accumulator width of the chunked loops. Eight f64 lanes map onto one
/// AVX-512 register, two AVX2 registers or four SSE2 registers — all
/// shapes LLVM's autovectoriser handles without a remainder inside the
/// loop body.
const LANES: usize = 8;

/// Lane-parallel sum.
#[inline]
pub fn sum(xs: &[f64]) -> f64 {
    let mut acc = [0.0f64; LANES];
    let mut chunks = xs.chunks_exact(LANES);
    for c in chunks.by_ref() {
        for (a, &x) in acc.iter_mut().zip(c) {
            *a += x;
        }
    }
    let mut tail = 0.0;
    for &x in chunks.remainder() {
        tail += x;
    }
    acc.iter().sum::<f64>() + tail
}

/// Lane-parallel `Σ (x − m)²`.
#[inline]
pub fn sum_sq_dev(xs: &[f64], m: f64) -> f64 {
    let mut acc = [0.0f64; LANES];
    let mut chunks = xs.chunks_exact(LANES);
    for c in chunks.by_ref() {
        for (a, &x) in acc.iter_mut().zip(c) {
            let d = x - m;
            *a += d * d;
        }
    }
    let mut tail = 0.0;
    for &x in chunks.remainder() {
        let d = x - m;
        tail += d * d;
    }
    acc.iter().sum::<f64>() + tail
}

/// Mean and population standard deviation in two lane-parallel passes.
/// Empty slices yield `(0.0, 0.0)`, matching [`crate::stats`].
///
/// Two passes (not the single-pass `E[x²] − E[x]²` form) so the variance
/// never cancels catastrophically for series with large offsets.
#[inline]
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let n = xs.len() as f64;
    let m = sum(xs) / n;
    let var = sum_sq_dev(xs, m) / n;
    (m, var.sqrt())
}

/// Lane-parallel dot product over `min(a.len(), b.len())` elements.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut acc = [0.0f64; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        for l in 0..LANES {
            acc[l] += xa[l] * xb[l];
        }
    }
    let mut tail = 0.0;
    for (&x, &y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += x * y;
    }
    acc.iter().sum::<f64>() + tail
}

/// Lane-parallel squared Euclidean distance. Errors on length mismatch.
#[inline]
pub fn sq_euclidean(a: &[f64], b: &[f64]) -> Result<f64> {
    if a.len() != b.len() {
        return Err(TsError::LengthMismatch {
            left: a.len(),
            right: b.len(),
        });
    }
    let mut acc = [0.0f64; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        for l in 0..LANES {
            let d = xa[l] - xb[l];
            acc[l] += d * d;
        }
    }
    let mut tail = 0.0;
    for (&x, &y) in ca.remainder().iter().zip(cb.remainder()) {
        let d = x - y;
        tail += d * d;
    }
    Ok(acc.iter().sum::<f64>() + tail)
}

/// Lane-parallel Euclidean distance. Errors on length mismatch.
#[inline]
pub fn euclidean(a: &[f64], b: &[f64]) -> Result<f64> {
    sq_euclidean(a, b).map(f64::sqrt)
}

/// Euclidean distance between z-normalised views of the inputs, fused
/// into two reduction passes per input plus one distance pass — no
/// z-normalised copies are materialised.
///
/// Constant inputs (std ≤ ε) are centred only, matching
/// [`crate::transform::znorm`].
pub fn znorm_euclidean(a: &[f64], b: &[f64]) -> Result<f64> {
    if a.len() != b.len() {
        return Err(TsError::LengthMismatch {
            left: a.len(),
            right: b.len(),
        });
    }
    let (ma, sa) = mean_std(a);
    let (mb, sb) = mean_std(b);
    let ia = if sa <= f64::EPSILON { 1.0 } else { 1.0 / sa };
    let ib = if sb <= f64::EPSILON { 1.0 } else { 1.0 / sb };
    let mut acc = [0.0f64; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        for l in 0..LANES {
            let d = (xa[l] - ma) * ia - (xb[l] - mb) * ib;
            acc[l] += d * d;
        }
    }
    let mut tail = 0.0;
    for (&x, &y) in ca.remainder().iter().zip(cb.remainder()) {
        let d = (x - ma) * ia - (y - mb) * ib;
        tail += d * d;
    }
    Ok((acc.iter().sum::<f64>() + tail).sqrt())
}

/// Z-normalises `src` into `dst` without touching the heap.
///
/// Panics if the lengths differ. Constant inputs are centred only.
pub fn znorm_into(src: &[f64], dst: &mut [f64]) {
    assert_eq!(src.len(), dst.len(), "znorm_into length mismatch");
    let (m, s) = mean_std(src);
    if s <= f64::EPSILON {
        for (d, &x) in dst.iter_mut().zip(src) {
            *d = x - m;
        }
    } else {
        let inv = 1.0 / s;
        for (d, &x) in dst.iter_mut().zip(src) {
            *d = (x - m) * inv;
        }
    }
}

/// Reusable buffer for z-normalised views of transient windows.
///
/// Hot loops that previously called [`crate::transform::znorm`] once per
/// window (one heap allocation each) hold one scratch and call
/// [`ZnormScratch::znormed`] instead: the buffer is grown once and reused
/// for every subsequent window.
#[derive(Debug, Default, Clone)]
pub struct ZnormScratch {
    buf: Vec<f64>,
}

impl ZnormScratch {
    /// Creates an empty scratch (first use sizes it).
    pub fn new() -> Self {
        Self::default()
    }

    /// Z-normalises `xs` into the internal buffer and returns it.
    pub fn znormed(&mut self, xs: &[f64]) -> &[f64] {
        self.buf.clear();
        self.buf.resize(xs.len(), 0.0);
        znorm_into(xs, &mut self.buf);
        &self.buf
    }
}

/// Maximum normalised cross-correlation over all shifts, plus the
/// maximising shift of `b` relative to `a` — without materialising the
/// `2m − 1` correlation sequence.
///
/// Shift order and tie-breaking match [`crate::distance::sbd_with_shift`]
/// (first maximum wins, shifts scanned ascending from `−(m−1)`). Each
/// shift's correlation is a lane dot over two contiguous slices.
///
/// Errors when the inputs are empty or differ in length.
pub fn ncc_max_with_shift(a: &[f64], b: &[f64]) -> Result<(f64, isize)> {
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
    let na = sum_sq_dev(a, 0.0).sqrt();
    let nb = sum_sq_dev(b, 0.0).sqrt();
    let denom = if na * nb <= f64::EPSILON {
        1.0
    } else {
        na * nb
    };
    let mut best = f64::NEG_INFINITY;
    let mut best_shift = -(m as isize - 1);
    for s in 0..(2 * m - 1) {
        let k = s as isize - (m as isize - 1);
        // a[i] · b[i − k] over the valid overlap — contiguous slices.
        let cc = if k >= 0 {
            let k = k as usize;
            dot(&a[k..], &b[..m - k])
        } else {
            let k = (-k) as usize;
            dot(&a[..m - k], &b[k..])
        };
        if cc > best {
            best = cc;
            best_shift = s as isize - (m as isize - 1);
        }
    }
    Ok((best / denom, best_shift))
}

/// Shape-Based Distance `1 − max_s NCC_c(a, b)(s)`, allocation-free.
pub fn sbd(a: &[f64], b: &[f64]) -> Result<f64> {
    ncc_max_with_shift(a, b).map(|(ncc, _)| 1.0 - ncc)
}

/// SBD together with the optimal alignment shift (b relative to a).
pub fn sbd_with_shift(a: &[f64], b: &[f64]) -> Result<(f64, isize)> {
    ncc_max_with_shift(a, b).map(|(ncc, shift)| (1.0 - ncc, shift))
}

/// Reusable DTW working storage: two DP rows plus the per-row cost and
/// min buffers of the banded kernel, and the full DP matrix used by the
/// path variant. Hold one per thread/fit and feed it to every call; the
/// buffers grow to the largest series seen and are then reused.
#[derive(Debug, Default, Clone)]
pub struct DtwScratch {
    prev: Vec<f64>,
    curr: Vec<f64>,
    cost: Vec<f64>,
    row_min: Vec<f64>,
    /// Full DP matrix, used only by [`dtw_path`].
    dp: Vec<f64>,
}

impl DtwScratch {
    /// Creates an empty scratch (first use sizes it).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Banded DTW distance into caller-owned scratch. Signature and results
/// are identical to [`crate::dtw::dtw`] (bit-for-bit: the DP recurrence
/// performs the same operations in the same per-cell order), but:
///
/// * the two DP rows live in `scratch` — zero allocations per call once
///   the scratch is warm,
/// * `a[i − 1]` is hoisted out of the band loop,
/// * the squared-cost and `min(prev[j], prev[j−1])` passes are separate
///   branch-free slice loops the autovectoriser handles, leaving only the
///   carried `curr[j−1]` recurrence scalar,
/// * band-edge cells are invalidated with two O(1) sentinel writes per
///   row instead of an O(m) `fill`.
pub fn dtw(
    a: &[f64],
    b: &[f64],
    opts: crate::dtw::DtwOptions,
    scratch: &mut DtwScratch,
) -> Result<f64> {
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
    scratch.prev.clear();
    scratch.prev.resize(m + 1, inf);
    scratch.curr.clear();
    scratch.curr.resize(m + 1, inf);
    // Band width never exceeds m cells.
    scratch.cost.clear();
    scratch.cost.resize(m, 0.0);
    scratch.row_min.clear();
    scratch.row_min.resize(m, inf);
    scratch.prev[0] = 0.0;

    for i in 1..=n {
        let lo = i.saturating_sub(w).max(1);
        let hi = (i + w).min(m);
        if lo > hi {
            return Err(TsError::InvalidParameter(format!(
                "DTW band too narrow: window {w} for lengths {n} x {m}"
            )));
        }
        let width = hi - lo + 1;
        let ai = a[i - 1];

        // Pass 1: cost[t] = (a[i−1] − b[lo−1+t])² — branch-free, vectorises.
        for (c, &bv) in scratch.cost[..width].iter_mut().zip(&b[lo - 1..hi]) {
            let d = ai - bv;
            *c = d * d;
        }
        // Pass 2: row_min[t] = min(prev[lo+t], prev[lo+t−1]) — vectorises.
        {
            let p_hi = &scratch.prev[lo..=hi];
            let p_lo = &scratch.prev[lo - 1..hi];
            for ((rm, &x), &y) in scratch.row_min[..width].iter_mut().zip(p_hi).zip(p_lo) {
                *rm = if x < y { x } else { y };
            }
        }
        // Pass 3: the carried recurrence, with curr[j−1] kept in a register.
        {
            let curr = &mut scratch.curr[lo..=hi];
            let mut left = inf; // curr[lo − 1]: out of band.
            for ((c, &cost), &rm) in curr
                .iter_mut()
                .zip(&scratch.cost[..width])
                .zip(&scratch.row_min[..width])
            {
                let best = if rm < left { rm } else { left };
                let v = cost + best;
                *c = v;
                left = v;
            }
        }
        // The band moves by at most one cell per row, so invalidating the
        // two cells just outside it keeps every future read correct
        // without refilling the row.
        scratch.curr[lo - 1] = inf;
        if hi < m {
            scratch.curr[hi + 1] = inf;
        }
        std::mem::swap(&mut scratch.prev, &mut scratch.curr);
    }
    Ok(scratch.prev[m].sqrt())
}

/// DTW distance plus the optimal warping path, with the full DP matrix
/// living in `scratch`. Semantics match [`crate::dtw::dtw_path`].
pub fn dtw_path(
    a: &[f64],
    b: &[f64],
    opts: crate::dtw::DtwOptions,
    scratch: &mut DtwScratch,
) -> Result<(f64, Vec<(usize, usize)>)> {
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
    scratch.dp.clear();
    scratch.dp.resize((n + 1) * (m + 1), inf);
    let dp = &mut scratch.dp;
    let idx = |i: usize, j: usize| i * (m + 1) + j;
    dp[idx(0, 0)] = 0.0;
    for i in 1..=n {
        let lo = i.saturating_sub(w).max(1);
        let hi = (i + w).min(m);
        let ai = a[i - 1];
        for j in lo..=hi {
            let d = ai - b[j - 1];
            let cost = d * d;
            let best = dp[idx(i - 1, j)]
                .min(dp[idx(i, j - 1)])
                .min(dp[idx(i - 1, j - 1)]);
            dp[idx(i, j)] = cost + best;
        }
    }
    let total = dp[idx(n, m)];
    if !total.is_finite() {
        return Err(TsError::InvalidParameter(format!(
            "DTW band too narrow: window {w} for lengths {n} x {m}"
        )));
    }
    let mut path = Vec::with_capacity(n + m);
    let (mut i, mut j) = (n, m);
    while i > 0 && j > 0 {
        path.push((i - 1, j - 1));
        let diag = dp[idx(i - 1, j - 1)];
        let up = dp[idx(i - 1, j)];
        let left = dp[idx(i, j - 1)];
        if diag <= up && diag <= left {
            i -= 1;
            j -= 1;
        } else if up <= left {
            i -= 1;
        } else {
            j -= 1;
        }
    }
    path.reverse();
    Ok((total.sqrt(), path))
}

/// The original scalar implementations, kept verbatim as references the
/// kernels are pinned against (property tests, micro-benches).
pub mod reference {
    use crate::error::{Result, TsError};
    use crate::stats;

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

    /// Scalar z-normalised Euclidean: two z-normalised copies then the
    /// plain distance (two allocations per call).
    pub fn znorm_euclidean(a: &[f64], b: &[f64]) -> Result<f64> {
        if a.len() != b.len() {
            return Err(TsError::LengthMismatch {
                left: a.len(),
                right: b.len(),
            });
        }
        euclidean(&znorm(a), &znorm(b))
    }

    /// Scalar direct NCC (branchy O(m²) inner loop, `2m−1` output buffer).
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

    /// Scalar banded DTW: two fresh DP rows per call, `a[i−1]` re-read in
    /// the band loop, full O(m) row fill per row.
    pub fn dtw(a: &[f64], b: &[f64], opts: crate::dtw::DtwOptions) -> Result<f64> {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtw::DtwOptions;

    fn wave(n: usize, phase: f64) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.17 + phase).sin() + 0.2)
            .collect()
    }

    #[test]
    fn reductions_match_sequential() {
        for n in 0..20 {
            let xs = wave(n, 0.3);
            let seq: f64 = xs.iter().sum();
            assert!((sum(&xs) - seq).abs() <= 1e-12 * seq.abs().max(1.0));
            let (m, s) = mean_std(&xs);
            assert!((m - crate::stats::mean(&xs)).abs() < 1e-12);
            assert!((s - crate::stats::std(&xs)).abs() < 1e-12);
        }
    }

    #[test]
    fn znorm_euclidean_matches_reference_all_remainders() {
        for n in 1..=33 {
            let a = wave(n, 0.0);
            let b = wave(n, 0.9);
            let fast = znorm_euclidean(&a, &b).unwrap();
            let slow = reference::znorm_euclidean(&a, &b).unwrap();
            assert!(
                (fast - slow).abs() <= 1e-12 * slow.abs().max(1.0),
                "n={n}: {fast} vs {slow}"
            );
        }
    }

    #[test]
    fn znorm_euclidean_constant_inputs() {
        let a = [3.0; 16];
        let b = wave(16, 0.5);
        let fast = znorm_euclidean(&a, &b).unwrap();
        let slow = reference::znorm_euclidean(&a, &b).unwrap();
        assert!((fast - slow).abs() < 1e-12);
        assert!(znorm_euclidean(&a, &[1.0]).is_err());
    }

    #[test]
    fn znorm_into_matches_reference() {
        for n in 1..=17 {
            let xs = wave(n, 0.2);
            let mut out = vec![0.0; n];
            znorm_into(&xs, &mut out);
            let slow = reference::znorm(&xs);
            for (f, s) in out.iter().zip(&slow) {
                assert!((f - s).abs() < 1e-12, "n={n}");
            }
        }
    }

    #[test]
    fn znorm_scratch_reuses_buffer() {
        let mut scratch = ZnormScratch::new();
        let xs = wave(32, 0.0);
        let first = scratch.znormed(&xs).to_vec();
        let cap = scratch.buf.capacity();
        // Smaller input: no regrowth.
        let _ = scratch.znormed(&xs[..8]);
        assert_eq!(scratch.buf.capacity(), cap);
        let again = scratch.znormed(&xs);
        assert_eq!(first, again);
    }

    #[test]
    fn sbd_matches_reference() {
        for n in 1..=20 {
            let a = wave(n, 0.0);
            let b = wave(n, 1.1);
            let fast = sbd(&a, &b).unwrap();
            let slow = reference::sbd(&a, &b).unwrap();
            assert!(
                (fast - slow).abs() <= 1e-9 * slow.abs().max(1.0),
                "n={n}: {fast} vs {slow}"
            );
        }
        assert!(sbd(&[], &[]).is_err());
        assert!(sbd(&[1.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn sbd_shift_matches_reference() {
        let mut a = vec![0.0; 32];
        a[5] = 1.0;
        a[6] = 2.0;
        let mut b = vec![0.0; 32];
        b[11] = 1.0;
        b[12] = 2.0;
        let (d, s) = sbd_with_shift(&a, &b).unwrap();
        let (dr, sr) = crate::distance::sbd_with_shift(&a, &b).unwrap();
        assert!((d - dr).abs() < 1e-12);
        assert_eq!(s, sr);
    }

    #[test]
    fn sbd_zero_energy_no_divide_by_zero() {
        let z = [0.0; 8];
        assert!(sbd(&z, &z).unwrap().is_finite());
    }

    #[test]
    fn dtw_bit_identical_to_reference() {
        let mut scratch = DtwScratch::new();
        for n in 1..=24 {
            let a = wave(n, 0.0);
            let b = wave(n, 0.8);
            for window in [None, Some(0), Some(2), Some(n / 3)] {
                let opts = DtwOptions { window };
                let fast = dtw(&a, &b, opts, &mut scratch).unwrap();
                let slow = reference::dtw(&a, &b, opts).unwrap();
                assert!(fast == slow, "n={n} window={window:?}: {fast} vs {slow}");
            }
        }
    }

    #[test]
    fn dtw_different_lengths_and_errors() {
        let mut scratch = DtwScratch::new();
        let a = wave(13, 0.0);
        let b = wave(29, 0.4);
        let opts = DtwOptions { window: Some(3) };
        let fast = dtw(&a, &b, opts, &mut scratch).unwrap();
        let slow = reference::dtw(&a, &b, opts).unwrap();
        assert_eq!(fast, slow);
        assert!(dtw(&[], &[1.0], DtwOptions::default(), &mut scratch).is_err());
    }

    #[test]
    fn dtw_scratch_reused_across_shrinking_calls() {
        // A long call grows the buffers; a short call after it must still
        // be correct (stale cells past the band must not leak in).
        let mut scratch = DtwScratch::new();
        let long_a = wave(64, 0.0);
        let long_b = wave(64, 0.5);
        let opts = DtwOptions { window: Some(5) };
        dtw(&long_a, &long_b, opts, &mut scratch).unwrap();
        let a = wave(9, 0.1);
        let b = wave(9, 0.7);
        let fast = dtw(&a, &b, opts, &mut scratch).unwrap();
        assert_eq!(fast, reference::dtw(&a, &b, opts).unwrap());
    }

    #[test]
    fn dtw_path_matches_plain_dtw() {
        let mut scratch = DtwScratch::new();
        let a = wave(20, 0.0);
        let b = wave(20, 0.6);
        let opts = DtwOptions { window: Some(4) };
        let (d, path) = dtw_path(&a, &b, opts, &mut scratch).unwrap();
        assert_eq!(d, dtw(&a, &b, opts, &mut scratch).unwrap());
        assert_eq!(path.first(), Some(&(0, 0)));
        assert_eq!(path.last(), Some(&(19, 19)));
    }

    #[test]
    fn dot_and_sq_euclidean_match_sequential() {
        for n in 0..=19 {
            let a = wave(n, 0.0);
            let b = wave(n, 0.3);
            let d_seq: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert!((dot(&a, &b) - d_seq).abs() <= 1e-12 * d_seq.abs().max(1.0));
            let e_seq: f64 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
            let e = sq_euclidean(&a, &b).unwrap();
            assert!((e - e_seq).abs() <= 1e-12 * e_seq.abs().max(1.0));
        }
        assert!(sq_euclidean(&[1.0], &[]).is_err());
    }
}
