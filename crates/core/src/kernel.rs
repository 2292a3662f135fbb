//! SIMD-friendly, allocation-free distance kernels — the workspace's one
//! distance API.
//!
//! Every kernel is structured as fixed-width lane loops over
//! [`chunks_exact`](slice::chunks_exact) so the autovectoriser turns them
//! into SIMD (the workspace has no external SIMD crates). The lane
//! accumulators also break the floating-point dependency chain, so even
//! without vector units the reductions run several adds per cycle instead
//! of one.
//!
//! * [`sum`] / [`sum_sq_dev`] / [`mean_std`] — lane-parallel reductions,
//! * [`dot`] / [`sq_dist`] — lane-parallel pairwise reductions over
//!   `min(a.len(), b.len())` elements, infallible: every dot product and
//!   squared distance between two rows in the workspace (k-Means, the
//!   baselines, `Matrix::matvec` and power iteration, serving). Use them
//!   where the caller already knows the lengths agree,
//! * [`sq_euclidean`] / [`euclidean`] — the same distance behind a length
//!   check, for series whose lengths the caller does not control,
//! * [`znorm_euclidean`] — mean/std/distance fused into two passes per
//!   input, no intermediate z-normalised copies,
//! * [`znorm_into`] + [`ZnormScratch`] — z-normalisation into caller-owned
//!   storage (the per-window hot path of embedding and serving),
//! * [`sbd`] / [`sbd_with_shift`] / [`ncc_max_with_shift`] — the
//!   Shape-Based Distance of k-Shape (Paparrizos & Gravano, SIGMOD 2015)
//!   as sliding lane dots over contiguous slices, no `2m−1` output buffer,
//!   and [`apply_shift`] to align a series by the shift found. The
//!   workspace's one SBD: `clustering::kshape` assigns series with
//!   [`sbd`] and aligns cluster members with [`sbd_with_shift`],
//! * [`dtw`] / [`dtw_path`] + [`DtwScratch`] — DTW with an optional
//!   Sakoe–Chiba band ([`DtwOptions`]), reusable DP rows, a hoisted
//!   `a[i−1]`, vectorisable cost/min passes and O(1) band-edge sentinels
//!   instead of an O(m) row fill.
//!
//! The crate's property tests pin every kernel to a scalar test oracle
//! (bit-identical for DTW, ≤ 1e-12 relative elsewhere).

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

/// Lane-parallel squared Euclidean distance over `min(a.len(), b.len())`
/// elements.
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
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
    Ok(sq_dist(a, b))
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
/// The first maximum wins, with shifts scanned ascending from `−(m−1)`.
/// Each shift's correlation is a lane dot over two contiguous slices,
/// normalised by `‖a‖·‖b‖` (by 1 when that product is ≤ ε), so a perfect
/// alignment of identical (up to scale) signals yields 1.
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

/// Shifts `b` by `shift` positions (zero padded), as used by k-Shape's
/// refinement step after SBD alignment.
pub fn apply_shift(b: &[f64], shift: isize) -> Vec<f64> {
    let m = b.len() as isize;
    let mut out = vec![0.0; b.len()];
    for i in 0..m {
        let j = i - shift;
        if j >= 0 && j < m {
            out[i as usize] = b[j as usize];
        }
    }
    out
}

/// Configuration for DTW.
#[derive(Debug, Clone, Copy, Default)]
pub struct DtwOptions {
    /// Sakoe–Chiba band half-width; `None` means unconstrained. A band
    /// narrower than the length difference is widened to it.
    pub window: Option<usize>,
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

/// DTW distance between two series (which may differ in length), into
/// caller-owned scratch.
///
/// Returns the square root of the accumulated squared point costs, the
/// "DTW with squared local distance" convention of tslearn. Time is
/// O(n·m), or O(n·w) with a band of half-width `w`, and:
///
/// * the two DP rows live in `scratch` — zero allocations per call once
///   the scratch is warm,
/// * `a[i − 1]` is hoisted out of the band loop,
/// * the squared-cost and `min(prev[j], prev[j−1])` passes are separate
///   branch-free slice loops the autovectoriser handles, leaving only the
///   carried `curr[j−1]` recurrence scalar,
/// * band-edge cells are invalidated with two O(1) sentinel writes per
///   row instead of an O(m) `fill`.
pub fn dtw(a: &[f64], b: &[f64], opts: DtwOptions, scratch: &mut DtwScratch) -> Result<f64> {
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

/// DTW distance plus the optimal warping path, with the full DP matrix —
/// O(n·m) memory — living in `scratch`.
///
/// The path is a list of `(i, j)` index pairs from `(0, 0)` to
/// `(n−1, m−1)`, monotone in both indices; it is the building block of
/// DBA averaging. The distance equals [`dtw`]'s.
pub fn dtw_path(
    a: &[f64],
    b: &[f64],
    opts: DtwOptions,
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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn euclidean_basics() {
        assert_eq!(euclidean(&[0.0, 0.0], &[3.0, 4.0]).unwrap(), 5.0);
        assert_eq!(sq_euclidean(&[1.0], &[4.0]).unwrap(), 9.0);
        assert!(euclidean(&[1.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn znorm_euclidean_scale_invariant() {
        let a = [1.0, 2.0, 3.0, 2.0, 1.0];
        let b: Vec<f64> = a.iter().map(|x| 10.0 * x + 5.0).collect();
        assert!(znorm_euclidean(&a, &b).unwrap() < 1e-9);
        assert!(znorm_euclidean(&a, &[1.0]).is_err());
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
    fn ncc_max_of_self_is_one_at_zero_shift() {
        let a = [1.0, 2.0, 3.0, 2.0, 1.0];
        let (peak, shift) = ncc_max_with_shift(&a, &a).unwrap();
        assert!((peak - 1.0).abs() < 1e-9);
        assert_eq!(shift, 0);
    }

    #[test]
    fn sbd_range_and_antiphase() {
        let a = [1.0, -1.0, 1.0, -1.0];
        let b: Vec<f64> = a.iter().map(|x| -x).collect();
        let d = sbd(&a, &b).unwrap();
        // Anti-correlated at zero shift, but shifting by one aligns them:
        // SBD uses the best shift, so it is small here.
        assert!((0.0..=2.0).contains(&d));
        let d_self = sbd(&a, &a).unwrap();
        assert!(d_self.abs() < 1e-9);
    }

    #[test]
    fn sbd_detects_shifted_copy() {
        let mut a = vec![0.0; 32];
        a[8] = 1.0;
        a[9] = 2.0;
        a[10] = 1.0;
        let mut b = vec![0.0; 32];
        b[20] = 1.0;
        b[21] = 2.0;
        b[22] = 1.0;
        let (d, shift) = sbd_with_shift(&a, &b).unwrap();
        assert!(d < 1e-9, "shifted copy should have SBD 0, got {d}");
        assert_eq!(shift, -12);
        // Applying the shift aligns b onto a.
        let aligned = apply_shift(&b, shift);
        assert!(euclidean(&a, &aligned).unwrap() < 1e-9);
    }

    #[test]
    fn apply_shift_pads_with_zeros() {
        let b = [1.0, 2.0, 3.0];
        assert_eq!(apply_shift(&b, 1), vec![0.0, 1.0, 2.0]);
        assert_eq!(apply_shift(&b, -1), vec![2.0, 3.0, 0.0]);
        assert_eq!(apply_shift(&b, 0), vec![1.0, 2.0, 3.0]);
        assert_eq!(apply_shift(&b, 5), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn sbd_zero_energy_no_divide_by_zero() {
        let z = [0.0; 8];
        assert!(ncc_max_with_shift(&z, &z).unwrap().0.is_finite());
        assert!(sbd(&z, &z).unwrap().is_finite());
    }

    #[test]
    fn sbd_empty_and_mismatched_inputs_error() {
        assert!(ncc_max_with_shift(&[], &[]).is_err());
        assert!(sbd(&[], &[]).is_err());
        assert!(sbd(&[1.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn dtw_identical_is_zero() {
        let a = [1.0, 2.0, 3.0, 2.0, 1.0];
        let d = dtw(&a, &a, DtwOptions::default(), &mut DtwScratch::new()).unwrap();
        assert!(d < 1e-12);
    }

    #[test]
    fn dtw_absorbs_time_shift() {
        // A peak shifted by 2 positions: Euclidean sees a big distance,
        // DTW warps it away almost entirely.
        let mut a = vec![0.0; 20];
        a[5] = 1.0;
        let mut b = vec![0.0; 20];
        b[7] = 1.0;
        let d_dtw = dtw(&a, &b, DtwOptions::default(), &mut DtwScratch::new()).unwrap();
        let d_eu = euclidean(&a, &b).unwrap();
        assert!(d_dtw < d_eu);
        assert!(d_dtw < 1e-9);
    }

    #[test]
    fn dtw_band_widens_to_length_difference() {
        let a = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [0.0, 5.0];
        // window 0 would be infeasible; it must be widened internally.
        let opts = DtwOptions { window: Some(0) };
        let mut scratch = DtwScratch::new();
        assert!(dtw(&a, &b, opts, &mut scratch).unwrap().is_finite());
        assert!(dtw_path(&a, &b, opts, &mut scratch).unwrap().0.is_finite());
    }

    #[test]
    fn dtw_empty_errors() {
        let mut scratch = DtwScratch::new();
        assert!(dtw(&[], &[1.0], DtwOptions::default(), &mut scratch).is_err());
        assert!(dtw_path(&[1.0], &[], DtwOptions::default(), &mut scratch).is_err());
    }

    #[test]
    fn banded_dtw_upper_bounds_unbanded() {
        let mut scratch = DtwScratch::new();
        let a: Vec<f64> = (0..50).map(|i| (i as f64 * 0.3).sin()).collect();
        let b: Vec<f64> = (0..50).map(|i| (i as f64 * 0.3 + 0.8).sin()).collect();
        let unb = dtw(&a, &b, DtwOptions::default(), &mut scratch).unwrap();
        let band = dtw(&a, &b, DtwOptions { window: Some(3) }, &mut scratch).unwrap();
        assert!(
            band >= unb - 1e-12,
            "banded {band} must be >= unbanded {unb}"
        );
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
        let reused = dtw(&a, &b, opts, &mut scratch).unwrap();
        assert_eq!(reused, dtw(&a, &b, opts, &mut DtwScratch::new()).unwrap());
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
    fn dtw_path_endpoints_of_unequal_lengths() {
        let a = [0.0, 1.0, 2.0];
        let b = [0.0, 2.0];
        let (d, path) = dtw_path(&a, &b, DtwOptions::default(), &mut DtwScratch::new()).unwrap();
        assert!(d.is_finite());
        assert_eq!(path.first(), Some(&(0, 0)));
        assert_eq!(path.last(), Some(&(2, 1)));
        // Monotone non-decreasing in both indices.
        for w in path.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 >= w[0].1);
        }
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
