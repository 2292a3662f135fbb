//! Iterative radix-2 FFT and FFT-backed cross-correlation.
//!
//! Used by k-Shape: the normalised cross-correlation of two length-m series
//! is a size-(2m−1) correlation, computed here by zero-padding to the next
//! power of two and multiplying spectra — O(m log m) instead of O(m²).

/// Minimal complex number (we only need +, −, ×, conj).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Creates a complex number.
    #[inline]
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Zero.
    #[inline]
    pub fn zero() -> Self {
        Complex { re: 0.0, im: 0.0 }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex {
            re: self.re,
            im: -self.im,
        }
    }

    /// Product.
    // Named methods (not the std ops traits) are kept deliberately: the
    // hot FFT loops read better without operator sugar, and implementing
    // `Mul` alone would trip the same lint on `Add`/`Sub`.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn mul(self, other: Complex) -> Self {
        Complex {
            re: self.re * other.re - self.im * other.im,
            im: self.re * other.im + self.im * other.re,
        }
    }

    /// Sum.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn add(self, other: Complex) -> Self {
        Complex {
            re: self.re + other.re,
            im: self.im + other.im,
        }
    }

    /// Difference.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn sub(self, other: Complex) -> Self {
        Complex {
            re: self.re - other.re,
            im: self.im - other.im,
        }
    }
}

/// Next power of two ≥ `n` (and ≥ 1).
pub fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// In-place iterative radix-2 FFT. Panics if `buf.len()` is not a power of
/// two. `inverse = true` computes the unscaled inverse transform (callers
/// divide by `n`).
pub fn fft_inplace(buf: &mut [Complex], inverse: bool) {
    let n = buf.len();
    assert!(
        n.is_power_of_two(),
        "FFT length must be a power of two, got {n}"
    );
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            buf.swap(i, j);
        }
    }
    // Butterfly stages.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::new(ang.cos(), ang.sin());
        let mut i = 0;
        while i < n {
            let mut w = Complex::new(1.0, 0.0);
            for k in 0..len / 2 {
                let u = buf[i + k];
                let v = buf[i + k + len / 2].mul(w);
                buf[i + k] = u.add(v);
                buf[i + k + len / 2] = u.sub(v);
                w = w.mul(wlen);
            }
            i += len;
        }
        len <<= 1;
    }
}

/// Forward FFT of a real signal zero-padded to `size` (a power of two).
pub fn rfft(signal: &[f64], size: usize) -> Vec<Complex> {
    assert!(size.is_power_of_two() && size >= signal.len());
    let mut buf = vec![Complex::zero(); size];
    for (i, &x) in signal.iter().enumerate() {
        buf[i] = Complex::new(x, 0.0);
    }
    fft_inplace(&mut buf, false);
    buf
}

/// Full (linear) cross-correlation of `a` and `b` via FFT.
///
/// Output has length `2m − 1` where `m = a.len() = b.len()`; index `s`
/// corresponds to shift `s − (m−1)` of `b` relative to `a` — the shift
/// order of `tscore::kernel::ncc_max_with_shift`, but *unnormalised*: raw
/// dot products.
pub fn cross_correlation_fft(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "cross-correlation requires equal lengths");
    let m = a.len();
    if m == 0 {
        return Vec::new();
    }
    let size = next_pow2(2 * m - 1);
    let fa = rfft(a, size);
    let fb = rfft(b, size);
    // corr(a, b)[k] = Σ_i a[i]·b[i−k]  ⇔  IFFT(FFT(a) · conj(FFT(b)))
    let mut prod: Vec<Complex> = fa.iter().zip(&fb).map(|(x, y)| x.mul(y.conj())).collect();
    fft_inplace(&mut prod, true);
    let scale = 1.0 / size as f64;
    // Shifts −(m−1)..−1 live at the tail of the circular buffer.
    let mut out = Vec::with_capacity(2 * m - 1);
    for s in 0..(2 * m - 1) {
        let k = s as isize - (m as isize - 1);
        let idx = if k >= 0 {
            k as usize
        } else {
            size - (-k) as usize
        };
        out.push(prod[idx].re * scale);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn direct_cross_correlation(a: &[f64], b: &[f64]) -> Vec<f64> {
        let m = a.len();
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
            *slot = acc;
        }
        out
    }

    #[test]
    fn fft_roundtrip() {
        let signal = [1.0, 2.0, 3.0, 4.0, 0.0, -1.0, -2.0, 0.5];
        let mut buf: Vec<Complex> = signal.iter().map(|&x| Complex::new(x, 0.0)).collect();
        fft_inplace(&mut buf, false);
        fft_inplace(&mut buf, true);
        for (i, c) in buf.iter().enumerate() {
            assert!((c.re / 8.0 - signal[i]).abs() < 1e-12);
            assert!(c.im.abs() < 1e-12);
        }
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut buf = vec![Complex::zero(); 8];
        buf[0] = Complex::new(1.0, 0.0);
        fft_inplace(&mut buf, false);
        for c in &buf {
            assert!((c.re - 1.0).abs() < 1e-12);
            assert!(c.im.abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fft_rejects_non_pow2() {
        let mut buf = vec![Complex::zero(); 6];
        fft_inplace(&mut buf, false);
    }

    #[test]
    fn next_pow2_values() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(5), 8);
        assert_eq!(next_pow2(8), 8);
        assert_eq!(next_pow2(9), 16);
    }

    #[test]
    fn cross_correlation_matches_direct() {
        let a = [1.0, 2.0, -1.0, 0.5, 3.0];
        let b = [0.5, -1.0, 2.0, 1.0, -0.5];
        let fast = cross_correlation_fft(&a, &b);
        let slow = direct_cross_correlation(&a, &b);
        assert_eq!(fast.len(), slow.len());
        for (f, s) in fast.iter().zip(&slow) {
            assert!((f - s).abs() < 1e-9, "{f} vs {s}");
        }
    }

    #[test]
    fn cross_correlation_peak_location() {
        // b is a copy of a shifted right by 3 → peak at shift −3... verify
        // against the direct computation's argmax rather than re-deriving.
        let mut a = vec![0.0; 16];
        a[4] = 1.0;
        let mut b = vec![0.0; 16];
        b[7] = 1.0;
        let fast = cross_correlation_fft(&a, &b);
        let slow = direct_cross_correlation(&a, &b);
        let am_fast = fast
            .iter()
            .enumerate()
            .max_by(|x, y| x.1.partial_cmp(y.1).unwrap())
            .unwrap()
            .0;
        let am_slow = slow
            .iter()
            .enumerate()
            .max_by(|x, y| x.1.partial_cmp(y.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(am_fast, am_slow);
        let shift = am_fast as isize - 15;
        assert_eq!(shift, -3);
    }

    #[test]
    fn cross_correlation_empty_and_len1() {
        assert!(cross_correlation_fft(&[], &[]).is_empty());
        let out = cross_correlation_fft(&[2.0], &[3.0]);
        assert_eq!(out.len(), 1);
        assert!((out[0] - 6.0).abs() < 1e-12);
    }

    #[test]
    fn complex_ops() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        let p = a.mul(b);
        assert!((p.re - 5.0).abs() < 1e-12);
        assert!((p.im - 5.0).abs() < 1e-12);
        assert_eq!(a.conj().im, -2.0);
        assert_eq!(a.add(b).re, 4.0);
        assert_eq!(a.sub(b).im, 3.0);
    }
}
