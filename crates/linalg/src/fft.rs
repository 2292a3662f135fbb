//! Forward iterative radix-2 FFT.
//!
//! Used by Time2Feat's spectral features
//! (`clustering::features::extract_spectral_features`): [`rfft`]
//! zero-pads a real series to a power of two and transforms it.

/// Minimal complex number (we only need +, −, ×).
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

/// In-place forward iterative radix-2 FFT. Panics if `buf.len()` is not a
/// power of two.
pub fn fft_inplace(buf: &mut [Complex]) {
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
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * std::f64::consts::PI / len as f64;
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
    fft_inplace(&mut buf);
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut buf = vec![Complex::zero(); 8];
        buf[0] = Complex::new(1.0, 0.0);
        fft_inplace(&mut buf);
        for c in &buf {
            assert!((c.re - 1.0).abs() < 1e-12);
            assert!(c.im.abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fft_rejects_non_pow2() {
        let mut buf = vec![Complex::zero(); 6];
        fft_inplace(&mut buf);
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
    fn complex_ops() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        let p = a.mul(b);
        assert!((p.re - 5.0).abs() < 1e-12);
        assert!((p.im - 5.0).abs() < 1e-12);
        assert_eq!(a.add(b).re, 4.0);
        assert_eq!(a.sub(b).im, 3.0);
    }
}
