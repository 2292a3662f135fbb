//! Sliding-window subsequences.
//!
//! k-Graph's graph embedding consumes *all* subsequences `T_{i,ℓ}` of every
//! series in a dataset for several lengths ℓ. A window is addressed by its
//! series and its window index `w`: it covers
//! `values[w · stride .. w · stride + ℓ]`. [`window_count`] is the one
//! formula for how many windows a series has; callers slice the windows
//! themselves.

/// The number of sliding windows of length `len` and stride `stride` in a
/// series of length `n` (0 when it does not fit).
pub fn window_count(n: usize, len: usize, stride: usize) -> usize {
    if len == 0 || stride == 0 || n < len {
        0
    } else {
        (n - len) / stride + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_count_covers_every_start() {
        assert_eq!(window_count(4, 2, 1), 3);
        assert_eq!(window_count(5, 2, 2), 2);
        assert_eq!(window_count(3, 3, 1), 1);
        assert_eq!(window_count(10, 3, 2), 4);
        assert_eq!(window_count(2, 3, 1), 0);
        assert_eq!(window_count(5, 0, 1), 0);
        assert_eq!(window_count(5, 2, 0), 0);
    }
}
