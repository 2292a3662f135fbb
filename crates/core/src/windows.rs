//! Sliding-window subsequence extraction.
//!
//! k-Graph's graph embedding consumes *all* subsequences `T_{i,ℓ}` of every
//! series in a dataset for several lengths ℓ. [`Windows`] iterates the
//! windows of one series; [`SubseqRef`] identifies a subsequence globally
//! (series index + start offset) so graph nodes can point back to the raw
//! data they represent.

use crate::error::{Result, TsError};
use crate::series::TimeSeries;

/// Identifies a subsequence of a series within a dataset: the paper's
/// `T_{i,ℓ}` together with which `T` it came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SubseqRef {
    /// Index of the parent series in the dataset.
    pub series: usize,
    /// Start offset within the parent series.
    pub start: usize,
    /// Subsequence length ℓ.
    pub len: usize,
}

impl SubseqRef {
    /// Resolves this reference against its parent series.
    pub fn slice<'a>(&self, ts: &'a TimeSeries) -> Result<&'a [f64]> {
        ts.subsequence(self.start, self.len)
    }
}

/// Iterator over sliding windows of a slice with a configurable stride.
#[derive(Debug, Clone)]
pub struct Windows<'a> {
    data: &'a [f64],
    len: usize,
    stride: usize,
    pos: usize,
}

impl<'a> Windows<'a> {
    /// Creates a window iterator; errors when `len` or `stride` is zero or
    /// the slice is shorter than one window.
    pub fn new(data: &'a [f64], len: usize, stride: usize) -> Result<Self> {
        if len == 0 {
            return Err(TsError::InvalidParameter(
                "window length must be > 0".into(),
            ));
        }
        if stride == 0 {
            return Err(TsError::InvalidParameter(
                "window stride must be > 0".into(),
            ));
        }
        if data.len() < len {
            return Err(TsError::TooShort {
                required: len,
                actual: data.len(),
            });
        }
        Ok(Windows {
            data,
            len,
            stride,
            pos: 0,
        })
    }
}

impl<'a> Iterator for Windows<'a> {
    type Item = (usize, &'a [f64]);

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos + self.len > self.data.len() {
            return None;
        }
        let start = self.pos;
        let out = &self.data[start..start + self.len];
        self.pos += self.stride;
        Some((start, out))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = if self.pos + self.len > self.data.len() {
            0
        } else {
            (self.data.len() - self.len - self.pos) / self.stride + 1
        };
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for Windows<'_> {}

/// Convenience: the number of sliding windows of length `len` and stride
/// `stride` in a series of length `n` (0 when it does not fit).
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
    fn windows_stride_one() {
        let data = [0.0, 1.0, 2.0, 3.0];
        let w: Vec<_> = Windows::new(&data, 2, 1).unwrap().collect();
        assert_eq!(w.len(), 3);
        assert_eq!(w[0], (0, &data[0..2]));
        assert_eq!(w[2], (2, &data[2..4]));
    }

    #[test]
    fn windows_stride_two() {
        let data = [0.0, 1.0, 2.0, 3.0, 4.0];
        let w: Vec<_> = Windows::new(&data, 2, 2).unwrap().collect();
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].0, 0);
        assert_eq!(w[1].0, 2);
    }

    #[test]
    fn windows_full_length() {
        let data = [0.0, 1.0, 2.0];
        let w: Vec<_> = Windows::new(&data, 3, 1).unwrap().collect();
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].1, &data[..]);
    }

    #[test]
    fn windows_errors() {
        let data = [0.0, 1.0];
        assert!(Windows::new(&data, 0, 1).is_err());
        assert!(Windows::new(&data, 1, 0).is_err());
        assert!(Windows::new(&data, 3, 1).is_err());
    }

    #[test]
    fn exact_size_and_count() {
        let data = [0.0; 10];
        let w = Windows::new(&data, 3, 2).unwrap();
        assert_eq!(w.len(), 4);
        assert_eq!(w.count(), 4);
        assert_eq!(window_count(10, 3, 2), 4);
        assert_eq!(window_count(2, 3, 1), 0);
        assert_eq!(window_count(5, 0, 1), 0);
    }

    #[test]
    fn subseq_ref_resolves() {
        let ts = TimeSeries::new(vec![1.0, 2.0, 3.0, 4.0]);
        let r = SubseqRef {
            series: 0,
            start: 1,
            len: 2,
        };
        assert_eq!(r.slice(&ts).unwrap(), &[2.0, 3.0]);
        let bad = SubseqRef {
            series: 0,
            start: 3,
            len: 2,
        };
        assert!(bad.slice(&ts).is_err());
    }
}
