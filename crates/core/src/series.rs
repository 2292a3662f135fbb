//! The [`TimeSeries`] container.

use crate::stats;
use std::fmt;
use std::ops::Index;

/// A univariate time series: an ordered sequence of real-valued points.
///
/// This mirrors the paper's definition of a series `T ∈ R^n` where `T_i`
/// denotes the i-th point. The container owns its values; a subsequence is
/// addressed by its series and window index, and
/// [`window_count`](crate::windows::window_count) says how many a series has.
#[derive(Clone, PartialEq)]
pub struct TimeSeries {
    values: Vec<f64>,
    name: Option<String>,
}

impl TimeSeries {
    /// Creates a series from raw values.
    pub fn new(values: Vec<f64>) -> Self {
        TimeSeries { values, name: None }
    }

    /// Creates a named series (names show up in plots and reports).
    pub fn named(name: impl Into<String>, values: Vec<f64>) -> Self {
        TimeSeries {
            values,
            name: Some(name.into()),
        }
    }

    /// Builds a series by sampling `f` at `0..n`.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize) -> f64) -> Self {
        TimeSeries::new((0..n).map(&mut f).collect())
    }

    /// The number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the series holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Read-only access to the underlying values.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Consumes the series and returns its values.
    pub fn into_values(self) -> Vec<f64> {
        self.values
    }

    /// Optional display name.
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }

    /// Sets the display name in place.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = Some(name.into());
    }

    /// Arithmetic mean of the points (0.0 for the empty series).
    pub fn mean(&self) -> f64 {
        stats::mean(&self.values)
    }

    /// Population standard deviation of the points.
    pub fn std(&self) -> f64 {
        stats::std(&self.values)
    }

    /// Smallest value (NaN-free assumption; returns +inf for empty).
    pub fn min(&self) -> f64 {
        stats::min(&self.values)
    }

    /// Largest value (NaN-free assumption; returns -inf for empty).
    pub fn max(&self) -> f64 {
        stats::max(&self.values)
    }

    /// Iterator over points.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.values.iter()
    }
}

impl Index<usize> for TimeSeries {
    type Output = f64;

    #[inline]
    fn index(&self, i: usize) -> &f64 {
        &self.values[i]
    }
}

impl From<Vec<f64>> for TimeSeries {
    fn from(values: Vec<f64>) -> Self {
        TimeSeries::new(values)
    }
}

impl From<&[f64]> for TimeSeries {
    fn from(values: &[f64]) -> Self {
        TimeSeries::new(values.to_vec())
    }
}

impl fmt::Debug for TimeSeries {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Long series would flood test output; show a prefix only.
        let shown: Vec<f64> = self.values.iter().take(8).copied().collect();
        write!(
            f,
            "TimeSeries(name={:?}, len={}, head={:?}{})",
            self.name,
            self.values.len(),
            shown,
            if self.values.len() > 8 { ", …" } else { "" }
        )
    }
}

impl<'a> IntoIterator for &'a TimeSeries {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.values.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let ts = TimeSeries::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(ts.len(), 3);
        assert!(!ts.is_empty());
        assert_eq!(ts[1], 2.0);
        assert_eq!(ts.values(), &[1.0, 2.0, 3.0]);
        assert_eq!(ts.name(), None);
    }

    #[test]
    fn named_and_rename() {
        let mut ts = TimeSeries::named("ecg-1", vec![0.0; 4]);
        assert_eq!(ts.name(), Some("ecg-1"));
        ts.set_name("ecg-2");
        assert_eq!(ts.name(), Some("ecg-2"));
    }

    #[test]
    fn from_fn_samples_function() {
        let ts = TimeSeries::from_fn(5, |i| i as f64 * 2.0);
        assert_eq!(ts.values(), &[0.0, 2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn summary_stats() {
        let ts = TimeSeries::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert!((ts.mean() - 2.5).abs() < 1e-12);
        assert!((ts.std() - (1.25f64).sqrt()).abs() < 1e-12);
        assert_eq!(ts.min(), 1.0);
        assert_eq!(ts.max(), 4.0);
    }

    #[test]
    fn conversions() {
        let ts: TimeSeries = vec![1.0, 2.0].into();
        assert_eq!(ts.len(), 2);
        let ts2: TimeSeries = ts.values().into();
        assert_eq!(ts2.values(), ts.values());
        assert_eq!(ts.into_values(), vec![1.0, 2.0]);
    }

    #[test]
    fn debug_truncates() {
        let ts = TimeSeries::new((0..100).map(|i| i as f64).collect());
        let s = format!("{ts:?}");
        assert!(s.contains("len=100"));
        assert!(s.contains("…"));
    }

    #[test]
    fn iteration() {
        let ts = TimeSeries::new(vec![1.0, 2.0, 3.0]);
        let sum: f64 = ts.iter().sum();
        assert_eq!(sum, 6.0);
        let sum2: f64 = (&ts).into_iter().sum();
        assert_eq!(sum2, 6.0);
    }
}
