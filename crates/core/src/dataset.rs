//! Labelled time series datasets.

use crate::error::{Result, TsError};
use crate::series::TimeSeries;
use crate::transform;
use std::fmt;

/// Category of a dataset, mirroring the "dataset type" filter of Graphint's
/// Benchmark frame (UCR archive nomenclature).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// Synthetically generated (CBF, Two Patterns, ...).
    Simulated,
    /// Sensor readings (industrial, seismic, ...).
    Sensor,
    /// Electrocardiograms and other medical waveforms.
    Ecg,
    /// Human motion capture.
    Motion,
    /// Electrical device consumption profiles.
    Device,
    /// Spectrographs and other instrument curves.
    Spectro,
    /// Anything else.
    Other,
}

impl DatasetKind {
    /// Stable lowercase name used in CSV output and CLI filters.
    pub fn as_str(&self) -> &'static str {
        match self {
            DatasetKind::Simulated => "simulated",
            DatasetKind::Sensor => "sensor",
            DatasetKind::Ecg => "ecg",
            DatasetKind::Motion => "motion",
            DatasetKind::Device => "device",
            DatasetKind::Spectro => "spectro",
            DatasetKind::Other => "other",
        }
    }

    /// Parses the lowercase name produced by [`DatasetKind::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "simulated" => DatasetKind::Simulated,
            "sensor" => DatasetKind::Sensor,
            "ecg" => DatasetKind::Ecg,
            "motion" => DatasetKind::Motion,
            "device" => DatasetKind::Device,
            "spectro" => DatasetKind::Spectro,
            "other" => DatasetKind::Other,
            _ => return None,
        })
    }
}

impl fmt::Display for DatasetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A dataset `D = {T_0, …, T_{n−1}}` with optional ground-truth labels.
///
/// Labels are small class indices in `0..n_classes`. The clustering quality
/// metrics, the colouring of the Clustering-comparison frame and the quiz
/// all consume them.
#[derive(Debug, Clone)]
pub struct Dataset {
    name: String,
    kind: DatasetKind,
    series: Vec<TimeSeries>,
    labels: Option<Vec<usize>>,
}

impl Dataset {
    /// Creates an unlabelled dataset.
    pub fn new(name: impl Into<String>, kind: DatasetKind, series: Vec<TimeSeries>) -> Self {
        Dataset {
            name: name.into(),
            kind,
            series,
            labels: None,
        }
    }

    /// Creates a labelled dataset; errors if labels and series disagree.
    pub fn with_labels(
        name: impl Into<String>,
        kind: DatasetKind,
        series: Vec<TimeSeries>,
        labels: Vec<usize>,
    ) -> Result<Self> {
        if labels.len() != series.len() {
            return Err(TsError::LabelMismatch {
                series: series.len(),
                labels: labels.len(),
            });
        }
        Ok(Dataset {
            name: name.into(),
            kind,
            series,
            labels: Some(labels),
        })
    }

    /// Dataset display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Dataset category (drives the Benchmark frame's type filter).
    pub fn kind(&self) -> DatasetKind {
        self.kind
    }

    /// Number of series.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// Whether the dataset holds no series.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// The series themselves.
    pub fn series(&self) -> &[TimeSeries] {
        &self.series
    }

    /// A single series by index.
    pub fn get(&self, i: usize) -> Option<&TimeSeries> {
        self.series.get(i)
    }

    /// Ground-truth labels if present.
    pub fn labels(&self) -> Option<&[usize]> {
        self.labels.as_deref()
    }

    /// Number of distinct classes (0 when unlabelled).
    pub fn n_classes(&self) -> usize {
        match &self.labels {
            None => 0,
            Some(l) => l.iter().copied().max().map_or(0, |m| m + 1),
        }
    }

    /// Length of the shortest series.
    pub fn min_len(&self) -> usize {
        self.series.iter().map(TimeSeries::len).min().unwrap_or(0)
    }

    /// Length of the longest series.
    pub fn max_len(&self) -> usize {
        self.series.iter().map(TimeSeries::len).max().unwrap_or(0)
    }

    /// Whether every series has the same length.
    pub fn is_equal_length(&self) -> bool {
        self.min_len() == self.max_len()
    }

    /// Lengths of all series, in order.
    pub fn lengths(&self) -> Vec<usize> {
        self.series.iter().map(TimeSeries::len).collect()
    }

    /// Raw values of every series as owned rows (for matrix-style consumers).
    pub fn to_rows(&self) -> Vec<Vec<f64>> {
        self.series.iter().map(|s| s.values().to_vec()).collect()
    }

    /// Z-normalised copy of every series.
    ///
    /// Each output row is allocated exactly once and written directly by
    /// the fused [`crate::kernel::znorm_into`] — no intermediate copy that
    /// is then normalised in place.
    pub fn znormed_rows(&self) -> Vec<Vec<f64>> {
        self.series
            .iter()
            .map(|s| {
                let mut row = vec![0.0; s.len()];
                crate::kernel::znorm_into(s.values(), &mut row);
                row
            })
            .collect()
    }

    /// Resamples every series to a common length (the minimum by default),
    /// returning a new dataset. Needed before raw-based methods when series
    /// lengths differ.
    pub fn resampled(&self, target_len: usize) -> Result<Dataset> {
        let mut series = Vec::with_capacity(self.series.len());
        for s in &self.series {
            let vals = transform::resample(s.values(), target_len)?;
            let mut ts = TimeSeries::new(vals);
            if let Some(n) = s.name() {
                ts.set_name(n);
            }
            series.push(ts);
        }
        Ok(Dataset {
            name: self.name.clone(),
            kind: self.kind,
            series,
            labels: self.labels.clone(),
        })
    }

    /// Returns the subset of series with the given indices (labels follow).
    pub fn subset(&self, indices: &[usize]) -> Result<Dataset> {
        let mut series = Vec::with_capacity(indices.len());
        let mut labels = self
            .labels
            .as_ref()
            .map(|_| Vec::with_capacity(indices.len()));
        for &i in indices {
            let s = self.series.get(i).ok_or_else(|| {
                TsError::InvalidParameter(format!("subset index {i} out of range"))
            })?;
            series.push(s.clone());
            if let (Some(out), Some(all)) = (labels.as_mut(), self.labels.as_ref()) {
                out.push(all[i]);
            }
        }
        Ok(Dataset {
            name: self.name.clone(),
            kind: self.kind,
            series,
            labels,
        })
    }

    /// Per-class series counts, indexed by class id.
    pub fn class_counts(&self) -> Vec<usize> {
        let k = self.n_classes();
        let mut counts = vec![0usize; k];
        if let Some(l) = &self.labels {
            for &c in l {
                counts[c] += 1;
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        Dataset::with_labels(
            "toy",
            DatasetKind::Simulated,
            vec![
                TimeSeries::new(vec![0.0, 1.0, 2.0, 3.0]),
                TimeSeries::new(vec![3.0, 2.0, 1.0, 0.0]),
                TimeSeries::new(vec![0.0, 1.0, 2.0, 3.0]),
            ],
            vec![0, 1, 0],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_metadata() {
        let d = toy();
        assert_eq!(d.name(), "toy");
        assert_eq!(d.kind(), DatasetKind::Simulated);
        assert_eq!(d.len(), 3);
        assert!(!d.is_empty());
        assert_eq!(d.n_classes(), 2);
        assert_eq!(d.min_len(), 4);
        assert_eq!(d.max_len(), 4);
        assert!(d.is_equal_length());
        assert_eq!(d.lengths(), vec![4, 4, 4]);
    }

    #[test]
    fn label_mismatch_rejected() {
        let err = Dataset::with_labels(
            "bad",
            DatasetKind::Other,
            vec![TimeSeries::new(vec![1.0])],
            vec![0, 1],
        );
        assert!(matches!(err, Err(TsError::LabelMismatch { .. })));
    }

    #[test]
    fn unlabelled_dataset() {
        let d = Dataset::new(
            "u",
            DatasetKind::Sensor,
            vec![TimeSeries::new(vec![1.0, 2.0])],
        );
        assert_eq!(d.labels(), None);
        assert_eq!(d.n_classes(), 0);
        assert!(d.class_counts().is_empty());
    }

    #[test]
    fn class_queries() {
        let d = toy();
        assert_eq!(d.class_counts(), vec![2, 1]);
    }

    #[test]
    fn subset_carries_labels() {
        let d = toy();
        let s = d.subset(&[2, 1]).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.labels(), Some(&[0, 1][..]));
        assert!(d.subset(&[9]).is_err());
    }

    #[test]
    fn resample_dataset() {
        let d = toy();
        let r = d.resampled(8).unwrap();
        assert_eq!(r.min_len(), 8);
        assert_eq!(r.labels(), d.labels());
        assert_eq!(r.len(), d.len());
    }

    #[test]
    fn rows_and_znorm() {
        let d = toy();
        let rows = d.to_rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], vec![0.0, 1.0, 2.0, 3.0]);
        for row in d.znormed_rows() {
            assert!(crate::stats::mean(&row).abs() < 1e-12);
        }
    }

    #[test]
    fn kind_roundtrip() {
        for k in [
            DatasetKind::Simulated,
            DatasetKind::Sensor,
            DatasetKind::Ecg,
            DatasetKind::Motion,
            DatasetKind::Device,
            DatasetKind::Spectro,
            DatasetKind::Other,
        ] {
            assert_eq!(DatasetKind::parse(k.as_str()), Some(k));
            assert_eq!(format!("{k}"), k.as_str());
        }
        assert_eq!(DatasetKind::parse("nope"), None);
    }

    #[test]
    fn empty_dataset_edges() {
        let d = Dataset::new("e", DatasetKind::Other, vec![]);
        assert!(d.is_empty());
        assert_eq!(d.min_len(), 0);
        assert_eq!(d.max_len(), 0);
        assert!(d.is_equal_length());
        assert!(d.get(0).is_none());
    }
}
