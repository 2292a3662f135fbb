//! Benchmark frame (Figure 3, frame 1.2).
//!
//! "An overall accuracy evaluation of k-Graph against 14 baselines. The
//! user can select the evaluation measure (among four measures) and filter
//! the time series based on the dataset types, the time series length, the
//! number of classes, and the number of time series. A box plot … is
//! updated based on the filters."

use crate::ascii::render_table;
use crate::plot::boxplot::{Box, BoxPlot};
use tscore::DatasetKind;

/// The four evaluation measures offered by the frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Measure {
    /// Adjusted Rand Index.
    Ari,
    /// Rand Index.
    Ri,
    /// Normalised Mutual Information.
    Nmi,
    /// Adjusted Mutual Information.
    Ami,
}

impl Measure {
    /// All four, in display order.
    pub const ALL: [Measure; 4] = [Measure::Ari, Measure::Ri, Measure::Nmi, Measure::Ami];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Measure::Ari => "ARI",
            Measure::Ri => "RI",
            Measure::Nmi => "NMI",
            Measure::Ami => "AMI",
        }
    }
}

/// One (dataset × method) evaluation record.
#[derive(Debug, Clone)]
pub struct BenchmarkRecord {
    /// Dataset name.
    pub dataset: String,
    /// Dataset type tag.
    pub kind: DatasetKind,
    /// Series length (after any resampling).
    pub length: usize,
    /// Number of series.
    pub n_series: usize,
    /// Number of ground-truth classes.
    pub n_classes: usize,
    /// Method name.
    pub method: String,
    /// ARI score.
    pub ari: f64,
    /// RI score.
    pub ri: f64,
    /// NMI score.
    pub nmi: f64,
    /// AMI score.
    pub ami: f64,
}

impl BenchmarkRecord {
    /// Value of one measure.
    pub fn get(&self, m: Measure) -> f64 {
        match m {
            Measure::Ari => self.ari,
            Measure::Ri => self.ri,
            Measure::Nmi => self.nmi,
            Measure::Ami => self.ami,
        }
    }
}

/// The frame's filter controls.
#[derive(Debug, Clone, Default)]
pub struct Filter {
    /// Keep only these dataset types (`None` = all).
    pub kinds: Option<Vec<DatasetKind>>,
    /// Series length range (inclusive).
    pub length: Option<(usize, usize)>,
    /// Class count range (inclusive).
    pub classes: Option<(usize, usize)>,
    /// Series count range (inclusive).
    pub n_series: Option<(usize, usize)>,
}

impl Filter {
    /// Whether a record passes the filter.
    pub fn matches(&self, r: &BenchmarkRecord) -> bool {
        if let Some(kinds) = &self.kinds {
            if !kinds.contains(&r.kind) {
                return false;
            }
        }
        if let Some((lo, hi)) = self.length {
            if r.length < lo || r.length > hi {
                return false;
            }
        }
        if let Some((lo, hi)) = self.classes {
            if r.n_classes < lo || r.n_classes > hi {
                return false;
            }
        }
        if let Some((lo, hi)) = self.n_series {
            if r.n_series < lo || r.n_series > hi {
                return false;
            }
        }
        true
    }
}

/// The assembled Benchmark frame.
#[derive(Debug, Clone)]
pub struct BenchmarkFrame {
    /// All evaluation records.
    pub records: Vec<BenchmarkRecord>,
}

impl BenchmarkFrame {
    /// Creates the frame over a set of records.
    pub fn new(records: Vec<BenchmarkRecord>) -> Self {
        BenchmarkFrame { records }
    }

    /// Method names in first-appearance order.
    pub fn methods(&self) -> Vec<String> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for r in &self.records {
            if seen.insert(r.method.clone()) {
                out.push(r.method.clone());
            }
        }
        out
    }

    /// Per-method score samples under a filter.
    pub fn scores_by_method(&self, measure: Measure, filter: &Filter) -> Vec<(String, Vec<f64>)> {
        let methods = self.methods();
        methods
            .into_iter()
            .map(|m| {
                let scores: Vec<f64> = self
                    .records
                    .iter()
                    .filter(|r| r.method == m && filter.matches(r))
                    .map(|r| r.get(measure))
                    .collect();
                (m, scores)
            })
            .collect()
    }

    /// Renders the frame's box plot for one measure + filter; methods with
    /// no surviving records are dropped. `highlight` names the method drawn
    /// in colour (Graphint highlights k-Graph).
    pub fn render_boxplot(
        &self,
        measure: Measure,
        filter: &Filter,
        highlight: Option<&str>,
    ) -> String {
        let mut plot = BoxPlot::new(
            format!("Benchmark ({} over filtered datasets)", measure.name()),
            measure.name(),
        );
        for (method, scores) in self.scores_by_method(measure, filter) {
            if scores.is_empty() {
                continue;
            }
            plot.boxes.push(Box::from_samples(method, &scores));
        }
        plot.highlight = highlight.map(str::to_string);
        plot.render()
    }

    /// Text summary: per-method mean/median of one measure, best first.
    pub fn summary_table(&self, measure: Measure, filter: &Filter) -> String {
        let mut rows: Vec<(String, f64, f64, usize)> = self
            .scores_by_method(measure, filter)
            .into_iter()
            .filter(|(_, s)| !s.is_empty())
            .map(|(m, s)| {
                let mean = tscore::stats::mean(&s);
                let median = tscore::stats::median(&s);
                (m, mean, median, s.len())
            })
            .collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        let table: Vec<Vec<String>> = rows
            .into_iter()
            .map(|(m, mean, median, n)| {
                vec![
                    m,
                    format!("{mean:.3}"),
                    format!("{median:.3}"),
                    n.to_string(),
                ]
            })
            .collect();
        render_table(
            &[
                "method",
                &format!("mean {}", measure.name()),
                "median",
                "#datasets",
            ],
            &table,
        )
    }

    /// Mean score of one method under a filter (`None` if no records).
    pub fn mean_score(&self, method: &str, measure: Measure, filter: &Filter) -> Option<f64> {
        let scores: Vec<f64> = self
            .records
            .iter()
            .filter(|r| r.method == method && filter.matches(r))
            .map(|r| r.get(measure))
            .collect();
        if scores.is_empty() {
            None
        } else {
            Some(tscore::stats::mean(&scores))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(dataset: &str, kind: DatasetKind, method: &str, ari: f64) -> BenchmarkRecord {
        BenchmarkRecord {
            dataset: dataset.into(),
            kind,
            length: 128,
            n_series: 60,
            n_classes: 3,
            method: method.into(),
            ari,
            ri: ari * 0.5 + 0.5,
            nmi: ari.max(0.0),
            ami: ari.max(0.0) * 0.9,
        }
    }

    fn frame() -> BenchmarkFrame {
        BenchmarkFrame::new(vec![
            record("A", DatasetKind::Simulated, "k-Graph", 0.9),
            record("A", DatasetKind::Simulated, "k-Means", 0.4),
            record("B", DatasetKind::Ecg, "k-Graph", 0.7),
            record("B", DatasetKind::Ecg, "k-Means", 0.6),
        ])
    }

    #[test]
    fn methods_in_order() {
        assert_eq!(
            frame().methods(),
            vec!["k-Graph".to_string(), "k-Means".to_string()]
        );
    }

    #[test]
    fn measures_accessible() {
        let r = record("A", DatasetKind::Simulated, "m", 0.8);
        assert_eq!(r.get(Measure::Ari), 0.8);
        assert_eq!(r.get(Measure::Ri), 0.9);
        assert_eq!(r.get(Measure::Nmi), 0.8);
        assert!((r.get(Measure::Ami) - 0.72).abs() < 1e-12);
        assert_eq!(Measure::ALL.len(), 4);
    }

    #[test]
    fn unfiltered_scores() {
        let f = frame();
        let scores = f.scores_by_method(Measure::Ari, &Filter::default());
        assert_eq!(scores[0].0, "k-Graph");
        assert_eq!(scores[0].1, vec![0.9, 0.7]);
    }

    #[test]
    fn kind_filter() {
        let f = frame();
        let filter = Filter {
            kinds: Some(vec![DatasetKind::Ecg]),
            ..Default::default()
        };
        let scores = f.scores_by_method(Measure::Ari, &filter);
        assert_eq!(scores[0].1, vec![0.7]);
    }

    #[test]
    fn range_filters() {
        let f = frame();
        let too_long = Filter {
            length: Some((200, 300)),
            ..Default::default()
        };
        assert!(f.scores_by_method(Measure::Ari, &too_long)[0].1.is_empty());
        let class_band = Filter {
            classes: Some((2, 3)),
            ..Default::default()
        };
        assert_eq!(f.scores_by_method(Measure::Ari, &class_band)[0].1.len(), 2);
        let size_band = Filter {
            n_series: Some((0, 10)),
            ..Default::default()
        };
        assert!(f.scores_by_method(Measure::Ari, &size_band)[0].1.is_empty());
    }

    #[test]
    fn boxplot_renders_with_highlight() {
        let f = frame();
        let svg = f.render_boxplot(Measure::Ari, &Filter::default(), Some("k-Graph"));
        assert!(svg.contains("k-Graph"));
        assert!(svg.contains("k-Means"));
        assert!(svg.contains("#bbbbbb"), "non-highlighted methods muted");
    }

    #[test]
    fn summary_sorted_by_mean() {
        let f = frame();
        let s = f.summary_table(Measure::Ari, &Filter::default());
        let kg = s.find("k-Graph").unwrap();
        let km = s.find("k-Means").unwrap();
        assert!(kg < km, "{s}");
        assert!(s.contains("0.800")); // k-Graph mean
    }

    #[test]
    fn mean_score_lookup() {
        let f = frame();
        assert_eq!(
            f.mean_score("k-Graph", Measure::Ari, &Filter::default()),
            Some(0.8)
        );
        assert_eq!(
            f.mean_score("missing", Measure::Ari, &Filter::default()),
            None
        );
    }
}
