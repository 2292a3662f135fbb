//! Interpretability-test frame (Figure 3, frame 3; demo Scenario 1).
//!
//! Runs the paper's quiz protocol with simulated users: first with the
//! centroid representations of k-Means and k-Shape, then with k-Graph's
//! graphoid representation, over several trials, and compares the scores.
//! "A high score means that the representation of clusters is highly
//! interpretative."

use crate::ascii::{bar_chart, render_table};
use crate::quiz::{CentroidUser, GraphUser, Quiz, QuizScore};
use clustering::kmeans::KMeans;
use clustering::kshape::KShape;
use kgraph::{KGraph, KGraphConfig};
use tscore::Dataset;

/// Configuration of the interpretability test.
#[derive(Debug, Clone, Copy)]
pub struct QuizConfig {
    /// Number of clusters.
    pub k: usize,
    /// Questions per trial (the demo uses 5).
    pub questions: usize,
    /// Number of independent trials.
    pub trials: usize,
    /// Perception noise for both user types.
    pub noise: f64,
    /// γ threshold for the graph user's graphoids.
    pub gamma: f64,
    /// Master seed.
    pub seed: u64,
}

impl QuizConfig {
    /// Demo-faithful defaults: 5 questions, 20 trials, moderate noise.
    pub fn new(k: usize, seed: u64) -> Self {
        QuizConfig {
            k,
            questions: 5,
            trials: 20,
            noise: 0.35,
            gamma: 0.7,
            seed,
        }
    }
}

/// Scores of one method over all trials.
#[derive(Debug, Clone)]
pub struct MethodQuizScores {
    /// Method name.
    pub method: String,
    /// Per-trial fraction correct.
    pub fractions: Vec<f64>,
}

impl MethodQuizScores {
    /// Mean fraction correct.
    pub fn mean(&self) -> f64 {
        tscore::stats::mean(&self.fractions)
    }
}

/// The assembled frame: per-method quiz scores.
#[derive(Debug, Clone)]
pub struct QuizFrame {
    /// Dataset name.
    pub dataset_name: String,
    /// Scores per method (k-Means, k-Shape, k-Graph).
    pub scores: Vec<MethodQuizScores>,
}

impl QuizFrame {
    /// Runs the full interpretability test on a dataset.
    ///
    /// Per trial: one quiz (5 random series) answered by a centroid user
    /// against k-Means, the same against k-Shape, and a graph user against
    /// k-Graph — all with the same noise budget and trial seed.
    pub fn run(dataset: &Dataset, cfg: QuizConfig, kgraph_cfg: Option<KGraphConfig>) -> QuizFrame {
        assert!(
            cfg.questions <= dataset.len(),
            "dataset too small for the quiz"
        );
        let rows = dataset.znormed_rows();
        let kmeans = KMeans::new(cfg.k, cfg.seed).fit(&rows);
        let kshape = KShape::new(cfg.k, cfg.seed).fit(&rows);
        let kg_cfg = kgraph_cfg.unwrap_or_else(|| KGraphConfig::new(cfg.k).with_seed(cfg.seed));
        let model = KGraph::new(kg_cfg).fit(dataset);

        let mut km_scores = Vec::with_capacity(cfg.trials);
        let mut ks_scores = Vec::with_capacity(cfg.trials);
        let mut kg_scores = Vec::with_capacity(cfg.trials);
        for t in 0..cfg.trials {
            let trial_seed = cfg.seed.wrapping_add(1 + t as u64);
            let quiz = Quiz::generate(dataset.len(), cfg.questions, trial_seed);
            let cu = CentroidUser {
                noise: cfg.noise,
                seed: trial_seed,
            };
            km_scores.push(score_fraction(cu.run(
                dataset,
                &kmeans.labels,
                &kmeans.centroids,
                &quiz,
            )));
            ks_scores.push(score_fraction(cu.run(
                dataset,
                &kshape.labels,
                &kshape.centroids,
                &quiz,
            )));
            let gu = GraphUser {
                noise: cfg.noise,
                seed: trial_seed,
                gamma: cfg.gamma,
            };
            kg_scores.push(score_fraction(gu.run(&model, &quiz)));
        }
        QuizFrame {
            dataset_name: dataset.name().to_string(),
            scores: vec![
                MethodQuizScores {
                    method: "k-Means (centroid)".into(),
                    fractions: km_scores,
                },
                MethodQuizScores {
                    method: "k-Shape (centroid)".into(),
                    fractions: ks_scores,
                },
                MethodQuizScores {
                    method: "k-Graph (graph)".into(),
                    fractions: kg_scores,
                },
            ],
        }
    }

    /// Text summary: table + bar chart.
    pub fn summary(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .scores
            .iter()
            .map(|s| {
                vec![
                    s.method.clone(),
                    format!("{:.3}", s.mean()),
                    format!("{}", s.fractions.len()),
                ]
            })
            .collect();
        let bars: Vec<(String, f64)> = self
            .scores
            .iter()
            .map(|s| (s.method.clone(), s.mean()))
            .collect();
        format!(
            "Interpretability test on {} (simulated users)\n{}\n{}",
            self.dataset_name,
            render_table(&["representation", "mean score", "trials"], &rows),
            bar_chart(&bars, 40)
        )
    }
}

fn score_fraction(s: QuizScore) -> f64 {
    s.fraction()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tscore::{DatasetKind, TimeSeries};

    /// Motif-based classes: same global stats, different local patterns at
    /// varying positions — centroids blur, graphoids stay crisp.
    fn motif_dataset() -> Dataset {
        let n = 96;
        let mut series = Vec::new();
        let mut labels = Vec::new();
        for rep in 0..8 {
            let offset = rep * 7 % 30;
            // Class 0: two sharp spikes motif.
            let mut s0 = vec![0.0; n];
            for (i, v) in s0.iter_mut().enumerate() {
                *v = ((i * (rep + 2)) as f64 * 0.05).sin() * 0.2;
            }
            s0[20 + offset] = 3.0;
            s0[24 + offset] = -3.0;
            series.push(TimeSeries::new(s0));
            labels.push(0);
            // Class 1: slow oscillation motif.
            let s1: Vec<f64> = (0..n)
                .map(|i| {
                    if (30 + offset..60 + offset).contains(&i) {
                        ((i - 30 - offset) as f64 * 0.45).sin() * 2.0
                    } else {
                        ((i * (rep + 2)) as f64 * 0.05).cos() * 0.2
                    }
                })
                .collect();
            series.push(TimeSeries::new(s1));
            labels.push(1);
        }
        Dataset::with_labels("motifs", DatasetKind::Simulated, series, labels).unwrap()
    }

    fn quick_kg(k: usize, seed: u64) -> KGraphConfig {
        KGraphConfig {
            n_lengths: 2,
            psi: 12,
            pca_sample: 400,
            n_init: 2,
            ..KGraphConfig::new(k).with_seed(seed)
        }
    }

    #[test]
    fn runs_three_methods() {
        let ds = motif_dataset();
        let cfg = QuizConfig {
            trials: 4,
            ..QuizConfig::new(2, 0)
        };
        let frame = QuizFrame::run(&ds, cfg, Some(quick_kg(2, 0)));
        assert_eq!(frame.scores.len(), 3);
        for s in &frame.scores {
            assert_eq!(s.fractions.len(), 4);
            assert!(s.fractions.iter().all(|&f| (0.0..=1.0).contains(&f)));
        }
    }

    #[test]
    fn summary_contains_all_methods() {
        let ds = motif_dataset();
        let cfg = QuizConfig {
            trials: 2,
            ..QuizConfig::new(2, 1)
        };
        let frame = QuizFrame::run(&ds, cfg, Some(quick_kg(2, 1)));
        let s = frame.summary();
        assert!(s.contains("k-Means"));
        assert!(s.contains("k-Shape"));
        assert!(s.contains("k-Graph"));
        assert!(s.contains('█'));
    }

    #[test]
    fn deterministic() {
        let ds = motif_dataset();
        let cfg = QuizConfig {
            trials: 3,
            ..QuizConfig::new(2, 5)
        };
        let a = QuizFrame::run(&ds, cfg, Some(quick_kg(2, 5)));
        let b = QuizFrame::run(&ds, cfg, Some(quick_kg(2, 5)));
        for (x, y) in a.scores.iter().zip(&b.scores) {
            assert_eq!(x.fractions, y.fractions);
        }
    }

    #[test]
    #[should_panic(expected = "dataset too small")]
    fn tiny_dataset_panics() {
        let ds = Dataset::with_labels(
            "t",
            DatasetKind::Other,
            vec![TimeSeries::new(vec![0.0; 30])],
            vec![0],
        )
        .unwrap();
        QuizFrame::run(&ds, QuizConfig::new(1, 0), None);
    }
}
