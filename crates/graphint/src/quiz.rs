//! The interpretability test (paper Scenario 1) with simulated users.
//!
//! The demo asks a human: *given the representation a clustering method
//! offers (centroids for k-Means/k-Shape, the graph for k-Graph), assign
//! five random series to the cluster the method chose*. A high score means
//! the representation is easy to interpret.
//!
//! Humans are replaced by two simulated readers:
//!
//! * [`CentroidUser`] — compares a series to each centroid under
//!   z-normalised Euclidean distance, with multiplicative perception noise
//!   (humans cannot judge distances exactly),
//! * [`GraphUser`] — follows the series through the selected graph and
//!   votes for the cluster whose γ-graphoid its path overlaps most, seeing
//!   only a random subset of the path (perception noise).
//!
//! Both users get the *same* noise budget, so score differences measure the
//! representation, not the reader.

use kgraph::KGraphModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tscore::kernel::sq_dist;
use tscore::transform::znorm;
use tscore::Dataset;

/// A quiz: which series must be assigned, and the method's own labels.
#[derive(Debug, Clone)]
pub struct Quiz {
    /// Indices of the series to present.
    pub questions: Vec<usize>,
}

impl Quiz {
    /// Samples `n` distinct question series (dataset must have ≥ n series).
    pub fn generate(dataset_len: usize, n: usize, seed: u64) -> Quiz {
        assert!(n >= 1, "quiz needs at least one question");
        assert!(dataset_len >= n, "not enough series for {n} questions");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pool: Vec<usize> = (0..dataset_len).collect();
        for i in (1..pool.len()).rev() {
            let j = rng.gen_range(0..=i);
            pool.swap(i, j);
        }
        pool.truncate(n);
        Quiz { questions: pool }
    }
}

/// Result of one quiz run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuizScore {
    /// Correct answers.
    pub correct: usize,
    /// Total questions.
    pub total: usize,
}

impl QuizScore {
    /// Fraction of correct answers.
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.correct as f64 / self.total as f64
        }
    }
}

/// Simulated centroid reader.
#[derive(Debug, Clone, Copy)]
pub struct CentroidUser {
    /// Multiplicative distance-perception noise (0 = oracle).
    pub noise: f64,
    /// RNG seed.
    pub seed: u64,
}

impl CentroidUser {
    /// Answers one question: index of the apparently-nearest centroid.
    pub fn answer(&self, series: &[f64], centroids: &[Vec<f64>], rng: &mut StdRng) -> usize {
        let z = znorm(series);
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for (c, centroid) in centroids.iter().enumerate() {
            if centroid.len() != z.len() {
                continue;
            }
            let d = sq_dist(&z, &znorm(centroid)).sqrt();
            // Perception noise: the reader mis-estimates each distance by a
            // log-normal-ish multiplicative factor.
            let u: f64 = rng.gen_range(-1.0..1.0);
            let perceived = d * (1.0 + self.noise * u);
            if perceived < best_d {
                best_d = perceived;
                best = c;
            }
        }
        best
    }

    /// Runs a full quiz against a method's own labels.
    pub fn run(
        &self,
        dataset: &Dataset,
        method_labels: &[usize],
        centroids: &[Vec<f64>],
        quiz: &Quiz,
    ) -> QuizScore {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut correct = 0;
        for &q in &quiz.questions {
            let answer = self.answer(dataset.series()[q].values(), centroids, &mut rng);
            if answer == method_labels[q] {
                correct += 1;
            }
        }
        QuizScore {
            correct,
            total: quiz.questions.len(),
        }
    }
}

/// Simulated graphoid reader.
#[derive(Debug, Clone, Copy)]
pub struct GraphUser {
    /// Fraction of the node path the reader overlooks (0 = sees all).
    pub noise: f64,
    /// RNG seed.
    pub seed: u64,
    /// Exclusivity threshold used to build the per-cluster graphoids.
    pub gamma: f64,
}

impl GraphUser {
    /// Answers one question: the cluster whose γ-graphoid the (partially
    /// observed) node path overlaps most, normalised by graphoid size.
    /// When the observed path misses every graphoid (silent overlap), the
    /// reader falls back to the node *colour intensities* — the per-cluster
    /// exclusivities the Graph frame displays — summed along the path.
    pub fn answer(
        &self,
        model: &KGraphModel,
        graphoid_nodes: &[std::collections::HashSet<u32>],
        exclusivity: &[Vec<f64>],
        series_idx: usize,
        rng: &mut StdRng,
    ) -> usize {
        let path = &model.best().paths[series_idx];
        let mut votes = vec![0.0f64; graphoid_nodes.len()];
        let mut fallback = vec![0.0f64; graphoid_nodes.len()];
        for node in path {
            // Perception noise: the reader misses some path nodes.
            if rng.gen_range(0.0..1.0) < self.noise {
                continue;
            }
            for (c, nodes) in graphoid_nodes.iter().enumerate() {
                if nodes.contains(&node.0) {
                    // Normalising by graphoid size keeps big graphoids from
                    // dominating purely by area.
                    votes[c] += 1.0 / (nodes.len() as f64).max(1.0);
                }
                fallback[c] += exclusivity[c][node.index()];
            }
        }
        let tally = if votes.iter().all(|&v| v == 0.0) {
            &fallback
        } else {
            &votes
        };
        tally
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(c, _)| c)
            .unwrap_or(0)
    }

    /// Runs a full quiz against k-Graph's own labels.
    ///
    /// The requested γ is clamped per cluster so that no cluster's graphoid
    /// is empty (the demo's Scenario 2 establishes exactly such thresholds
    /// before the quiz is taken).
    pub fn run(&self, model: &KGraphModel, quiz: &Quiz) -> QuizScore {
        let stats = model.best_stats();
        let k = model.k();
        // Largest γ ≤ requested that keeps every cluster represented.
        let mut gamma_eff = self.gamma;
        for c in 0..k {
            gamma_eff = gamma_eff.min(stats.max_node_exclusivity(c));
        }
        let graphoids = model.all_gamma_graphoids(gamma_eff.max(1e-9));
        let node_sets: Vec<std::collections::HashSet<u32>> = graphoids
            .iter()
            .map(|g| g.nodes.iter().map(|n| n.0).collect())
            .collect();
        let n_nodes = model.best().graph.node_count();
        let exclusivity: Vec<Vec<f64>> = (0..k)
            .map(|c| (0..n_nodes).map(|n| stats.node_exclusivity(c, n)).collect())
            .collect();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut correct = 0;
        for &q in &quiz.questions {
            let answer = self.answer(model, &node_sets, &exclusivity, q, &mut rng);
            if answer == model.labels[q] {
                correct += 1;
            }
        }
        QuizScore {
            correct,
            total: quiz.questions.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clustering::kmeans::KMeans;
    use kgraph::{KGraph, KGraphConfig};
    use tscore::{DatasetKind, TimeSeries};

    fn toy_dataset() -> Dataset {
        let mut series = Vec::new();
        let mut labels = Vec::new();
        for (label, f) in [0.2f64, 0.9].into_iter().enumerate() {
            for p in 0..6 {
                series.push(TimeSeries::new(
                    (0..80).map(|i| ((i + p) as f64 * f).sin()).collect(),
                ));
                labels.push(label);
            }
        }
        Dataset::with_labels("toy", DatasetKind::Simulated, series, labels).unwrap()
    }

    #[test]
    fn quiz_generation_distinct_and_deterministic() {
        let a = Quiz::generate(20, 5, 3);
        let b = Quiz::generate(20, 5, 3);
        assert_eq!(a.questions, b.questions);
        assert_eq!(a.questions.len(), 5);
        let unique: std::collections::HashSet<_> = a.questions.iter().collect();
        assert_eq!(unique.len(), 5);
        assert!(a.questions.iter().all(|&q| q < 20));
    }

    #[test]
    #[should_panic(expected = "not enough series")]
    fn oversized_quiz_panics() {
        Quiz::generate(3, 5, 0);
    }

    #[test]
    fn score_fraction() {
        assert_eq!(
            QuizScore {
                correct: 3,
                total: 5
            }
            .fraction(),
            0.6
        );
        assert_eq!(
            QuizScore {
                correct: 0,
                total: 0
            }
            .fraction(),
            0.0
        );
    }

    #[test]
    fn noiseless_centroid_user_matches_kmeans_well() {
        let ds = toy_dataset();
        let rows = ds.znormed_rows();
        let km = KMeans::new(2, 0).fit(&rows);
        let quiz = Quiz::generate(ds.len(), 6, 1);
        let user = CentroidUser {
            noise: 0.0,
            seed: 0,
        };
        let score = user.run(&ds, &km.labels, &km.centroids, &quiz);
        // A noiseless nearest-centroid reader reproduces k-Means almost
        // exactly (it *is* the assignment rule, modulo z-norm of centroids).
        assert!(score.fraction() >= 0.8, "{score:?}");
    }

    #[test]
    fn noisy_user_degrades() {
        let ds = toy_dataset();
        let rows = ds.znormed_rows();
        let km = KMeans::new(2, 0).fit(&rows);
        let quiz = Quiz::generate(ds.len(), 6, 1);
        // Average over several seeds: heavy noise must not beat no noise.
        let avg = |noise: f64| -> f64 {
            (0..10)
                .map(|s| {
                    CentroidUser { noise, seed: s }
                        .run(&ds, &km.labels, &km.centroids, &quiz)
                        .fraction()
                })
                .sum::<f64>()
                / 10.0
        };
        assert!(avg(0.0) >= avg(3.0) - 1e-9);
    }

    #[test]
    fn graph_user_reads_graphoids() {
        let ds = toy_dataset();
        let cfg = KGraphConfig {
            n_lengths: 2,
            psi: 12,
            pca_sample: 500,
            n_init: 3,
            ..KGraphConfig::new(2)
        };
        let model = KGraph::new(cfg).fit(&ds);
        let quiz = Quiz::generate(ds.len(), 6, 2);
        let user = GraphUser {
            noise: 0.1,
            seed: 0,
            gamma: 0.7,
        };
        let score = user.run(&model, &quiz);
        assert!(
            score.fraction() >= 0.8,
            "graph user should read exclusive structure: {score:?}"
        );
    }

    #[test]
    fn graph_user_deterministic() {
        let ds = toy_dataset();
        let cfg = KGraphConfig {
            n_lengths: 2,
            psi: 12,
            pca_sample: 500,
            n_init: 3,
            ..KGraphConfig::new(2)
        };
        let model = KGraph::new(cfg).fit(&ds);
        let quiz = Quiz::generate(ds.len(), 5, 2);
        let user = GraphUser {
            noise: 0.2,
            seed: 7,
            gamma: 0.7,
        };
        assert_eq!(user.run(&model, &quiz), user.run(&model, &quiz));
    }
}
