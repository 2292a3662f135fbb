//! Extension: Series2Graph-style subsequence anomaly scoring.
//!
//! k-Graph descends from Series2Graph (Boniol & Palpanas, PVLDB 2020),
//! which uses the same graph embedding for *anomaly detection*: a
//! subsequence is anomalous when its trajectory crosses rarely-travelled
//! edges. Since every [`GraphLayer`] already stores the embedding and the
//! transition weights, this module adds that capability on top of a fitted
//! model — the "future work" direction the demo's lineage points to.
//!
//! Scores are in `[0, 1]`: 0 = the most common transitions in the graph,
//! 1 = transitions never seen at fit time.
//!
//! There is one scorer, in two steps: [`routed_gaps`] routes each window
//! of a series through the layer's embedding to its node and its
//! embedding gap ([`window_gap`]), and [`scores_from_route`] scores that
//! route against a graph over the layer's node set. [`anomaly_scores`]
//! runs both against the layer's own graph. A streaming session keeps
//! each series' route as it grows and scores it with [`scores_from_route`]
//! alone, against the layer's graph compacted with the transitions it has
//! buffered since the fit.

use crate::build::{GraphLayer, LayerEmbedding, PatternGraph};
use tscore::error::TsError;
use tsgraph::NodeId;

/// Rarity of each transition along a node path.
///
/// For the transition `a → b` the score is `1 − w(a→b) / w_out(a)`, where
/// `w_out(a)` is the weight of `a`'s *modal* outgoing edge — so following
/// the most common continuation scores 0 and rare branches approach 1.
/// Transitions without an edge (never observed at fit time) score 1;
/// self-transitions score 0 (dwelling inside a pattern is handled by the
/// embedding-gap term, [`window_gap`]). Output length is
/// `path.len() − 1` (empty for trivial paths).
pub fn transition_scores(graph: &PatternGraph, path: &[NodeId]) -> Vec<f64> {
    // The transition is an O(log deg) lookup. The modal outgoing weight is
    // a max over the node's contiguous CSR weight slice (at least 1),
    // folded once per source node and call.
    let mut modal: Vec<Option<f64>> = vec![None; graph.node_count()];
    path.windows(2)
        .map(|w| {
            if w[0] == w[1] {
                return 0.0;
            }
            match graph.weight_between(w[0], w[1]) {
                Some(count) => {
                    let modal = *modal[w[0].index()].get_or_insert_with(|| {
                        graph.out_weights(w[0]).iter().copied().fold(1.0, f64::max)
                    });
                    1.0 - count / modal
                }
                None => 1.0,
            }
        })
        .collect()
}

/// Embedding gap of one routed window: the distance of its projected
/// `point` to the radius of its assigned `node`, normalised by the
/// embedding's radial scale (the median node radius): `min(1, gap /
/// scale)`. Windows whose shapes were never seen at fit time project into
/// empty regions of the embedding and score high, regardless of which node
/// they fall back to.
pub fn window_gap(emb: &LayerEmbedding, point: (f64, f64), node: usize) -> f64 {
    let dx = point.0 - emb.center.0;
    let dy = point.1 - emb.center.1;
    let r = (dx * dx + dy * dy).sqrt();
    let gap = (emb.nodes[node].radius - r).abs();
    (gap / emb.radial_scale()).min(1.0)
}

/// Routes the windows of `values` from window index `first_window` on
/// through `emb` ([`LayerEmbedding::route`]), returning each window's node
/// and its [`window_gap`]. Both are empty when no window starts there;
/// panics when a window is routed through an embedding without nodes.
pub fn routed_gaps(
    emb: &LayerEmbedding,
    values: &[f64],
    first_window: usize,
) -> (Vec<NodeId>, Vec<f64>) {
    emb.route(values, first_window)
        .map(|(point, node)| (NodeId(node as u32), window_gap(emb, point, node)))
        .unzip()
}

/// Anomaly score per window position of an arbitrary series.
///
/// Combines two kinds of evidence, each in `[0, 1]`:
///
/// * **transition rarity** — the trajectory crosses edges that were rare
///   (or absent) in the layer's graph ([`transition_scores`]),
/// * **embedding gap** — the window's shape projects far from every known
///   pattern node ([`window_gap`]); this is what catches "frozen"/dwelling
///   anomalies that produce no transitions at all.
///
/// The blend (equal weights) is smoothed with a centred moving average of
/// width `context` (≥ 1).
///
/// # Errors
///
/// * [`TsError::TooShort`] — the series is shorter than one window of the
///   layer (a caller-side problem: 4xx territory for a server),
/// * [`TsError::Degenerate`] — the layer's graph has no nodes, so no
///   series can be routed through it (a model-side problem: 5xx).
pub fn anomaly_scores(
    layer: &GraphLayer,
    values: &[f64],
    context: usize,
) -> Result<Vec<f64>, TsError> {
    layer.check_routable()?;
    if values.len() < layer.length {
        return Err(TsError::TooShort {
            required: layer.length,
            actual: values.len(),
        });
    }
    let (path, gaps) = routed_gaps(&layer.embedding, values, 0);
    Ok(scores_from_route(&layer.graph, &path, &gaps, context))
}

/// Scores a routed series against `graph`: the [`transition_scores`] of
/// `path` blended with its per-window `gaps` (equal weights) and smoothed
/// with a centred moving average of width `context` (≥ 1). Transition `i`
/// sits between windows `i` and `i+1` and is attributed to window `i` (the
/// last window keeps only its gap evidence). `graph` must have the
/// layer's node set, for example the layer's graph compacted with a stream
/// delta ([`tsgraph::DeltaGraph::compact`]). Given the path and gaps of
/// [`routed_gaps`] and the layer's own graph, this is exactly
/// [`anomaly_scores`]'s arithmetic.
pub fn scores_from_route(
    graph: &PatternGraph,
    path: &[NodeId],
    gaps: &[f64],
    context: usize,
) -> Vec<f64> {
    let trans = transition_scores(graph, path);
    if gaps.is_empty() {
        return Vec::new();
    }
    let raw: Vec<f64> = (0..gaps.len())
        .map(|i| {
            let t = if i < trans.len() { trans[i] } else { 0.0 };
            0.5 * t + 0.5 * gaps[i]
        })
        .collect();
    let context = context.max(1);
    let half = context / 2;
    (0..raw.len())
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(raw.len());
            raw[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
        })
        .collect()
}

/// Indices of the `k` highest-scoring positions, greedily selected with an
/// exclusion zone of `exclusion` positions around each pick (standard
/// discord-discovery post-processing).
pub fn top_anomalies(scores: &[f64], k: usize, exclusion: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));
    let mut picked: Vec<usize> = Vec::new();
    for i in order {
        if picked.len() == k {
            break;
        }
        if picked.iter().all(|&p| p.abs_diff(i) > exclusion) {
            picked.push(i);
        }
    }
    picked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KGraphConfig;
    use crate::pipeline::KGraph;
    use tscore::{Dataset, DatasetKind, TimeSeries};

    /// Clean periodic dataset; the anomaly test injects a burst later.
    fn clean_dataset() -> Dataset {
        let series: Vec<TimeSeries> = (0..8)
            .map(|p| TimeSeries::new((0..160).map(|i| ((i + p) as f64 * 0.4).sin()).collect()))
            .collect();
        Dataset::new("clean", DatasetKind::Simulated, series)
    }

    fn fitted() -> crate::pipeline::KGraphModel {
        let cfg = KGraphConfig {
            n_lengths: 1,
            psi: 16,
            pca_sample: 600,
            n_init: 2,
            ..KGraphConfig::new(1)
        }
        .with_lengths(vec![20]);
        KGraph::new(cfg).fit(&clean_dataset())
    }

    #[test]
    fn normal_series_scores_low() {
        let model = fitted();
        let fresh: Vec<f64> = (0..160).map(|i| ((i + 3) as f64 * 0.4).sin()).collect();
        let scores = anomaly_scores(model.best(), &fresh, 5).expect("long enough");
        let mean = tscore::stats::mean(&scores);
        assert!(mean < 0.6, "normal series mean score {mean}");
    }

    #[test]
    fn injected_discord_scores_highest() {
        let model = fitted();
        // Same generator with a flat-line discord in the middle.
        let mut values: Vec<f64> = (0..160).map(|i| (i as f64 * 0.4).sin()).collect();
        for v in values.iter_mut().skip(80).take(14) {
            *v = 2.5;
        }
        let scores = anomaly_scores(model.best(), &values, 5).expect("long enough");
        let peak = tscore::stats::argmax(&scores).expect("non-empty");
        // The peak must fall inside (or right at the edges of) the
        // injected window, accounting for window length 20.
        assert!(
            (60..=96).contains(&peak),
            "discord at 80..94, peak found at {peak} (scores len {})",
            scores.len()
        );
        // And the discord region must outscore the clean region.
        let clean_mean = tscore::stats::mean(&scores[..40]);
        let discord_mean = tscore::stats::mean(&scores[70..90]);
        assert!(
            discord_mean > clean_mean + 0.1,
            "discord {discord_mean:.3} vs clean {clean_mean:.3}"
        );
    }

    #[test]
    fn transition_scores_bounds_and_lengths() {
        let model = fitted();
        let layer = model.best();
        let path = &layer.paths[0];
        let scores = transition_scores(&layer.graph, path);
        assert_eq!(scores.len(), path.len() - 1);
        assert!(scores.iter().all(|&s| (0.0..=1.0).contains(&s)));
        // Trivial paths.
        assert!(transition_scores(&layer.graph, &[]).is_empty());
        assert!(transition_scores(&layer.graph, &path[..1]).is_empty());
    }

    /// Each transition's rarity is `1 − w(a→b) / max(1, w_out(a))` with the
    /// maximum taken over `a`'s own out-weights, however often `a` recurs
    /// as a source along the path.
    #[test]
    fn transition_scores_match_the_definition() {
        let model = fitted();
        let layer = model.best();
        let graph = &layer.graph;
        let path: Vec<NodeId> = layer.paths.iter().flatten().copied().collect();
        let scores = transition_scores(graph, &path);
        for (w, &got) in path.windows(2).zip(&scores) {
            let want = if w[0] == w[1] {
                0.0
            } else {
                graph.weight_between(w[0], w[1]).map_or(1.0, |count| {
                    1.0 - count / graph.out_weights(w[0]).iter().copied().fold(1.0, f64::max)
                })
            };
            assert_eq!(got.to_bits(), want.to_bits(), "{w:?}");
        }
        assert!(scores.iter().any(|&s| s > 0.0 && s < 1.0));
    }

    #[test]
    fn self_transitions_score_zero() {
        let model = fitted();
        let layer = model.best();
        let n = layer.paths[0][0];
        let scores = transition_scores(&layer.graph, &[n, n, n]);
        assert_eq!(scores, vec![0.0, 0.0]);
    }

    #[test]
    fn short_series_is_too_short_error() {
        let model = fitted();
        match anomaly_scores(model.best(), &[1.0, 2.0], 3) {
            Err(TsError::TooShort { required, actual }) => {
                assert_eq!(required, model.best().length);
                assert_eq!(actual, 2);
            }
            other => panic!("expected TooShort, got {other:?}"),
        }
    }

    #[test]
    fn observed_transitions_lower_rarity() {
        let model = fitted();
        let layer = model.best();
        // A burst the model never saw: its transitions are absent from the
        // layer's graph, so they score 1.0. Scoring against a graph that has
        // seen those very transitions many times must lower the score.
        let mut values: Vec<f64> = (0..160).map(|i| (i as f64 * 0.4).sin()).collect();
        for v in values.iter_mut().skip(80).take(14) {
            *v = 2.5;
        }
        let before = anomaly_scores(layer, &values, 1).unwrap();
        let (path, gaps) = routed_gaps(&layer.embedding, &values, 0);
        assert_eq!(scores_from_route(&layer.graph, &path, &gaps, 1), before);
        let mut delta = tsgraph::DeltaGraph::new(layer.graph.node_count());
        let triples: Vec<_> = path
            .windows(2)
            .filter(|w| w[0] != w[1])
            .flat_map(|w| (0..50).map(move |_| (w[0], w[1], 1.0)))
            .collect();
        delta.ingest(triples, |a, w| *a += w);
        let seen = delta.compact(&layer.graph, |a, w| *a += w);
        let after = scores_from_route(&seen, &path, &gaps, 1);
        let mean_before = tscore::stats::mean(&before);
        let mean_after = tscore::stats::mean(&after);
        assert!(
            mean_after < mean_before,
            "observed transitions must lower rarity: {mean_after} vs {mean_before}"
        );
    }

    #[test]
    fn top_anomalies_respect_exclusion() {
        let scores = vec![0.1, 0.9, 0.85, 0.2, 0.8, 0.1];
        let picks = top_anomalies(&scores, 2, 1);
        assert_eq!(picks[0], 1);
        // Index 2 is within the exclusion zone of 1 → next is 4.
        assert_eq!(picks[1], 4);
        // Asking for more than available returns what fits.
        let picks_all = top_anomalies(&scores, 10, 2);
        assert!(picks_all.len() <= scores.len());
        assert!(top_anomalies(&[], 3, 1).is_empty());
    }
}
