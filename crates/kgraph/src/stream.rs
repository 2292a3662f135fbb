//! Streaming entry points: windowed re-extraction and delta-aware scoring.
//!
//! A fitted [`GraphLayer`] is frozen — its CSR graph, paths and embedding
//! never change. When a monitored series receives new points, refitting
//! from scratch would cost seconds; instead the streaming layer
//!
//! 1. routes **only the windows the append created** through the stored
//!    embedding ([`extend_path`], built on
//!    [`GraphLayer::assign_path_from`]),
//! 2. turns the fresh sub-path into transition triples (including the
//!    *bridge* transition from the last previously-known node into the
//!    first new one) destined for a [`DeltaGraph`] kept next to the frozen
//!    base,
//! 3. scores series against the **merged base+delta view**
//!    ([`anomaly_scores_delta`]) without compacting — a 2-way merge per
//!    lookup, no locks, bit-identical to [`anomaly_scores`] when the delta
//!    is empty.
//!
//! The owning session type lives in the `streamfit` crate; this module is
//! the model-side arithmetic it builds on.
//!
//! [`anomaly_scores`]: crate::anomaly::anomaly_scores

use crate::anomaly::{blend_and_smooth, routed_gaps, transition_scores_with};
use crate::build::GraphLayer;
use tscore::error::TsError;
use tsgraph::delta::{DeltaGraph, DeltaView};
use tsgraph::NodeId;

/// Number of windows of length `window` at stride `stride` that fit in a
/// series of `series_len` points (0 when the series is shorter than one
/// window).
pub fn n_windows(series_len: usize, window: usize, stride: usize) -> usize {
    if series_len < window || window == 0 {
        0
    } else {
        (series_len - window) / stride.max(1) + 1
    }
}

/// What one append contributed to a layer: the nodes of the newly created
/// windows and the transition triples they induced.
#[derive(Debug, Clone, Default)]
pub struct WindowDelta {
    /// Node per new window, in temporal order (appends to the stored path).
    pub new_nodes: Vec<NodeId>,
    /// Transition triples for the delta graph: the bridge from the last
    /// old node plus consecutive new-window transitions, self-loops
    /// omitted (matching fit-time extraction).
    pub triples: Vec<(NodeId, NodeId, f64)>,
}

/// Routes the windows of `values` starting at index `old_windows` through
/// `layer`'s stored embedding and derives their transition triples.
/// `last_old` is the node of window `old_windows − 1` (None when the
/// series had no complete window yet) — it anchors the bridge transition.
///
/// Returns an empty delta when the append completed no new window. Errors
/// with [`TsError::Degenerate`] when the layer's graph has no nodes.
pub fn extend_path(
    layer: &GraphLayer,
    values: &[f64],
    old_windows: usize,
    last_old: Option<NodeId>,
) -> Result<WindowDelta, TsError> {
    if layer.graph.node_count() == 0 {
        return Err(TsError::Degenerate(
            "graph layer has no nodes; cannot route series".into(),
        ));
    }
    if values.len() < layer.length {
        return Ok(WindowDelta::default());
    }
    let new_nodes = layer
        .assign_path_from(values, old_windows)
        .expect("preconditions checked above");
    let mut triples = Vec::new();
    let mut prev = last_old;
    for &node in &new_nodes {
        if let Some(p) = prev {
            if p != node {
                triples.push((p, node, 1.0));
            }
        }
        prev = Some(node);
    }
    Ok(WindowDelta { new_nodes, triples })
}

/// [`anomaly_scores`](crate::anomaly::anomaly_scores) against the merged
/// base+delta transition view: transition rarity reads counts and modal
/// weights through a [`DeltaView`] (2-way merge per node), the embedding
/// gap term is unchanged (the embedding is frozen). With an empty delta
/// the output is bit-identical to the batch scorer.
///
/// # Errors
///
/// Same contract as the batch scorer: [`TsError::TooShort`] when the
/// series is shorter than one window, [`TsError::Degenerate`] when the
/// layer's graph has no nodes.
pub fn anomaly_scores_delta(
    layer: &GraphLayer,
    delta: &DeltaGraph<f64>,
    values: &[f64],
    context: usize,
) -> Result<Vec<f64>, TsError> {
    if layer.graph.node_count() == 0 {
        return Err(TsError::Degenerate(
            "graph layer has no nodes; cannot route series".into(),
        ));
    }
    if values.len() < layer.length {
        return Err(TsError::TooShort {
            required: layer.length,
            actual: values.len(),
        });
    }
    let sum = |acc: &mut f64, w: f64| *acc += w;
    let view = DeltaView::new(&layer.graph, delta);
    let (path, gaps) = routed_gaps(layer, values).expect("preconditions checked above");
    let trans = transition_scores_with(
        &path,
        |a, b| view.weight_between(a, b, sum),
        |a| {
            let mut modal = 1.0f64;
            view.for_each_out(a, sum, |_, w| modal = modal.max(w));
            modal
        },
    );
    Ok(blend_and_smooth(&trans, &gaps, context))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anomaly::anomaly_scores;
    use crate::config::KGraphConfig;
    use crate::pipeline::KGraph;
    use tscore::{Dataset, DatasetKind, TimeSeries};

    fn fitted() -> crate::pipeline::KGraphModel {
        let series: Vec<TimeSeries> = (0..8)
            .map(|p| TimeSeries::new((0..160).map(|i| ((i + p) as f64 * 0.4).sin()).collect()))
            .collect();
        let ds = Dataset::new("clean", DatasetKind::Simulated, series);
        let cfg = KGraphConfig {
            n_lengths: 1,
            psi: 16,
            pca_sample: 600,
            n_init: 2,
            ..KGraphConfig::new(1)
        }
        .with_lengths(vec![20]);
        KGraph::new(cfg).fit(&ds)
    }

    #[test]
    fn n_windows_matches_assign_path() {
        let model = fitted();
        let layer = model.best();
        for len in [0, 5, 19, 20, 21, 80, 160] {
            let values: Vec<f64> = (0..len).map(|i| (i as f64 * 0.4).sin()).collect();
            let expect = layer.assign_path(&values).map_or(0, |p| p.len());
            assert_eq!(
                n_windows(len, layer.length, layer.embedding.stride),
                expect,
                "len {len}"
            );
        }
    }

    #[test]
    fn extend_path_is_suffix_of_full_path() {
        let model = fitted();
        let layer = model.best();
        let full: Vec<f64> = (0..160).map(|i| (i as f64 * 0.4).sin()).collect();
        let old = &full[..100];
        let old_path = layer.assign_path(old).unwrap();
        let delta = extend_path(layer, &full, old_path.len(), old_path.last().copied()).unwrap();
        let full_path = layer.assign_path(&full).unwrap();
        assert_eq!(
            full_path[..old_path.len()],
            old_path[..],
            "prefix windows unchanged by append"
        );
        assert_eq!(delta.new_nodes, full_path[old_path.len()..]);
        // Triples: one per non-self transition across the appended suffix,
        // bridge included.
        let expected: usize = full_path[old_path.len() - 1..]
            .windows(2)
            .filter(|w| w[0] != w[1])
            .count();
        assert_eq!(delta.triples.len(), expected);
    }

    #[test]
    fn extend_path_without_new_windows_is_empty() {
        let model = fitted();
        let layer = model.best();
        let short: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let d = extend_path(layer, &short, 0, None).unwrap();
        assert!(d.new_nodes.is_empty());
        assert!(d.triples.is_empty());
    }

    #[test]
    fn empty_delta_scores_bit_identical_to_batch() {
        let model = fitted();
        let layer = model.best();
        let delta = DeltaGraph::new(layer.graph.node_count());
        let fresh: Vec<f64> = (0..160).map(|i| ((i + 3) as f64 * 0.4).sin()).collect();
        let batch = anomaly_scores(layer, &fresh, 5).unwrap();
        let streamed = anomaly_scores_delta(layer, &delta, &fresh, 5).unwrap();
        assert_eq!(batch, streamed, "empty delta must change nothing");
    }

    #[test]
    fn delta_transitions_lower_unseen_transition_scores() {
        let model = fitted();
        let layer = model.best();
        // A burst the model never saw: its transitions are absent from the
        // base graph, so the batch scorer rates them 1.0. Ingesting those
        // very transitions into the delta must lower the score.
        let mut values: Vec<f64> = (0..160).map(|i| (i as f64 * 0.4).sin()).collect();
        for v in values.iter_mut().skip(80).take(14) {
            *v = 2.5;
        }
        let before = anomaly_scores_delta(
            layer,
            &DeltaGraph::new(layer.graph.node_count()),
            &values,
            1,
        )
        .unwrap();
        let path = layer.assign_path(&values).unwrap();
        let mut delta = DeltaGraph::new(layer.graph.node_count());
        let triples: Vec<_> = path
            .windows(2)
            .filter(|w| w[0] != w[1])
            // Heavy repetition: make these transitions *common*.
            .flat_map(|w| {
                let (a, b) = (w[0], w[1]);
                (0..50).map(move |_| (a, b, 1.0))
            })
            .collect();
        delta.ingest(triples, |a, w| *a += w);
        let after = anomaly_scores_delta(layer, &delta, &values, 1).unwrap();
        let mean_before = tscore::stats::mean(&before);
        let mean_after = tscore::stats::mean(&after);
        assert!(
            mean_after < mean_before,
            "ingesting observed transitions must lower rarity: {mean_after} vs {mean_before}"
        );
    }
}
