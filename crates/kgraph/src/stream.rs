//! Streaming entry point: windowed re-extraction.
//!
//! A fitted [`GraphLayer`] is frozen — its CSR graph, paths and embedding
//! never change. When a monitored series receives new points, refitting
//! from scratch would cost seconds; instead the streaming layer routes
//! **only the windows the append created** through the stored embedding
//! ([`extend_path`], built on [`GraphLayer::assign_path_from`]) and turns
//! the fresh sub-path into transition triples (including the *bridge*
//! transition from the last previously-known node into the first new one)
//! destined for a [`DeltaGraph`](tsgraph::DeltaGraph) kept next to the
//! frozen base.
//!
//! Scoring has no streaming variant: a session compacts the base and its
//! delta into a temporary graph and scores against it with the batch
//! scorer, [`anomaly_scores_against`](crate::anomaly::anomaly_scores_against).
//! The owning session type lives in the `streamfit` crate; this module is
//! the model-side arithmetic it builds on.

use crate::build::GraphLayer;
use tscore::error::TsError;
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

#[cfg(test)]
mod tests {
    use super::*;
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
}
