//! Streaming entry point: windowed re-extraction.
//!
//! A fitted [`GraphLayer`] is frozen — its CSR graph, paths and embedding
//! never change. When a monitored series receives new points, refitting
//! from scratch would cost seconds; instead the streaming layer routes
//! **only the windows the append created** through the stored embedding
//! ([`extend_path`], built on [`routed_gaps`]) and turns the fresh
//! sub-path into transition triples (including the *bridge* transition
//! from the last previously-known node into the first new one) destined
//! for a [`DeltaGraph`](tsgraph::DeltaGraph) kept next to the frozen base.
//!
//! Scoring streams too. A window's node and embedding gap depend only on
//! its own values and the fixed embedding, so the route [`extend_path`]
//! returns, appended window by window, equals the route of the whole
//! series. A session keeps it and rescores with
//! [`scores_from_route`](crate::anomaly::scores_from_route) against the
//! base compacted with its delta, which gives the scores of routing the
//! whole series afresh ([`routed_gaps`]) and scoring that route against
//! the same graph, without re-routing any window. The owning session type lives in
//! the `streamfit` crate; this module is the model-side arithmetic it
//! builds on.

use crate::anomaly::routed_gaps;
use crate::build::GraphLayer;
use tscore::error::TsError;
use tsgraph::NodeId;

/// What one append contributed to a layer: the route of the newly created
/// windows and the transition triples they induced.
#[derive(Debug, Clone, Default)]
pub struct WindowDelta {
    /// Node per new window, in temporal order (appends to the stored path).
    pub new_nodes: Vec<NodeId>,
    /// Embedding gap per new window
    /// ([`window_gap`](crate::anomaly::window_gap)), aligned with
    /// `new_nodes`.
    pub new_gaps: Vec<f64>,
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
    layer.check_routable()?;
    let (new_nodes, new_gaps) = routed_gaps(&layer.embedding, values, old_windows);
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
    Ok(WindowDelta {
        new_nodes,
        new_gaps,
        triples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KGraphConfig;
    use crate::pipeline::KGraph;
    use tscore::windows::window_count;
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
    fn window_count_matches_assign_path() {
        let model = fitted();
        let layer = model.best();
        for len in [0, 5, 19, 20, 21, 80, 160] {
            let values: Vec<f64> = (0..len).map(|i| (i as f64 * 0.4).sin()).collect();
            let expect = layer.assign_path(&values).map_or(0, |p| p.len());
            assert_eq!(
                window_count(len, layer.length, layer.embedding.stride),
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

    /// A route grown chunk by chunk, chunks shorter than a window
    /// included, is the full series' route, and scoring it gives the batch
    /// scorer's scores bit for bit.
    #[test]
    fn a_chunked_route_scores_like_the_batch_scorer() {
        use crate::anomaly::{anomaly_scores, routed_gaps, scores_from_route};
        let model = fitted();
        let layer = model.best();
        let full: Vec<f64> = (0..200).map(|i| (i as f64 * 0.37).sin()).collect();
        let (mut path, mut gaps) = (Vec::new(), Vec::new());
        let mut end = 0;
        for chunk in [3usize, 19, 1, 7, 40, 11, 2].iter().cycle() {
            if end == full.len() {
                break;
            }
            end = (end + chunk).min(full.len());
            let d = extend_path(layer, &full[..end], path.len(), path.last().copied()).unwrap();
            assert_eq!(d.new_nodes.len(), d.new_gaps.len());
            path.extend_from_slice(&d.new_nodes);
            gaps.extend_from_slice(&d.new_gaps);
        }
        let (want_path, want_gaps) = routed_gaps(&layer.embedding, &full, 0);
        assert_eq!(path, want_path);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&gaps), bits(&want_gaps));
        for context in [1, 3, 5] {
            let got = scores_from_route(&layer.graph, &path, &gaps, context);
            let want = anomaly_scores(layer, &full, context).unwrap();
            assert_eq!(bits(&got), bits(&want), "context {context}");
        }
    }

    #[test]
    fn extend_path_without_new_windows_is_empty() {
        let model = fitted();
        let layer = model.best();
        let short: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let d = extend_path(layer, &short, 0, None).unwrap();
        assert!(d.new_nodes.is_empty());
        assert!(d.new_gaps.is_empty());
        assert!(d.triples.is_empty());
    }
}
