//! `StreamSession::check_append` decides every append: over random
//! sequences of appends, `append` succeeds exactly when the check passes,
//! and a refused append leaves the session as it was. A session streams
//! the best layer alone, so only an empty best layer is refused.

use kgraph::{KGraph, KGraphConfig, KGraphModel};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use streamfit::{StreamConfig, StreamSession};
use tscore::{Dataset, DatasetKind, TimeSeries};
use tsgraph::GraphBuilder;

fn fitted() -> Arc<KGraphModel> {
    static MODEL: OnceLock<Arc<KGraphModel>> = OnceLock::new();
    Arc::clone(MODEL.get_or_init(|| {
        let series: Vec<TimeSeries> = (0..8)
            .map(|p| TimeSeries::new((0..120).map(|i| ((i + p) as f64 * 0.4).sin()).collect()))
            .collect();
        let ds = Dataset::new("live", DatasetKind::Simulated, series);
        let cfg = KGraphConfig {
            n_lengths: 1,
            psi: 12,
            pca_sample: 400,
            n_init: 2,
            ..KGraphConfig::new(2)
        }
        .with_lengths(vec![16]);
        Arc::new(KGraph::new(cfg).fit(&ds))
    }))
}

/// The fitted model with a second layer whose graph has no nodes, which is
/// the best layer when `best_layer` is 1.
fn with_empty_layer(best_layer: usize) -> Arc<KGraphModel> {
    let model = fitted();
    let mut empty = model.layers[0].clone();
    empty.graph = GraphBuilder::new().build(Vec::new(), |w: &mut f64, x| *w += x);
    Arc::new(KGraphModel::new(
        model.config.clone(),
        vec![model.layers[0].clone(), empty],
        model.labels.clone(),
        model.scores.clone(),
        best_layer,
    ))
}

#[test]
fn an_empty_layer_that_is_not_the_best_is_streamed_past() {
    let cfg = StreamConfig {
        refresh_every: 24,
        compact_every: 1,
    };
    let mut session = StreamSession::new(with_empty_layer(0), cfg);
    let points: Vec<f64> = (0..60).map(|i| (i as f64 * 0.3).sin()).collect();
    session.check_append(0).unwrap();
    let out = session.append(0, &points).unwrap();
    assert!(out.refreshed && out.new_windows > 0);
    assert!(session.scores(0).is_some());
    let next = out.compacted.expect("the best layer's delta compacts");
    assert_eq!(
        next.layers[1].graph.node_count(),
        0,
        "carried over as it was"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn check_append_decides_append(
        (hollow, ops) in (
            0u32..4,
            proptest::collection::vec((0usize..4, 1usize..30), 1..16),
        )
    ) {
        // One case in four runs over a model whose best layer is empty.
        let model = if hollow == 0 { with_empty_layer(1) } else { fitted() };
        let cfg = StreamConfig { refresh_every: 24, compact_every: 2 };
        let mut session = StreamSession::new(model, cfg);
        for (step, &(index, n)) in ops.iter().enumerate() {
            let points: Vec<f64> = (0..n).map(|i| ((step * 31 + i) as f64 * 0.4).sin()).collect();
            let before = format!("{:?}", session.status());
            let checked = session.check_append(index);
            let appended = session.append(index, &points);
            prop_assert_eq!(
                checked.is_ok(),
                appended.is_ok(),
                "step {}: check {:?}, append {:?}",
                step,
                checked,
                appended.as_ref().err()
            );
            if let Err(e) = appended {
                prop_assert_eq!(Some(e), checked.err(), "step {}: the same refusal", step);
                prop_assert_eq!(format!("{:?}", session.status()), before, "step {}", step);
            }
        }
    }
}
