//! `StreamSession::check_append` decides every append: over random
//! sequences of appends, `append` succeeds exactly when the check passes,
//! and a refused append leaves the session as it was. A model keeps its
//! best layer alone, and an empty one is refused.

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

/// The fitted model with its served layer's graph emptied of nodes.
fn with_empty_layer() -> Arc<KGraphModel> {
    let model = fitted();
    let mut empty = model.best().clone();
    empty.graph = GraphBuilder::new().build(Vec::new(), |w: &mut f64, x| *w += x);
    Arc::new(KGraphModel::new(
        model.config.clone(),
        empty,
        model.partitions.clone(),
        model.labels.clone(),
        model.scores.clone(),
        model.best_layer,
    ))
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
        let model = if hollow == 0 { with_empty_layer() } else { fitted() };
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
