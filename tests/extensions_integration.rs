//! Integration tests for the extension features built on top of the
//! paper's scope: out-of-sample prediction, anomaly scoring, automatic k
//! selection and PageRank-based node exploration.

use clustering::metrics::adjusted_rand_index;
use graphint_repro::prelude::*;

fn quick(k: usize, seed: u64) -> KGraphConfig {
    KGraphConfig {
        n_lengths: 3,
        psi: 16,
        pca_sample: 600,
        n_init: 3,
        ..KGraphConfig::new(k).with_seed(seed)
    }
}

#[test]
fn train_test_split_prediction_generalises() {
    // Fit on one CBF sample, predict a fresh sample from the same
    // generators; predictions must align with the model's own structure.
    let train = graphint_repro::datasets::cbf::cbf(12, 128, 100);
    let test = graphint_repro::datasets::cbf::cbf(8, 128, 200);
    let model = KGraph::new(quick(3, 1)).fit(&train);
    let train_ari = adjusted_rand_index(train.labels().unwrap(), &model.labels);
    // Only meaningful when training succeeded at all.
    assert!(train_ari > 0.4, "training ARI {train_ari}");
    let predicted: Vec<usize> = test
        .series()
        .iter()
        .map(|s| model.predict(s.values()).expect("long enough"))
        .collect();
    let test_ari = adjusted_rand_index(test.labels().unwrap(), &predicted);
    assert!(
        test_ari > train_ari - 0.35,
        "out-of-sample ARI {test_ari:.3} collapsed vs in-sample {train_ari:.3}"
    );
}

#[test]
fn anomaly_scoring_on_benchmark_dataset() {
    // Fit on smooth chirp sweeps, inject a *shape* discord (high-frequency
    // sawtooth) into a fresh series. Note: a pure amplitude spike would be
    // z-normalised away by design — the embedding sees shapes, not gains.
    let ds = graphint_repro::datasets::shapes::chirp_like(12, 160, 7);
    let cfg = KGraphConfig {
        n_lengths: 1,
        psi: 16,
        ..KGraphConfig::new(3)
    }
    .with_lengths(vec![20]);
    let model = KGraph::new(cfg).fit(&ds);
    let mut fresh = ds.series()[0].values().to_vec();
    for (j, v) in fresh.iter_mut().skip(80).take(20).enumerate() {
        *v = if j % 2 == 0 { 1.5 } else { -1.5 };
    }
    let scores = graphint_repro::kgraph::anomaly::anomaly_scores(model.best(), &fresh, 5).unwrap();
    let top = graphint_repro::kgraph::anomaly::top_anomalies(&scores, 1, 10);
    assert_eq!(top.len(), 1);
    // Window length 20 ⇒ windows 60..100 overlap the injected 80..100 zone.
    assert!(
        (60..=100).contains(&top[0]),
        "discord at 80..100, top window {} (scores len {})",
        top[0],
        scores.len()
    );
}

#[test]
fn select_k_recovers_class_count_on_feature_space() {
    // Three well-separated CBF classes in the FeatTS feature space.
    let ds = graphint_repro::datasets::shapes::device_like(15, 96, 9);
    let mut feats: Vec<Vec<f64>> = ds
        .series()
        .iter()
        .map(|s| clustering::features::extract_features(s.values()))
        .collect();
    clustering::features::zscore_columns(&mut feats);
    let (candidates, best) = clustering::validation::select_k(&feats, 2..=6, 0);
    assert!(!candidates.is_empty());
    assert!(
        (2..=4).contains(&best),
        "expected ~3 clusters, chose {best}: {candidates:?}"
    );
}

#[test]
fn exploration_order_integrates_with_graph_frame() {
    let ds = graphint_repro::datasets::cbf::cbf(8, 96, 11);
    let model = KGraph::new(quick(3, 11)).fit(&ds);
    let frame = GraphFrame::with_auto_thresholds(&model);
    let order = frame.exploration_order();
    assert_eq!(order.len(), model.best().graph.node_count());
    // Permutation check.
    let mut sorted = order.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..order.len()).collect::<Vec<_>>());
    // The top node must be inspectable through the frame API.
    let detail = frame.node_detail(order[0]);
    assert!(detail.count > 0);
}

#[test]
fn validation_indices_agree_on_obvious_structure() {
    // Two far-apart waveform families in raw space.
    let mut rows = Vec::new();
    for c in 0..2 {
        for i in 0..15 {
            let base = c as f64 * 50.0;
            rows.push(vec![
                base + (i % 3) as f64 * 0.1,
                base - (i % 5) as f64 * 0.1,
                base * 0.5,
            ]);
        }
    }
    let truth: Vec<usize> = (0..30).map(|i| i / 15).collect();
    let noise: Vec<usize> = (0..30).map(|i| i % 2).collect();
    assert!(
        clustering::validation::calinski_harabasz(&rows, &truth)
            > clustering::validation::calinski_harabasz(&rows, &noise)
    );
    assert!(
        clustering::validation::davies_bouldin(&rows, &truth)
            < clustering::validation::davies_bouldin(&rows, &noise)
    );
}
