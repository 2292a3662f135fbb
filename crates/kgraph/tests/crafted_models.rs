//! Model files whose checksum verifies but whose first request would
//! panic are refused on load, in `KGM5` and in `KGM4`.
//!
//! Each test edits one field of a small three-length fit, writes the model
//! in both formats (each sealed with a fresh CRC-32 trailer, so the check
//! under test is the one that fires) and asserts that [`read_model`]
//! refuses both with a [`TsError::Parse`] naming the field.

#[path = "support/kgm4.rs"]
mod kgm4;

use kgm4::kgm4;
use kgraph::serial::{read_model, write_model};
use kgraph::{GraphLayer, KGraph, KGraphConfig, KGraphModel};
use tscore::error::TsError;

/// A three-length fit of 12 CBF series: its layers and its model.
fn fitted() -> (Vec<GraphLayer>, KGraphModel) {
    let kgraph = KGraph::new(KGraphConfig {
        n_lengths: 3,
        psi: 8,
        pca_sample: 200,
        n_init: 1,
        ..KGraphConfig::new(3).with_seed(1)
    });
    let layers = kgraph.fit_layers(&datasets::cbf::cbf(4, 64, 1));
    let model = kgraph.model_from_layers(layers.clone());
    (layers, model)
}

/// An index of a length other than ℓ̄.
fn other_than_best(model: &KGraphModel) -> usize {
    (model.best_layer + 1) % model.scores.len()
}

/// Asserts that `model`, written as `KGM5` and (with `layers`) as `KGM4`,
/// is refused in both with a parse error that contains `field`.
fn refused(model: &KGraphModel, layers: &[GraphLayer], field: &str) {
    for (format, bytes) in [("KGM5", write_model(model)), ("KGM4", kgm4(model, layers))] {
        match read_model(&bytes) {
            Err(TsError::Parse(msg)) => assert!(msg.contains(field), "{format}: {msg}"),
            other => panic!("{format}: must be refused naming {field:?}, got {other:?}"),
        }
    }
}

#[test]
fn the_intact_fit_loads_from_both_formats() {
    let (layers, model) = fitted();
    assert_eq!(model.scores.len(), 3);
    for bytes in [write_model(&model), kgm4(&model, &layers)] {
        let loaded = read_model(&bytes).expect("an intact model loads");
        assert_eq!(write_model(&loaded), write_model(&model));
    }
}

#[test]
fn k_zero_is_refused() {
    let (layers, mut model) = fitted();
    model.config.k = 0;
    refused(&model, &layers, "config field k is 0");
}

#[test]
fn a_final_label_at_k_is_refused() {
    let (layers, mut model) = fitted();
    model.labels[5] = model.config.k;
    refused(&model, &layers, "final label 3 out of range for k 3");
}

#[test]
fn a_final_label_count_other_than_the_path_count_is_refused() {
    let (layers, mut model) = fitted();
    model.labels.push(0);
    refused(&model, &layers, "13 final labels for 12 served paths");
}

#[test]
fn a_partition_count_other_than_the_score_count_is_refused() {
    let (mut layers, mut model) = fitted();
    let extra = other_than_best(&model);
    model.partitions.push(model.partitions[extra].clone());
    layers.push(layers[extra].clone());
    refused(&model, &layers, "4 partitions, 3 scores");
}

#[test]
fn a_partition_of_another_length_is_refused() {
    let (mut layers, mut model) = fitted();
    let i = other_than_best(&model);
    model.partitions[i].pop();
    layers[i].labels.pop();
    refused(&model, &layers, "a partition's length is not 12");
}

#[test]
fn both_feature_families_off_are_refused() {
    let (layers, mut model) = fitted();
    model.config.node_features = false;
    model.config.edge_features = false;
    refused(
        &model,
        &layers,
        "node_features and edge_features are both off",
    );
}
