//! `cluster_layer`'s exact integer k-Means against float `KMeans` on the
//! dense feature matrix, and the fit's consensus from label signatures
//! against spectral clustering on the dense consensus matrix. On this fit,
//! restarts of every layer reach one partition under different numbering,
//! so the labels also pin the restart choice. Run with
//! `cargo test --release -p kgraph -- --ignored`.

use clustering::kmeans::KMeans;
use kgraph::consensus::{consensus_labels, consensus_matrix};
use kgraph::features::feature_matrix;
use kgraph::{KGraph, KGraphConfig};

#[test]
#[ignore = "fits 3,000 series; run in release with --ignored"]
fn every_layer_and_the_consensus_match_their_dense_oracles_at_n_3000() {
    let cfg = KGraphConfig::new(3).with_seed(7);
    let kgraph = KGraph::new(cfg.clone());
    let layers = kgraph.fit_layers(&datasets::cbf::cbf(1000, 256, 7));
    assert_eq!(layers.len(), 5);
    for layer in &layers {
        let features = feature_matrix(layer, cfg.node_features, cfg.edge_features);
        let float = KMeans {
            k: cfg.k,
            max_iter: 100,
            n_init: cfg.n_init,
            seed: cfg.seed_for_length(layer.length),
        }
        .fit(&features);
        assert_eq!(layer.labels, float.labels, "length {}", layer.length);
    }
    let partitions: Vec<Vec<usize>> = layers.iter().map(|l| l.labels.clone()).collect();
    let dense = consensus_labels(&consensus_matrix(&partitions), cfg.k, cfg.seed);
    assert_eq!(kgraph.model_from_layers(layers).labels, dense);
}
