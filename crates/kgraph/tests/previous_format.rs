//! `KGM4` against the previous model format, `KGM3`, on real fits.
//!
//! `KGM4` is `KGM3` without each node payload's sector and radius (16
//! bytes a node, which the layer embedding also stores) and without the
//! byte of the retired `parallel` flag. So on every fixture a `KGM4` file
//! is exactly `16 · nodes + 1` bytes shorter than the same model in
//! `KGM3`, and a `KGM3` file loads to a model that re-encodes to exactly
//! the `KGM4` bytes.
//!
//! The fixtures are the two perfbench training sets (`explore_1k` and
//! `ingest_durable`) and every fit of `tests/pipeline_integration.rs`.
//! The `KGM3` bytes of the two perfbench sets are pinned to what
//! `write_model` wrote while `KGM3` was the current format, so the test
//! writer [`kgm3`] is that encoder, byte for byte.

#[path = "support/kgm3.rs"]
mod kgm3;

use datasets::{cbf::cbf, shapes, two_patterns::two_patterns};
use kgm3::kgm3;
use kgraph::serial::{read_model, write_model};
use kgraph::{KGraph, KGraphConfig, KGraphModel};
use tscore::{Dataset, DatasetKind, TimeSeries};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Checks the byte accounting on `model` and returns (`KGM3` length and
/// FNV-1a, `KGM4` length).
fn accounting(what: &str, model: &KGraphModel) -> ((usize, u64), usize) {
    let old = kgm3(model);
    let new = write_model(model);
    let nodes: usize = model.layers.iter().map(|l| l.graph.node_count()).sum();
    assert_eq!(new.len(), old.len() - 16 * nodes - 1, "{what}: KGM4 length");
    let loaded = read_model(&old).unwrap_or_else(|e| panic!("{what}: KGM3 loads: {e}"));
    assert!(
        write_model(&loaded) == new,
        "{what}: KGM3 re-encodes to the KGM4 bytes"
    );
    ((old.len(), fnv1a(&old)), new.len())
}

/// The configuration a `PUT /models/{name}?k=&n_lengths=&seed=` fits.
fn put_config(k: usize, n_lengths: usize, seed: u64) -> KGraphConfig {
    KGraphConfig {
        n_lengths,
        ..KGraphConfig::new(k)
    }
    .with_seed(seed)
}

#[test]
fn the_perfbench_sets_drop_sixteen_bytes_a_node_and_one() {
    // `explore_1k` fits 334 CBF series per class, `ingest_durable` 100;
    // both with k 3, 5 lengths, seed 7.
    for (what, per_class, kgm3_pin, kgm4_len) in [
        (
            "explore_1k",
            334,
            (1_044_199, 0xa63a_ebc3_ede7_6726),
            1_040_326,
        ),
        (
            "ingest_durable",
            100,
            (477_445, 0x8952_2df0_183d_a631),
            473_476,
        ),
    ] {
        let model = KGraph::new(put_config(3, 5, 7)).fit(&cbf(per_class, 256, 7));
        let (old, new) = accounting(what, &model);
        assert_eq!(old, kgm3_pin, "{what}: the KGM3 bytes");
        assert_eq!(new, kgm4_len, "{what}: the KGM4 length");
    }
}

#[test]
fn every_pipeline_integration_fit_drops_sixteen_bytes_a_node_and_one() {
    let quick = |k: usize, seed: u64| KGraphConfig {
        n_lengths: 3,
        psi: 16,
        pca_sample: 600,
        n_init: 3,
        ..KGraphConfig::new(k).with_seed(seed)
    };
    let mut varlen = Vec::new();
    let mut labels = Vec::new();
    for (label, f) in [0.2f64, 0.9].into_iter().enumerate() {
        for p in 0..5 {
            varlen.push(TimeSeries::new(
                (0..70 + p * 5)
                    .map(|i| ((i + p) as f64 * f).sin())
                    .collect(),
            ));
            labels.push(label);
        }
    }
    let varlen = Dataset::with_labels("varlen", DatasetKind::Other, varlen, labels).unwrap();
    for (what, ds, k, seed) in [
        ("cbf", cbf(12, 128, 1), 3, 1),
        ("trace_like", shapes::trace_like(10, 120, 2), 4, 2),
        ("device_like", shapes::device_like(12, 96, 3), 3, 3),
        ("motif positions", shapes::trace_like(12, 120, 4), 4, 4),
        ("invariants cbf", cbf(6, 64, 5), 3, 5),
        ("invariants two_patterns", two_patterns(5, 64, 5), 4, 5),
        (
            "invariants spectro_like",
            shapes::spectro_like(6, 100, 5),
            4,
            5,
        ),
        ("graphoid exclusivity", cbf(8, 96, 6), 3, 6),
        ("variable length", varlen, 2, 7),
    ] {
        accounting(what, &KGraph::new(quick(k, seed)).fit(&ds));
    }
}
