//! `KGM5` against the previous model format, `KGM4`, on real fits.
//!
//! `KGM4` stored every length's layer in full; `KGM5` stores every
//! length's partition once and the one layer the model serves, ℓ̄. So a
//! `KGM4` file loads to a model that re-encodes to exactly the `KGM5`
//! bytes `write_model` writes for the same fit.
//!
//! The fixtures are the two perfbench training sets (`explore_1k` and
//! `ingest_durable`), the k-Graph fit that
//! `clustering/tests/pinned_partitions.rs` pins, and every fit of
//! `tests/pipeline_integration.rs`. The `KGM4` bytes of the first three
//! are pinned to what `write_model` wrote while `KGM4` was the current
//! format, so the test writer [`kgm4`] is that encoder, byte for byte.

#[path = "support/kgm4.rs"]
mod kgm4;

use datasets::{cbf::cbf, shapes, two_patterns::two_patterns};
use kgm4::kgm4;
use kgraph::serial::{model_approx_bytes, read_model, write_model};
use kgraph::{KGraph, KGraphConfig, KGraphModel};
use tscore::{Dataset, DatasetKind, TimeSeries};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Fits `ds` under `cfg`, checks that its `KGM4` file re-encodes to its
/// `KGM5` bytes and returns the model with (`KGM4` length and FNV-1a,
/// `KGM5` length).
fn accounting(what: &str, cfg: KGraphConfig, ds: &Dataset) -> (KGraphModel, (usize, u64), usize) {
    let kgraph = KGraph::new(cfg);
    let layers = kgraph.fit_layers(ds);
    let model = kgraph.model_from_layers(layers.clone());
    let old = kgm4(&model, &layers);
    let new = write_model(&model);
    let loaded = read_model(&old).unwrap_or_else(|e| panic!("{what}: KGM4 loads: {e}"));
    assert!(
        write_model(&loaded) == new,
        "{what}: KGM4 re-encodes to the KGM5 bytes"
    );
    assert_eq!(loaded.partitions, model.partitions, "{what}: partitions");
    assert_eq!(loaded.best().labels, layers[model.best_layer].labels);
    (model, (old.len(), fnv1a(&old)), new.len())
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
fn the_perfbench_sets_and_the_pinned_fit_load_from_their_kgm4_bytes() {
    // `explore_1k` fits 334 CBF series per class, `ingest_durable` 100;
    // both with k 3, 5 lengths, seed 7.
    for (what, ds, cfg, kgm4_pin, kgm5_len, approx) in [
        (
            "explore_1k",
            cbf(334, 256, 7),
            put_config(3, 5, 7),
            (1_040_326, 0x9959_1ab6_4a1b_026d),
            213_268,
            855_260,
        ),
        (
            "ingest_durable",
            cbf(100, 256, 7),
            put_config(3, 5, 7),
            (473_476, 0xac3b_b095_e7ad_2e41),
            98_756,
            289_844,
        ),
        (
            "pinned_partitions",
            cbf(100, 128, 3),
            KGraphConfig::new(3).with_seed(3),
            (333_096, 0xfe5d_b57b_7d6b_75aa),
            68_198,
            152_496,
        ),
    ] {
        let (model, old, new) = accounting(what, cfg, &ds);
        assert_eq!(old, kgm4_pin, "{what}: the KGM4 bytes");
        assert_eq!(new, kgm5_len, "{what}: the KGM5 length");
        assert_eq!(model_approx_bytes(&model), approx, "{what}: approx bytes");
    }
}

#[test]
fn every_pipeline_integration_fit_loads_from_its_kgm4_bytes() {
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
        accounting(what, quick(k, seed), &ds);
    }
}
