//! Pins the exact partitions of every baseline and of one k-Graph fit.
//!
//! Each partition is reduced to the 64-bit FNV-1a hash of its labels (one
//! little-endian `u64` per label); the k-Graph model also pins the length
//! and hash of its `write_model` bytes (`KGM5`, the served layer and
//! every partition, which replaced the `KGM4` pin of 333,096 B; that
//! replaced a `KGM3` pin, and that a `KGM2` pin; each held for the same
//! fit, and `kgraph/tests/previous_format.rs` still checks the `KGM4`
//! pin). The expected values were recorded from
//! the hand-rolled distance and dot-product loops that
//! `tscore::kernel::{sq_dist, dot}` replaced, so any change to how a
//! distance is summed that moves a single label or model byte fails here.

use clustering::method::{ClusteringMethod, MethodKind};
use datasets::cbf::cbf;
use kgraph::serial::write_model;
use kgraph::KGraph;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn labels_hash(labels: &[usize]) -> u64 {
    let bytes: Vec<u8> = labels
        .iter()
        .flat_map(|&l| (l as u64).to_le_bytes())
        .collect();
    fnv1a(&bytes)
}

/// `(name, hash)` of every baseline's partition of `cbf(per_class, 128,
/// seed)` with k = 3 and the dataset's seed.
fn baseline_hashes(per_class: usize, seed: u64) -> Vec<(&'static str, u64)> {
    let ds = cbf(per_class, 128, seed);
    MethodKind::all_baselines()
        .into_iter()
        .map(|kind| {
            let labels = ClusteringMethod::new(kind, 3, seed).run(&ds);
            (kind.name(), labels_hash(&labels))
        })
        .collect()
}

#[test]
fn baselines_on_cbf_12_are_pinned() {
    let expected = vec![
        ("k-Means", 0xb04677333ac6c985),
        ("k-Means-z", 0x320477c1579cbb26),
        ("k-Shape", 0xcb2cf8848e1809e6),
        ("k-SC", 0xa159127fe03807e6),
        ("k-DBA", 0x750be44fddc03be5),
        ("Spectral", 0x2c88aa3759f9a2c7),
        ("Agglo-Ward", 0xb948e022fb55bb65),
        ("Agglo-Compl", 0xfd6cec22970c6725),
        ("DBSCAN", 0x66e368127e9e89a5),
        ("GMM", 0x71a554b5f8977764),
        ("BIRCH", 0xfd6cec22970c6725),
        ("MeanShift", 0x66e368127e9e89a5),
        ("FeatTS", 0x94dcc1205e430164),
        ("Time2Feat", 0x94dcc1205e430164),
        ("DAE", 0xf88a8a3e438545e7),
        ("DTC", 0xf88a8a3e438545e7),
    ];
    assert_eq!(baseline_hashes(12, 1), expected);
}

#[test]
fn baselines_on_cbf_40_are_pinned() {
    let expected = vec![
        ("k-Means", 0xb6c213c9ffab1e06),
        ("k-Means-z", 0x18cc45d8e4818c66),
        ("k-Shape", 0x415fade3dcfa08e4),
        ("k-SC", 0xf2039dd6c0ab56a4),
        ("k-DBA", 0x7e98e2afbe967386),
        ("Spectral", 0xc0de4e276d4f1ba5),
        ("Agglo-Ward", 0x830fc421146df406),
        ("Agglo-Compl", 0x1e48d9187caf6905),
        ("DBSCAN", 0xc42a06f7e7a28e25),
        ("GMM", 0xeb31374dc3b1ff04),
        ("BIRCH", 0xb3762bc7cba98087),
        ("MeanShift", 0xc42a06f7e7a28e25),
        ("FeatTS", 0x9db53eda551272a6),
        ("Time2Feat", 0x4e0a0d38e1ad1586),
        ("DAE", 0xbf539a13c565a6a6),
        ("DTC", 0x9699b634cd17a487),
    ];
    assert_eq!(baseline_hashes(40, 2), expected);
}

#[test]
fn kgraph_fit_on_cbf_100_is_pinned() {
    let model = KGraph::with_k(3, 3).fit(&cbf(100, 128, 3));
    let bytes = write_model(&model);
    assert_eq!(
        (labels_hash(&model.labels), bytes.len(), fnv1a(&bytes)),
        (0x5428b05135b6d645, 68_198, 0x59b064b412ec7685)
    );
}
