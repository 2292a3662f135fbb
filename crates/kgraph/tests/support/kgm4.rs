//! A writer of the previous model file layout, `KGM4`, for tests that
//! check it still loads. Include it with
//! `#[path = "<relative path>/kgraph/tests/support/kgm4.rs"] mod kgm4;`.

use kgraph::serial::{put_f64, put_f64s, put_triples, put_u64, put_u64s, put_varint, seal};
use kgraph::{GraphLayer, KGraphModel};

/// `model` in the `KGM4` layout, with `layers` (every length's layer, as
/// `KGraph::fit_layers` returns them) in place of `KGM5`'s partition list
/// and one layer. Each layer is stored in full, its partition between its
/// paths and its embedding.
pub fn kgm4(model: &KGraphModel, layers: &[GraphLayer]) -> Vec<u8> {
    let mut out = b"KGM4".to_vec();
    let cfg = &model.config;
    put_u64(&mut out, cfg.k as u64);
    put_u64s(&mut out, cfg.lengths.iter().map(|&l| l as u64));
    put_u64(&mut out, cfg.n_lengths as u64);
    put_f64(&mut out, cfg.length_fraction_range.0);
    put_f64(&mut out, cfg.length_fraction_range.1);
    for v in [cfg.psi, cfg.kde_grid] {
        put_u64(&mut out, v as u64);
    }
    put_f64(&mut out, cfg.min_density_ratio);
    for v in [cfg.stride, cfg.pca_sample, cfg.n_init] {
        put_u64(&mut out, v as u64);
    }
    out.extend([cfg.edge_features as u8, cfg.node_features as u8]);
    put_u64(&mut out, cfg.seed);
    put_u64s(&mut out, model.labels.iter().map(|&l| l as u64));
    put_u64(&mut out, model.scores.len() as u64);
    for s in &model.scores {
        put_u64(&mut out, s.length as u64);
        put_f64(&mut out, s.wc);
        put_f64(&mut out, s.we);
    }
    put_u64(&mut out, model.best_layer as u64);
    put_u64(&mut out, layers.len() as u64);
    for layer in layers {
        put_u64(&mut out, layer.length as u64);
        put_u64(&mut out, layer.graph.node_count() as u64);
        for (_, p) in layer.graph.nodes_iter() {
            put_u64(&mut out, p.count as u64);
            put_f64s(&mut out, &p.pattern);
        }
        put_triples(
            &mut out,
            layer.graph.edges_iter().map(|(_, s, t, &w)| (s, t, w)),
        );
        // Each path as its window count, then one (node, run length)
        // varint pair per run of one node.
        put_varint(&mut out, layer.paths.len() as u64);
        for path in &layer.paths {
            put_varint(&mut out, path.len() as u64);
            for run in path.chunk_by(|a, b| a == b) {
                put_varint(&mut out, u64::from(run[0].0));
                put_varint(&mut out, run.len() as u64);
            }
        }
        put_u64s(&mut out, layer.labels.iter().map(|&l| l as u64));
        let emb = &layer.embedding;
        put_f64s(&mut out, emb.pca.mean());
        let components = emb.pca.components();
        put_u64(&mut out, components.rows() as u64);
        put_u64(&mut out, components.cols() as u64);
        for &v in components.as_slice() {
            put_f64(&mut out, v);
        }
        put_f64s(&mut out, emb.pca.explained_variance());
        put_f64(&mut out, emb.pca.total_variance());
        put_u64(&mut out, emb.nodes.len() as u64);
        for n in &emb.nodes {
            put_u64(&mut out, n.sector as u64);
            put_f64(&mut out, n.radius);
        }
        put_f64(&mut out, emb.center.0);
        put_f64(&mut out, emb.center.1);
        put_u64(&mut out, emb.psi as u64);
        put_u64(&mut out, emb.stride as u64);
    }
    seal(out)
}
