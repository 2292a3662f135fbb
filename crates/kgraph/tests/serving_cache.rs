//! Parity and invalidation of the per-version serving cache.
//!
//! Every cached read is compared against an oracle rebuilt here from the
//! model's public fields — the per-request computations the cache
//! replaced:
//!
//! * `best_stats()` against `ClusterStats::compute` on the selected layer;
//! * `predict` against the per-call centroid loop, bit for bit, over every
//!   training series and 50 unseen CBF series;
//! * the cached layouts against `layout_graph` with the default options,
//!   and a cached render against an uncached `GraphPlot` render;
//! * a streamfit compaction's model against the same oracles on the
//!   compacted graph, after the old model's cache was filled;
//! * eight threads reading one cold model at once.

use graphint::frames::graph::GraphFrame;
use graphint::plot::{DetailLevel, GraphPlot, RenderBudget};
use kgraph::graphoid::{auto_thresholds, ClusterStats};
use kgraph::{KGraph, KGraphConfig, KGraphModel};
use std::sync::{Arc, Barrier};
use streamfit::{StreamConfig, StreamSession};
use tscore::Dataset;
use tsgraph::layout::{layout_graph, BarnesHutOptions, LayoutEngine};

fn training_set() -> Dataset {
    datasets::cbf::cbf(12, 128, 7)
}

fn unseen() -> Vec<Vec<f64>> {
    let ds = datasets::cbf::cbf(17, 128, 1_234);
    ds.series()
        .iter()
        .take(50)
        .map(|s| s.values().to_vec())
        .collect()
}

fn fitted(ds: &Dataset) -> KGraphModel {
    let cfg = KGraphConfig {
        n_lengths: 3,
        psi: 16,
        pca_sample: 600,
        n_init: 2,
        ..KGraphConfig::new(3)
    }
    .with_seed(7);
    KGraph::new(cfg).fit(ds)
}

/// A cold copy of `model`: same fields, empty cache.
fn cold_copy(model: &KGraphModel) -> KGraphModel {
    kgraph::serial::read_model(&kgraph::serial::write_model(model)).expect("round trip")
}

fn assert_stats_eq(a: &ClusterStats, b: &ClusterStats) {
    assert_eq!(a.k, b.k);
    assert_eq!(a.cluster_sizes, b.cluster_sizes);
    assert_eq!(a.node_crossings, b.node_crossings);
    assert_eq!(a.edge_crossings, b.edge_crossings);
}

fn oracle_stats(model: &KGraphModel) -> ClusterStats {
    ClusterStats::compute(model.best(), &model.labels, model.k())
}

/// The per-call predict: every training histogram and all k centroids
/// rebuilt for each query, in the original summation order.
fn oracle_predict(model: &KGraphModel, values: &[f64]) -> Option<usize> {
    fn histogram(path: &[tsgraph::NodeId], n_nodes: usize) -> Vec<f64> {
        let mut h = vec![0.0f64; n_nodes];
        for node in path {
            h[node.index()] += 1.0;
        }
        let total = path.len().max(1) as f64;
        for v in h.iter_mut() {
            *v /= total;
        }
        h
    }
    let layer = model.best();
    let path = layer.assign_path(values)?;
    let n_nodes = layer.graph.node_count();
    let query = histogram(&path, n_nodes);
    let k = model.k();
    let mut centroids = vec![vec![0.0f64; n_nodes]; k];
    let mut sizes = vec![0usize; k];
    for (train_path, &label) in layer.paths.iter().zip(&model.labels) {
        sizes[label] += 1;
        let h = histogram(train_path, n_nodes);
        for (c, v) in centroids[label].iter_mut().zip(&h) {
            *c += v;
        }
    }
    for (c, &s) in centroids.iter_mut().zip(&sizes) {
        if s > 0 {
            for v in c.iter_mut() {
                *v /= s as f64;
            }
        }
    }
    let distance = |c: usize| -> f64 {
        centroids[c]
            .iter()
            .zip(&query)
            .map(|(x, y)| (x - y) * (x - y))
            .sum()
    };
    (0..k)
        .filter(|&c| sizes[c] > 0)
        .min_by(|&a, &b| distance(a).partial_cmp(&distance(b)).expect("NaN distance"))
        .or(Some(0))
}

/// The render the Graph frame produced before the cache: stats, (λ, γ)
/// and layout all recomputed, the layout by `GraphPlot` itself.
fn oracle_render(model: &KGraphModel, budget: usize) -> (String, usize) {
    let stats = oracle_stats(model);
    let (lambda, gamma) = auto_thresholds(&stats, model.best(), 20);
    GraphPlot::new(model.best(), &stats, lambda, gamma)
        .with_engine(LayoutEngine::Auto)
        .with_detail(DetailLevel::Auto)
        .with_budget(RenderBudget::capped(budget))
        .render_counted()
}

fn cached_render(model: &KGraphModel, budget: usize) -> (String, usize) {
    GraphFrame::with_auto_thresholds(model).render_graph_with(
        LayoutEngine::Auto,
        DetailLevel::Auto,
        RenderBudget::capped(budget),
    )
}

fn assert_matches_oracles(model: &KGraphModel, queries: &[Vec<f64>]) {
    assert_stats_eq(model.best_stats(), &oracle_stats(model));
    for (i, q) in queries.iter().enumerate() {
        assert_eq!(model.predict(q), oracle_predict(model, q), "query {i}");
    }
    let stats = oracle_stats(model);
    assert_eq!(
        model.auto_thresholds(),
        auto_thresholds(&stats, model.best(), 20)
    );
    for engine in [
        LayoutEngine::Circular,
        LayoutEngine::Exact,
        LayoutEngine::BarnesHut,
    ] {
        let want = layout_graph(&model.best().graph, engine, BarnesHutOptions::default());
        assert_eq!(model.layout(engine), want.as_slice(), "{engine:?}");
    }
    assert_eq!(cached_render(model, 20_000), oracle_render(model, 20_000));
}

#[test]
fn cached_reads_match_the_per_request_oracles() {
    let ds = training_set();
    let model = fitted(&ds);
    let mut queries: Vec<Vec<f64>> = ds.series().iter().map(|s| s.values().to_vec()).collect();
    queries.extend(unseen());
    assert_eq!(queries.len(), ds.len() + 50);
    assert_matches_oracles(&model, &queries);
    // A second pass reads the filled cache.
    assert_matches_oracles(&model, &queries);
}

#[test]
fn auto_layout_shares_the_slot_of_its_resolved_engine() {
    let model = fitted(&training_set());
    let n = model.best().graph.node_count();
    let resolved = LayoutEngine::Auto.resolve(n);
    assert!(std::ptr::eq(
        model.layout(LayoutEngine::Auto).as_ptr(),
        model.layout(resolved).as_ptr()
    ));
    assert!(std::ptr::eq(model.best_stats(), model.best_stats()));
}

#[test]
fn compaction_publishes_a_model_with_a_fresh_cache() {
    let ds = training_set();
    let model = Arc::new(fitted(&ds));
    let queries = unseen();
    // Fill every slot of the old version first.
    assert_matches_oracles(&model, &queries);
    let old_edges = model.best().graph.edge_count();

    let mut session = StreamSession::new(
        Arc::clone(&model),
        StreamConfig {
            refresh_every: 0,
            compact_every: 1,
        },
    );
    // Out-of-distribution points add transitions the fit never saw.
    let burst: Vec<f64> = (0..400)
        .map(|i| ((i * 7919) % 97) as f64 / 9.7 - 5.0)
        .collect();
    let out = session.append(0, &burst).expect("append");
    let next = out.compacted.expect("compact_every 1 compacts");
    assert!(!Arc::ptr_eq(&next, &model));
    assert!(
        next.best().graph.edge_count() > old_edges,
        "the burst must change the selected graph"
    );
    assert_eq!(
        next.best_stats().edge_crossings[0].len(),
        next.best().graph.edge_count()
    );
    assert_matches_oracles(&next, &queries);
    // The old version still answers from its own cache.
    assert_eq!(model.best_stats().edge_crossings[0].len(), old_edges);
}

/// One reader's answers: predictions for every query, then the render.
type Answers = (Vec<Option<usize>>, (String, usize));

fn read_all(model: &KGraphModel, queries: &[Vec<f64>], render_first: bool) -> Answers {
    let predict = || queries.iter().map(|q| model.predict(q)).collect();
    if render_first {
        let render = cached_render(model, 20_000);
        (predict(), render)
    } else {
        let predicted = predict();
        (predicted, cached_render(model, 20_000))
    }
}

#[test]
fn concurrent_first_reads_agree() {
    let ds = training_set();
    let warm = fitted(&ds);
    let queries = unseen();
    let want = read_all(&warm, &queries, false);

    let cold = cold_copy(&warm);
    let barrier = Barrier::new(8);
    let answers: Vec<Answers> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let (cold, barrier, queries) = (&cold, &barrier, &queries);
                scope.spawn(move || {
                    barrier.wait();
                    // Half the threads render first, half predict first.
                    read_all(cold, queries, t % 2 == 0)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reader panicked"))
            .collect()
    });
    for (t, got) in answers.iter().enumerate() {
        assert_eq!(got, &want, "thread {t}");
    }
}
