//! A `KGS1` session state in the previous format generation still
//! restores.
//!
//! That generation wrote one delta and one pending list per model layer;
//! a session now writes the best layer's alone. Recovery falls back past
//! every snapshot it cannot restore, so a server upgraded over a state
//! directory would lose acknowledged points if the old layout were
//! refused. The test builds an old-layout blob through the public
//! `kgraph::serial` writers, restores it, and checks that the restored
//! session serves and evolves exactly as the session that streamed the
//! same points live.

use kgraph::serial::{put_f64s, put_triples, put_u64, seal, write_delta_state};
use kgraph::stream::extend_path;
use kgraph::{KGraph, KGraphConfig, KGraphModel};
use std::sync::Arc;
use streamfit::{read_session_state, write_session_state, SessionState};
use streamfit::{StreamConfig, StreamSession};
use tscore::{Dataset, DatasetKind, TimeSeries};
use tsgraph::delta::DeltaGraph;
use tsgraph::NodeId;

/// A three-length model whose best layer is the middle one, so that
/// neither the first nor the last entry of a per-layer list is the best.
fn fitted() -> KGraphModel {
    let series: Vec<TimeSeries> = (0..10)
        .map(|p| {
            let f = if p < 5 { 0.3 } else { 0.8 };
            TimeSeries::new((0..96).map(|i| ((i + p) as f64 * f).sin()).collect())
        })
        .collect();
    let ds = Dataset::new("generations", DatasetKind::Simulated, series);
    let cfg = KGraphConfig {
        psi: 10,
        pca_sample: 300,
        n_init: 2,
        ..KGraphConfig::new(2)
    }
    .with_lengths(vec![12, 16, 20]);
    let model = KGraph::new(cfg).fit(&ds);
    KGraphModel::new(model.config, model.layers, model.labels, model.scores, 1)
}

/// Chunk `chunk` of series `s`, drifting off the fitted frequencies.
fn chunk(s: usize, chunk: usize) -> Vec<f64> {
    let f = 0.3 + 0.07 * s as f64;
    (chunk * 12..chunk * 12 + 12)
        .map(|i| (i as f64 * f).sin() + 0.2 * ((i * (s + 1)) as f64 * 0.11).cos())
        .collect()
}

/// `state` written in the `KGS1` layout with the given delta and pending
/// lists in place of its own.
fn kgs1(
    state: &SessionState,
    deltas: &[DeltaGraph<f64>],
    pending: &[Vec<(NodeId, NodeId, f64)>],
) -> Vec<u8> {
    let mut out = b"KGS1".to_vec();
    for v in [
        state.seq,
        state.points_total,
        state.points_since_refresh,
        state.refreshes,
        state.compactions,
    ] {
        put_u64(&mut out, v);
    }
    let kgd1 = write_delta_state(deltas);
    put_u64(&mut out, kgd1.len() as u64);
    out.extend_from_slice(&kgd1);
    put_u64(&mut out, pending.len() as u64);
    for list in pending {
        put_triples(&mut out, list.iter().copied());
    }
    put_u64(&mut out, state.series.len() as u64);
    for s in &state.series {
        put_f64s(&mut out, &s.values);
        match &s.scores {
            Some(scores) => {
                out.push(1);
                put_f64s(&mut out, scores);
            }
            None => out.push(0),
        }
    }
    seal(out)
}

/// What the previous generation wrote for `state` over `model`: the best
/// layer's delta and pending triples at index `best_layer`, and for every
/// other layer the transitions of every series routed through it, all but
/// the last two folded into its delta.
fn previous_generation(model: &KGraphModel, state: &SessionState) -> Vec<u8> {
    let mut deltas = Vec::new();
    let mut pending = Vec::new();
    for (l, layer) in model.layers.iter().enumerate() {
        if l == model.best_layer {
            deltas.push(state.deltas[0].clone());
            pending.push(state.pending[0].clone());
            continue;
        }
        let mut triples: Vec<_> = state
            .series
            .iter()
            .flat_map(|s| extend_path(layer, &s.values, 0, None).unwrap().triples)
            .collect();
        let tail = triples.split_off(triples.len() - 2);
        let mut delta = DeltaGraph::new(layer.graph.node_count());
        delta.ingest(triples, |acc, w| *acc += w);
        deltas.push(delta);
        pending.push(tail);
    }
    kgs1(state, &deltas, &pending)
}

fn bits(scores: Option<&[f64]>) -> Option<Vec<u64>> {
    scores.map(|v| v.iter().map(|f| f.to_bits()).collect())
}

fn best_edges(session: &StreamSession) -> Vec<(NodeId, NodeId, u64)> {
    session
        .model()
        .best()
        .graph
        .edges_iter()
        .map(|(_, a, b, w)| (a, b, w.to_bits()))
        .collect()
}

#[test]
fn a_previous_generation_state_restores_like_the_live_session() {
    let cfg = StreamConfig {
        refresh_every: 40,
        compact_every: 3,
    };
    let mut live = StreamSession::new(Arc::new(fitted()), cfg.clone());
    let mut seq = 0;
    for c in 0..6 {
        for s in 0..3 {
            live.append(s, &chunk(s, c)).unwrap();
            seq += 1;
        }
    }
    let status = live.status();
    assert!(status.compactions >= 1 && status.points_pending > 0);
    assert!(status.pending_triples > 0 && status.delta_edges > 0);

    let state = read_session_state(&write_session_state(&live, seq)).unwrap();
    assert_eq!((state.deltas.len(), state.pending.len()), (1, 1));
    assert_eq!(
        kgs1(&state, &state.deltas, &state.pending),
        write_session_state(&live, seq),
        "the test's writer lays out KGS1 as the session does"
    );
    let old = read_session_state(&previous_generation(live.model(), &state)).unwrap();
    let n_layers = live.model().layers.len();
    assert_eq!((old.deltas.len(), old.pending.len()), (n_layers, n_layers));

    let mut restored = StreamSession::restore(Arc::clone(live.model()), cfg, old).unwrap();
    assert_eq!(format!("{:?}", restored.status()), format!("{status:?}"));
    for i in 0..live.open_series() {
        assert_eq!(bits(restored.scores(i)), bits(live.scores(i)), "series {i}");
    }

    let (mut refreshes, mut compactions) = (0, 0);
    for c in 6..12 {
        for s in 0..3 {
            let a = live.append(s, &chunk(s, c)).unwrap();
            let b = restored.append(s, &chunk(s, c)).unwrap();
            assert_eq!(a.new_windows, b.new_windows);
            assert_eq!(a.refreshed, b.refreshed);
            assert_eq!(a.compacted.is_some(), b.compacted.is_some());
            if !a.refreshed {
                continue;
            }
            refreshes += 1;
            compactions += usize::from(a.compacted.is_some());
            assert_eq!(
                format!("{:?}", restored.status()),
                format!("{:?}", live.status())
            );
            for i in 0..live.open_series() {
                assert_eq!(bits(restored.scores(i)), bits(live.scores(i)), "series {i}");
            }
            assert_eq!(best_edges(&restored), best_edges(&live));
        }
    }
    assert!(
        refreshes >= 3 && compactions >= 1,
        "{refreshes} refreshes, {compactions} compactions"
    );
}
