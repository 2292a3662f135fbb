//! # streamfit — streaming ingestion and incremental model maintenance
//!
//! Turns the batch k-Graph pipeline into a continuously-updatable one.
//! A fitted [`KGraphModel`](kgraph::KGraphModel) is immutable — that is
//! what makes serving it lock-free — so "updating" a model means growing
//! state *next to* it and periodically replacing the whole `Arc`. The
//! state is that of the best layer alone, the one every answer reads:
//!
//! 1. **Append** — [`StreamSession::append`] adds points to an open
//!    series, routes only the newly completed windows through the best
//!    layer's stored embedding ([`kgraph::stream::extend_path`]), keeps
//!    their nodes and embedding gaps as the series' route, and buffers
//!    the induced transition triples.
//! 2. **Refresh** — on a configurable point cadence
//!    ([`StreamConfig::refresh_every`]) the buffered triples are folded
//!    into a [`DeltaGraph`](tsgraph::DeltaGraph), the base and delta are
//!    compacted into a temporary graph, and every open series' stored
//!    route is rescored against it
//!    ([`kgraph::anomaly::scores_from_route`]). No window is routed
//!    again: the scores are bit-identical to routing the whole series
//!    afresh ([`kgraph::anomaly::routed_gaps`]) and scoring that route
//!    against the same graph, since a window's node and gap depend only on
//!    its values and the fixed embedding. No refit, no locks on the read path.
//! 3. **Compact** — every [`StreamConfig::compact_every`] refreshes the
//!    delta merges into a fresh base CSR
//!    ([`tsgraph::DeltaGraph::compact`], bit-identical to a from-scratch
//!    build) and the session hands back a new `Arc<KGraphModel>`, its
//!    other layers as fitted, for the caller to publish (e.g.
//!    `graphserve`'s `ModelStore::insert`). Readers holding the old
//!    snapshot are untouched. The embedding is kept, so the stored routes
//!    stay valid.
//!
//! This crate owns the live-session state: open series, cadences, the
//! delta, its `KGS1` persistence ([`persist`]) and the
//! [`SessionRegistry`] that `graphserve`'s ingest endpoints lock per
//! model.

pub mod persist;
pub mod registry;
pub mod session;

pub use persist::{read_session_state, write_session_state, SeriesState, SessionState};
pub use registry::SessionRegistry;
pub use session::{AppendOutcome, SeriesStatus, StreamConfig, StreamSession, StreamStatus};

#[cfg(test)]
mod tests {
    use super::*;
    use kgraph::{KGraph, KGraphConfig};
    use std::sync::Arc;
    use tscore::{Dataset, DatasetKind, TimeSeries};

    fn fitted() -> Arc<kgraph::KGraphModel> {
        fitted_with_stride(1)
    }

    fn fitted_with_stride(stride: usize) -> Arc<kgraph::KGraphModel> {
        let series: Vec<TimeSeries> = (0..8)
            .map(|p| TimeSeries::new((0..120).map(|i| ((i + p) as f64 * 0.4).sin()).collect()))
            .collect();
        let ds = Dataset::new("live", DatasetKind::Simulated, series);
        let cfg = KGraphConfig {
            n_lengths: 1,
            psi: 12,
            pca_sample: 400,
            n_init: 2,
            stride,
            ..KGraphConfig::new(2)
        }
        .with_lengths(vec![16]);
        Arc::new(KGraph::new(cfg).fit(&ds))
    }

    fn wave(from: usize, n: usize) -> Vec<f64> {
        (from..from + n).map(|i| (i as f64 * 0.4).sin()).collect()
    }

    #[test]
    fn append_refresh_and_score() {
        let model = fitted();
        let mut session = StreamSession::new(
            Arc::clone(&model),
            StreamConfig {
                refresh_every: 40,
                compact_every: 0,
            },
        );
        // First chunk: below one window, nothing to score yet.
        let out = session.append(0, &wave(0, 10)).unwrap();
        assert_eq!(out.new_windows, 0);
        assert!(!out.refreshed);
        // Crossing the refresh cadence fires a refresh and yields scores.
        let out = session.append(0, &wave(10, 40)).unwrap();
        assert!(out.refreshed);
        assert!(out.compacted.is_none());
        let scores = session.scores(0).expect("scored after refresh");
        assert!(!scores.is_empty());
        let status = session.status();
        assert_eq!(status.points_total, 50);
        assert_eq!(status.refreshes, 1);
        assert_eq!(status.series.len(), 1);
        assert!(status.series[0].mean_score.is_some());
    }

    #[test]
    fn compaction_absorbs_the_delta_and_preserves_scores() {
        let model = fitted();
        let mut session = StreamSession::new(
            Arc::clone(&model),
            StreamConfig {
                refresh_every: 0, // refresh on every append
                compact_every: 0, // manual compaction via cadence below
            },
        );
        session.append(0, &wave(0, 80)).unwrap();
        let status = session.status();
        assert!(status.delta_edges > 0, "transitions reached the delta");
        let before = session.scores(0).unwrap().to_vec();

        // Flip to a compacting config by building a new session over the
        // same stream — simpler: force compaction through a session whose
        // cadence is 1.
        let mut compacting = StreamSession::new(
            Arc::clone(&model),
            StreamConfig {
                refresh_every: 0,
                compact_every: 1,
            },
        );
        let out = compacting.append(0, &wave(0, 80)).unwrap();
        let next = out.compacted.expect("cadence 1 compacts on first refresh");
        assert!(!Arc::ptr_eq(&next, &model), "a fresh Arc was published");
        assert!(Arc::ptr_eq(compacting.model(), &next));
        let status = compacting.status();
        assert_eq!(status.compactions, 1);
        assert_eq!(status.delta_edges, 0, "delta absorbed into the base");
        // The compacted base carries the streamed transitions: scoring
        // with an empty delta equals scoring base + delta before it.
        let after = compacting.scores(0).unwrap();
        assert_eq!(before, after, "compaction must not change scores");
        // And the base graph grew (or at least gained weight): the old
        // model had none of the streamed bridge transitions.
        let old_edges: f64 = model.layers[model.best_layer]
            .graph
            .edges_iter()
            .map(|(_, _, _, &w)| w)
            .sum();
        let new_edges: f64 = next.layers[next.best_layer]
            .graph
            .edges_iter()
            .map(|(_, _, _, &w)| w)
            .sum();
        assert!(new_edges > old_edges, "{new_edges} vs {old_edges}");
    }

    #[test]
    fn a_compaction_over_an_empty_delta_keeps_the_model() {
        let model = fitted();
        let cfg = StreamConfig {
            refresh_every: 0,
            compact_every: 1,
        };
        let mut session = StreamSession::new(Arc::clone(&model), cfg);
        // Ten points make no 16-point window, so no transition.
        let out = session.append(0, &wave(0, 10)).unwrap();
        let kept = out.compacted.expect("the cadence still compacts");
        assert!(Arc::ptr_eq(&kept, &model), "no copy of the model");
        assert!(Arc::ptr_eq(session.model(), &model));
        assert_eq!(session.compactions(), 1);
        let out = session.append(0, &wave(10, 40)).unwrap();
        let next = out.compacted.expect("compacts");
        assert!(!Arc::ptr_eq(&next, &model), "a non-empty delta is folded");
        assert_eq!(session.compactions(), 2);
    }

    /// After every refresh, each series' scores equal the batch scorer's
    /// over a layer whose graph is built from scratch: the base edges as of
    /// the last compaction plus every transition streamed since, routed
    /// from each series' full values.
    #[test]
    fn refresh_scores_equal_the_batch_scorer_over_a_rebuilt_graph() {
        use kgraph::anomaly::anomaly_scores;
        use kgraph::GraphLayer;
        use tsgraph::{GraphBuilder, NodeId};

        let cfg = StreamConfig {
            refresh_every: 48,
            compact_every: 2,
        };
        let mut session = StreamSession::new(fitted(), cfg.clone());
        // Windows per series on the best layer as of the last compaction.
        let mut windows_at_compaction = vec![0usize; 3];
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); 3];
        let mut refreshes_checked = 0;
        for step in 0..30 {
            let s = step % 3;
            // Frequencies off the fitted 0.4 put unseen edges in the delta.
            let chunk: Vec<f64> = (0..12)
                .map(|i| ((values[s].len() + i) as f64 * (0.25 + 0.15 * s as f64)).sin())
                .collect();
            values[s].extend_from_slice(&chunk);
            let base_edges: Vec<(NodeId, NodeId, f64)> = session
                .model()
                .best()
                .graph
                .edges_iter()
                .map(|(_, a, b, &w)| (a, b, w))
                .collect();
            let out = session.append(s, &chunk).unwrap();
            if !out.refreshed {
                continue;
            }
            let model = Arc::clone(session.model());
            let layer = model.best();
            let paths: Vec<Vec<NodeId>> = values
                .iter()
                .map(|v| layer.assign_path(v).unwrap_or_default())
                .collect();
            let mut builder = GraphBuilder::new();
            for &(a, b, w) in &base_edges {
                builder.add_edge(a, b, w);
            }
            for (path, &from) in paths.iter().zip(&windows_at_compaction) {
                for w in path[from.saturating_sub(1).min(path.len())..].windows(2) {
                    if w[0] != w[1] {
                        builder.add_edge(w[0], w[1], 1.0);
                    }
                }
            }
            let nodes = layer.graph.nodes_iter().map(|(_, p)| p.clone()).collect();
            let rebuilt = GraphLayer {
                length: layer.length,
                graph: builder.build(nodes, |acc, w| *acc += w),
                paths: Vec::new(),
                labels: Vec::new(),
                embedding: layer.embedding.clone(),
            };
            if let Some(next) = &out.compacted {
                // The published base is that same graph.
                let got: Vec<_> = next
                    .best()
                    .graph
                    .edges_iter()
                    .map(|(_, a, b, &w)| (a, b, w.to_bits()))
                    .collect();
                let want: Vec<_> = rebuilt
                    .graph
                    .edges_iter()
                    .map(|(_, a, b, &w)| (a, b, w.to_bits()))
                    .collect();
                assert_eq!(got, want, "compacted base");
                windows_at_compaction = paths.iter().map(Vec::len).collect();
            }
            for (i, v) in values.iter().enumerate().take(session.open_series()) {
                let want = anomaly_scores(&rebuilt, v, session::CONTEXT).ok();
                let got = session.scores(i).map(<[f64]>::to_vec);
                let bits = |x: Option<Vec<f64>>| {
                    x.map(|v| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>())
                };
                assert_eq!(
                    bits(got),
                    bits(want),
                    "refresh {}, series {i}",
                    session.refreshes()
                );
            }
            refreshes_checked += 1;
        }
        assert!(
            session.compactions() >= 2,
            "{} compactions",
            session.compactions()
        );
        assert!(refreshes_checked >= 5);
    }

    /// A session written to `KGS1` mid-cadence, after a compaction, and
    /// restored evolves as the original does: through the same further
    /// appends, each shorter than a window, both serve the same scores
    /// after every refresh, bit for bit, and those are the batch scorer's
    /// over a graph rebuilt from the whole stream. Runs at strides 1 and 2.
    #[test]
    fn a_restored_session_rescores_like_the_original_and_the_batch_scorer() {
        for stride in [1, 2] {
            restore_mid_cadence_then_rescore(fitted_with_stride(stride));
        }
    }

    fn restore_mid_cadence_then_rescore(model: Arc<kgraph::KGraphModel>) {
        use kgraph::anomaly::anomaly_scores;
        use kgraph::GraphLayer;
        use tsgraph::{GraphBuilder, NodeId};

        let stride = model.best().embedding.stride;
        let window = model.best().length;
        let cfg = StreamConfig {
            refresh_every: 24,
            compact_every: 2,
        };
        let mut live = StreamSession::new(model, cfg.clone());
        let mut restored: Option<StreamSession> = None;
        let mut compactions_at_restore = 0;
        let mut refreshes_after_restore = 0;
        // Windows per series on the best layer as of the last compaction.
        let mut windows_at_compaction = vec![0usize; 3];
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); 3];
        let bits = |x: Option<&[f64]>| x.map(|v| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>());
        let edges = |s: &StreamSession| -> Vec<(NodeId, NodeId, u64)> {
            s.model()
                .best()
                .graph
                .edges_iter()
                .map(|(_, a, b, &w)| (a, b, w.to_bits()))
                .collect()
        };
        for step in 0..120 {
            let s = step % 3;
            let n = 5 + step % 7;
            assert!(n < window);
            // Frequencies off the fitted 0.4 put unseen edges in the delta.
            let chunk: Vec<f64> = (0..n)
                .map(|i| ((values[s].len() + i) as f64 * (0.25 + 0.15 * s as f64)).sin())
                .collect();
            values[s].extend_from_slice(&chunk);
            let base_edges: Vec<(NodeId, NodeId, f64)> = live
                .model()
                .best()
                .graph
                .edges_iter()
                .map(|(_, a, b, &w)| (a, b, w))
                .collect();
            let out = live.append(s, &chunk).unwrap();
            if let Some(r) = restored.as_mut() {
                let other = r.append(s, &chunk).unwrap();
                assert_eq!(out.new_windows, other.new_windows);
                assert_eq!(out.refreshed, other.refreshed);
                assert_eq!(out.compacted.is_some(), other.compacted.is_some());
            }
            if out.refreshed {
                let model = Arc::clone(live.model());
                let layer = model.best();
                let paths: Vec<Vec<NodeId>> = values
                    .iter()
                    .map(|v| layer.assign_path(v).unwrap_or_default())
                    .collect();
                let mut builder = GraphBuilder::new();
                for &(a, b, w) in &base_edges {
                    builder.add_edge(a, b, w);
                }
                for (path, &from) in paths.iter().zip(&windows_at_compaction) {
                    for w in path[from.saturating_sub(1).min(path.len())..].windows(2) {
                        if w[0] != w[1] {
                            builder.add_edge(w[0], w[1], 1.0);
                        }
                    }
                }
                let nodes = layer.graph.nodes_iter().map(|(_, p)| p.clone()).collect();
                let rebuilt = GraphLayer {
                    length: layer.length,
                    graph: builder.build(nodes, |acc, w| *acc += w),
                    paths: Vec::new(),
                    labels: Vec::new(),
                    embedding: layer.embedding.clone(),
                };
                if out.compacted.is_some() {
                    let want: Vec<_> = rebuilt
                        .graph
                        .edges_iter()
                        .map(|(_, a, b, &w)| (a, b, w.to_bits()))
                        .collect();
                    assert_eq!(edges(&live), want, "stride {stride}: compacted base");
                    windows_at_compaction = paths.iter().map(Vec::len).collect();
                }
                for (i, v) in values.iter().enumerate().take(live.open_series()) {
                    let want = anomaly_scores(&rebuilt, v, session::CONTEXT).ok();
                    assert_eq!(
                        bits(live.scores(i)),
                        bits(want.as_deref()),
                        "stride {stride}, refresh {}, series {i}",
                        live.refreshes()
                    );
                }
                if let Some(r) = &restored {
                    for i in 0..live.open_series() {
                        assert_eq!(bits(r.scores(i)), bits(live.scores(i)), "series {i}");
                    }
                    assert_eq!(edges(r), edges(&live));
                    refreshes_after_restore += 1;
                }
            }
            let status = live.status();
            if restored.is_none()
                && live.compactions() >= 1
                && status.points_pending > 0
                && status.pending_triples > 0
                && status.delta_edges > 0
            {
                let bytes = write_session_state(&live, step as u64);
                let state = read_session_state(&bytes).expect("round trip");
                let r = StreamSession::restore(Arc::clone(live.model()), cfg.clone(), state)
                    .expect("restore");
                for i in 0..live.open_series() {
                    assert_eq!(bits(r.scores(i)), bits(live.scores(i)));
                }
                compactions_at_restore = live.compactions();
                restored = Some(r);
            }
        }
        assert!(restored.is_some(), "stride {stride}: never restored");
        assert!(
            refreshes_after_restore >= 4,
            "stride {stride}: {refreshes_after_restore} refreshes after the restore"
        );
        assert!(
            live.compactions() > compactions_at_restore,
            "stride {stride}: no compaction after the restore"
        );
    }

    #[test]
    fn registry_reuses_and_invalidates_sessions() {
        let model = fitted();
        let registry = SessionRegistry::new(StreamConfig::default());
        let a = registry.session_for("m", &model);
        let b = registry.session_for("m", &model);
        assert!(Arc::ptr_eq(&a, &b), "same model → same session");
        assert_eq!(registry.len(), 1);

        // A different `Arc` gets the same live session: only the caller,
        // under the session lock, decides whether to reset it.
        let other = fitted();
        let c = registry.session_for("m", &other);
        assert!(Arc::ptr_eq(&a, &c), "different Arc → same live session");
        assert!(Arc::ptr_eq(c.lock().unwrap().model(), &model));

        // Compaction keeps the session: it switched itself to the new Arc.
        let compacted = {
            let mut guard = c.lock().unwrap();
            guard.append(0, &wave(0, 80)).unwrap();
            let next = guard.refresh();
            // compact_every=8 default: force until compaction fires.
            let mut next = next;
            for _ in 0..16 {
                if next.is_some() {
                    break;
                }
                guard.append(0, &wave(80, 16)).unwrap();
                next = guard.refresh();
            }
            next.expect("compaction fired")
        };
        let d = registry.session_for("m", &compacted);
        assert!(Arc::ptr_eq(&c, &d), "compacted model → session kept");

        assert!(registry.remove("m"));
        assert!(registry.get("m").is_none());
    }

    /// A writer that read the model before another writer's compaction
    /// published a new one asks with the pre-compaction `Arc`, and gets
    /// the live session with every point, not a fresh one over the stale
    /// model.
    #[test]
    fn the_pre_compaction_arc_gets_the_live_session() {
        let before = fitted();
        let registry = SessionRegistry::new(StreamConfig {
            refresh_every: 0,
            compact_every: 1,
        });
        let live = registry.session_for("m", &before);
        let out = live.lock().unwrap().append(0, &wave(0, 80)).unwrap();
        let after = out.compacted.expect("cadence 1 compacts");
        assert!(!Arc::ptr_eq(&after, &before));

        let again = registry.session_for("m", &before);
        assert!(
            Arc::ptr_eq(&again, &live),
            "the live session, not a fresh one"
        );
        let guard = again.lock().unwrap();
        assert_eq!(guard.points_total(), 80);
        assert!(Arc::ptr_eq(guard.model(), &after));
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn multiple_series_rescore_in_parallel() {
        let model = fitted();
        let mut session = StreamSession::new(
            model,
            StreamConfig {
                refresh_every: 1_000_000, // manual refresh only
                compact_every: 0,
            },
        );
        for i in 0..6 {
            session.append(i, &wave(i, 60)).unwrap();
        }
        assert_eq!(session.open_series(), 6);
        session.refresh();
        for i in 0..6 {
            assert!(session.scores(i).is_some(), "series {i} scored");
        }
        let status = session.status();
        assert_eq!(status.series.len(), 6);
        assert!(status.series.iter().all(|s| s.windows > 0));
    }

    #[test]
    fn out_of_range_series_index_errors() {
        let model = fitted();
        let mut session = StreamSession::new(model, StreamConfig::default());
        assert!(session.append(1, &[1.0]).is_err(), "index 1 before 0");
        session.append(0, &[1.0]).unwrap();
        session.append(1, &[1.0]).unwrap();
        assert!(session.append(5, &[1.0]).is_err());
    }

    #[test]
    fn session_state_restores_bit_identically_mid_cadence() {
        let model = fitted();
        let cfg = StreamConfig {
            refresh_every: 30,
            compact_every: 2,
        };
        let mut live = StreamSession::new(Arc::clone(&model), cfg.clone());
        // Drive through refreshes and a compaction, then stop mid-cadence
        // so every piece of state (deltas, pending triples, stale scores,
        // counters) is non-trivial at snapshot time.
        for chunk in 0..7 {
            live.append(0, &wave(chunk * 20, 20)).unwrap();
            live.append(1, &wave(chunk * 20 + 5, 20)).unwrap();
        }
        // One sub-cadence chunk so the snapshot lands mid-refresh.
        live.append(0, &wave(140, 20)).unwrap();
        let status = live.status();
        assert!(status.refreshes > 0 && status.points_pending > 0);

        let bytes = persist::write_session_state(&live, 42);
        let state = persist::read_session_state(&bytes).expect("round trip");
        assert_eq!(state.seq, 42);
        assert_eq!(state.points_total, status.points_total);
        assert_eq!(state.series.len(), 2);

        // Restore over the session's *current* model (post-compaction Arc).
        let restored =
            StreamSession::restore(Arc::clone(live.model()), cfg, state).expect("restore");
        assert_eq!(restored.scores(0), live.scores(0));
        assert_eq!(restored.scores(1), live.scores(1));
        let a = live.status();
        let b = restored.status();
        assert_eq!(a.points_total, b.points_total);
        assert_eq!(a.points_pending, b.points_pending);
        assert_eq!(a.refreshes, b.refreshes);
        assert_eq!(a.compactions, b.compactions);
        assert_eq!(a.pending_triples, b.pending_triples);
        assert_eq!(a.delta_edges, b.delta_edges);

        // The decisive check: both sessions evolve identically from here.
        let mut restored = restored;
        for chunk in 7..10 {
            let x = live.append(0, &wave(chunk * 20, 20)).unwrap();
            let y = restored.append(0, &wave(chunk * 20, 20)).unwrap();
            assert_eq!(x.refreshed, y.refreshed);
            assert_eq!(x.compacted.is_some(), y.compacted.is_some());
        }
        assert_eq!(live.scores(0), restored.scores(0));
        assert_eq!(live.scores(1), restored.scores(1));
        let a = live.status();
        let b = restored.status();
        assert_eq!(a.delta_edges, b.delta_edges);
        assert_eq!(
            a.series.iter().map(|s| s.max_score).collect::<Vec<_>>(),
            b.series.iter().map(|s| s.max_score).collect::<Vec<_>>()
        );
    }

    #[test]
    fn session_state_rejects_a_wrong_model() {
        use tscore::error::TsError;

        let model = fitted();
        let mut session = StreamSession::new(Arc::clone(&model), StreamConfig::default());
        session.append(0, &wave(0, 40)).unwrap();
        let bytes = persist::write_session_state(&session, 7);
        let state = || persist::read_session_state(&bytes).unwrap();
        let restore = |model: &Arc<kgraph::KGraphModel>, state: SessionState| {
            StreamSession::restore(Arc::clone(model), StreamConfig::default(), state)
        };
        assert!(restore(&model, state()).is_ok());

        // Every cut and bit flip is swept in `tests/corruption_sweep.rs`. A
        // state decoded fine but restored over a model whose best layer
        // has another node count is rejected by the shape check.
        let series: Vec<TimeSeries> = (0..8)
            .map(|p| TimeSeries::new((0..120).map(|i| ((i + p) as f64 * 0.4).sin()).collect()))
            .collect();
        let cfg = KGraphConfig {
            n_lengths: 1,
            psi: 6,
            pca_sample: 400,
            n_init: 2,
            ..KGraphConfig::new(2)
        }
        .with_lengths(vec![16]);
        let other =
            Arc::new(KGraph::new(cfg).fit(&Dataset::new("live", DatasetKind::Simulated, series)));
        assert_ne!(
            other.best().graph.node_count(),
            model.best().graph.node_count()
        );
        assert!(matches!(restore(&other, state()), Err(TsError::Parse(_))));

        // Neither one list nor one per model layer (the model has one).
        for n in [0, 2] {
            let mut wrong = state();
            let (delta, pending) = (wrong.deltas[0].clone(), wrong.pending[0].clone());
            wrong.deltas = vec![delta; n];
            wrong.pending = vec![pending; n];
            assert!(
                matches!(restore(&model, wrong), Err(TsError::Parse(_))),
                "{n} lists"
            );
        }
        // As many pending lists as deltas.
        let mut wrong = state();
        wrong.pending.push(Vec::new());
        assert!(matches!(restore(&model, wrong), Err(TsError::Parse(_))));
    }

    #[test]
    fn delta_state_round_trips_through_serial() {
        let model = fitted();
        let mut session = StreamSession::new(
            model,
            StreamConfig {
                refresh_every: 0,
                compact_every: 0,
            },
        );
        session.append(0, &wave(0, 80)).unwrap();
        let bytes = session.delta_state();
        let deltas = kgraph::serial::read_delta_state(&bytes).expect("round trip");
        assert_eq!(deltas.len(), 1, "the best layer's delta alone");
        let total: u64 = deltas.iter().map(|d| d.edge_count() as u64).sum();
        assert_eq!(total, session.status().delta_edges);
    }
}
