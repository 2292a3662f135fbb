//! # streamfit — streaming ingestion and incremental model maintenance
//!
//! Turns the batch k-Graph pipeline into a continuously-updatable one.
//! A fitted [`KGraphModel`](kgraph::KGraphModel) is immutable — that is
//! what makes serving it lock-free — so "updating" a model means growing
//! state *next to* it and periodically replacing the whole `Arc`:
//!
//! 1. **Append** — [`StreamSession::append`] adds points to an open
//!    series, routes only the newly completed windows through each layer's
//!    stored embedding ([`kgraph::stream::extend_path`]) and buffers the
//!    induced transition triples.
//! 2. **Refresh** — on a configurable point cadence
//!    ([`StreamConfig::refresh_every`]) the buffered triples are folded
//!    into per-layer [`DeltaGraph`](tsgraph::DeltaGraph)s and every open
//!    series is rescored against the merged base+delta view
//!    ([`kgraph::stream::anomaly_scores_delta`]) over a bounded worker
//!    pool. No refit, no locks on the read path.
//! 3. **Compact** — every [`StreamConfig::compact_every`] refreshes the
//!    deltas merge into a fresh base CSR
//!    ([`tsgraph::DeltaView::compact`], bit-identical to a from-scratch
//!    build) and the session hands back a new `Arc<KGraphModel>` for the
//!    caller to publish (e.g. `graphserve`'s `ModelStore::insert`).
//!    Readers holding the old snapshot are untouched.
//!
//! This crate owns the live-session state: open series, cadences,
//! per-layer deltas and the [`SessionRegistry`] that `graphserve`'s
//! ingest endpoints lock per model.

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
    use tscore::error::TsError;
    use tscore::{Dataset, DatasetKind, TimeSeries};

    fn fitted() -> Arc<kgraph::KGraphModel> {
        let series: Vec<TimeSeries> = (0..8)
            .map(|p| TimeSeries::new((0..120).map(|i| ((i + p) as f64 * 0.4).sin()).collect()))
            .collect();
        let ds = Dataset::new("live", DatasetKind::Simulated, series);
        let cfg = KGraphConfig {
            n_lengths: 1,
            psi: 12,
            pca_sample: 400,
            n_init: 2,
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
                context: 3,
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
                context: 3,
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
                context: 3,
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
        // with an empty delta equals the pre-compaction merged view.
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
    fn registry_reuses_and_invalidates_sessions() {
        let model = fitted();
        let registry = SessionRegistry::new(StreamConfig::default());
        let a = registry.session_for("m", &model);
        let b = registry.session_for("m", &model);
        assert!(Arc::ptr_eq(&a, &b), "same model → same session");
        assert_eq!(registry.len(), 1);

        // A different model (re-fit) invalidates the session.
        let other = fitted();
        let c = registry.session_for("m", &other);
        assert!(!Arc::ptr_eq(&a, &c), "model changed → fresh session");

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

    #[test]
    fn multiple_series_rescore_in_parallel() {
        let model = fitted();
        let mut session = StreamSession::new(
            model,
            StreamConfig {
                refresh_every: 1_000_000, // manual refresh only
                compact_every: 0,
                context: 3,
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
            context: 3,
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
    fn session_state_rejects_corruption_and_wrong_model() {
        let model = fitted();
        let mut session = StreamSession::new(Arc::clone(&model), StreamConfig::default());
        session.append(0, &wave(0, 40)).unwrap();
        let bytes = persist::write_session_state(&session, 7);

        // Every prefix truncation and every single-bit flip must be a clean
        // parse error, never a panic; a flip is caught by the magic check
        // or the checksum before any field is decoded.
        for cut in 0..bytes.len() {
            assert!(
                persist::read_session_state(&bytes[..cut]).is_err(),
                "cut at {cut}"
            );
        }
        assert_eq!(&bytes[..4], b"KGS1");
        for pos in 0..bytes.len() {
            for bit in [0x01u8, 0x80] {
                let mut bad = bytes.clone();
                bad[pos] ^= bit;
                match persist::read_session_state(&bad) {
                    Err(TsError::Parse(msg)) => assert!(
                        msg.contains("checksum") || msg.contains("magic"),
                        "flip at {pos}: unexpected message {msg}"
                    ),
                    other => panic!("flip bit {bit:#x} at {pos} must fail, got {other:?}"),
                }
            }
        }

        // A state decoded fine but restored over the wrong model is
        // rejected by the shape checks.
        let other = fitted();
        let state = persist::read_session_state(&bytes).unwrap();
        let compatible = other.layers.len() == model.layers.len()
            && other
                .layers
                .iter()
                .zip(&model.layers)
                .all(|(a, b)| a.graph.node_count() == b.graph.node_count());
        if !compatible {
            assert!(StreamSession::restore(other, StreamConfig::default(), state).is_err());
        }
    }

    #[test]
    fn delta_state_round_trips_through_serial() {
        let model = fitted();
        let mut session = StreamSession::new(
            model,
            StreamConfig {
                refresh_every: 0,
                compact_every: 0,
                context: 3,
            },
        );
        session.append(0, &wave(0, 80)).unwrap();
        let bytes = session.delta_state();
        let deltas = kgraph::serial::read_delta_state(&bytes).expect("round trip");
        assert_eq!(deltas.len(), session.model().layers.len());
        let total: u64 = deltas.iter().map(|d| d.edge_count() as u64).sum();
        assert_eq!(total, session.status().delta_edges);
    }
}
