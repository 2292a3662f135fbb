//! Pins the exact bytes a streaming session persists.
//!
//! A fixed fit is driven through a fixed stream. At two points the test
//! records the length and FNV-1a hash of the three persisted blobs:
//! `write_model` (`KGM3`), `write_delta_state` (`KGD1`) and
//! `write_session_state` (`KGS1`, which embeds the last refreshed scores).
//! The first point is mid-cadence, with a non-empty delta, pending triples
//! and scores. The second comes after a compaction. A fourth pin at both
//! points hashes the best layer's graph with the session's delta and
//! pending triples compacted into it: the graph every stream score reads.
//!
//! The expected values were recorded from the code as it stood before the
//! CSR in-index and the merged base+delta scorer were removed. Any change
//! to graph assembly, delta aggregation, scoring or the codecs that moves a
//! single byte fails here.

use kgraph::serial::write_model;
use kgraph::{KGraph, KGraphConfig};
use std::sync::Arc;
use streamfit::{read_session_state, write_session_state, StreamConfig, StreamSession};
use tscore::{Dataset, DatasetKind, TimeSeries};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn pin(bytes: &[u8]) -> (usize, u64) {
    (bytes.len(), fnv1a(bytes))
}

/// (`KGM3`, `KGD1`, `KGS1`) pins of `session` at WAL sequence `seq`.
fn pins(session: &StreamSession, seq: u64) -> [(usize, u64); 3] {
    [
        pin(&write_model(session.model())),
        pin(&session.delta_state()),
        pin(&write_session_state(session, seq)),
    ]
}

/// (edge count, FNV-1a of every `(src, dst, weight bits)`) of the best
/// layer's graph after a copy of `session`, restored from its `KGS1`
/// state, refreshes with a compaction due.
fn compacted_best(session: &StreamSession) -> (usize, u64) {
    let state = read_session_state(&write_session_state(session, 0)).unwrap();
    let cfg = StreamConfig {
        refresh_every: 0,
        compact_every: 1,
    };
    let mut copy = StreamSession::restore(Arc::clone(session.model()), cfg, state).unwrap();
    assert!(copy.refresh().is_some(), "the copy compacts");
    let mut bytes = Vec::new();
    let mut edges = 0;
    for (_, a, b, w) in copy.model().best().graph.edges_iter() {
        bytes.extend_from_slice(&a.0.to_le_bytes());
        bytes.extend_from_slice(&b.0.to_le_bytes());
        bytes.extend_from_slice(&w.to_bits().to_le_bytes());
        edges += 1;
    }
    (edges, fnv1a(&bytes))
}

fn fitted() -> kgraph::KGraphModel {
    let series: Vec<TimeSeries> = (0..10)
        .map(|p| {
            let f = if p < 5 { 0.3 } else { 0.8 };
            TimeSeries::new((0..96).map(|i| ((i + p) as f64 * f).sin()).collect())
        })
        .collect();
    let ds = Dataset::new("pinned", DatasetKind::Simulated, series);
    let cfg = KGraphConfig {
        psi: 10,
        pca_sample: 300,
        n_init: 2,
        ..KGraphConfig::new(2)
    }
    .with_lengths(vec![12, 20]);
    KGraph::new(cfg).fit(&ds)
}

/// Chunk `chunk` of series `s`: a wave whose frequency drifts off the
/// fitted ones, so the stream adds edges the base never saw.
fn chunk(s: usize, chunk: usize) -> Vec<f64> {
    let f = 0.3 + 0.07 * s as f64;
    (chunk * 12..chunk * 12 + 12)
        .map(|i| (i as f64 * f).sin() + 0.2 * ((i * (s + 1)) as f64 * 0.11).cos())
        .collect()
}

#[test]
fn persisted_bytes_are_pinned_mid_cadence_and_after_compaction() {
    let cfg = StreamConfig {
        refresh_every: 40,
        compact_every: 3,
    };
    let mut session = StreamSession::new(Arc::new(fitted()), cfg);
    let mut seq = 0u64;
    let mut drive = |session: &mut StreamSession, chunks: std::ops::Range<usize>| {
        for c in chunks {
            for s in 0..3 {
                session.append(s, &chunk(s, c)).unwrap();
                seq += 1;
            }
        }
        seq
    };

    // Two refreshes in, one chunk past the second: the delta, the pending
    // triples and the scores are all non-empty.
    let seq_mid = drive(&mut session, 0..3);
    let status = session.status();
    assert_eq!((status.refreshes, status.compactions), (2, 0));
    assert!(status.delta_edges > 0 && status.pending_triples > 0);
    assert!(session.scores(0).is_some());
    let mid = pins(&session, seq_mid);
    let mid_best = compacted_best(&session);

    // Past the third refresh, which compacts; then into the next cadence.
    let seq_after = drive(&mut session, 3..6);
    let status = session.status();
    assert_eq!((status.refreshes, status.compactions), (4, 1));
    assert!(status.delta_edges > 0);
    let after = pins(&session, seq_after);
    let after_best = compacted_best(&session);

    assert_eq!(mid_best, MID_BEST, "mid-cadence best-layer graph moved");
    assert_eq!(
        after_best, AFTER_BEST,
        "post-compaction best-layer graph moved"
    );
    assert_eq!(mid, MID, "mid-cadence pins moved");
    assert_eq!(after, AFTER, "post-compaction pins moved");
}

/// Recorded (edge count, FNV-1a) of the compacted best-layer graph
/// mid-cadence and after the first compaction.
const MID_BEST: (usize, u64) = (44, 3_236_670_470_569_238_270);
const AFTER_BEST: (usize, u64) = (46, 15_810_543_237_379_848_909);

/// Recorded (length, FNV-1a) of `KGM3`, `KGD1`, `KGS1` mid-cadence.
const MID: [(usize, u64); 3] = [
    (14_995, 8_631_727_000_285_824_202),
    (656, 14_285_297_253_669_568_865),
    (2_395, 11_322_604_218_802_555_806),
];
/// The same after the first compaction.
const AFTER: [(usize, u64); 3] = [
    (15_211, 13_308_739_863_853_477_238),
    (560, 17_508_870_581_196_468_150),
    (4_147, 15_226_757_844_606_054_450),
];
