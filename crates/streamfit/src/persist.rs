//! `KGS1` session-state persistence.
//!
//! A [`StreamSession`] is more than its un-compacted deltas: bit-identical
//! recovery also needs the buffered (pre-refresh) transition triples,
//! every open series' raw values *and* its last-refreshed scores, and the
//! cadence counters. The `KGS1` blob captures all of that — embedding the
//! existing `KGD1` delta-state blob verbatim — so a snapshot taken at
//! *any* instant (mid-cadence included) restores to exactly the state a
//! never-stopped session would hold.
//!
//! Scores are persisted rather than recomputed at restore: when a snapshot
//! lands between refreshes, the live session still serves the scores of its
//! *last* refresh, and rescoring over the newer points would diverge from
//! that. Node paths, by contrast, are a pure function of the values and the
//! (immutable) layer embeddings, so they are rebuilt instead of stored.
//!
//! Layout (little-endian, shared primitives and checksum framing from
//! [`kgraph::serial`]):
//!
//! ```text
//! b"KGS1"
//! u64 seq                  highest WAL sequence covered by this state
//! u64 points_total | u64 points_since_refresh | u64 refreshes | u64 compactions
//! u64 len | KGD1 bytes     embedded delta-state blob (own magic + checksum)
//! u64 n_layers             buffered pending triples, per layer:
//!   u64 n | n × (u64 src, u64 dst, f64 w)
//! u64 n_series             per open series:
//!   f64s values | u8 has_scores | [f64s scores]
//! u32 crc32                trailer over everything above
//! ```

use crate::session::{StreamConfig, StreamSession};
use kgraph::pipeline::KGraphModel;
use kgraph::serial::{open, put_f64, put_f64s, put_u64, seal};
use kgraph::stream::extend_path;
use std::sync::Arc;
use tscore::error::TsError;
use tsgraph::delta::DeltaGraph;
use tsgraph::NodeId;

/// Magic prefix of a serialized session state.
pub const SESSION_MAGIC: &[u8; 4] = b"KGS1";

/// One open series as persisted: its raw values and the scores of its last
/// refresh (absent before the first refresh).
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesState {
    /// All points observed so far.
    pub values: Vec<f64>,
    /// Last-refreshed merged-view scores, if any.
    pub scores: Option<Vec<f64>>,
}

/// Decoded `KGS1` session state, ready for [`StreamSession::restore`].
#[derive(Debug, Clone)]
pub struct SessionState {
    /// Highest write-ahead-log sequence number this state covers. Records
    /// with larger sequence numbers must be replayed on top.
    pub seq: u64,
    /// Lifetime appended points.
    pub points_total: u64,
    /// Points appended since the last refresh.
    pub points_since_refresh: u64,
    /// Refreshes performed.
    pub refreshes: u64,
    /// Compactions performed.
    pub compactions: u64,
    /// Per-layer un-compacted deltas (from the embedded `KGD1` blob).
    pub deltas: Vec<DeltaGraph<f64>>,
    /// Per-layer transition triples buffered since the last refresh.
    pub pending: Vec<Vec<(NodeId, NodeId, f64)>>,
    /// Open series in index order.
    pub series: Vec<SeriesState>,
}

/// Serialises `session` (and the WAL sequence `seq` it covers) as a
/// checksummed `KGS1` blob.
pub fn write_session_state(session: &StreamSession, seq: u64) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(SESSION_MAGIC);
    put_u64(&mut out, seq);
    put_u64(&mut out, session.points_total);
    put_u64(&mut out, session.points_since_refresh as u64);
    put_u64(&mut out, session.refreshes);
    put_u64(&mut out, session.compactions);
    let delta = session.delta_state();
    put_u64(&mut out, delta.len() as u64);
    out.extend_from_slice(&delta);
    put_u64(&mut out, session.pending.len() as u64);
    for layer in &session.pending {
        put_u64(&mut out, layer.len() as u64);
        for &(s, t, w) in layer {
            put_u64(&mut out, u64::from(s.0));
            put_u64(&mut out, u64::from(t.0));
            put_f64(&mut out, w);
        }
    }
    put_u64(&mut out, session.series.len() as u64);
    for s in &session.series {
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

/// Decodes a `KGS1` blob.
///
/// # Errors
///
/// [`TsError::Parse`] on wrong magic, checksum mismatch, truncation, a
/// corrupt embedded `KGD1` blob, or trailing bytes.
pub fn read_session_state(bytes: &[u8]) -> Result<SessionState, TsError> {
    let mut c = open(bytes, SESSION_MAGIC, "session")?;
    let seq = c.u64()?;
    let points_total = c.u64()?;
    let points_since_refresh = c.u64()?;
    let refreshes = c.u64()?;
    let compactions = c.u64()?;
    let delta_len = c.len(1)?;
    let deltas = kgraph::serial::read_delta_state(c.take(delta_len)?)?;
    let n_layers = c.len(8)?;
    let mut pending = Vec::with_capacity(n_layers);
    for _ in 0..n_layers {
        let n = c.len(24)?;
        let mut triples = Vec::with_capacity(n);
        for _ in 0..n {
            let s = c.u64()?;
            let t = c.u64()?;
            let w = c.f64()?;
            let narrow = |v: u64| {
                u32::try_from(v).map_err(|_| {
                    TsError::Parse(format!("pending triple node id {v} overflows u32"))
                })
            };
            triples.push((NodeId(narrow(s)?), NodeId(narrow(t)?), w));
        }
        pending.push(triples);
    }
    let n_series = c.len(9)?;
    let mut series = Vec::with_capacity(n_series);
    for _ in 0..n_series {
        let values = c.f64s()?;
        let scores = match c.u8()? {
            0 => None,
            1 => Some(c.f64s()?),
            other => {
                return Err(TsError::Parse(format!(
                    "invalid scores flag {other} in session state"
                )))
            }
        };
        series.push(SeriesState { values, scores });
    }
    c.finish("session state")?;
    Ok(SessionState {
        seq,
        points_total,
        points_since_refresh,
        refreshes,
        compactions,
        deltas,
        pending,
        series,
    })
}

impl StreamSession {
    /// Reconstructs a session over `model` from a decoded [`SessionState`].
    ///
    /// The deltas and pending triples are adopted as-is after validating
    /// their shape against `model`; per-layer node paths are rebuilt
    /// deterministically from the persisted values (a pure function of the
    /// immutable layer embeddings), and the persisted scores are installed
    /// *without* rescoring so the restored session serves exactly what the
    /// original served.
    ///
    /// # Errors
    ///
    /// [`TsError::Parse`] when the state does not fit `model` (layer count
    /// or per-layer node count mismatch, out-of-range pending triple);
    /// any [`TsError`] from path reconstruction.
    pub fn restore(
        model: Arc<KGraphModel>,
        cfg: StreamConfig,
        state: SessionState,
    ) -> Result<Self, TsError> {
        let n_layers = model.layers.len();
        if state.deltas.len() != n_layers || state.pending.len() != n_layers {
            return Err(TsError::Parse(format!(
                "session state has {} delta / {} pending layers, model has {n_layers}",
                state.deltas.len(),
                state.pending.len()
            )));
        }
        for (l, (delta, layer)) in state.deltas.iter().zip(&model.layers).enumerate() {
            let nodes = layer.graph.node_count();
            if delta.node_count() != nodes {
                return Err(TsError::Parse(format!(
                    "layer {l} delta covers {} nodes, model layer has {nodes}",
                    delta.node_count()
                )));
            }
            for &(s, t, _) in &state.pending[l] {
                if s.0 as usize >= nodes || t.0 as usize >= nodes {
                    return Err(TsError::Parse(format!(
                        "layer {l} pending triple ({}, {}) references missing node \
                         (layer has {nodes})",
                        s.0, t.0
                    )));
                }
            }
        }
        let mut series = Vec::with_capacity(state.series.len());
        for s in state.series {
            let mut paths = Vec::with_capacity(n_layers);
            for layer in &model.layers {
                // Rebuild the full path; the induced triples are already
                // accounted for in the deltas / pending buffers.
                let delta = extend_path(layer, &s.values, 0, None)?;
                paths.push(delta.new_nodes);
            }
            series.push(crate::session::OpenSeries {
                values: s.values,
                paths,
                scores: s.scores,
            });
        }
        let points_since_refresh =
            usize::try_from(state.points_since_refresh).unwrap_or(usize::MAX);
        Ok(StreamSession {
            model,
            cfg,
            deltas: state.deltas,
            pending: state.pending,
            series,
            points_since_refresh,
            points_total: state.points_total,
            refreshes: state.refreshes,
            compactions: state.compactions,
        })
    }
}
