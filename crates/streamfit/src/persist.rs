//! `KGS1` session-state persistence.
//!
//! A [`StreamSession`] is more than its un-compacted delta: bit-identical
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
//! that. Node paths and embedding gaps, by contrast, are a pure function of
//! the values and the (immutable) layer embedding, so they are rebuilt
//! instead of stored.
//!
//! Layout (little-endian, shared primitives and checksum framing from
//! [`kgraph::serial`]):
//!
//! ```text
//! b"KGS1"
//! u64 seq                  highest WAL sequence covered by this state
//! u64 points_total | u64 points_since_refresh | u64 refreshes | u64 compactions
//! u64 len | KGD1 bytes     embedded delta-state blob (own magic + checksum)
//! u64 n_layers             buffered pending triples, one list per delta
//!   entry, written by `put_triples`: u64 n | n × (u64 src, u64 dst, f64 w)
//! u64 n_series             per open series:
//!   f64s values | u8 has_scores | [f64s scores]
//! u32 crc32                trailer over everything above
//! ```
//!
//! A session writes one delta and one pending list, the best layer's. The
//! previous format generation wrote one of each per model layer. For one
//! generation [`StreamSession::restore`] still accepts that: it keeps entry
//! `best_layer` and drops the rest, which no answer read, so a snapshot
//! written before the upgrade still recovers.

use crate::session::{StreamConfig, StreamSession};
use kgraph::anomaly::routed_gaps;
use kgraph::pipeline::KGraphModel;
use kgraph::serial::{open, put_f64s, put_triples, put_u64, seal};
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
    /// Last-refreshed base+delta scores, if any.
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
    /// Un-compacted deltas (from the embedded `KGD1` blob): the best
    /// layer's alone, or one per model layer in the previous generation.
    pub deltas: Vec<DeltaGraph<f64>>,
    /// Transition triples buffered since the last refresh, one list per
    /// delta.
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
    put_u64(&mut out, 1);
    put_triples(&mut out, session.pending.iter().copied());
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
/// corrupt embedded `KGD1` blob, pending lists that do not match the deltas
/// (list count, or a node past the delta's node count),
/// or trailing bytes.
pub fn read_session_state(bytes: &[u8]) -> Result<SessionState, TsError> {
    let mut c = open(bytes, SESSION_MAGIC, "session")?;
    let seq = c.u64()?;
    let points_total = c.u64()?;
    let points_since_refresh = c.u64()?;
    let refreshes = c.u64()?;
    let compactions = c.u64()?;
    let delta_len = c.len(1)?;
    let deltas = kgraph::serial::read_delta_state(c.take(delta_len)?)?;
    let n_layers = c.usize()?;
    if n_layers != deltas.len() {
        return Err(TsError::Parse(format!(
            "session state has {n_layers} pending layers but {} deltas",
            deltas.len()
        )));
    }
    let pending = deltas
        .iter()
        .map(|d| c.triples(d.node_count()))
        .collect::<Result<Vec<_>, TsError>>()?;
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
    /// The state holds the best layer's delta and pending triples, or one
    /// of each per model layer as the previous format generation wrote
    /// them, of which entry `best_layer` is kept. They are adopted as-is
    /// after validating the delta's node count against the best layer
    /// ([`read_session_state`] already bounds each pending triple by its
    /// delta's node count); each series' path and gaps are rebuilt
    /// deterministically from the persisted values (a pure function of the
    /// immutable embedding) in one routing pass, and the persisted scores
    /// are installed *without* rescoring so the restored session serves
    /// exactly what the original served.
    ///
    /// # Errors
    ///
    /// [`TsError::Parse`] when the state does not fit `model` (neither one
    /// nor `model.layers.len()` deltas, as many pending lists as deltas,
    /// or a node count mismatch); [`TsError::Degenerate`] when a series
    /// must be routed through a best layer without nodes.
    pub fn restore(
        model: Arc<KGraphModel>,
        cfg: StreamConfig,
        mut state: SessionState,
    ) -> Result<Self, TsError> {
        let (n_deltas, n_layers) = (state.deltas.len(), model.layers.len());
        if (n_deltas != 1 && n_deltas != n_layers) || state.pending.len() != n_deltas {
            return Err(TsError::Parse(format!(
                "session state has {n_deltas} delta / {} pending lists, model has {n_layers} layers",
                state.pending.len()
            )));
        }
        let at = if n_deltas == n_layers {
            model.best_layer
        } else {
            0
        };
        let delta = state.deltas.swap_remove(at);
        let pending = state.pending.swap_remove(at);
        let layer = model.best();
        let nodes = layer.graph.node_count();
        if delta.node_count() != nodes {
            return Err(TsError::Parse(format!(
                "session delta covers {} nodes, best model layer has {nodes}",
                delta.node_count()
            )));
        }
        let mut series = Vec::with_capacity(state.series.len());
        for s in state.series {
            // Rebuild the full route; the triples it induces are already
            // accounted for in the delta / pending buffer.
            layer.check_routable()?;
            let (path, gaps) = routed_gaps(&layer.embedding, &s.values, 0);
            series.push(crate::session::OpenSeries {
                values: s.values,
                path,
                gaps,
                scores: s.scores,
            });
        }
        let points_since_refresh =
            usize::try_from(state.points_since_refresh).unwrap_or(usize::MAX);
        Ok(StreamSession {
            model,
            cfg,
            delta,
            pending,
            series,
            points_since_refresh,
            points_total: state.points_total,
            refreshes: state.refreshes,
            compactions: state.compactions,
        })
    }
}
