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
//! u64 1                    one pending list, the buffered triples, written
//!   by `put_triples`: u64 n | n × (u64 src, u64 dst, f64 w)
//! u64 n_series             per open series:
//!   f64s values | u8 has_scores | [f64s scores]
//! u32 crc32                trailer over everything above
//! ```
//!
//! A session writes one delta and one pending list, the best layer's.

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
    /// The best layer's un-compacted delta (the embedded `KGD1` blob).
    pub delta: DeltaGraph<f64>,
    /// Transition triples buffered since the last refresh.
    pub pending: Vec<(NodeId, NodeId, f64)>,
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
/// corrupt embedded `KGD1` blob, a per-layer state (more than one delta or
/// pending list, the layout written before `KGM3`), a pending node past
/// the delta's node count, or trailing bytes.
pub fn read_session_state(bytes: &[u8]) -> Result<SessionState, TsError> {
    let mut c = open(bytes, SESSION_MAGIC, "session")?;
    let seq = c.u64()?;
    let points_total = c.u64()?;
    let points_since_refresh = c.u64()?;
    let refreshes = c.u64()?;
    let compactions = c.u64()?;
    let delta_len = c.len(1)?;
    let delta = kgraph::serial::read_delta_state(c.take(delta_len)?)?;
    let lists = c.u64()?;
    if lists != 1 {
        return Err(TsError::Parse(format!(
            "session state holds {lists} pending lists, not 1: a per-layer state, \
             as written before KGM3, is no longer read"
        )));
    }
    let pending = c.triples(delta.node_count())?;
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
        delta,
        pending,
        series,
    })
}

impl StreamSession {
    /// Reconstructs a session over `model` from a decoded [`SessionState`].
    ///
    /// The state's delta and pending triples, the best layer's, are adopted
    /// as-is after validating the delta's node count against the best
    /// layer ([`read_session_state`] already bounds each pending triple by
    /// the delta's node count); each series' path and gaps are rebuilt
    /// deterministically from the persisted values (a pure function of the
    /// immutable embedding) in one routing pass, and the persisted scores
    /// are installed *without* rescoring so the restored session serves
    /// exactly what the original served.
    ///
    /// # Errors
    ///
    /// [`TsError::Parse`] when the delta's node count does not match the
    /// best layer's; [`TsError::Degenerate`] when a series must be routed
    /// through a best layer without nodes.
    pub fn restore(
        model: Arc<KGraphModel>,
        cfg: StreamConfig,
        state: SessionState,
    ) -> Result<Self, TsError> {
        let layer = model.best();
        let nodes = layer.graph.node_count();
        if state.delta.node_count() != nodes {
            return Err(TsError::Parse(format!(
                "session delta covers {} nodes, best model layer has {nodes}",
                state.delta.node_count()
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
            delta: state.delta,
            pending: state.pending,
            series,
            points_since_refresh,
            points_total: state.points_total,
            refreshes: state.refreshes,
            compactions: state.compactions,
        })
    }
}
