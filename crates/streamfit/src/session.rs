//! The streaming session: open series, per-layer deltas, cadenced refresh
//! and compaction.

use kgraph::anomaly::scores_from_route;
use kgraph::pipeline::KGraphModel;
use kgraph::stream::{extend_path, n_windows};
use kgraph::GraphLayer;
use std::sync::Arc;
use tscore::error::TsError;
use tsgraph::delta::DeltaGraph;
use tsgraph::NodeId;

/// Knobs of a [`StreamSession`]. All cadences count *appended points*
/// (refresh) or *refreshes* (compaction), so behaviour is deterministic
/// and testable — no wall-clock timers.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Refresh (delta ingest + rescoring) after this many appended points.
    /// 0 refreshes on every append.
    pub refresh_every: usize,
    /// Compact the deltas into a fresh base CSR every this many refreshes.
    /// 0 disables compaction.
    pub compact_every: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            refresh_every: 64,
            compact_every: 8,
        }
    }
}

/// Smoothing context the anomaly scorer uses for streamed series.
pub(crate) const CONTEXT: usize = 3;

/// One live series the session is tracking.
pub(crate) struct OpenSeries {
    /// All points observed so far.
    pub(crate) values: Vec<f64>,
    /// Node path per model layer, grown window-by-window on append.
    pub(crate) paths: Vec<Vec<NodeId>>,
    /// Embedding gap per window of the best layer, aligned with
    /// `paths[best_layer]`: with it, the route a refresh rescores.
    pub(crate) gaps: Vec<f64>,
    /// Latest base+delta anomaly scores (best layer), set at refresh.
    pub(crate) scores: Option<Vec<f64>>,
}

/// What one append did, beyond buffering.
#[derive(Debug, Default)]
pub struct AppendOutcome {
    /// New complete windows this append created on the best layer.
    pub new_windows: usize,
    /// Whether the refresh cadence fired (deltas ingested, scores
    /// recomputed).
    pub refreshed: bool,
    /// A freshly compacted model, when the compaction cadence fired. The
    /// caller owns publication (e.g. `ModelStore::insert`) — the session
    /// has already switched its own base to it.
    pub compacted: Option<Arc<KGraphModel>>,
}

/// Summary of a session for the `stream-status` endpoint.
#[derive(Debug, Clone)]
pub struct StreamStatus {
    /// Points appended over the session's lifetime.
    pub points_total: u64,
    /// Points appended since the last refresh.
    pub points_pending: u64,
    /// Refreshes performed.
    pub refreshes: u64,
    /// Compactions performed.
    pub compactions: u64,
    /// Transition triples buffered but not yet ingested into the deltas.
    pub pending_triples: u64,
    /// Distinct delta edges across all layers (un-compacted state).
    pub delta_edges: u64,
    /// Per-series state, in series-index order.
    pub series: Vec<SeriesStatus>,
}

/// Per-series slice of [`StreamStatus`].
#[derive(Debug, Clone)]
pub struct SeriesStatus {
    /// Session-local series index.
    pub index: usize,
    /// Points observed so far.
    pub points: usize,
    /// Complete windows on the best layer.
    pub windows: usize,
    /// Mean of the latest refreshed scores (None before first refresh or
    /// while the series is shorter than one window).
    pub mean_score: Option<f64>,
    /// Max of the latest refreshed scores.
    pub max_score: Option<f64>,
}

/// A continuously-updatable view over one fitted model: appends route the
/// new windows and buffer transition triples per layer, the refresh
/// cadence folds them into [`DeltaGraph`]s and rescores every open
/// series' stored route against the best layer's base compacted with its
/// delta, and the compaction cadence merges the
/// deltas into a fresh base CSR published as a new `Arc` snapshot.
///
/// The session itself is single-writer (wrap it in a `Mutex`; see
/// [`SessionRegistry`](crate::SessionRegistry)) — concurrent *readers* of
/// the model are untouched because the base is never mutated, only
/// replaced.
pub struct StreamSession {
    pub(crate) model: Arc<KGraphModel>,
    pub(crate) cfg: StreamConfig,
    /// One delta per model layer, node-aligned with that layer's graph.
    pub(crate) deltas: Vec<DeltaGraph<f64>>,
    /// Triples buffered per layer since the last refresh.
    pub(crate) pending: Vec<Vec<(NodeId, NodeId, f64)>>,
    pub(crate) series: Vec<OpenSeries>,
    pub(crate) points_since_refresh: usize,
    pub(crate) points_total: u64,
    pub(crate) refreshes: u64,
    pub(crate) compactions: u64,
}

fn sum(acc: &mut f64, w: f64) {
    *acc += w;
}

impl StreamSession {
    /// Opens a session over `model`.
    pub fn new(model: Arc<KGraphModel>, cfg: StreamConfig) -> Self {
        let deltas = model
            .layers
            .iter()
            .map(|l| DeltaGraph::new(l.graph.node_count()))
            .collect();
        let pending = model.layers.iter().map(|_| Vec::new()).collect();
        StreamSession {
            model,
            cfg,
            deltas,
            pending,
            series: Vec::new(),
            points_since_refresh: 0,
            points_total: 0,
            refreshes: 0,
            compactions: 0,
        }
    }

    /// The session's current base model (replaced at compaction).
    pub fn model(&self) -> &Arc<KGraphModel> {
        &self.model
    }

    /// Latest refreshed scores of series `index` (base + delta).
    pub fn scores(&self, index: usize) -> Option<&[f64]> {
        self.series.get(index)?.scores.as_deref()
    }

    /// Number of open series.
    pub fn open_series(&self) -> usize {
        self.series.len()
    }

    /// Lifetime appended points.
    pub fn points_total(&self) -> u64 {
        self.points_total
    }

    /// Refreshes performed so far.
    pub fn refreshes(&self) -> u64 {
        self.refreshes
    }

    /// Compactions performed so far.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Whether [`append`](Self::append) to series `index` would be
    /// applied: `index` is at most `open_series()`, and every model layer
    /// has nodes to route windows through. `append` refuses exactly when
    /// this does, before it changes anything, so a caller can check before
    /// it journals.
    pub fn check_append(&self, index: usize) -> Result<(), TsError> {
        if index > self.series.len() {
            return Err(TsError::InvalidParameter(format!(
                "series index {index} out of range (session has {}; the next new index is {})",
                self.series.len(),
                self.series.len()
            )));
        }
        self.model
            .layers
            .iter()
            .try_for_each(GraphLayer::check_routable)
    }

    /// Appends `points` to series `index`. `index == open_series()` opens
    /// a new series; the refusals are [`check_append`](Self::check_append)'s.
    /// New complete windows are routed through every layer's stored
    /// embedding and their transitions buffered; the refresh/compaction
    /// cadences fire inside this call when due.
    pub fn append(&mut self, index: usize, points: &[f64]) -> Result<AppendOutcome, TsError> {
        self.check_append(index)?;
        if index == self.series.len() {
            let n_layers = self.model.layers.len();
            self.series.push(OpenSeries {
                values: Vec::new(),
                paths: vec![Vec::new(); n_layers],
                gaps: Vec::new(),
                scores: None,
            });
        }
        let series = &mut self.series[index];
        series.values.extend_from_slice(points);

        let mut outcome = AppendOutcome::default();
        for (l, layer) in self.model.layers.iter().enumerate() {
            let old_windows = series.paths[l].len();
            let delta = extend_path(
                layer,
                &series.values,
                old_windows,
                series.paths[l].last().copied(),
            )?;
            if l == self.model.best_layer {
                outcome.new_windows = delta.new_nodes.len();
                series.gaps.extend_from_slice(&delta.new_gaps);
            }
            series.paths[l].extend_from_slice(&delta.new_nodes);
            self.pending[l].extend_from_slice(&delta.triples);
        }
        self.points_total += points.len() as u64;
        self.points_since_refresh += points.len();

        if self.points_since_refresh >= self.cfg.refresh_every {
            outcome.refreshed = true;
            outcome.compacted = self.refresh();
        }
        Ok(outcome)
    }

    /// Forces a refresh now: drains the pending triples into the deltas,
    /// compacts when the cadence is due, and rescores every open series
    /// against base + delta (after a compaction, the new base and its
    /// empty delta, so each layer is compacted once). Returns the new
    /// model on compaction.
    pub fn refresh(&mut self) -> Option<Arc<KGraphModel>> {
        for (l, pending) in self.pending.iter_mut().enumerate() {
            if !pending.is_empty() {
                self.deltas[l].ingest(pending.drain(..), sum);
            }
        }
        self.points_since_refresh = 0;
        self.refreshes += 1;
        let compacted = (self.cfg.compact_every > 0
            && self.refreshes.is_multiple_of(self.cfg.compact_every as u64)
            && self.deltas.iter().any(|d| !d.is_empty()))
        .then(|| self.compact());
        self.rescore_all();
        compacted
    }

    /// Rescores every open series from its stored best-layer route against
    /// the best layer's base compacted with its delta into a temporary
    /// graph (the base itself when the delta is empty). Compaction folds
    /// `b + d` per edge, so the scores are those of a graph built from the
    /// whole stream. The stored route is the one the batch scorer would
    /// compute, since a window's node and gap depend only on its values
    /// and the embedding, which a compaction keeps; so the scores are the
    /// batch scorer's, and no window is routed again. A series shorter
    /// than one window has no scores. The loop is serial: a stored route
    /// costs one edge lookup per window, which for a session's few series
    /// is less than starting fan-out threads.
    fn rescore_all(&mut self) {
        let best = self.model.best_layer;
        let layer = &self.model.layers[best];
        let delta = &self.deltas[best];
        let merged;
        let graph = if delta.is_empty() {
            &layer.graph
        } else {
            merged = delta.compact(&layer.graph, sum);
            &merged
        };
        for s in &mut self.series {
            let path = &s.paths[best];
            s.scores = (!path.is_empty()).then(|| scores_from_route(graph, path, &s.gaps, CONTEXT));
        }
    }

    /// Merges every layer's delta into a fresh base CSR, switches the
    /// session to the new model and returns it for publication. Readers of
    /// the old `Arc` are untouched.
    fn compact(&mut self) -> Arc<KGraphModel> {
        let old = &self.model;
        let layers: Vec<GraphLayer> = old
            .layers
            .iter()
            .zip(&self.deltas)
            .map(|(layer, delta)| {
                if delta.is_empty() {
                    return layer.clone();
                }
                let graph = delta.compact(&layer.graph, sum);
                GraphLayer {
                    length: layer.length,
                    graph,
                    paths: layer.paths.clone(),
                    labels: layer.labels.clone(),
                    embedding: layer.embedding.clone(),
                }
            })
            .collect();
        let next = Arc::new(KGraphModel::new(
            old.config.clone(),
            layers,
            old.labels.clone(),
            old.scores.clone(),
            old.best_layer,
        ));
        self.deltas = next
            .layers
            .iter()
            .map(|l| DeltaGraph::new(l.graph.node_count()))
            .collect();
        self.model = Arc::clone(&next);
        self.compactions += 1;
        next
    }

    /// Serialises the un-compacted per-layer delta state (`KGD1`).
    pub fn delta_state(&self) -> Vec<u8> {
        kgraph::serial::write_delta_state(&self.deltas)
    }

    /// Current session summary.
    pub fn status(&self) -> StreamStatus {
        let best = &self.model.layers[self.model.best_layer];
        StreamStatus {
            points_total: self.points_total,
            points_pending: self.points_since_refresh as u64,
            refreshes: self.refreshes,
            compactions: self.compactions,
            pending_triples: self.pending.iter().map(|p| p.len() as u64).sum(),
            delta_edges: self.deltas.iter().map(|d| d.edge_count() as u64).sum(),
            series: self
                .series
                .iter()
                .enumerate()
                .map(|(i, s)| SeriesStatus {
                    index: i,
                    points: s.values.len(),
                    windows: n_windows(s.values.len(), best.length, best.embedding.stride),
                    mean_score: s
                        .scores
                        .as_ref()
                        .filter(|v| !v.is_empty())
                        .map(|v| v.iter().sum::<f64>() / v.len() as f64),
                    max_score: s
                        .scores
                        .as_ref()
                        .and_then(|v| v.iter().copied().reduce(f64::max)),
                })
                .collect(),
        }
    }
}
