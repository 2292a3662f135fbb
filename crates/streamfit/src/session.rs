//! The streaming session: open series, the best layer's delta, cadenced
//! refresh and compaction.

use kgraph::anomaly::scores_from_route;
use kgraph::pipeline::KGraphModel;
use kgraph::stream::extend_path;
use std::sync::Arc;
use tscore::error::TsError;
use tscore::windows::window_count;
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
    /// Compact the delta into a fresh base CSR every this many refreshes.
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
    /// Best-layer node path, grown window-by-window on append.
    pub(crate) path: Vec<NodeId>,
    /// Embedding gap per window, aligned with `path`: with it, the route a
    /// refresh rescores.
    pub(crate) gaps: Vec<f64>,
    /// Latest base+delta anomaly scores (best layer), set at refresh.
    pub(crate) scores: Option<Vec<f64>>,
}

/// What one append did, beyond buffering.
#[derive(Debug, Default)]
pub struct AppendOutcome {
    /// New complete windows this append created on the best layer.
    pub new_windows: usize,
    /// Whether the refresh cadence fired (delta ingested, scores
    /// recomputed).
    pub refreshed: bool,
    /// The compacted model, when the compaction cadence fired. The caller
    /// owns publication (e.g. `ModelStore::insert`) — the session has
    /// already switched its own base to it. Over an empty delta it is the
    /// session's model as it was, the same `Arc`, and needs none.
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
    /// Best-layer transition triples buffered but not yet ingested into
    /// the delta.
    pub pending_triples: u64,
    /// Distinct edges of the best layer's un-compacted delta.
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

/// A continuously-updatable view over one fitted model's best layer, the
/// one every answer reads: appends route the new windows and buffer their
/// transition triples, the refresh cadence folds them into a
/// [`DeltaGraph`] and rescores every open series' stored route against the
/// base compacted with that delta, and the compaction cadence merges the
/// delta into a fresh base CSR published as a new `Arc` snapshot, beside
/// the layer's paths and embedding as fitted.
///
/// The session itself is single-writer (wrap it in a `Mutex`; see
/// [`SessionRegistry`](crate::SessionRegistry)) — concurrent *readers* of
/// the model are untouched because the base is never mutated, only
/// replaced.
pub struct StreamSession {
    pub(crate) model: Arc<KGraphModel>,
    pub(crate) cfg: StreamConfig,
    /// The best layer's delta, node-aligned with its graph.
    pub(crate) delta: DeltaGraph<f64>,
    /// Best-layer triples buffered since the last refresh.
    pub(crate) pending: Vec<(NodeId, NodeId, f64)>,
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
        StreamSession {
            delta: DeltaGraph::new(model.best().graph.node_count()),
            model,
            cfg,
            pending: Vec::new(),
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
    /// applied: `index` is at most `open_series()`, and the best layer has
    /// nodes to route windows through. `append` refuses exactly when
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
        self.model.best().check_routable()
    }

    /// Appends `points` to series `index`. `index == open_series()` opens
    /// a new series; the refusals are [`check_append`](Self::check_append)'s.
    /// New complete windows are routed through the best layer's stored
    /// embedding and their transitions buffered; the refresh/compaction
    /// cadences fire inside this call when due.
    pub fn append(&mut self, index: usize, points: &[f64]) -> Result<AppendOutcome, TsError> {
        self.check_append(index)?;
        if index == self.series.len() {
            self.series.push(OpenSeries {
                values: Vec::new(),
                path: Vec::new(),
                gaps: Vec::new(),
                scores: None,
            });
        }
        let series = &mut self.series[index];
        series.values.extend_from_slice(points);
        let routed = extend_path(
            self.model.best(),
            &series.values,
            series.path.len(),
            series.path.last().copied(),
        )?;
        series.path.extend_from_slice(&routed.new_nodes);
        series.gaps.extend_from_slice(&routed.new_gaps);
        self.pending.extend_from_slice(&routed.triples);
        let mut outcome = AppendOutcome {
            new_windows: routed.new_nodes.len(),
            ..AppendOutcome::default()
        };
        self.points_total += points.len() as u64;
        self.points_since_refresh += points.len();

        if self.points_since_refresh >= self.cfg.refresh_every {
            outcome.refreshed = true;
            outcome.compacted = self.refresh();
        }
        Ok(outcome)
    }

    /// Forces a refresh now: drains the pending triples into the delta,
    /// compacts when the cadence is due, and rescores every open series
    /// against base + delta (after a compaction, the new base and its
    /// empty delta, so the delta is compacted once). Returns the new model
    /// on compaction. A due compaction fires even over an empty delta, so
    /// callers can count on one every `compact_every` refreshes.
    pub fn refresh(&mut self) -> Option<Arc<KGraphModel>> {
        if !self.pending.is_empty() {
            self.delta.ingest(self.pending.drain(..), sum);
        }
        self.points_since_refresh = 0;
        self.refreshes += 1;
        let compacted = (self.cfg.compact_every > 0
            && self.refreshes.is_multiple_of(self.cfg.compact_every as u64))
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
        let base = &self.model.best().graph;
        let merged;
        let graph = if self.delta.is_empty() {
            base
        } else {
            merged = self.delta.compact(base, sum);
            &merged
        };
        for s in &mut self.series {
            s.scores =
                (!s.path.is_empty()).then(|| scores_from_route(graph, &s.path, &s.gaps, CONTEXT));
        }
    }

    /// Merges the delta into a fresh base CSR for the best layer, copies
    /// the rest of the model beside it, switches the session to the new
    /// model and returns it for publication. Readers of the old `Arc` are
    /// untouched. An empty delta leaves the model as it is, and its `Arc`
    /// is returned: a copy would be a new version with the same answers.
    fn compact(&mut self) -> Arc<KGraphModel> {
        self.compactions += 1;
        if self.delta.is_empty() {
            return Arc::clone(&self.model);
        }
        let old = &self.model;
        let mut layer = old.best().clone();
        layer.graph = self.delta.compact(&layer.graph, sum);
        let next = Arc::new(KGraphModel::new(
            old.config.clone(),
            layer,
            old.partitions.clone(),
            old.labels.clone(),
            old.scores.clone(),
            old.best_layer,
        ));
        self.delta = DeltaGraph::new(next.best().graph.node_count());
        self.model = Arc::clone(&next);
        next
    }

    /// Serialises the un-compacted best-layer delta (`KGD1`, one entry).
    pub fn delta_state(&self) -> Vec<u8> {
        kgraph::serial::write_delta_state(&self.delta)
    }

    /// Current session summary.
    pub fn status(&self) -> StreamStatus {
        let best = self.model.best();
        StreamStatus {
            points_total: self.points_total,
            points_pending: self.points_since_refresh as u64,
            refreshes: self.refreshes,
            compactions: self.compactions,
            pending_triples: self.pending.len() as u64,
            delta_edges: self.delta.edge_count() as u64,
            series: self
                .series
                .iter()
                .enumerate()
                .map(|(i, s)| SeriesStatus {
                    index: i,
                    points: s.values.len(),
                    windows: window_count(s.values.len(), best.length, best.embedding.stride),
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
