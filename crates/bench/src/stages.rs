//! Stage-attributed pipeline fixture for the regression-gated benches.
//!
//! The end-to-end k-Graph pipeline decomposes into five stages —
//! **build** (subsequence embedding + radial scan + graph construction),
//! **fit** (the full multi-length model), **features** (path → feature
//! matrix), **cluster** (k-Means over the features) and **render** (the
//! Graph frame's node-link view) — plus **serve**, the per-request reads
//! of a fitted model (predict, graphoid, render) that the model's
//! per-version cache answers, **persist**, writing and loading a model's
//! sealed snapshot, **http**, reading a request off and writing an
//! answer onto a loopback socket, and **stream**, refreshing a streaming
//! session's scores. `bench_pipeline` times each stage under
//! a label of the form `pipeline/<stage>/<variant>`, and
//! [`crate::baseline`] aggregates ratios per `<stage>` — so a regression
//! report says *which stage* got slower, not just that the pipeline did.
//!
//! Everything here is deterministic (fixed dataset seed, fixed config) so
//! two runs on the same machine measure the same work.

use graphint::frames::graph::GraphFrame;
use graphint::plot::{DetailLevel, GraphPlot, RenderBudget};
use graphserve::http::{Request, Response};
use graphserve::json::f64s_to_json;
use kgraph::build::GraphLayer;
use kgraph::embed::project_subsequences;
use kgraph::features::{cluster_layer, feature_matrix};
use kgraph::graphoid::{ClusterStats, Graphoid};
use kgraph::nodes::radial_scan;
use kgraph::{KGraph, KGraphConfig, KGraphModel, NodePattern, PatternGraph};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use streamfit::{StreamConfig, StreamSession};
use tscore::Dataset;
use tsgraph::layout::{layout_graph, BarnesHutOptions, LayoutEngine};
use tsgraph::{GraphBuilder, NodeId};

/// The stage names, in pipeline order. These are the `<stage>` path
/// segments of every `pipeline/<stage>/<variant>` bench label and the keys
/// the comparison gate aggregates by.
pub const STAGE_NAMES: [&str; 9] = [
    "build", "fit", "features", "cluster", "render", "serve", "persist", "http", "stream",
];

/// Deterministic workload shared by every stage bench.
pub struct StageFixture {
    /// The dataset every stage operates on (CBF, fixed seed).
    pub dataset: Dataset,
    /// Subsequence length ℓ used for the single-layer stages.
    pub length: usize,
    /// The pipeline configuration used by the fit stage (also supplies
    /// ψ, stride, KDE grid and PCA sample size to the single-layer stages).
    pub config: KGraphConfig,
}

impl StageFixture {
    /// The standard fixture: 18 CBF series of length 96, a 3-length
    /// pipeline bounded like the quick experiment configs.
    pub fn standard() -> Self {
        let dataset = datasets::cbf::cbf(6, 96, 0);
        let config = KGraphConfig {
            n_lengths: 3,
            psi: 16,
            pca_sample: 600,
            n_init: 2,
            ..KGraphConfig::new(3)
        };
        StageFixture {
            dataset,
            length: 24,
            config,
        }
    }

    /// Stage `build`: embedding + radial scan + graph for one length.
    pub fn run_build(&self) -> GraphLayer {
        let cfg = &self.config;
        let proj = project_subsequences(&self.dataset, self.length, cfg.stride, cfg.pca_sample);
        let assign = radial_scan(&proj, cfg.psi, cfg.kde_grid, cfg.min_density_ratio);
        kgraph::build::build_graph_with_stride(&self.dataset, &proj, &assign, cfg.stride)
    }

    /// Stage `fit`: the full multi-length model.
    pub fn run_fit(&self) -> KGraphModel {
        KGraph::new(self.config.clone()).fit(&self.dataset)
    }

    /// Stage `features`: the per-series feature matrix of a built layer.
    pub fn run_features(&self, layer: &GraphLayer) -> Vec<Vec<f64>> {
        feature_matrix(layer, self.config.node_features, self.config.edge_features)
    }

    /// Stage `cluster`: exact integer k-Means over a layer's crossing
    /// counts.
    pub fn run_cluster(&self, layer: &GraphLayer) -> Vec<usize> {
        let cfg = &self.config;
        cluster_layer(
            layer,
            cfg.k,
            cfg.n_init,
            cfg.seed,
            cfg.node_features,
            cfg.edge_features,
        )
    }

    /// Stage `render`: the Graph frame's ASCII/ANSI node-link view.
    pub fn run_render(&self, model: &KGraphModel) -> String {
        GraphFrame::with_auto_thresholds(model).render_graph()
    }
}

/// At-scale render fixture: a 10k-node synthetic layer (graph + crossing
/// statistics built directly, no fit) for the `pipeline/render/bh_10k`
/// and `pipeline/render/lod_10k` variants. Construction is deterministic
/// — an LCG stream, no RNG dependency — so two runs measure identical
/// work.
pub struct ScaleFixture {
    /// The synthetic pattern graph.
    pub graph: PatternGraph,
    /// Crossing statistics giving most nodes a clear owner.
    pub stats: ClusterStats,
}

impl ScaleFixture {
    /// The standard at-scale fixture: 10k nodes in 6 cluster blocks, a
    /// chain through each block plus 2 pseudo-random extra edges per node
    /// (~30k edges).
    pub fn standard_10k() -> Self {
        let (n, k, extra, seed) = (10_000usize, 6usize, 2usize, 7u64);
        let cluster = |i: usize| i * k / n;
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut b = GraphBuilder::new();
        for i in 0..n {
            if i + 1 < n && cluster(i) == cluster(i + 1) {
                b.add_edge(NodeId(i as u32), NodeId(i as u32 + 1), 1.0 + (i % 5) as f64);
            }
            for _ in 0..extra {
                let t = next() % n;
                if t != i {
                    b.add_edge(
                        NodeId(i as u32),
                        NodeId(t as u32),
                        1.0 + (next() % 40) as f64 / 10.0,
                    );
                }
            }
        }
        let nodes: Vec<NodePattern> = (0..n)
            .map(|i| NodePattern {
                count: 1 + (i * 7) % 23,
                pattern: Vec::new(),
            })
            .collect();
        let graph: PatternGraph = b.build(nodes, |acc, w| *acc += w);

        let mut node_crossings = vec![vec![0usize; n]; k];
        for i in 0..n {
            node_crossings[cluster(i)][i] = 5;
        }
        let e = graph.edge_count();
        let mut edge_crossings = vec![vec![0usize; e]; k];
        for (id, s, _, _) in graph.edges_iter() {
            edge_crossings[cluster(s.index())][id.index()] = 5;
        }
        let stats = ClusterStats {
            k,
            node_crossings,
            edge_crossings,
            cluster_sizes: vec![10; k],
        };
        ScaleFixture { graph, stats }
    }

    /// `render/bh_10k`: Barnes–Hut layout dominates — aggregated detail
    /// under a wide budget keeps emission bounded without throttling the
    /// layout work being measured.
    pub fn run_render_bh(&self) -> (String, usize) {
        let layout = layout_graph(
            &self.graph,
            LayoutEngine::BarnesHut,
            BarnesHutOptions::default(),
        );
        GraphPlot::from_graph(&self.graph, 24, &self.stats, 0.4, 0.5)
            .with_detail(DetailLevel::Aggregated)
            .with_budget(RenderBudget::capped(50_000))
            .render_counted(&layout)
    }

    /// `render/lod_10k`: level-of-detail emission dominates — the O(n)
    /// circular layout plus a tight budget that forces full degradation
    /// (owner attribution, bundling, glyph aggregation).
    pub fn run_render_lod(&self) -> (String, usize) {
        let layout = layout_graph(
            &self.graph,
            LayoutEngine::Circular,
            BarnesHutOptions::default(),
        );
        GraphPlot::from_graph(&self.graph, 24, &self.stats, 0.4, 0.5)
            .with_detail(DetailLevel::Auto)
            .with_budget(RenderBudget::capped(5_000))
            .render_counted(&layout)
    }
}

/// Serving fixture for the `pipeline/serve/*_n1002` variants: one model
/// fitted once on 1,002 CBF series × 256 points (k = 3, five lengths,
/// seed 7 — the training set of the loopback benchmark's `explore_1k`
/// workload) plus unseen query series. The timed reads run against the
/// model's per-version serving cache, filled by the first iteration.
pub struct ServeFixture {
    /// The fitted model every read queries.
    pub model: KGraphModel,
    /// Unseen CBF series of the training length.
    pub queries: Vec<Vec<f64>>,
}

impl ServeFixture {
    /// Fits the `explore_1k` training set (takes a few seconds).
    pub fn explore_1k() -> Self {
        let dataset = datasets::cbf::cbf(334, 256, 7);
        let config = KGraphConfig {
            n_lengths: 5,
            ..KGraphConfig::new(3)
        }
        .with_seed(7);
        let model = KGraph::new(config).fit(&dataset);
        let queries = datasets::cbf::cbf(4, 256, 11)
            .series()
            .iter()
            .map(|s| s.values().to_vec())
            .collect();
        ServeFixture { model, queries }
    }

    /// `serve/predict_n1002`: out-of-sample prediction of query `i`.
    pub fn run_predict(&self, i: usize) -> Option<usize> {
        self.model.predict(&self.queries[i % self.queries.len()])
    }

    /// `serve/graphoid_n1002`: the γ-graphoid (γ = 0.5) of `cluster`.
    pub fn run_graphoid(&self, cluster: usize) -> Graphoid {
        self.model.gamma_graphoid(cluster % self.model.k(), 0.5)
    }

    /// `serve/render_n1002`: the render route's SVG (auto thresholds,
    /// auto layout and detail, 20,000-element budget).
    pub fn run_render(&self) -> (String, usize) {
        GraphFrame::with_auto_thresholds(&self.model).render_graph_with(
            LayoutEngine::Auto,
            DetailLevel::Auto,
            RenderBudget::capped(20_000),
        )
    }
}

/// The loopback benchmark's `ingest_durable` model: 300 CBF series × 256
/// (k = 3, five lengths, seed 7). Fitting takes about a second.
pub fn ingest_durable_model() -> KGraphModel {
    let config = KGraphConfig {
        n_lengths: 5,
        ..KGraphConfig::new(3)
    }
    .with_seed(7);
    KGraph::new(config).fit(&datasets::cbf::cbf(100, 256, 7))
}

/// Streaming fixture for the `pipeline/stream/refresh_*` variants: a
/// session over a model that holds 4 open series of `points` points each.
/// The points are unseen CBF series of 256 points, appended one at a time
/// with the refresh cadence off; one refresh then folds their transitions
/// into the delta, so each timed refresh compacts the best layer with a
/// non-empty delta and rescores every series.
pub struct StreamFixture {
    session: StreamSession,
}

impl StreamFixture {
    /// Opens the session over `model` and appends the series.
    pub fn new(model: Arc<KGraphModel>, points: usize) -> Self {
        let pool = datasets::cbf::cbf(22, 256, 11);
        let pool = pool.series();
        let mut session = StreamSession::new(
            model,
            StreamConfig {
                refresh_every: usize::MAX,
                compact_every: 0,
            },
        );
        for chunk in 0..points.div_ceil(256) {
            for s in 0..4 {
                let values = pool[(4 * chunk + s) % pool.len()].values();
                session
                    .append(s, values)
                    .expect("the model routes every series");
            }
        }
        session.refresh();
        StreamFixture { session }
    }

    /// `stream/refresh_n*`: one forced refresh.
    pub fn run_refresh(&mut self) -> Option<Arc<KGraphModel>> {
        self.session.refresh()
    }

    /// The session being refreshed.
    pub fn session(&self) -> &StreamSession {
        &self.session
    }
}

/// Wire fixture for the `pipeline/http/*_score` variants: a connected
/// loopback `TcpStream` pair, the loopback benchmark's score request
/// (256 shortest-form f64s, about 5 KB of body) and an answer of the
/// score route's shape.
pub struct HttpFixture {
    client: TcpStream,
    server: TcpStream,
    request: Vec<u8>,
    response: Response,
    sink: Vec<u8>,
}

impl HttpFixture {
    /// Connects the socket pair and renders the request and the answer.
    pub fn score() -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let client = TcpStream::connect(listener.local_addr()?)?;
        let (server, _) = listener.accept()?;
        let series = datasets::cbf::cbf(1, 256, 11);
        let values = series.series()[0].values();
        let body = f64s_to_json(values);
        let mut request = format!(
            "POST /models/bench/score?context=5 HTTP/1.1\r\nhost: bench\r\n\
             content-length: {}\r\nconnection: close\r\n\r\n",
            body.len()
        )
        .into_bytes();
        request.extend_from_slice(body.as_bytes());
        let response = Response::json_object(200, |w| {
            w.field("scores", values);
        });
        let mut sink = Vec::new();
        response.write_to(&mut sink)?;
        Ok(HttpFixture {
            client,
            server,
            request,
            response,
            sink,
        })
    }

    /// `http/read_request_score`: the client end sends the request and
    /// the server end reads and parses it.
    pub fn run_read(&mut self) -> Request {
        self.client
            .write_all(&self.request)
            .expect("loopback write");
        Request::read_from(&mut self.server, 8 << 20).expect("the score request parses")
    }

    /// `http/write_response_score`: the server end writes the answer and
    /// the client end reads all of it.
    pub fn run_write(&mut self) {
        self.response
            .write_to(&mut self.server)
            .expect("loopback write");
        self.client
            .read_exact(&mut self.sink)
            .expect("loopback read");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_compose_end_to_end() {
        let fx = StageFixture::standard();
        let layer = fx.run_build();
        assert!(layer.graph.node_count() > 0);
        assert_eq!(layer.paths.len(), fx.dataset.len());

        let features = fx.run_features(&layer);
        assert_eq!(features.len(), fx.dataset.len());

        let labels = fx.run_cluster(&layer);
        assert_eq!(labels.len(), fx.dataset.len());
        assert!(labels.iter().all(|&l| l < fx.config.k));

        let model = fx.run_fit();
        assert_eq!(model.labels.len(), fx.dataset.len());
        let svg = fx.run_render(&model);
        assert!(!svg.is_empty());
    }

    #[test]
    fn scale_fixture_renders_within_budget() {
        let fx = ScaleFixture::standard_10k();
        assert_eq!(fx.graph.node_count(), 10_000);
        assert!(fx.graph.edge_count() > 10_000);
        let (svg, elements) = fx.run_render_lod();
        assert!(elements <= 5_000, "lod render emitted {elements} elements");
        assert!(svg.ends_with("</svg>"));
    }

    #[test]
    fn http_fixture_round_trips_the_score_request() {
        let mut fx = HttpFixture::score().unwrap();
        for _ in 0..3 {
            let req = fx.run_read();
            assert_eq!(req.path, "/models/bench/score");
            assert_eq!(
                req.header("content-length"),
                Some(&*req.body.len().to_string())
            );
            assert!(req.body.len() > 4_000, "a {}-byte body", req.body.len());
            fx.run_write();
        }
        assert!(fx.sink.starts_with(b"HTTP/1.1 200 OK\r\n"));
        assert!(fx.sink.ends_with(b"]}"));
    }

    #[test]
    fn stream_fixture_scores_every_series() {
        let fx = StageFixture::standard();
        let mut stream = StreamFixture::new(Arc::new(fx.run_fit()), 300);
        assert!(stream.run_refresh().is_none(), "compaction is off");
        let session = stream.session();
        assert_eq!(session.open_series(), 4);
        assert_eq!(session.points_total(), 4 * 512);
        let status = session.status();
        assert!(status.delta_edges > 0);
        assert_eq!(status.pending_triples, 0);
        assert!((0..4).all(|s| session.scores(s).is_some_and(|v| !v.is_empty())));
    }

    #[test]
    fn fixture_is_deterministic() {
        let a = StageFixture::standard().run_fit();
        let b = StageFixture::standard().run_fit();
        assert_eq!(a.labels, b.labels);
    }
}
