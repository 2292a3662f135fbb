//! Golden-snapshot and budget tests for the SVG renderers.
//!
//! * Byte-exact committed renders of a small synthetic fixture at each
//!   detail level (`tests/golden/*.svg`). Regenerate deliberately with
//!   `BLESS_GOLDEN=1 cargo test -p graphint --test golden_svg` after an
//!   intentional rendering change, and review the diff.
//! * Byte-exact renders of the other charts (line, heatmap, histogram,
//!   box plot, scatter) and of the Graph frame's node-detail panel. Their
//!   fixtures are chosen so the output holds the number shapes a
//!   fixed-point writer can get wrong: negative zero (`-0.00`), exact
//!   half-way ties (`0.125` → `0.12`), coordinates of 10⁴ and more, and
//!   text that needs escaping.
//! * A determinism regression: the same model rendered twice — on both
//!   sides of the `LayoutEngine::Auto` exact/Barnes–Hut boundary — must
//!   produce byte-identical SVG.
//! * The `RenderBudget` cap on a 10k-node synthetic layer: the emitted
//!   element count never exceeds the budget, whichever detail level
//!   `Auto` degrades to.

use graphint::frames::graph::GraphFrame;
use graphint::plot::boxplot::{Box, BoxPlot};
use graphint::plot::heatmap::Heatmap;
use graphint::plot::histogram::Histogram;
use graphint::plot::line::{LineChart, Series};
use graphint::plot::scatter::ScatterPlot;
use graphint::plot::{DetailLevel, GraphPlot, RenderBudget};
use kgraph::graphoid::ClusterStats;
use kgraph::{KGraph, KGraphConfig, NodePattern, PatternGraph};
use linalg::matrix::Matrix;
use tscore::{Dataset, DatasetKind, TimeSeries};
use tsgraph::layout::{layout_graph, BarnesHutOptions, LayoutEngine};
use tsgraph::{GraphBuilder, NodeId};

/// Deterministic synthetic layer: `n` nodes in `k` contiguous cluster
/// blocks, a chain through each block plus `extra` pseudo-random edges
/// per node (LCG — no RNG dependency), crossing statistics that give most
/// nodes a clear owner and every 7th node an even (muted) split.
fn synthetic(n: usize, k: usize, extra: usize, seed: u64) -> (PatternGraph, ClusterStats) {
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
        if i % 7 == 0 {
            // Evenly split → exclusivity 1/k → muted under γ > 1/k.
            for row in node_crossings.iter_mut() {
                row[i] = 2;
            }
        } else {
            node_crossings[cluster(i)][i] = 5;
        }
    }
    let e = graph.edge_count();
    let mut edge_crossings = vec![vec![0usize; e]; k];
    for (id, s, _, _) in graph.edges_iter() {
        let i = s.index();
        if i % 7 == 0 {
            for row in edge_crossings.iter_mut() {
                row[id.index()] = 2;
            }
        } else {
            edge_crossings[cluster(i)][id.index()] = 5;
        }
    }
    let stats = ClusterStats {
        k,
        node_crossings,
        edge_crossings,
        cluster_sizes: vec![10; k],
    };
    (graph, stats)
}

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {path:?} ({e}); run with BLESS_GOLDEN=1"));
    assert!(
        expected == actual,
        "render of {name} diverged from committed golden {path:?}; \
         if the change is intentional, regenerate with BLESS_GOLDEN=1 and review the diff"
    );
}

fn fixture_plot<'a>(graph: &'a PatternGraph, stats: &'a ClusterStats) -> GraphPlot<'a> {
    GraphPlot::from_graph(graph, 24, stats, 0.4, 0.5)
}

/// Node positions under `engine` with the default options (seed 42,
/// θ 0.8), as `KGraphModel::layout` computes them.
fn layout(graph: &PatternGraph, engine: LayoutEngine) -> Vec<(f64, f64)> {
    layout_graph(graph, engine, BarnesHutOptions::default())
}

#[test]
fn golden_full_detail() {
    let (graph, stats) = synthetic(24, 3, 2, 1);
    let svg = fixture_plot(&graph, &stats)
        .with_detail(DetailLevel::Full)
        .render(&layout(&graph, LayoutEngine::Auto));
    assert_golden("full.svg", &svg);
}

#[test]
fn golden_aggregated_detail() {
    let (graph, stats) = synthetic(24, 3, 2, 1);
    let svg = fixture_plot(&graph, &stats)
        .with_detail(DetailLevel::Aggregated)
        .render(&layout(&graph, LayoutEngine::Auto));
    assert!(svg.contains("<path"), "aggregated render bundles edges");
    assert_golden("aggregated.svg", &svg);
}

#[test]
fn golden_glyph_detail() {
    let (graph, stats) = synthetic(24, 3, 2, 1);
    let svg = fixture_plot(&graph, &stats)
        .with_detail(DetailLevel::Glyph)
        .render(&layout(&graph, LayoutEngine::Auto));
    assert!(svg.contains("nodes)"), "glyph render labels clusters");
    assert_golden("glyph.svg", &svg);
}

#[test]
fn auto_detail_with_no_budget_is_full_detail() {
    let (graph, stats) = synthetic(24, 3, 2, 1);
    let positions = layout(&graph, LayoutEngine::Auto);
    let auto = fixture_plot(&graph, &stats).render(&positions);
    let full = fixture_plot(&graph, &stats)
        .with_detail(DetailLevel::Full)
        .render(&positions);
    assert_eq!(auto, full);
}

#[test]
fn rendering_is_deterministic_across_engine_boundaries() {
    // 256 nodes → Auto resolves to the exact layout; 600 → Barnes–Hut.
    // Either side of the boundary, re-rendering is byte-identical, and
    // naming the resolved engine explicitly changes nothing.
    for (n, explicit) in [
        (256usize, LayoutEngine::Exact),
        (600, LayoutEngine::BarnesHut),
    ] {
        let (graph, stats) = synthetic(n, 4, 1, 9);
        let plot = |engine| {
            GraphPlot::from_graph(&graph, 24, &stats, 0.4, 0.5)
                .with_budget(RenderBudget::capped(20_000))
                .render(&layout(&graph, engine))
        };
        let first = plot(LayoutEngine::Auto);
        let second = plot(LayoutEngine::Auto);
        assert_eq!(first, second, "n={n}: repeat render diverged");
        assert_eq!(first, plot(explicit), "n={n}: explicit engine diverged");
    }
}

#[test]
fn budget_cap_holds_on_10k_node_layer() {
    let (graph, stats) = synthetic(10_000, 6, 2, 7);
    // Circular layout keeps this test about budgeting, not layout speed.
    for budget in [1_000usize, 2_000, 12_000, 25_000] {
        let plot = GraphPlot::from_graph(&graph, 24, &stats, 0.4, 0.5)
            .with_budget(RenderBudget::capped(budget));
        let resolved = plot.resolve_detail();
        let (svg, count) = plot.render_counted(&layout(&graph, LayoutEngine::Circular));
        assert!(
            count <= budget,
            "budget {budget}: emitted {count} elements at {resolved:?}"
        );
        assert!(svg.ends_with("</svg>"));
        // Small budgets must force degradation, not truncation.
        if budget < 10_000 {
            assert_eq!(resolved, DetailLevel::Glyph, "budget {budget}");
        } else {
            assert_eq!(resolved, DetailLevel::Aggregated, "budget {budget}");
        }
    }
}

/// Whether `svg` holds an attribute or text value of 10⁴ or more.
fn has_large_coordinate(svg: &str) -> bool {
    svg.split('"')
        .filter_map(|v| v.parse::<f64>().ok())
        .any(|v| v.abs() >= 1e4)
}

#[test]
fn golden_line_chart() {
    // 20000.5 px wide: the `{:.0}` root header meets a half-way tie and
    // the x coordinates run past 10⁴. The marker at x = −0.0209 lands a
    // hair left of the origin and prints as `-0.00`; width 0.125 is an
    // exact tie at two decimals.
    let mut chart = LineChart::new("Wc & We <per length> \"ℓ\"")
        .add(Series::from_values(
            "Wc",
            &[0.1, -0.5, 0.9, 0.125, -2.0, 3.5, 0.0, 1.0, -0.001],
        ))
        .add(Series {
            width: 0.125,
            ..Series::from_values(
                "We <&>",
                &[1.0, 0.75, 0.5, 0.25, 0.0, -0.25, -0.5, -0.75, -1.0],
            )
        });
    chart.size = (20000.5, 280.0);
    chart.x_label = "length & offset".into();
    chart.y_label = "score <a&b>".into();
    chart.vlines.push((-0.0208685, "ℓ̄ < 0".into()));
    chart.vlines.push((4.0, String::new()));
    let svg = chart.render();
    assert!(svg.contains(r#""-0.00""#), "fixture prints negative zero");
    assert!(
        svg.contains(r#"stroke-width="0.12""#),
        "fixture holds a tie"
    );
    assert!(svg.contains("&lt;&amp;&gt;"), "fixture escapes text");
    assert!(has_large_coordinate(&svg));
    assert_golden("line.svg", &svg);
}

#[test]
fn golden_heatmap() {
    let m = Matrix::from_rows(&[
        vec![0.0, 0.125, 0.25, -0.001],
        vec![0.5, 1.0, -0.0, 0.375],
        vec![0.875, 0.625, 0.0625, 0.9999],
    ]);
    let mut hm = Heatmap::new("consensus <k=3> & co", m);
    hm.size = (12345.25, 380.0);
    hm.row_groups = vec![1, 2];
    let svg = hm.render();
    assert!(has_large_coordinate(&svg));
    assert_golden("heatmap.svg", &svg);
}

#[test]
fn golden_histogram() {
    let samples: Vec<f64> = (0..40)
        .map(|i| ((i * 37) % 23) as f64 * 0.125 - 1.0)
        .collect();
    let mut hist = Histogram::new("scores <ARI> & RI", samples);
    hist.x_label = "ARI \"adjusted\"".into();
    hist.size = (10422.0, 260.0);
    let svg = hist.render();
    assert!(has_large_coordinate(&svg));
    assert_golden("histogram.svg", &svg);
}

#[test]
fn golden_boxplot() {
    let mut plot = BoxPlot::new("ARI per method", "ARI <higher & better>")
        .add(Box::from_samples(
            "k-Graph",
            &[0.125, 0.5, 0.625, 0.75, 1.0],
        ))
        .add(Box::from_samples(
            "k-Means <raw>",
            &[-0.001, 0.0, 0.25, 0.375, 0.5],
        ))
        .add(Box::from_samples(
            "k-Shape & co",
            &[-0.5, -0.25, 0.0, 0.25, 0.875],
        ));
    plot.highlight = Some("k-Graph".into());
    plot.size = (10240.0, 320.0);
    let svg = plot.render();
    assert!(svg.contains("stroke-dasharray"), "fixture draws grid lines");
    assert!(has_large_coordinate(&svg));
    assert_golden("boxplot.svg", &svg);
}

#[test]
fn golden_scatter() {
    let points: Vec<(f64, f64)> = (0..24)
        .map(|i| {
            let t = i as f64 * 0.375;
            (t.sin() * 1e4, (t * 0.5).cos() - 0.001)
        })
        .collect();
    let classes = (0..24).map(|i| i % 3).collect();
    let mut plot = ScatterPlot::new("projection <PC1 & PC2>", points).with_classes(classes);
    plot.radius = 0.125;
    plot.size = (16000.0, 360.0);
    let svg = plot.render();
    assert!(svg.contains(r#"r="0.12""#), "fixture holds a tie");
    assert!(has_large_coordinate(&svg));
    assert_golden("scatter.svg", &svg);
}

#[test]
fn golden_node_detail_panel() {
    let mut series = Vec::new();
    for f in [0.2f64, 0.9] {
        for p in 0..5 {
            series.push(TimeSeries::new(
                (0..80).map(|i| ((i + p) as f64 * f).sin()).collect(),
            ));
        }
    }
    let ds = Dataset::new("toy", DatasetKind::Simulated, series);
    let cfg = KGraphConfig {
        n_lengths: 2,
        psi: 10,
        pca_sample: 400,
        n_init: 2,
        ..KGraphConfig::new(2)
    };
    let model = KGraph::new(cfg).fit(&ds);
    let svg = GraphFrame::new(&model, 0.5, 0.5).render_node_detail(0);
    assert_golden("node_detail.svg", &svg);
}
