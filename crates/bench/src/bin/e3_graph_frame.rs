//! E3 — the Graph frame / "k-Graph in action" (paper Figure 3, frame 2;
//! demo Scenario 2).
//!
//! Fits k-Graph, searches the (λ, γ) thresholds so that every cluster has
//! at least one coloured node (the scenario's task), renders the
//! node-link view, the detail panel of the most exclusive node of each
//! cluster, and the highlighted subsequences on a member series.
//!
//! Usage: `cargo run --release -p bench --bin e3_graph_frame [--quick]`

use bench::{experiment_kgraph_config, out_dir};
use graphint::ascii::render_table;
use graphint::frames::graph::GraphFrame;
use graphint::Report;
use kgraph::KGraph;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let dataset = if quick {
        datasets::shapes::trace_like(8, 100, 5)
    } else {
        datasets::shapes::trace_like(15, 150, 5)
    };
    let k = dataset.n_classes();
    println!("E3: graph frame on {} (k = {k})\n", dataset.name());
    let model = KGraph::new(experiment_kgraph_config(k, 5)).fit(&dataset);
    let frame = GraphFrame::with_auto_thresholds(&model);
    println!(
        "auto thresholds: λ = {:.2}, γ = {:.2} (largest values with ≥1 coloured node per cluster)",
        frame.lambda, frame.gamma
    );
    let counts = frame.colored_nodes_per_cluster();
    let rows: Vec<Vec<String>> = counts
        .iter()
        .enumerate()
        .map(|(c, n)| vec![format!("C{c}"), n.to_string()])
        .collect();
    println!("{}", render_table(&["cluster", "coloured nodes"], &rows));
    let order = frame.exploration_order();
    println!(
        "suggested exploration order (PageRank over transitions): {:?} …",
        &order[..order.len().min(8)]
    );

    let out = out_dir().join("e3_graph_frame");
    std::fs::create_dir_all(&out).expect("create out dir");
    let mut report = Report::new("Graphint — Graph frame (E3)");
    report.section(format!(
        "Graph (ℓ̄ = {}, λ = {:.2}, γ = {:.2})",
        model.best_length(),
        frame.lambda,
        frame.gamma
    ));
    let graph_svg = frame.render_graph();
    std::fs::write(out.join("graph.svg"), &graph_svg).expect("write SVG");
    report.add_svg(&graph_svg);

    // Most exclusive node per cluster + its pattern and a highlighted
    // member series.
    let stats = frame.stats().clone();
    report.section("Node exploration");
    for c in 0..k {
        let best_node = (0..model.best().graph.node_count())
            .max_by(|&a, &b| {
                stats
                    .node_exclusivity(c, a)
                    .total_cmp(&stats.node_exclusivity(c, b))
            })
            .expect("graph has nodes");
        let detail = frame.node_detail(best_node);
        println!(
            "cluster {c}: most exclusive node {best_node} (excl {:.2}, repr {:.2}, count {})",
            detail.exclusivity[c], detail.representativity[c], detail.count
        );
        let detail_svg = frame.render_node_detail(best_node);
        std::fs::write(
            out.join(format!("node_{best_node}_detail.svg")),
            &detail_svg,
        )
        .expect("write SVG");
        report.add_text(&format!(
            "Cluster {c}: node {best_node} — exclusivity {:.2}, representativity {:.2}",
            detail.exclusivity[c], detail.representativity[c]
        ));
        report.add_svg(&detail_svg);

        // Highlight its windows on the first member series of the cluster.
        if let Some(series_idx) = model.labels.iter().position(|&l| l == c) {
            let hl = frame.render_highlighted_series(series_idx, best_node, &dataset);
            std::fs::write(
                out.join(format!("series_{series_idx}_node_{best_node}.svg")),
                &hl,
            )
            .expect("write SVG");
            report.add_svg(&hl);
        }
    }
    report
        .write(&out.join("graph_frame.html"))
        .expect("write report");
    println!("\nwrote {}", out.join("graph_frame.html").display());
}
