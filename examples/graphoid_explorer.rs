//! Demo Scenario 2 — exploring the graph: fit k-Graph on an ECG-like
//! dataset, auto-search the (λ, γ) thresholds, inspect the most exclusive
//! node of every cluster and render the Graph frame artefacts.
//!
//! ```sh
//! cargo run --release --example graphoid_explorer
//! ```

use graphint_repro::graphint::ascii::sparkline;
use graphint_repro::prelude::*;

fn main() {
    let dataset = graphint_repro::datasets::shapes::ecg_like(15, 192, 11);
    let k = dataset.n_classes();
    println!("exploring k-Graph on {} (k = {k})", dataset.name());

    let model = KGraph::with_k(k, 11).fit(&dataset);
    println!(
        "final ARI vs ground truth: {:.3}; selected ℓ̄ = {}",
        adjusted_rand_index(dataset.labels().unwrap(), &model.labels),
        model.best_length()
    );

    // Scenario 2's task: find λ and γ so that every cluster has at least
    // one coloured node. GraphFrame searches the largest such thresholds.
    let frame = GraphFrame::with_auto_thresholds(&model);
    println!(
        "auto thresholds: λ = {:.2}, γ = {:.2}",
        frame.lambda, frame.gamma
    );
    println!(
        "coloured nodes per cluster: {:?}",
        frame.colored_nodes_per_cluster()
    );

    // Inspect each cluster's most exclusive node: its pattern is the
    // discriminative subsequence the paper talks about.
    let stats = frame.stats().clone();
    for c in 0..k {
        let node = (0..model.best().graph.node_count())
            .max_by(|&a, &b| {
                stats
                    .node_exclusivity(c, a)
                    .total_cmp(&stats.node_exclusivity(c, b))
            })
            .expect("nodes exist");
        let detail = frame.node_detail(node);
        println!(
            "\ncluster {c}: node {node} (excl {:.2}, repr {:.2}, {} crossings)",
            detail.exclusivity[c], detail.representativity[c], detail.count
        );
        println!("  pattern: {}", sparkline(&detail.pattern));
    }

    // Render the frame's artefacts.
    let dir = std::path::Path::new("out/examples/graphoid_explorer");
    std::fs::create_dir_all(dir).expect("create out dir");
    std::fs::write(dir.join("graph.svg"), frame.render_graph()).expect("write SVG");
    let mut report = Report::new("Graphoid explorer — EcgLike");
    report.section("The graph, coloured by graphoid ownership");
    report.add_svg(&frame.render_graph());
    report
        .write(&dir.join("explorer.html"))
        .expect("write report");
    println!("\nwrote {}", dir.join("explorer.html").display());
}
