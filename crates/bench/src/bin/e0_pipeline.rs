//! E0 — the k-Graph pipeline end-to-end (paper Figure 1).
//!
//! Runs every stage on CBF and prints the intermediate artefacts: the
//! per-length graphs (a), the graph embeddings (b), the per-length
//! partitions (c) and the consensus clustering (d), then the final labels
//! and their agreement with ground truth.
//!
//! Usage: `cargo run --release -p bench --bin e0_pipeline [--quick]`

use bench::{experiment_kgraph_config, out_dir};
use clustering::metrics::adjusted_rand_index;
use graphint::ascii::{partition_summary, render_table};
use graphint::csvout::write_csv;
use kgraph::KGraph;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let per_class = if quick { 8 } else { 20 };
    let length = if quick { 64 } else { 128 };
    let dataset = datasets::cbf::cbf(per_class, length, 7);
    println!(
        "E0: k-Graph pipeline on {} ({} series, length {}, {} classes)\n",
        dataset.name(),
        dataset.len(),
        length,
        dataset.n_classes()
    );

    let k = dataset.n_classes();
    let t0 = std::time::Instant::now();
    let model = KGraph::new(experiment_kgraph_config(k, 7)).fit(&dataset);
    let elapsed = t0.elapsed().as_secs_f64();

    // (b) Graph embedding per length.
    println!("(b) graph embedding — one graph per subsequence length:");
    let rows: Vec<Vec<String>> = model
        .layers
        .iter()
        .map(|l| {
            vec![
                l.length.to_string(),
                l.graph.node_count().to_string(),
                l.graph.edge_count().to_string(),
                l.paths[0].len().to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["length ℓ", "|N|", "|E|", "path len"], &rows)
    );

    // (c) Per-length partitions.
    println!("(c) graph clustering — partition L_ℓ per length:");
    let rows: Vec<Vec<String>> = model
        .layers
        .iter()
        .map(|l| {
            vec![
                l.length.to_string(),
                partition_summary(&l.labels),
                format!(
                    "{:.3}",
                    adjusted_rand_index(dataset.labels().unwrap(), &l.labels)
                ),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["length ℓ", "partition", "ARI vs truth"], &rows)
    );

    // (d) Consensus.
    let mc = model.consensus();
    let n = mc.rows();
    let mut off_diag = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            off_diag.push(mc[(i, j)]);
        }
    }
    println!(
        "(d) consensus clustering — MC is {}x{}, off-diagonal mean {:.3}, final partition {}",
        n,
        n,
        tscore::stats::mean(&off_diag),
        partition_summary(&model.labels)
    );

    let ari = adjusted_rand_index(dataset.labels().unwrap(), &model.labels);
    println!("\nfinal k-Graph ARI vs ground truth: {ari:.3}   (fit took {elapsed:.2}s)");
    println!(
        "selected length ℓ̄ = {} (Wc = {:.3}, We = {:.3})",
        model.best_length(),
        model.scores[model.best_layer].wc,
        model.scores[model.best_layer].we
    );

    // Persist a machine-readable summary.
    let mut rows = vec![vec![
        "length".to_string(),
        "nodes".to_string(),
        "edges".to_string(),
        "wc".to_string(),
        "we".to_string(),
        "selected".to_string(),
    ]];
    for (i, (layer, score)) in model.layers.iter().zip(&model.scores).enumerate() {
        rows.push(vec![
            layer.length.to_string(),
            layer.graph.node_count().to_string(),
            layer.graph.edge_count().to_string(),
            format!("{:.4}", score.wc),
            format!("{:.4}", score.we),
            (i == model.best_layer).to_string(),
        ]);
    }
    let path = out_dir().join("e0_pipeline/layers.csv");
    write_csv(&path, &rows).expect("write CSV");
    println!("\nwrote {}", path.display());
}
