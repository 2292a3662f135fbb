//! Property tests for the CSR layer: builder invariants against a
//! `BTreeMap` aggregation of the raw `(src, dst, w)` list, PageRank
//! parity with a short oracle over that list, and delta compaction
//! against a from-scratch build.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use tsgraph::algo;
use tsgraph::{CsrGraph, DeltaGraph, GraphBuilder, NodeId};

/// Random multigraph: node count plus an edge list with integer-valued
/// weights (exact float arithmetic keeps aggregation checks exact).
fn multigraph() -> impl Strategy<Value = (usize, Vec<(usize, usize, u32)>)> {
    (1usize..24).prop_flat_map(|n| {
        (
            n..=n,
            proptest::collection::vec((0..n, 0..n, 1u32..8), 0..120),
        )
    })
}

/// Asserts two CSR graphs are *bit*-identical: same edge ids, endpoints,
/// weight bit patterns and out-adjacency. Integer-valued weights keep the
/// aggregation sums exact regardless of merge order, so equality is on
/// `f64::to_bits`, not a tolerance.
fn assert_bit_identical(
    a: &CsrGraph<usize, f64>,
    b: &CsrGraph<usize, f64>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.node_count(), b.node_count());
    prop_assert_eq!(a.edge_count(), b.edge_count());
    for ((ea, sa, ta, wa), (eb, sb, tb, wb)) in a.edges_iter().zip(b.edges_iter()) {
        prop_assert_eq!(ea, eb);
        prop_assert_eq!(sa, sb);
        prop_assert_eq!(ta, tb);
        prop_assert_eq!(wa.to_bits(), wb.to_bits());
    }
    for u in a.node_ids() {
        prop_assert_eq!(a.out_neighbors(u), b.out_neighbors(u));
    }
    Ok(())
}

fn build_in_ram(n: usize, edges: &[(usize, usize, u32)]) -> CsrGraph<usize, f64> {
    let mut b = GraphBuilder::new();
    for &(s, t, w) in edges {
        b.add_edge(NodeId(s as u32), NodeId(t as u32), w as f64);
    }
    b.build((0..n).collect::<Vec<usize>>(), |acc, w| *acc += w)
}

/// Test oracle: per-`(src, dst)` weight sums over the raw edge list.
fn aggregate(edges: &[(usize, usize, u32)]) -> BTreeMap<(u32, u32), f64> {
    let mut agg = BTreeMap::new();
    for &(s, t, w) in edges {
        *agg.entry((s as u32, t as u32)).or_insert(0.0) += w as f64;
    }
    agg
}

/// Test oracle: weighted PageRank straight off the raw edge list (parallel
/// edges contribute separately, which is linear in the weight and so
/// equals the run on the aggregated graph).
fn pagerank_oracle(n: usize, edges: &[(usize, usize, u32)], d: f64, iters: usize) -> Vec<f64> {
    let mut out_sum = vec![0.0; n];
    for &(s, _, w) in edges {
        out_sum[s] += w as f64;
    }
    let mut rank = vec![1.0 / n as f64; n];
    for _ in 0..iters {
        let dangling: f64 = (0..n).filter(|&u| out_sum[u] == 0.0).map(|u| rank[u]).sum();
        let mut next = vec![(1.0 - d + d * dangling) / n as f64; n];
        for &(s, t, w) in edges {
            next[t] += d * rank[s] * w as f64 / out_sum[s];
        }
        rank = next;
    }
    rank
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn aggregation_preserves_weight_sums((n, edges) in multigraph()) {
        let csr = build_in_ram(n, &edges);

        // Total weight is conserved through aggregation.
        let total_raw: f64 = edges.iter().map(|&(_, _, w)| w as f64).sum();
        let total_csr: f64 = csr.edges_iter().map(|(_, _, _, &w)| w).sum();
        prop_assert!((total_raw - total_csr).abs() < 1e-9, "{total_raw} vs {total_csr}");

        // Per-pair weights equal the sum over parallel raw edges.
        let expected = aggregate(&edges);
        prop_assert_eq!(csr.edge_count(), expected.len());
        for ((s, t), w) in &expected {
            let got = csr.weight_between(NodeId(*s), NodeId(*t));
            prop_assert!(got.is_some(), "missing edge {s}->{t}");
            prop_assert!((got.unwrap() - w).abs() < 1e-9);
        }
    }

    #[test]
    fn degrees_conserved_modulo_dedup((n, edges) in multigraph()) {
        let csr = build_in_ram(n, &edges);
        prop_assert_eq!(csr.node_count(), n);
        for u in csr.node_ids() {
            // CSR out-degree counts *distinct* successors.
            let distinct_out: BTreeSet<usize> =
                edges.iter().filter(|e| e.0 == u.index()).map(|e| e.1).collect();
            prop_assert_eq!(csr.out_degree(u), distinct_out.len());
        }
    }

    #[test]
    fn adjacency_sorted_and_deterministic((n, edges) in multigraph()) {
        let csr = build_in_ram(n, &edges);
        for u in csr.node_ids() {
            let nb = csr.out_neighbors(u);
            prop_assert!(nb.windows(2).all(|w| w[0] < w[1]), "out-slice sorted, no dups");
            // edge_id agrees with slice membership.
            for v in csr.node_ids() {
                prop_assert_eq!(csr.edge_id(u, v).is_some(), nb.contains(&v));
            }
        }
        // Rebuilding from reversed insertion order yields the identical
        // graph (deterministic ids, targets and weights).
        let mut b = GraphBuilder::new();
        for &(s, t, w) in edges.iter().rev() {
            b.add_edge(NodeId(s as u32), NodeId(t as u32), w as f64);
        }
        let csr2 = b.build((0..n).collect::<Vec<usize>>(), |acc, w| *acc += w);
        prop_assert_eq!(csr.edge_count(), csr2.edge_count());
        for (e, s, t, w) in csr.edges_iter() {
            prop_assert_eq!(csr2.endpoints(e), (s, t));
            prop_assert!((csr2.edge(e) - w).abs() < 1e-9);
        }
    }

    #[test]
    fn node_payloads_survive_round_trip((n, edges) in multigraph()) {
        let csr = build_in_ram(n, &edges);
        for (id, &payload) in csr.nodes_iter() {
            prop_assert_eq!(payload, id.index());
        }
    }

    #[test]
    fn pagerank_parity_within_1e9((n, edges) in multigraph()) {
        let csr = build_in_ram(n, &edges);
        // The oracle runs on the raw multigraph list, CSR on the
        // aggregated graph — per-node out-weight sums are identical, so
        // the scores must match to numerical noise.
        let pr_oracle = pagerank_oracle(n, &edges, 0.85, 60);
        let pr_cs = algo::pagerank(&csr, 0.85, 60, |&w: &f64| w);
        prop_assert_eq!(pr_oracle.len(), pr_cs.len());
        for (a, b) in pr_oracle.iter().zip(&pr_cs) {
            prop_assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn delta_compaction_bit_identical_to_full_rebuild(
        (n, edges) in multigraph(),
        split_ppm in 0u32..=1_000_000,
    ) {
        // Base CSR over a prefix of the stream + a DeltaGraph over the
        // suffix, compacted, must equal a from-scratch build of the whole
        // stream — for every split point.
        let split = (edges.len() as u64 * split_ppm as u64 / 1_000_000) as usize;
        let full = build_in_ram(n, &edges);
        let base = build_in_ram(n, &edges[..split]);
        let mut delta = DeltaGraph::new(n);
        delta.ingest(
            edges[split..]
                .iter()
                .map(|&(s, t, w)| (NodeId(s as u32), NodeId(t as u32), w as f64)),
            |acc, w| *acc += w,
        );
        let compacted = delta.compact(&base, |acc, w| *acc += w);
        assert_bit_identical(&full, &compacted)?;
    }
}
