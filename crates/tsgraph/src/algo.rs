//! Graph algorithms over [`CsrGraph`]: weighted PageRank, the ranking
//! behind the Graph frame's node-exploration order.

use crate::csr::CsrGraph;

/// Weighted PageRank with damping `d` (classically 0.85).
///
/// `edge_weight` extracts a non-negative weight from each edge payload —
/// for k-Graph graphs this is the transition count, so the ranking orders
/// nodes by how central they are to the dataset's pattern flow (the Graph
/// frame's "nodes exploration" ordering). Dangling nodes redistribute
/// uniformly. Returns one score per node, summing to 1.
///
/// The push loop walks each node's target slice and weight slice in
/// lockstep — fully cache-linear on CSR.
pub fn pagerank<N, E>(
    g: &CsrGraph<N, E>,
    damping: f64,
    iterations: usize,
    edge_weight: impl Fn(&E) -> f64,
) -> Vec<f64> {
    let n = g.node_count();
    if n == 0 {
        return Vec::new();
    }
    let d = damping.clamp(0.0, 1.0);
    let uniform = 1.0 / n as f64;
    let mut rank = vec![uniform; n];
    // Precompute out-weight sums from the contiguous weight slices.
    let out_sum: Vec<f64> = g
        .node_ids()
        .map(|u| {
            g.out_weights(u)
                .iter()
                .map(|w| edge_weight(w).max(0.0))
                .sum()
        })
        .collect();
    let mut next = vec![0.0f64; n];
    for _ in 0..iterations {
        next.fill(0.0);
        let mut dangling_mass = 0.0;
        for u in g.node_ids() {
            let ui = u.index();
            if out_sum[ui] <= 1e-15 {
                dangling_mass += rank[ui];
                continue;
            }
            let push = rank[ui] / out_sum[ui];
            for (&t, w) in g.out_neighbors(u).iter().zip(g.out_weights(u)) {
                next[t.index()] += push * edge_weight(w).max(0.0);
            }
        }
        let base = (1.0 - d) * uniform + d * dangling_mass * uniform;
        for r in next.iter_mut() {
            *r = base + d * *r;
        }
        std::mem::swap(&mut rank, &mut next);
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::csr::NodeId;

    fn csr_from_edges(n: usize, edges: &[(u32, u32)]) -> CsrGraph<(), f64> {
        let mut b = GraphBuilder::new();
        for &(s, t) in edges {
            b.add_edge(NodeId(s), NodeId(t), 1.0);
        }
        b.build(vec![(); n], |acc, w| *acc += w)
    }

    #[test]
    fn pagerank_sums_to_one_and_ranks_hub() {
        // Star: spokes all point at a hub (node 0).
        let g = csr_from_edges(5, &[(1, 0), (2, 0), (3, 0), (4, 0)]);
        let pr = pagerank(&g, 0.85, 50, |&w| w);
        let total: f64 = pr.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "sum {total}");
        for s in 1..5 {
            assert!(pr[0] > pr[s], "hub must dominate");
        }
    }

    #[test]
    fn pagerank_respects_edge_weights() {
        // 0 sends most weight to 1, a little to 2; return edges keep the
        // chain ergodic.
        let mut b = GraphBuilder::new();
        b.add_edge(NodeId(0), NodeId(1), 9.0);
        b.add_edge(NodeId(0), NodeId(2), 1.0);
        b.add_edge(NodeId(1), NodeId(0), 1.0);
        b.add_edge(NodeId(2), NodeId(0), 1.0);
        let g = b.build(vec![(); 3], |acc, w| *acc += w);
        let pr = pagerank(&g, 0.85, 100, |&w| w);
        assert!(pr[1] > pr[2]);
    }

    #[test]
    fn pagerank_uniform_on_cycle() {
        let edges: Vec<(u32, u32)> = (0..5).map(|i| (i, (i + 1) % 5)).collect();
        let g = csr_from_edges(5, &edges);
        let pr = pagerank(&g, 0.85, 100, |&w| w);
        for &r in &pr {
            assert!(
                (r - 0.2).abs() < 1e-9,
                "cycle should be uniform, got {pr:?}"
            );
        }
    }

    #[test]
    fn pagerank_degenerate() {
        let empty = csr_from_edges(0, &[]);
        assert!(pagerank(&empty, 0.85, 10, |&w| w).is_empty());
        // All-dangling graph stays uniform.
        let g = csr_from_edges(2, &[]);
        let pr = pagerank(&g, 0.85, 10, |&w| w);
        assert!((pr[0] - 0.5).abs() < 1e-9);
        assert!((pr[1] - 0.5).abs() < 1e-9);
    }
}
