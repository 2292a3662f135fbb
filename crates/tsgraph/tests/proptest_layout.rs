//! Property tests pinning `layout::barnes_hut` to the exact
//! `layout::exact` implementation.
//!
//! Two contracts:
//!
//! * **θ = 0 parity** — with the approximation disabled, the Barnes–Hut
//!   entry point must match the exact reference layout within 1e-9 per
//!   coordinate for the same seed (the implementation makes this exact by
//!   delegation; the test pins the contract, not the mechanism).
//! * **θ > 0 structural invariants** — an approximate layout is still a
//!   valid layout: every position finite, every node inside the drawing
//!   area, and adjacent nodes closer on average than arbitrary node pairs
//!   (the force model's whole point). Checked across path / star /
//!   clique / disconnected topologies, including the degenerate sizes
//!   n ∈ {0, 1, 2} and the just-past-`Auto`-boundary size 257.

use proptest::prelude::*;
use tsgraph::layout::{barnes_hut, exact, BarnesHutOptions, ForceOptions};
use tsgraph::{CsrGraph, GraphBuilder, NodeId};

fn build(n: usize, edges: &[(usize, usize)]) -> CsrGraph<(), f64> {
    let mut b = GraphBuilder::new();
    for &(s, t) in edges {
        b.add_edge(NodeId(s as u32), NodeId(t as u32), 1.0);
    }
    b.build(vec![(); n], |acc, w| *acc += w)
}

fn path(n: usize) -> CsrGraph<(), f64> {
    let edges: Vec<_> = (1..n).map(|i| (i - 1, i)).collect();
    build(n, &edges)
}

fn star(n: usize) -> CsrGraph<(), f64> {
    let edges: Vec<_> = (1..n).map(|i| (0, i)).collect();
    build(n, &edges)
}

fn clique(n: usize) -> CsrGraph<(), f64> {
    let mut edges = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            edges.push((i, j));
        }
    }
    build(n, &edges)
}

/// Two disjoint paths of ⌈n/2⌉ and ⌊n/2⌋ nodes.
fn disconnected(n: usize) -> CsrGraph<(), f64> {
    let half = n / 2;
    let mut edges: Vec<_> = (1..half).map(|i| (i - 1, i)).collect();
    edges.extend((half + 1..n).map(|i| (i - 1, i)));
    build(n, &edges)
}

fn every_topology(n: usize) -> Vec<(&'static str, CsrGraph<(), f64>)> {
    vec![
        ("path", path(n)),
        ("star", star(n)),
        ("clique", clique(n)),
        ("disconnected", disconnected(n)),
    ]
}

fn dist(a: (f64, f64), b: (f64, f64)) -> f64 {
    ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt()
}

/// The θ>0 invariants; `name` labels failures with the topology.
fn check_invariants(
    name: &str,
    g: &CsrGraph<(), f64>,
    pos: &[(f64, f64)],
    opts: BarnesHutOptions,
) -> Result<(), TestCaseError> {
    let n = g.node_count();
    prop_assert_eq!(pos.len(), n, "{}: one position per node", name);
    let half = opts.force.area / 2.0 + 1e-9;
    for (i, p) in pos.iter().enumerate() {
        prop_assert!(
            p.0.is_finite() && p.1.is_finite(),
            "{}: node {} not finite: {:?}",
            name,
            i,
            p
        );
        prop_assert!(
            p.0.abs() <= half && p.1.abs() <= half,
            "{}: node {} outside area: {:?}",
            name,
            i,
            p
        );
    }
    // Adjacent nodes end up closer than arbitrary pairs on average. Only
    // meaningful with ≥ 3 nodes, some edges, and some non-edges (in a
    // clique the two means are the same set).
    let neighbour: Vec<f64> = g
        .edges_iter()
        .filter(|(_, s, t, _)| s != t)
        .map(|(_, s, t, _)| dist(pos[s.index()], pos[t.index()]))
        .collect();
    let pairs = n * n.saturating_sub(1) / 2;
    if n >= 3 && !neighbour.is_empty() && neighbour.len() < pairs {
        let neighbour_mean = neighbour.iter().sum::<f64>() / neighbour.len() as f64;
        let mut global_sum = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                global_sum += dist(pos[i], pos[j]);
            }
        }
        let global_mean = global_sum / pairs as f64;
        prop_assert!(
            neighbour_mean < global_mean,
            "{}: neighbour mean {} ≥ global mean {}",
            name,
            neighbour_mean,
            global_mean
        );
    }
    Ok(())
}

#[test]
fn theta_zero_matches_reference_exactly() {
    for n in [0usize, 1, 2, 17, 257] {
        for (name, g) in every_topology(n) {
            for seed in [42u64, 7, 999] {
                let force = ForceOptions {
                    iterations: 40,
                    seed,
                    ..Default::default()
                };
                let exact = exact::force_directed(&g, force);
                let bh = barnes_hut(&g, BarnesHutOptions { force, theta: 0.0 });
                assert_eq!(exact.len(), bh.len(), "{name} n={n}");
                for (i, (e, b)) in exact.iter().zip(&bh).enumerate() {
                    assert!(
                        (e.0 - b.0).abs() <= 1e-9 && (e.1 - b.1).abs() <= 1e-9,
                        "{name} n={n} seed={seed} node {i}: {e:?} vs {b:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn positive_theta_invariants_at_fixed_sizes() {
    for n in [0usize, 1, 2, 257] {
        for (name, g) in every_topology(n) {
            let opts = BarnesHutOptions {
                force: ForceOptions {
                    iterations: 60,
                    ..Default::default()
                },
                theta: 0.8,
            };
            let pos = barnes_hut(&g, opts);
            check_invariants(name, &g, &pos, opts).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn positive_theta_invariants_hold(
        n in 3usize..60,
        seed in 0u64..1_000,
        theta in 0.3f64..1.2,
    ) {
        let opts = BarnesHutOptions {
            force: ForceOptions { iterations: 60, seed, ..Default::default() },
            theta,
        };
        for (name, g) in every_topology(n) {
            let pos = barnes_hut(&g, opts);
            check_invariants(name, &g, &pos, opts)?;
        }
    }

    #[test]
    fn barnes_hut_is_deterministic(
        n in 3usize..40,
        seed in 0u64..1_000,
        theta in 0.3f64..1.2,
    ) {
        let g = star(n);
        let opts = BarnesHutOptions {
            force: ForceOptions { iterations: 30, seed, ..Default::default() },
            theta,
        };
        let a = barnes_hut(&g, opts);
        let b = barnes_hut(&g, opts);
        prop_assert_eq!(a, b);
    }
}
