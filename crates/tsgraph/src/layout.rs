//! 2-D node layouts for graph rendering.
//!
//! The Graph frame draws the k-Graph embedding as a node-link diagram.
//! Three layouts are provided, all reading the CSR view ([`CsrGraph`]),
//! whose deterministic edge order makes layouts stable across re-renders
//! of the same graph:
//!
//! * [`circular`] — nodes evenly on a circle; O(n), the stable fallback
//!   and the safety valve for graphs too large even for Barnes–Hut.
//! * [`reference::force_directed`] — the exact Fruchterman–Reingold
//!   layout: repulsion between *every* node pair, O(iterations · n²).
//!   Readable at the 20–200-node sizes the paper's demos produce, and
//!   kept verbatim as the parity oracle for the approximate layout.
//! * [`barnes_hut`] — the same force model with quadtree-aggregated
//!   repulsion (opening angle θ): O(iterations · n log n), the layout
//!   for full 10k–100k-node graphoid layers. θ = 0 means "no
//!   approximation" and delegates to the exact reference, so the two
//!   paths can never drift at that setting.
//!
//! [`LayoutEngine`] selects between them — explicitly, or by node count
//! with [`LayoutEngine::Auto`] (exact below
//! [`AUTO_EXACT_MAX_NODES`], Barnes–Hut up to
//! [`AUTO_BARNES_HUT_MAX_NODES`], circular beyond).

use crate::csr::CsrGraph;
use crate::quadtree::QuadTree;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A 2-D position per node, indexed by `NodeId::index()`.
pub type Layout = Vec<(f64, f64)>;

/// Largest node count [`LayoutEngine::Auto`] lays out exactly; above it
/// the O(n²) repulsion term dominates render latency.
pub const AUTO_EXACT_MAX_NODES: usize = 512;

/// Largest node count [`LayoutEngine::Auto`] hands to Barnes–Hut; beyond
/// it even O(n log n) iterations are slower than a render should be, and
/// the deterministic circular layout takes over.
pub const AUTO_BARNES_HUT_MAX_NODES: usize = 200_000;

/// Places nodes evenly on a circle of radius `radius` centred at origin.
///
/// Order follows node ids, so the layout is deterministic and stable under
/// re-rendering.
pub fn circular<N, E>(g: &CsrGraph<N, E>, radius: f64) -> Layout {
    let n = g.node_count();
    (0..n)
        .map(|i| {
            let theta = 2.0 * std::f64::consts::PI * i as f64 / n.max(1) as f64;
            (radius * theta.cos(), radius * theta.sin())
        })
        .collect()
}

/// Options for the force-directed layouts (exact and Barnes–Hut).
#[derive(Debug, Clone, Copy)]
pub struct ForceOptions {
    /// Number of relaxation iterations.
    pub iterations: usize,
    /// Side length of the square drawing area.
    pub area: f64,
    /// RNG seed for the initial scatter (layout is deterministic given it).
    pub seed: u64,
}

impl Default for ForceOptions {
    fn default() -> Self {
        ForceOptions {
            iterations: 150,
            area: 1000.0,
            seed: 42,
        }
    }
}

/// Options for [`barnes_hut`]: the force options plus the opening angle.
#[derive(Debug, Clone, Copy)]
pub struct BarnesHutOptions {
    /// Shared force-model options (iterations, area, seed).
    pub force: ForceOptions,
    /// Opening angle θ: a cell of side `s` at distance `d` aggregates when
    /// `s / d < θ`. Larger is faster and coarser; `0` disables the
    /// approximation entirely (exact reference layout).
    pub theta: f64,
}

impl Default for BarnesHutOptions {
    fn default() -> Self {
        BarnesHutOptions {
            force: ForceOptions::default(),
            theta: 0.8,
        }
    }
}

/// Exact reference layouts, kept verbatim for parity testing against the
/// approximate implementations.
pub mod reference {
    use super::*;

    /// Fruchterman–Reingold force-directed layout (exact).
    ///
    /// Repulsive forces act between every node pair, attractive forces
    /// along edges; displacement is capped by a linearly cooling
    /// temperature. Runs in O(iterations · n²) — fine at demo sizes, the
    /// oracle [`super::barnes_hut`] is pinned against at scale.
    pub fn force_directed<N, E>(g: &CsrGraph<N, E>, opts: ForceOptions) -> Layout {
        let n = g.node_count();
        if n == 0 {
            return Vec::new();
        }
        if n == 1 {
            return vec![(0.0, 0.0)];
        }
        let side = opts.area;
        let mut pos = initial_scatter(n, side, opts.seed);
        // Ideal pairwise distance for the available area.
        let k = (side * side / n as f64).sqrt();
        let mut temperature = side / 10.0;
        let cooling = temperature / (opts.iterations.max(1) as f64);

        let edges = undirected_edges(g);
        let mut disp = vec![(0.0f64, 0.0f64); n];
        for _ in 0..opts.iterations {
            disp.fill((0.0, 0.0));
            // Repulsion: f_r(d) = k² / d.
            for i in 0..n {
                for j in (i + 1)..n {
                    let dx = pos[i].0 - pos[j].0;
                    let dy = pos[i].1 - pos[j].1;
                    let dist = (dx * dx + dy * dy).sqrt().max(1e-6);
                    let force = k * k / dist;
                    let fx = dx / dist * force;
                    let fy = dy / dist * force;
                    disp[i].0 += fx;
                    disp[i].1 += fy;
                    disp[j].0 -= fx;
                    disp[j].1 -= fy;
                }
            }
            attract_and_apply(&mut pos, &mut disp, &edges, k, side, temperature);
            temperature = (temperature - cooling).max(1e-3);
        }
        pos
    }
}

/// The initial random scatter shared by the exact and Barnes–Hut layouts
/// (identical RNG stream → identical starting conditions).
fn initial_scatter(n: usize, side: f64, seed: u64) -> Layout {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            (
                rng.gen_range(-side / 2.0..side / 2.0),
                rng.gen_range(-side / 2.0..side / 2.0),
            )
        })
        .collect()
}

/// Non-loop edge endpoint pairs, in deterministic CSR order.
fn undirected_edges<N, E>(g: &CsrGraph<N, E>) -> Vec<(usize, usize)> {
    g.edges_iter()
        .map(|(_, s, t, _)| (s.index(), t.index()))
        .filter(|(s, t)| s != t)
        .collect()
}

/// The attraction + displacement half of one Fruchterman–Reingold
/// iteration, shared verbatim by the exact and Barnes–Hut paths so the
/// only difference between them is how repulsion is summed.
fn attract_and_apply(
    pos: &mut [(f64, f64)],
    disp: &mut [(f64, f64)],
    edges: &[(usize, usize)],
    k: f64,
    side: f64,
    temperature: f64,
) {
    // Attraction along edges: f_a(d) = d² / k.
    for &(s, t) in edges {
        let dx = pos[s].0 - pos[t].0;
        let dy = pos[s].1 - pos[t].1;
        let dist = (dx * dx + dy * dy).sqrt().max(1e-6);
        let force = dist * dist / k;
        let fx = dx / dist * force;
        let fy = dy / dist * force;
        disp[s].0 -= fx;
        disp[s].1 -= fy;
        disp[t].0 += fx;
        disp[t].1 += fy;
    }
    // Apply displacements, capped by temperature, clamped to the area.
    for i in 0..pos.len() {
        let (dx, dy) = disp[i];
        let len = (dx * dx + dy * dy).sqrt().max(1e-6);
        let step = len.min(temperature);
        pos[i].0 = (pos[i].0 + dx / len * step).clamp(-side / 2.0, side / 2.0);
        pos[i].1 = (pos[i].1 + dy / len * step).clamp(-side / 2.0, side / 2.0);
    }
}

/// Fruchterman–Reingold force-directed layout (exact O(n²) reference).
///
/// Alias for [`reference::force_directed`], kept under the historical name
/// for existing callers.
pub fn force_directed<N, E>(g: &CsrGraph<N, E>, opts: ForceOptions) -> Layout {
    reference::force_directed(g, opts)
}

/// Barnes–Hut force-directed layout: the Fruchterman–Reingold force model
/// with quadtree-aggregated repulsion, O(iterations · n log n).
///
/// Deterministic given the seed. With `theta == 0` the approximation is
/// disabled and the call delegates to [`reference::force_directed`] — the
/// two layouts are bit-identical at that setting. The attraction and
/// displacement steps are shared with the reference implementation, so θ
/// is the *only* source of divergence.
pub fn barnes_hut<N, E>(g: &CsrGraph<N, E>, opts: BarnesHutOptions) -> Layout {
    if opts.theta <= 0.0 {
        return reference::force_directed(g, opts.force);
    }
    let n = g.node_count();
    if n == 0 {
        return Vec::new();
    }
    if n == 1 {
        return vec![(0.0, 0.0)];
    }
    let side = opts.force.area;
    let mut pos = initial_scatter(n, side, opts.force.seed);
    let k = (side * side / n as f64).sqrt();
    let k2 = k * k;
    let mut temperature = side / 10.0;
    let cooling = temperature / (opts.force.iterations.max(1) as f64);

    let edges = undirected_edges(g);
    let mut disp = vec![(0.0f64, 0.0f64); n];
    let mut tree = QuadTree::new();
    for _ in 0..opts.force.iterations {
        tree.build(&pos);
        for (i, d) in disp.iter_mut().enumerate() {
            *d = tree.repulsion(&pos, i, opts.theta, k2);
        }
        attract_and_apply(&mut pos, &mut disp, &edges, k, side, temperature);
        temperature = (temperature - cooling).max(1e-3);
    }
    pos
}

/// Which layout algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayoutEngine {
    /// Pick by node count: exact ≤ [`AUTO_EXACT_MAX_NODES`] <
    /// Barnes–Hut ≤ [`AUTO_BARNES_HUT_MAX_NODES`] < circular.
    Auto,
    /// Deterministic circle, O(n).
    Circular,
    /// Exact Fruchterman–Reingold, O(iterations · n²).
    Exact,
    /// Barnes–Hut approximate Fruchterman–Reingold, O(iterations · n log n).
    BarnesHut,
}

impl LayoutEngine {
    /// Parses the wire names used by the render endpoints.
    pub fn parse(s: &str) -> Option<LayoutEngine> {
        match s {
            "auto" => Some(LayoutEngine::Auto),
            "circular" | "circle" => Some(LayoutEngine::Circular),
            "exact" | "force" | "fr" => Some(LayoutEngine::Exact),
            "bh" | "barnes-hut" | "barneshut" => Some(LayoutEngine::BarnesHut),
            _ => None,
        }
    }

    /// Resolves `Auto` to a concrete engine for a graph of `n` nodes.
    pub fn resolve(self, n: usize) -> LayoutEngine {
        match self {
            LayoutEngine::Auto => {
                if n <= AUTO_EXACT_MAX_NODES {
                    LayoutEngine::Exact
                } else if n <= AUTO_BARNES_HUT_MAX_NODES {
                    LayoutEngine::BarnesHut
                } else {
                    LayoutEngine::Circular
                }
            }
            concrete => concrete,
        }
    }
}

/// Lays out `g` with the selected engine. `Auto` resolves by node count;
/// the circular engine uses `area / 2` as its radius so every engine draws
/// into the same square.
pub fn layout_graph<N, E>(
    g: &CsrGraph<N, E>,
    engine: LayoutEngine,
    opts: BarnesHutOptions,
) -> Layout {
    match engine.resolve(g.node_count()) {
        LayoutEngine::Circular => circular(g, opts.force.area / 2.0),
        LayoutEngine::Exact => reference::force_directed(g, opts.force),
        LayoutEngine::BarnesHut => barnes_hut(g, opts),
        LayoutEngine::Auto => unreachable!("resolve() never returns Auto"),
    }
}

/// Span below which an axis is treated as degenerate by
/// [`fit_to_viewport`] (single node, collinear layout): the points are
/// centred on that axis instead of having numeric noise stretched across
/// the full viewport.
const DEGENERATE_SPAN: f64 = 1e-9;

/// Rescales a layout to fit inside `[0, width] × [0, height]` with a
/// margin. An axis whose span is degenerate (single node, collinear
/// layout) is centred rather than stretched.
pub fn fit_to_viewport(layout: &[(f64, f64)], width: f64, height: f64, margin: f64) -> Layout {
    if layout.is_empty() {
        return Vec::new();
    }
    let min_x = layout.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
    let max_x = layout.iter().map(|p| p.0).fold(f64::NEG_INFINITY, f64::max);
    let min_y = layout.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
    let max_y = layout.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max);
    let span_x = max_x - min_x;
    let span_y = max_y - min_y;
    let usable_w = (width - 2.0 * margin).max(1.0);
    let usable_h = (height - 2.0 * margin).max(1.0);
    let map_x = |x: f64| {
        if span_x <= DEGENERATE_SPAN {
            margin + usable_w / 2.0
        } else {
            margin + (x - min_x) / span_x * usable_w
        }
    };
    let map_y = |y: f64| {
        if span_y <= DEGENERATE_SPAN {
            margin + usable_h / 2.0
        } else {
            margin + (y - min_y) / span_y * usable_h
        }
    };
    layout.iter().map(|&(x, y)| (map_x(x), map_y(y))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::csr::NodeId;

    fn path_graph(n: usize) -> CsrGraph<(), ()> {
        let mut b = GraphBuilder::new();
        for i in 1..n {
            b.add_edge(NodeId(i as u32 - 1), NodeId(i as u32), ());
        }
        b.build(vec![(); n], |_, _| {})
    }

    #[test]
    fn circular_on_unit_circle() {
        let g = path_graph(4);
        let pos = circular(&g, 10.0);
        assert_eq!(pos.len(), 4);
        for (x, y) in &pos {
            assert!(((x * x + y * y).sqrt() - 10.0).abs() < 1e-9);
        }
        // Distinct positions.
        assert!((pos[0].0 - pos[1].0).abs() + (pos[0].1 - pos[1].1).abs() > 1.0);
    }

    #[test]
    fn force_layout_deterministic_given_seed() {
        let g = path_graph(10);
        let a = force_directed(&g, ForceOptions::default());
        let b = force_directed(&g, ForceOptions::default());
        assert_eq!(a, b);
        let c = force_directed(
            &g,
            ForceOptions {
                seed: 7,
                ..ForceOptions::default()
            },
        );
        assert_ne!(a, c);
    }

    #[test]
    fn force_layout_separates_nodes() {
        let g = path_graph(8);
        let pos = force_directed(&g, ForceOptions::default());
        for i in 0..pos.len() {
            for j in (i + 1)..pos.len() {
                let d = ((pos[i].0 - pos[j].0).powi(2) + (pos[i].1 - pos[j].1).powi(2)).sqrt();
                assert!(d > 1.0, "nodes {i} and {j} overlap: {d}");
            }
        }
    }

    #[test]
    fn force_layout_pulls_neighbors_closer_than_strangers() {
        // A path 0-1-2-...-9: endpoints should end up farther apart than
        // adjacent pairs on average.
        let g = path_graph(10);
        let pos = force_directed(
            &g,
            ForceOptions {
                iterations: 400,
                ..Default::default()
            },
        );
        let d = |i: usize, j: usize| {
            ((pos[i].0 - pos[j].0).powi(2) + (pos[i].1 - pos[j].1).powi(2)).sqrt()
        };
        let adjacent: f64 = (0..9).map(|i| d(i, i + 1)).sum::<f64>() / 9.0;
        assert!(
            d(0, 9) > adjacent,
            "endpoints {:.1} vs adjacent {:.1}",
            d(0, 9),
            adjacent
        );
    }

    #[test]
    fn barnes_hut_theta_zero_is_the_reference() {
        let g = path_graph(40);
        let exact = reference::force_directed(&g, ForceOptions::default());
        let bh = barnes_hut(
            &g,
            BarnesHutOptions {
                theta: 0.0,
                ..Default::default()
            },
        );
        assert_eq!(exact, bh);
    }

    #[test]
    fn barnes_hut_deterministic_and_finite() {
        let g = path_graph(300);
        let opts = BarnesHutOptions {
            force: ForceOptions {
                iterations: 60,
                ..Default::default()
            },
            theta: 0.8,
        };
        let a = barnes_hut(&g, opts);
        let b = barnes_hut(&g, opts);
        assert_eq!(a, b);
        assert!(a.iter().all(|p| p.0.is_finite() && p.1.is_finite()));
        let half = opts.force.area / 2.0 + 1e-9;
        assert!(a.iter().all(|p| p.0.abs() <= half && p.1.abs() <= half));
    }

    #[test]
    fn auto_engine_resolves_by_node_count() {
        assert_eq!(LayoutEngine::Auto.resolve(10), LayoutEngine::Exact);
        assert_eq!(
            LayoutEngine::Auto.resolve(AUTO_EXACT_MAX_NODES),
            LayoutEngine::Exact
        );
        assert_eq!(
            LayoutEngine::Auto.resolve(AUTO_EXACT_MAX_NODES + 1),
            LayoutEngine::BarnesHut
        );
        assert_eq!(
            LayoutEngine::Auto.resolve(AUTO_BARNES_HUT_MAX_NODES + 1),
            LayoutEngine::Circular
        );
        assert_eq!(LayoutEngine::Exact.resolve(1_000_000), LayoutEngine::Exact);
    }

    #[test]
    fn engine_parsing() {
        assert_eq!(LayoutEngine::parse("auto"), Some(LayoutEngine::Auto));
        assert_eq!(LayoutEngine::parse("bh"), Some(LayoutEngine::BarnesHut));
        assert_eq!(
            LayoutEngine::parse("barnes-hut"),
            Some(LayoutEngine::BarnesHut)
        );
        assert_eq!(LayoutEngine::parse("exact"), Some(LayoutEngine::Exact));
        assert_eq!(
            LayoutEngine::parse("circular"),
            Some(LayoutEngine::Circular)
        );
        assert_eq!(LayoutEngine::parse("nope"), None);
    }

    #[test]
    fn layout_graph_small_matches_exact() {
        let g = path_graph(12);
        let via_engine = layout_graph(&g, LayoutEngine::Auto, BarnesHutOptions::default());
        let direct = reference::force_directed(&g, ForceOptions::default());
        assert_eq!(via_engine, direct);
    }

    #[test]
    fn degenerate_graphs() {
        let empty: CsrGraph<(), ()> = CsrGraph::vertices_only(Vec::new());
        assert!(force_directed(&empty, ForceOptions::default()).is_empty());
        assert!(barnes_hut(&empty, BarnesHutOptions::default()).is_empty());
        assert!(circular(&empty, 1.0).is_empty());

        let single: CsrGraph<(), ()> = CsrGraph::vertices_only(vec![()]);
        assert_eq!(
            force_directed(&single, ForceOptions::default()),
            vec![(0.0, 0.0)]
        );
        assert_eq!(
            barnes_hut(&single, BarnesHutOptions::default()),
            vec![(0.0, 0.0)]
        );
    }

    #[test]
    fn self_loops_do_not_explode() {
        let mut b = GraphBuilder::new();
        b.add_edge(NodeId(0), NodeId(0), ());
        b.add_edge(NodeId(0), NodeId(1), ());
        let g = b.build(vec![(); 2], |_, _| {});
        let pos = force_directed(&g, ForceOptions::default());
        assert!(pos.iter().all(|p| p.0.is_finite() && p.1.is_finite()));
        let pos = barnes_hut(&g, BarnesHutOptions::default());
        assert!(pos.iter().all(|p| p.0.is_finite() && p.1.is_finite()));
    }

    #[test]
    fn viewport_fitting() {
        let layout = vec![(-5.0, -5.0), (5.0, 5.0), (0.0, 0.0)];
        let fitted = fit_to_viewport(&layout, 100.0, 50.0, 10.0);
        for (x, y) in &fitted {
            assert!(*x >= 10.0 - 1e-9 && *x <= 90.0 + 1e-9);
            assert!(*y >= 10.0 - 1e-9 && *y <= 40.0 + 1e-9);
        }
        assert_eq!(fitted[0], (10.0, 10.0));
        assert_eq!(fitted[1], (90.0, 40.0));
        assert!(fit_to_viewport(&Vec::new(), 10.0, 10.0, 1.0).is_empty());
    }

    #[test]
    fn viewport_fitting_degenerate_spans_are_centred() {
        // Single node: dead centre of the viewport, not the margin corner.
        let one = fit_to_viewport(&[(3.0, 4.0)], 100.0, 60.0, 10.0);
        assert_eq!(one, vec![(50.0, 30.0)]);

        // Horizontal collinear points: y centred, x spread normally.
        let layout = vec![(1.0, 3.0), (2.0, 3.0), (3.0, 3.0)];
        let fitted = fit_to_viewport(&layout, 100.0, 100.0, 10.0);
        assert!(fitted.iter().all(|p| (p.1 - 50.0).abs() < 1e-9));
        assert_eq!(fitted[0].0, 10.0);
        assert_eq!(fitted[2].0, 90.0);

        // Numeric-noise span (≤ 1e-9) counts as degenerate too: no
        // stretching a femtometre across the full axis.
        let noisy = vec![(0.0, 0.0), (5e-10, 1.0)];
        let fitted = fit_to_viewport(&noisy, 100.0, 100.0, 0.0);
        assert!((fitted[0].0 - 50.0).abs() < 1e-9);
        assert!((fitted[1].0 - 50.0).abs() < 1e-9);
    }
}
