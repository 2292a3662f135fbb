//! Barnes–Hut quadtree over 2-D point sets.
//!
//! The tree recursively partitions the layout area into quadrants until
//! every cell holds at most one point (or the depth cap is hit, which
//! bounds degenerate coincident clusters). Every cell carries its centre
//! of mass and point count, so a far-away cluster of points can act on a
//! query point as a single aggregated body — the approximation that turns
//! the O(n²) all-pairs repulsion of Fruchterman–Reingold into O(n log n)
//! per iteration (`layout::barnes_hut`).
//!
//! Construction partitions an index permutation in place (no per-node
//! allocation, stable order → deterministic tree for a given point set)
//! and the tree reuses its arenas across [`QuadTree::build`] calls, so
//! the per-iteration rebuild inside a force layout allocates only while
//! the tree is still growing toward its steady-state size.

/// Cells deeper than this are never split further; coincident points
/// simply share a leaf and interact pairwise.
const MAX_DEPTH: usize = 32;

/// One cell of the quadtree.
#[derive(Debug, Clone, Copy)]
struct Cell {
    /// Centre of mass of the points in this cell.
    com: (f64, f64),
    /// Number of points in this cell.
    mass: f64,
    /// Side length of the cell's square region.
    side: f64,
    /// Indices into the node arena; `-1` when the quadrant is empty.
    children: [i32; 4],
    /// Leaf payload: range `start..start + len` into the point
    /// permutation. Internal cells have `len == 0`.
    start: u32,
    len: u32,
}

/// The per-query constants of one repulsion accumulation: the query
/// point's index and position plus the opening angle and force strength.
struct Probe {
    i: usize,
    p: (f64, f64),
    theta: f64,
    strength: f64,
}

/// A reusable Barnes–Hut quadtree.
#[derive(Debug, Default)]
pub struct QuadTree {
    cells: Vec<Cell>,
    /// Permutation of point indices; leaves own contiguous ranges.
    order: Vec<u32>,
    /// Partition scratch (one quadrant bucket at a time).
    scratch: Vec<u32>,
}

impl QuadTree {
    /// An empty tree; [`build`](Self::build) populates it.
    pub fn new() -> Self {
        QuadTree::default()
    }

    /// Rebuilds the tree over `points`, reusing the internal arenas.
    pub fn build(&mut self, points: &[(f64, f64)]) {
        self.cells.clear();
        self.order.clear();
        self.order.extend(0..points.len() as u32);
        if points.is_empty() {
            return;
        }
        // Square bounding box covering every point.
        let mut min_x = f64::INFINITY;
        let mut max_x = f64::NEG_INFINITY;
        let mut min_y = f64::INFINITY;
        let mut max_y = f64::NEG_INFINITY;
        for &(x, y) in points {
            min_x = min_x.min(x);
            max_x = max_x.max(x);
            min_y = min_y.min(y);
            max_y = max_y.max(y);
        }
        let side = (max_x - min_x).max(max_y - min_y).max(1e-9);
        let cx = (min_x + max_x) / 2.0;
        let cy = (min_y + max_y) / 2.0;
        self.subdivide(points, 0, points.len(), (cx, cy), side, 0);
    }

    /// Builds the cell over `order[start..end]` and returns its index.
    fn subdivide(
        &mut self,
        points: &[(f64, f64)],
        start: usize,
        end: usize,
        center: (f64, f64),
        side: f64,
        depth: usize,
    ) -> i32 {
        let n = end - start;
        debug_assert!(n > 0);
        let mut com = (0.0, 0.0);
        for &i in &self.order[start..end] {
            com.0 += points[i as usize].0;
            com.1 += points[i as usize].1;
        }
        com.0 /= n as f64;
        com.1 /= n as f64;
        let cell_at = self.cells.len();
        self.cells.push(Cell {
            com,
            mass: n as f64,
            side,
            children: [-1; 4],
            start: start as u32,
            len: n as u32,
        });
        if n == 1 || depth >= MAX_DEPTH {
            return cell_at as i32;
        }
        // Partition the range into the four quadrants around `center`
        // with a stable counting sort (stable order → deterministic tree
        // for a given point set). Quadrant id: bit 0 = east of centre,
        // bit 1 = south of centre. The scratch buffer is only live until
        // the write-back below, so recursive calls can reuse it.
        let quadrant = |p: (f64, f64)| -> usize {
            (usize::from(p.0 >= center.0)) | (usize::from(p.1 >= center.1) << 1)
        };
        let mut counts = [0usize; 4];
        for &i in &self.order[start..end] {
            counts[quadrant(points[i as usize])] += 1;
        }
        let mut offsets = [0usize; 4];
        for q in 1..4 {
            offsets[q] = offsets[q - 1] + counts[q - 1];
        }
        self.scratch.clear();
        self.scratch.resize(n, 0);
        let mut write = offsets;
        for k in start..end {
            let i = self.order[k];
            let q = quadrant(points[i as usize]);
            self.scratch[write[q]] = i;
            write[q] += 1;
        }
        self.order[start..end].copy_from_slice(&self.scratch[..n]);

        let half = side / 2.0;
        let quarter = side / 4.0;
        let mut children = [-1i32; 4];
        for q in 0..4 {
            if counts[q] == 0 {
                continue;
            }
            let child_center = (
                center.0 + if q & 1 == 1 { quarter } else { -quarter },
                center.1 + if q & 2 == 2 { quarter } else { -quarter },
            );
            // When every point lands in one quadrant the cell still
            // shrinks geometrically, so spread points converge; the depth
            // cap bounds truly coincident clusters.
            let q_start = start + offsets[q];
            children[q] = self.subdivide(
                points,
                q_start,
                q_start + counts[q],
                child_center,
                half,
                depth + 1,
            );
        }
        self.cells[cell_at].children = children;
        // Internal cells do not own a leaf range.
        if children.iter().any(|&c| c >= 0) {
            self.cells[cell_at].len = 0;
        }
        cell_at as i32
    }

    /// Accumulated repulsive force on point `i` with opening angle
    /// `theta`, using `f(d) = strength · mass / d` along the separating
    /// direction — the Fruchterman–Reingold repulsion with `strength =
    /// k²`. A cell whose `side / distance < theta` acts as one aggregated
    /// body at its centre of mass; otherwise it is opened. Distances are
    /// floored at `1e-6` exactly like the exact-path kernel.
    pub fn repulsion(
        &self,
        points: &[(f64, f64)],
        i: usize,
        theta: f64,
        strength: f64,
    ) -> (f64, f64) {
        if self.cells.is_empty() {
            return (0.0, 0.0);
        }
        let probe = Probe {
            i,
            p: points[i],
            theta,
            strength,
        };
        let mut force = (0.0, 0.0);
        self.repulse_from(0, points, &probe, &mut force);
        force
    }

    fn repulse_from(
        &self,
        cell: i32,
        points: &[(f64, f64)],
        probe: &Probe,
        force: &mut (f64, f64),
    ) {
        let &Probe {
            i,
            p,
            theta,
            strength,
        } = probe;
        let c = &self.cells[cell as usize];
        let dx = p.0 - c.com.0;
        let dy = p.1 - c.com.1;
        let dist = (dx * dx + dy * dy).sqrt();
        if c.len > 0 {
            // Leaf: pairwise against every resident point (skipping i).
            for &j in &self.order[c.start as usize..(c.start + c.len) as usize] {
                if j as usize == i {
                    continue;
                }
                let q = points[j as usize];
                let dx = p.0 - q.0;
                let dy = p.1 - q.1;
                let d = (dx * dx + dy * dy).sqrt().max(1e-6);
                let f = strength / d;
                force.0 += dx / d * f;
                force.1 += dy / d * f;
            }
            return;
        }
        if c.side < theta * dist {
            // Far enough: the whole cell acts as one body of mass `mass`.
            let d = dist.max(1e-6);
            let f = strength * c.mass / d;
            force.0 += dx / d * f;
            force.1 += dy / d * f;
            return;
        }
        for &child in &c.children {
            if child >= 0 {
                self.repulse_from(child, points, probe, force);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact all-pairs repulsion, the oracle the tree approximates.
    fn exact_repulsion(points: &[(f64, f64)], i: usize, strength: f64) -> (f64, f64) {
        let mut force = (0.0, 0.0);
        for (j, &q) in points.iter().enumerate() {
            if j == i {
                continue;
            }
            let dx = points[i].0 - q.0;
            let dy = points[i].1 - q.1;
            let d = (dx * dx + dy * dy).sqrt().max(1e-6);
            let f = strength / d;
            force.0 += dx / d * f;
            force.1 += dy / d * f;
        }
        force
    }

    fn scatter(n: usize, seed: u64) -> Vec<(f64, f64)> {
        let mut s = seed | 1;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| (next() * 1000.0 - 500.0, next() * 1000.0 - 500.0))
            .collect()
    }

    #[test]
    fn tiny_theta_matches_exact() {
        // θ → 0 never aggregates, so the tree sums the same pairwise
        // terms as the oracle (different order → tiny float slack).
        let points = scatter(64, 7);
        let mut tree = QuadTree::new();
        tree.build(&points);
        for i in 0..points.len() {
            let (tx, ty) = tree.repulsion(&points, i, 1e-12, 100.0);
            let (ex, ey) = exact_repulsion(&points, i, 100.0);
            assert!((tx - ex).abs() < 1e-6 && (ty - ey).abs() < 1e-6);
        }
    }

    #[test]
    fn moderate_theta_approximates_exact() {
        let points = scatter(500, 3);
        let mut tree = QuadTree::new();
        tree.build(&points);
        for i in (0..points.len()).step_by(17) {
            let (tx, ty) = tree.repulsion(&points, i, 0.8, 100.0);
            let (ex, ey) = exact_repulsion(&points, i, 100.0);
            let mag = (ex * ex + ey * ey).sqrt().max(1e-9);
            let err = ((tx - ex).powi(2) + (ty - ey).powi(2)).sqrt();
            assert!(err / mag < 0.15, "point {i}: rel err {}", err / mag);
        }
    }

    #[test]
    fn coincident_points_terminate_and_act() {
        let mut points = vec![(1.0, 1.0); 40];
        points.push((200.0, 200.0));
        let mut tree = QuadTree::new();
        tree.build(&points);
        let (fx, fy) = tree.repulsion(&points, 40, 0.8, 100.0);
        assert!(fx.is_finite() && fy.is_finite());
        assert!(fx > 0.0 && fy > 0.0, "pushed away from the cluster");
        // Coincident points repel each other through the distance floor.
        let (fx, fy) = tree.repulsion(&points, 0, 0.8, 100.0);
        assert!(fx.is_finite() && fy.is_finite());
    }

    #[test]
    fn empty_and_single() {
        let mut tree = QuadTree::new();
        tree.build(&[]);
        assert_eq!(tree.cells.len(), 0);
        tree.build(&[(3.0, 4.0)]);
        assert_eq!(tree.cells.len(), 1);
        assert_eq!(tree.repulsion(&[(3.0, 4.0)], 0, 0.8, 100.0), (0.0, 0.0));
    }

    #[test]
    fn rebuild_reuses_and_is_deterministic() {
        let points = scatter(300, 11);
        let mut a = QuadTree::new();
        a.build(&points);
        let first: Vec<(f64, f64)> = (0..points.len())
            .map(|i| a.repulsion(&points, i, 0.7, 50.0))
            .collect();
        // Rebuild over something else, then back — identical forces.
        a.build(&scatter(100, 5));
        a.build(&points);
        let second: Vec<(f64, f64)> = (0..points.len())
            .map(|i| a.repulsion(&points, i, 0.7, 50.0))
            .collect();
        assert_eq!(first, second);
    }
}
