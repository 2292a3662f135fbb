//! Stage 1b — node extraction via radial scan + KDE.
//!
//! The 2-D projection is scanned with ψ angular sectors around its
//! centroid. Inside each sector, a 1-D Gaussian KDE over the radial
//! distances is evaluated and its local maxima become **nodes** ("dense
//! regions … generated via local maxima identification using radial scan
//! and kernel density estimation", paper §II-A). Every subsequence then
//! maps to the nearest node of its sector, turning each series into a node
//! path.
//!
//! Each sector's radii are sorted once: that copy gives the Silverman
//! bandwidth's quartiles and the median fallback, and the radii themselves
//! move into the sector's [`Kde`], whose grid walk (see `linalg::kde`)
//! costs a few `exp`s per radius rather than one per grid point.

use crate::embed::Projection;
use linalg::kde::Kde;

/// A node candidate produced by the radial scan.
#[derive(Debug, Clone)]
pub struct RadialNode {
    /// Sector index in `0..psi`.
    pub sector: usize,
    /// Radial position of the density mode.
    pub radius: f64,
}

/// Result of the radial scan: nodes plus the per-point node assignment.
#[derive(Debug, Clone)]
pub struct NodeAssignment {
    /// Extracted nodes.
    pub nodes: Vec<RadialNode>,
    /// For each projected point (same order as the projection), the index
    /// of its node in [`Self::nodes`].
    pub point_node: Vec<usize>,
    /// Centroid of the projection the scan ran on (polar origin).
    pub center: (f64, f64),
    /// Number of angular sectors used.
    pub psi: usize,
}

/// Polar coordinates of a point relative to `center`.
pub(crate) fn to_polar(p: (f64, f64), center: (f64, f64)) -> (f64, f64) {
    let dx = p.0 - center.0;
    let dy = p.1 - center.1;
    let r = (dx * dx + dy * dy).sqrt();
    let mut theta = dy.atan2(dx);
    if theta < 0.0 {
        theta += std::f64::consts::TAU;
    }
    (theta, r)
}

/// The sector of angle `theta` among `psi` equal angular sectors.
pub(crate) fn sector_of(theta: f64, psi: usize) -> usize {
    ((theta / std::f64::consts::TAU * psi as f64) as usize).min(psi - 1)
}

/// Node ids grouped by sector: the lookup behind both the fit-time scan's
/// assignment and serve-time routing, so the two pick the same node for
/// the same point by construction.
#[derive(Debug, Clone)]
pub(crate) struct SectorIndex {
    /// `ids[starts[s]..starts[s + 1]]` are sector `s`'s node ids, ascending.
    starts: Vec<usize>,
    ids: Vec<usize>,
}

impl SectorIndex {
    /// Groups `nodes` by sector. Nodes whose sector is `psi` or more are
    /// left out of every sector (they stay reachable through the fallback
    /// of [`Self::nearest`]).
    pub(crate) fn new(nodes: &[RadialNode], psi: usize) -> SectorIndex {
        let mut ids: Vec<usize> = (0..nodes.len()).collect();
        // Stable: ids stay ascending within a sector.
        ids.sort_by_key(|&i| nodes[i].sector);
        let starts = (0..=psi)
            .map(|s| ids.partition_point(|&i| nodes[i].sector < s))
            .collect();
        SectorIndex { starts, ids }
    }

    /// The node of `sector` whose radius is nearest `r` (the lowest id
    /// among equals). A sector without nodes — possible for an
    /// out-of-sample point — falls back to the nearest-radius node of the
    /// whole set. Panics when `nodes` is empty.
    pub(crate) fn nearest(&self, nodes: &[RadialNode], sector: usize, r: f64) -> usize {
        let gap = |i: &usize| (nodes[*i].radius - r).abs();
        let in_sector = &self.ids[self.starts[sector]..self.starts[sector + 1]];
        let nearest = if in_sector.is_empty() {
            (0..nodes.len()).min_by(|a, b| gap(a).total_cmp(&gap(b)))
        } else {
            in_sector
                .iter()
                .copied()
                .min_by(|a, b| gap(a).total_cmp(&gap(b)))
        };
        nearest.expect("non-empty node set")
    }
}

/// Runs the radial scan on a projection.
///
/// * `psi` — number of angular sectors,
/// * `kde_grid` — KDE evaluation grid size per sector,
/// * `min_density_ratio` — mode acceptance threshold relative to the
///   sector's density peak.
///
/// Sectors with points always yield at least one node (falling back to the
/// sector's median radius if the KDE finds no interior maximum), so every
/// point receives an assignment.
pub fn radial_scan(
    proj: &Projection,
    psi: usize,
    kde_grid: usize,
    min_density_ratio: f64,
) -> NodeAssignment {
    assert!(psi >= 1, "psi must be >= 1");
    let n = proj.points.len();
    // Projection is PCA-centred, but compute the centroid anyway (sampled
    // PCA fits leave a small offset).
    let center = (
        proj.points.iter().map(|p| p.0).sum::<f64>() / n as f64,
        proj.points.iter().map(|p| p.1).sum::<f64>() / n as f64,
    );
    let polar: Vec<(f64, f64)> = proj.points.iter().map(|&p| to_polar(p, center)).collect();

    // Bucket radii per sector.
    let mut sector_radii: Vec<Vec<f64>> = vec![Vec::new(); psi];
    for &(theta, r) in &polar {
        sector_radii[sector_of(theta, psi)].push(r);
    }

    // Extract modes per sector.
    let mut nodes: Vec<RadialNode> = Vec::new();
    for (sector, radii) in sector_radii.into_iter().enumerate() {
        if radii.is_empty() {
            continue;
        }
        let mut sorted = radii.clone();
        sorted.sort_by(f64::total_cmp);
        let mut modes = if radii.len() >= 3 {
            let kde = Kde::silverman_presorted(radii, &sorted);
            kde.local_maxima_on_grid(kde_grid.max(16), min_density_ratio)
        } else {
            Vec::new()
        };
        if modes.is_empty() {
            // Fallback: one node at the median radius.
            modes.push(sorted[sorted.len() / 2]);
        }
        nodes.extend(
            modes
                .into_iter()
                .map(|radius| RadialNode { sector, radius }),
        );
    }

    // Assign each point to the nearest node (by radius) of its sector;
    // every sector with points has nodes.
    let index = SectorIndex::new(&nodes, psi);
    let point_node: Vec<usize> = polar
        .iter()
        .map(|&(theta, r)| index.nearest(&nodes, sector_of(theta, psi), r))
        .collect();

    NodeAssignment {
        nodes,
        point_node,
        center,
        psi,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embed::project_subsequences;
    use tscore::{Dataset, DatasetKind, TimeSeries};

    fn toy_projection() -> Projection {
        let mut series = Vec::new();
        for f in [0.15f64, 0.5, 1.1] {
            for p in 0..4 {
                series.push(TimeSeries::new(
                    (0..80).map(|i| ((i + p * 2) as f64 * f).sin()).collect(),
                ));
            }
        }
        let ds = Dataset::new("toy", DatasetKind::Simulated, series);
        project_subsequences(&ds, 20, 1, 2000)
    }

    #[test]
    fn every_point_assigned() {
        let proj = toy_projection();
        let assign = radial_scan(&proj, 16, 128, 0.05);
        assert_eq!(assign.point_node.len(), proj.points.len());
        assert!(!assign.nodes.is_empty());
        for &ni in &assign.point_node {
            assert!(ni < assign.nodes.len());
        }
    }

    #[test]
    fn node_count_grows_with_psi() {
        let proj = toy_projection();
        let coarse = radial_scan(&proj, 4, 128, 0.05);
        let fine = radial_scan(&proj, 32, 128, 0.05);
        assert!(
            fine.nodes.len() > coarse.nodes.len(),
            "{} vs {}",
            fine.nodes.len(),
            coarse.nodes.len()
        );
    }

    #[test]
    fn assignment_respects_sector() {
        let proj = toy_projection();
        let psi = 12;
        let assign = radial_scan(&proj, psi, 128, 0.05);
        // Recompute polar coordinates exactly as the scan does.
        let n = proj.points.len() as f64;
        let center = (
            proj.points.iter().map(|p| p.0).sum::<f64>() / n,
            proj.points.iter().map(|p| p.1).sum::<f64>() / n,
        );
        for (i, &pt) in proj.points.iter().enumerate() {
            let (theta, _) = to_polar(pt, center);
            let sector = sector_of(theta, psi);
            assert_eq!(assign.nodes[assign.point_node[i]].sector, sector);
        }
    }

    #[test]
    fn single_sector_works() {
        let proj = toy_projection();
        let assign = radial_scan(&proj, 1, 128, 0.05);
        assert!(!assign.nodes.is_empty());
        assert!(assign.nodes.iter().all(|n| n.sector == 0));
    }

    #[test]
    fn stricter_density_ratio_fewer_nodes() {
        let proj = toy_projection();
        let lax = radial_scan(&proj, 16, 128, 0.0);
        let strict = radial_scan(&proj, 16, 128, 0.8);
        assert!(strict.nodes.len() <= lax.nodes.len());
        // Strict still assigns everyone (median fallback).
        assert_eq!(strict.point_node.len(), proj.points.len());
    }

    #[test]
    fn assignment_minimises_radius_gap() {
        let proj = toy_projection();
        let assign = radial_scan(&proj, 8, 128, 0.05);
        let n = proj.points.len() as f64;
        let center = (
            proj.points.iter().map(|p| p.0).sum::<f64>() / n,
            proj.points.iter().map(|p| p.1).sum::<f64>() / n,
        );
        for (i, &pt) in proj.points.iter().enumerate() {
            let (_, r) = to_polar(pt, center);
            let assigned = &assign.nodes[assign.point_node[i]];
            let my_gap = (assigned.radius - r).abs();
            for node in assign.nodes.iter().filter(|m| m.sector == assigned.sector) {
                assert!(my_gap <= (node.radius - r).abs() + 1e-9);
            }
        }
    }

    #[test]
    #[should_panic(expected = "psi must be >= 1")]
    fn zero_psi_panics() {
        let proj = toy_projection();
        radial_scan(&proj, 0, 128, 0.05);
    }
}
