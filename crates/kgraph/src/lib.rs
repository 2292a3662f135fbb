//! # kgraph — interpretable graph-based time series clustering
//!
//! From-scratch reproduction of **k-Graph** (Boniol, Tiano, Bonifati,
//! Palpanas — TKDE 2025), the method underlying the Graphint demo
//! (ICDE 2025). The pipeline has the three stages of the paper's Figure 1
//! plus the interpretability computation:
//!
//! 1. **Graph embedding** ([`embed`], [`nodes`], [`build`]): for each
//!    subsequence length ℓ in a set `R`, project all (z-normalised)
//!    subsequences to 2-D via PCA, extract nodes as local maxima of the
//!    radial kernel density inside ψ angular sectors, and connect nodes
//!    with edges following consecutive subsequences — yielding one directed
//!    graph `G_ℓ` per length.
//! 2. **Graph clustering** ([`features`]): per series, count crossings of
//!    every node and edge of `G_ℓ`; k-Means over those features gives a
//!    partition `L_ℓ` per length.
//! 3. **Consensus clustering** ([`consensus`]): spectral clustering on the
//!    consensus matrix `MC[i][j]` = fraction of lengths grouping `i` and
//!    `j` together → final labels `L`, solved over the series' distinct
//!    label signatures without building `MC`.
//! 4. **Interpretability computation** ([`interpret`], [`graphoid`]):
//!    consistency `Wc(ℓ) = ARI(L, L_ℓ)` and interpretability factor
//!    `We(ℓ)` (mean over clusters of the maximum node exclusivity) select
//!    the most interpretable graph `G_ℓ̄`; node/edge representativity and
//!    exclusivity then yield the λ-graphoids and γ-graphoids that the
//!    Graphint Graph frame visualises.
//!
//! The per-length jobs of stage 1–2 run on a bounded worker pool (scoped
//! threads over disjoint output slots, at most one worker per hardware
//! thread), mirroring the "Job 0 … Job M" boxes of Figure 1. Every graph
//! `G_ℓ` is stored CSR ([`tsgraph::CsrGraph`]) and built by emitting
//! transition triples into a [`tsgraph::GraphBuilder`]; all downstream
//! stages are pure readers of the CSR view.
//!
//! The embedding never materialises the windows of a length: only the
//! PCA fit set (at most `pca_sample` windows) is copied out, and every
//! window is z-normalised into one reused buffer and projected as it
//! goes, so window memory is O(total + `pca_sample`·ℓ). Fit and serve
//! share that window loop ([`embed::project_windows`]); serving routes
//! each window through [`build::LayerEmbedding::route`], whose per-sector
//! node index and radial scale are derived once per layer on fit and on
//! load.
//!
//! Serving reads derive their per-model state once per model version
//! ([`serving`]).
//!
//! Entry point: [`KGraph::fit`] → [`KGraphModel`].

pub mod anomaly;
pub mod build;
pub mod checksum;
pub mod config;
pub mod consensus;
pub mod embed;
pub mod features;
pub mod graphoid;
pub mod interpret;
pub mod nodes;
pub mod pipeline;
pub mod serial;
pub mod serving;
pub mod stream;

pub use build::{GraphLayer, LayerEmbedding, NodePattern, PatternGraph};
pub use config::KGraphConfig;
pub use graphoid::{ClusterStats, Graphoid};
pub use pipeline::{KGraph, KGraphModel};
