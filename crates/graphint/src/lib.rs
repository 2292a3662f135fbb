//! # graphint — the Graphint visualisation and interpretation tool
//!
//! Rust reproduction of the Graphint system (ICDE 2025 demo). The paper's
//! Streamlit GUI is re-expressed as a headless rendering library: every
//! frame of Figure 2/3 becomes a renderer that produces the same visual
//! artefact as SVG (assembled into a self-contained HTML report) plus a
//! terminal-friendly text summary.
//!
//! | paper frame | module |
//! |---|---|
//! | Clustering comparison (Fig. 3 1.1) | [`frames::comparison`] |
//! | Benchmark (Fig. 3 1.2)             | [`frames::benchmark`] |
//! | k-Graph in action / Graph (Fig. 3 2) | [`frames::graph`] |
//! | Interpretability test (Fig. 3 3)   | [`frames::quiz_frame`] + [`quiz`] |
//! | Under the hood (Fig. 3 4)          | [`frames::under_the_hood`] |
//!
//! Supporting layers: a dependency-free [`svg`] writer, [`color`] maps,
//! chart builders in [`plot`], terminal rendering in [`ascii`], CSV export
//! in [`csvout`] and HTML assembly in [`report`].
//!
//! The interpretability *quiz* of Scenario 1 requires a user; [`quiz`]
//! provides simulated users (a centroid-reader and a graphoid-reader) whose
//! scores reproduce the comparison the demo runs with humans.

pub mod ascii;
pub mod color;
pub mod csvout;
pub mod frames;
pub mod plot;
pub mod quiz;
pub mod report;
pub mod svg;
#[cfg(test)]
mod testdir;

pub use report::Report;
