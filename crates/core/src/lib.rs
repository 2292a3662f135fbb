//! # tscore — time series primitives
//!
//! Foundation crate for the Graphint / k-Graph reproduction. It provides:
//!
//! * [`TimeSeries`] and [`Dataset`] containers with class labels,
//! * descriptive statistics ([`stats`]),
//! * transformations: z-normalisation and resampling ([`transform`]),
//! * the sliding-window count ([`windows::window_count`]): window `w` of a
//!   series starts at `w · stride`, so a series and a window index name
//!   every subsequence,
//! * distance measures as SIMD-friendly, allocation-free kernels
//!   ([`kernel`]): Euclidean, z-normalised Euclidean, shape-based distance
//!   (SBD, the k-Shape distance) and dynamic time warping with a
//!   Sakoe–Chiba band, with [`kernel::DtwScratch`] /
//!   [`kernel::ZnormScratch`] so hot callers never allocate per pair,
//! * the workspace's one scoped fan-out, [`par::par_map`].
//!
//! The crate is dependency-free so that every other crate in the workspace
//! can build on it without pulling anything else in.

pub mod dataset;
pub mod error;
pub mod kernel;
pub mod par;
pub mod series;
pub mod stats;
pub mod transform;
pub mod windows;

pub use dataset::{Dataset, DatasetKind};
pub use error::{Result, TsError};
pub use series::TimeSeries;
