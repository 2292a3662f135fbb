//! # clustering — time series clustering algorithms and quality metrics
//!
//! Implements, from scratch, every clustering method Graphint's Benchmark
//! frame compares k-Graph against, plus the external/internal quality
//! metrics used across the system:
//!
//! | module | method / content |
//! |---|---|
//! | [`kmeans`]    | k-Means with k-means++ init and restarts (k-AVG) |
//! | [`count_kmeans`] | exact integer k-Means over sparse count rows (k-Graph's per-length step) |
//! | [`kshape`]    | k-Shape (FFT-backed NCC, SBD, shape extraction) |
//! | [`ksc`]       | k-Spectral-Centroid (scale/shift invariant) |
//! | [`kdba`]      | k-Means under DTW with DBA barycenter averaging |
//! | [`spectral`]  | spectral clustering on RBF / k-NN / precomputed affinities |
//! | [`agglo`]     | agglomerative clustering (single/complete/average/Ward) |
//! | [`dbscan`]    | density-based clustering |
//! | [`gmm`]       | Gaussian mixture model (diagonal covariance EM) |
//! | [`birch`]     | BIRCH CF-tree with global clustering refinement |
//! | [`meanshift`] | mean-shift with a Gaussian kernel |
//! | [`features`]  | statistical feature extraction + FeatTS/Time2Feat-like pipelines |
//! | [`neural`]    | MLP auto-encoder (DenseAE) and DEC-style refinement (DTC-like) |
//! | [`metrics`]   | RI, ARI, NMI, AMI, purity, silhouette, inertia |
//! | [`validation`]| Calinski–Harabasz, Davies–Bouldin, automatic k selection |
//! | [`method`]    | unified [`method::ClusteringMethod`] registry for the benchmark harness |
//!
//! All algorithms are deterministic given a seed, and operate on either raw
//! rows (`Vec<Vec<f64>>`) or [`tscore::Dataset`]s via the `method` facade.

pub mod agglo;
pub mod birch;
pub mod count_kmeans;
pub mod dbscan;
pub mod features;
pub mod gmm;
pub mod kdba;
pub mod kmeans;
pub mod ksc;
pub mod kshape;
pub mod meanshift;
pub mod method;
pub mod metrics;
pub mod neural;
pub mod spectral;
pub mod validation;

pub use kmeans::{KMeans, KMeansResult};
pub use kshape::{sbd_fft, KShape};
pub use method::{ClusteringMethod, MethodKind};
pub use metrics::{adjusted_rand_index, normalized_mutual_information, rand_index};
pub use spectral::{spectral_clustering, SpectralOptions};
