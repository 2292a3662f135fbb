//! Auto-encoder based clustering baselines.
//!
//! The paper's deep-learning comparators — Deep Auto-Encoder (DAE) and Deep
//! Temporal Clustering (DTC) — are reproduced with small from-scratch MLPs:
//!
//! * [`DenseAe`]: a 1-hidden-layer tanh auto-encoder trained with
//!   mini-batch SGD + momentum on z-scored series; clustering = k-Means on
//!   the latent codes. This is the "DAE → clustering" code path.
//! * [`DtcLike`]: DenseAE initialisation followed by DEC-style refinement —
//!   Student-t soft assignments against learnable centroids, sharpened
//!   target distribution, gradient descent on the centroids (encoder frozen,
//!   a standard simplification). This is the "DTC" code path.
//!
//! No external autodiff: gradients are hand-derived (the architectures are
//! two matrix products and a tanh).

use crate::kmeans::KMeans;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tscore::kernel::{dot, sq_dist};
use tscore::transform::znorm;

/// A 1-hidden-layer auto-encoder: `x → tanh(W₁x+b₁) = h → W₂h+b₂ = x̂`.
#[derive(Debug, Clone)]
pub struct DenseAe {
    /// Latent dimension.
    pub latent: usize,
    /// Training epochs.
    pub epochs: usize,
    /// SGD learning rate.
    pub lr: f64,
    /// Momentum coefficient.
    pub momentum: f64,
    /// Mini-batch size.
    pub batch: usize,
    /// RNG seed (weight init + shuffling).
    pub seed: u64,
}

impl DenseAe {
    /// Creates a configuration with pragmatic defaults (latent 8, 150
    /// epochs, lr 0.01).
    pub fn new(latent: usize, seed: u64) -> Self {
        DenseAe {
            latent,
            epochs: 150,
            lr: 0.01,
            momentum: 0.9,
            batch: 16,
            seed,
        }
    }

    /// Trains the auto-encoder on z-scored rows; returns the trained model.
    pub fn train(&self, rows: &[Vec<f64>]) -> TrainedAe {
        assert!(!rows.is_empty(), "auto-encoder requires input");
        let d = rows[0].len();
        assert!(rows.iter().all(|r| r.len() == d), "ragged input rows");
        let data: Vec<Vec<f64>> = rows.iter().map(|r| znorm(r)).collect();
        let h = self.latent.max(1);
        let mut rng = StdRng::seed_from_u64(self.seed);

        // Xavier-ish init.
        let scale1 = (2.0 / (d + h) as f64).sqrt();
        let scale2 = (2.0 / (h + d) as f64).sqrt();
        let mut w1: Vec<Vec<f64>> = (0..h)
            .map(|_| (0..d).map(|_| rng.gen_range(-scale1..scale1)).collect())
            .collect();
        let mut b1 = vec![0.0f64; h];
        let mut w2: Vec<Vec<f64>> = (0..d)
            .map(|_| (0..h).map(|_| rng.gen_range(-scale2..scale2)).collect())
            .collect();
        let mut b2 = vec![0.0f64; d];

        // Momentum buffers.
        let mut vw1 = vec![vec![0.0; d]; h];
        let mut vb1 = vec![0.0; h];
        let mut vw2 = vec![vec![0.0; h]; d];
        let mut vb2 = vec![0.0; d];

        let n = data.len();
        let mut order: Vec<usize> = (0..n).collect();
        for _epoch in 0..self.epochs {
            // Shuffle.
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            for chunk in order.chunks(self.batch.max(1)) {
                // Accumulate gradients over the batch.
                let mut gw1 = vec![vec![0.0; d]; h];
                let mut gb1 = vec![0.0; h];
                let mut gw2 = vec![vec![0.0; h]; d];
                let mut gb2 = vec![0.0; d];
                for &idx in chunk {
                    let x = &data[idx];
                    // Forward.
                    let mut pre = b1.clone();
                    for (j, p) in pre.iter_mut().enumerate() {
                        *p += dot(&w1[j], x);
                    }
                    let hid: Vec<f64> = pre.iter().map(|p| p.tanh()).collect();
                    let mut xhat = b2.clone();
                    for (o, xh) in xhat.iter_mut().enumerate() {
                        *xh += dot(&w2[o], &hid);
                    }
                    // Backward (MSE loss, factor 2/d folded into lr).
                    let err: Vec<f64> = xhat
                        .iter()
                        .zip(x)
                        .map(|(a, b)| (a - b) / d as f64)
                        .collect();
                    for o in 0..d {
                        gb2[o] += err[o];
                        for j in 0..h {
                            gw2[o][j] += err[o] * hid[j];
                        }
                    }
                    for j in 0..h {
                        let upstream: f64 = (0..d).map(|o| err[o] * w2[o][j]).sum::<f64>();
                        let dh = upstream * (1.0 - hid[j] * hid[j]);
                        gb1[j] += dh;
                        for (i, &xv) in x.iter().enumerate() {
                            gw1[j][i] += dh * xv;
                        }
                    }
                }
                // SGD + momentum update.
                let bs = chunk.len() as f64;
                for j in 0..h {
                    vb1[j] = self.momentum * vb1[j] - self.lr * gb1[j] / bs;
                    b1[j] += vb1[j];
                    for i in 0..d {
                        vw1[j][i] = self.momentum * vw1[j][i] - self.lr * gw1[j][i] / bs;
                        w1[j][i] += vw1[j][i];
                    }
                }
                for o in 0..d {
                    vb2[o] = self.momentum * vb2[o] - self.lr * gb2[o] / bs;
                    b2[o] += vb2[o];
                    for j in 0..h {
                        vw2[o][j] = self.momentum * vw2[o][j] - self.lr * gw2[o][j] / bs;
                        w2[o][j] += vw2[o][j];
                    }
                }
            }
        }
        TrainedAe { w1, b1, w2, b2 }
    }

    /// Trains, encodes and clusters the latent codes with k-Means.
    pub fn fit_cluster(&self, rows: &[Vec<f64>], k: usize) -> Vec<usize> {
        let model = self.train(rows);
        let latent: Vec<Vec<f64>> = rows.iter().map(|r| model.encode(&znorm(r))).collect();
        KMeans::new(k, self.seed).fit(&latent).labels
    }
}

/// Trained auto-encoder weights.
#[derive(Debug, Clone)]
pub struct TrainedAe {
    w1: Vec<Vec<f64>>,
    b1: Vec<f64>,
    w2: Vec<Vec<f64>>,
    b2: Vec<f64>,
}

impl TrainedAe {
    /// Encodes an input to the latent space.
    pub fn encode(&self, x: &[f64]) -> Vec<f64> {
        self.w1
            .iter()
            .zip(&self.b1)
            .map(|(row, b)| (dot(row, x) + b).tanh())
            .collect()
    }

    /// Decodes a latent vector back to input space.
    pub fn decode(&self, h: &[f64]) -> Vec<f64> {
        self.w2
            .iter()
            .zip(&self.b2)
            .map(|(row, b)| dot(row, h) + b)
            .collect()
    }
}

/// DTC-like: auto-encoder + DEC-style centroid refinement in latent space.
#[derive(Debug, Clone)]
pub struct DtcLike {
    /// Auto-encoder configuration (provides the latent space).
    pub ae: DenseAe,
    /// Number of clusters.
    pub k: usize,
    /// DEC refinement iterations.
    pub refine_iter: usize,
    /// Centroid learning rate.
    pub centroid_lr: f64,
}

impl DtcLike {
    /// Creates a configuration with 50 refinement iterations.
    pub fn new(k: usize, latent: usize, seed: u64) -> Self {
        DtcLike {
            ae: DenseAe::new(latent, seed),
            k,
            refine_iter: 50,
            centroid_lr: 0.5,
        }
    }

    /// Trains AE, initialises centroids with k-Means on the latent codes,
    /// then refines centroids by descending the DEC KL objective.
    pub fn fit(&self, rows: &[Vec<f64>]) -> Vec<usize> {
        let model = self.ae.train(rows);
        let latent: Vec<Vec<f64>> = rows.iter().map(|r| model.encode(&znorm(r))).collect();
        let km = KMeans::new(self.k, self.ae.seed).fit(&latent);
        let mut centroids = km.centroids.clone();
        centroids.truncate(self.k.min(latent.len()));
        let n = latent.len();
        let k = centroids.len();
        let h = latent[0].len();

        for _ in 0..self.refine_iter {
            // Soft assignment q_ij ∝ (1 + ‖z_i − µ_j‖²)^{-1} (Student-t, ν=1).
            let mut q = vec![vec![0.0f64; k]; n];
            for i in 0..n {
                let mut norm = 0.0;
                for (j, c) in centroids.iter().enumerate() {
                    q[i][j] = 1.0 / (1.0 + sq_dist(&latent[i], c));
                    norm += q[i][j];
                }
                for v in q[i].iter_mut() {
                    *v /= norm.max(1e-12);
                }
            }
            // Target distribution p_ij ∝ q²_ij / f_j.
            let f: Vec<f64> = (0..k).map(|j| q.iter().map(|r| r[j]).sum()).collect();
            let mut p = vec![vec![0.0f64; k]; n];
            for i in 0..n {
                let mut norm = 0.0;
                for j in 0..k {
                    p[i][j] = q[i][j] * q[i][j] / f[j].max(1e-12);
                    norm += p[i][j];
                }
                for v in p[i].iter_mut() {
                    *v /= norm.max(1e-12);
                }
            }
            // Gradient wrt centroids:
            // ∂KL/∂µ_j = 2 Σ_i (1+‖z_i−µ_j‖²)^{-1} (q_ij − p_ij)(z_i − µ_j)
            for j in 0..k {
                let mut grad = vec![0.0f64; h];
                for i in 0..n {
                    let coef =
                        2.0 * (q[i][j] - p[i][j]) / (1.0 + sq_dist(&latent[i], &centroids[j]));
                    for (g, (zi, cj)) in grad.iter_mut().zip(latent[i].iter().zip(&centroids[j])) {
                        *g += coef * (zi - cj);
                    }
                }
                for (c, g) in centroids[j].iter_mut().zip(&grad) {
                    // Descend: the gradient above is ∂KL/∂µ already with the
                    // right sign for subtraction.
                    *c -= self.centroid_lr * g / n as f64;
                }
            }
        }
        // Hard assignment by final soft max.
        latent
            .iter()
            .map(|z| {
                centroids
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| sq_dist(z, a).total_cmp(&sq_dist(z, b)))
                    .map(|(j, _)| j)
                    .unwrap_or(0)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::adjusted_rand_index;

    fn two_waveforms() -> (Vec<Vec<f64>>, Vec<usize>) {
        let m = 32;
        let mut rows = Vec::new();
        let mut truth = Vec::new();
        for v in 0..10 {
            let phase = v as f64 * 0.1;
            rows.push((0..m).map(|i| (i as f64 * 0.2 + phase).sin()).collect());
            truth.push(0);
            rows.push(
                (0..m)
                    .map(|i| {
                        if (i / 8) % 2 == 0 {
                            1.0
                        } else {
                            -1.0 + phase * 0.01
                        }
                    })
                    .collect(),
            );
            truth.push(1);
        }
        (rows, truth)
    }

    #[test]
    fn encode_decode_shapes() {
        let (rows, _) = two_waveforms();
        let model = DenseAe::new(4, 1).train(&rows);
        let z = model.encode(&rows[0]);
        assert_eq!(z.len(), 4);
        assert!(z.iter().all(|v| v.is_finite() && v.abs() <= 1.0));
        let xhat = model.decode(&z);
        assert_eq!(xhat.len(), rows[0].len());
    }

    #[test]
    fn dense_ae_clusters_waveforms() {
        let (rows, truth) = two_waveforms();
        let labels = DenseAe::new(6, 3).fit_cluster(&rows, 2);
        let ari = adjusted_rand_index(&truth, &labels);
        assert!(ari > 0.6, "ARI {ari}");
    }

    #[test]
    fn dtc_like_clusters_waveforms() {
        let (rows, truth) = two_waveforms();
        let labels = DtcLike::new(2, 6, 3).fit(&rows);
        let ari = adjusted_rand_index(&truth, &labels);
        assert!(ari > 0.6, "ARI {ari}");
    }

    #[test]
    fn training_deterministic() {
        let (rows, _) = two_waveforms();
        let cfg = DenseAe {
            epochs: 20,
            ..DenseAe::new(4, 9)
        };
        let a = cfg.fit_cluster(&rows, 2);
        let b = cfg.fit_cluster(&rows, 2);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "requires input")]
    fn empty_input_panics() {
        DenseAe::new(4, 0).train(&[]);
    }

    #[test]
    fn dtc_refinement_does_not_destroy_partition() {
        let (rows, truth) = two_waveforms();
        let base = DenseAe::new(6, 3).fit_cluster(&rows, 2);
        let refined = DtcLike::new(2, 6, 3).fit(&rows);
        let ari_base = adjusted_rand_index(&truth, &base);
        let ari_ref = adjusted_rand_index(&truth, &refined);
        // Refinement should stay within a reasonable band of the init.
        assert!(
            ari_ref >= ari_base - 0.3,
            "base {ari_base} refined {ari_ref}"
        );
    }
}
