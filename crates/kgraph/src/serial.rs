//! Compact binary save/load for fitted [`KGraphModel`]s.
//!
//! Serving a model must not require refitting it: `fit` costs seconds to
//! minutes, while a server restart should reload its registry in
//! milliseconds. This module writes everything a fitted model holds — the
//! per-length graph layers (node patterns + CSR edge triples), the stored
//! embeddings (PCA, radial nodes), paths, partitions, consensus matrix and
//! scores — into a little-endian, length-prefixed binary format (`KGM2`).
//!
//! Graphs are stored as node payloads plus `(src, dst, weight)` edge
//! triples and rebuilt through [`tsgraph::GraphBuilder`] at load time; the
//! builder sorts and deduplicates, so the reloaded CSR is bit-identical to
//! the fitted one and every downstream consumer (scores, features,
//! graphoids, rendering) produces identical results.
//!
//! The format is deliberately dependency-free (no serde in the image) and
//! versioned by magic: readers reject unknown magics with
//! [`TsError::Parse`] instead of misinterpreting bytes.
//!
//! ## Integrity
//!
//! `KGM2` files end in a CRC-32 trailer ([`crate::checksum`]) over every
//! preceding byte, verified *before* parsing so truncation and bit rot are
//! reported as corruption rather than as a confusing structural error deep
//! inside the file. Delta state ([`write_delta_state`]) uses the same
//! trailer under its own magic, `KGD1`. Every checksummed blob is framed
//! by [`seal`] on write and [`open`] / [`Cursor::finish`] on read.

use crate::build::{GraphLayer, LayerEmbedding, NodePattern};
use crate::checksum::crc32;
use crate::config::KGraphConfig;
use crate::interpret::LengthScore;
use crate::nodes::RadialNode;
use crate::pipeline::KGraphModel;
use linalg::matrix::Matrix;
use linalg::pca::Pca;
use std::path::Path;
use tscore::error::TsError;
use tsgraph::delta::DeltaGraph;
use tsgraph::{GraphBuilder, NodeId};

/// File magic of the current (checksummed) format version.
const MAGIC: &[u8; 4] = b"KGM2";

/// Magic of the streaming delta-state blob.
const DELTA_MAGIC: &[u8; 4] = b"KGD1";

// ---------------------------------------------------------------------------
// Primitive writer / reader
// ---------------------------------------------------------------------------
//
// Public: the streaming persistence layers (streamfit's `KGS1` session
// state, graphserve's `KGW1` write-ahead log) reuse the same primitives so
// every on-disk format in the system shares one bounds-checked decoder.

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `f64`.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a length-prefixed `f64` slice.
pub fn put_f64s(out: &mut Vec<u8>, vs: &[f64]) {
    put_u64(out, vs.len() as u64);
    for &v in vs {
        put_f64(out, v);
    }
}

/// Appends a length-prefixed `u64` sequence.
pub fn put_u64s(out: &mut Vec<u8>, vs: impl ExactSizeIterator<Item = u64>) {
    put_u64(out, vs.len() as u64);
    for v in vs {
        put_u64(out, v);
    }
}

/// Fallible fixed-width conversion: corrupt inputs become [`TsError`]
/// corruption reports, never a panic — the decoder must survive arbitrary
/// bytes.
fn array<const N: usize>(bytes: &[u8], pos: usize) -> Result<[u8; N], TsError> {
    bytes
        .try_into()
        .map_err(|_| TsError::Parse(format!("corrupt fixed-width field at byte {pos}")))
}

/// Bounds-checked little-endian reader over a byte slice.
///
/// Every accessor returns [`TsError::Parse`] on truncation or overflow;
/// length prefixes are validated against the bytes actually remaining so a
/// corrupt prefix cannot drive an out-of-memory allocation.
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    /// Current read position.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Consumes and returns the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], TsError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| TsError::Parse(format!("model file truncated at byte {}", self.pos)))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Next byte.
    pub fn u8(&mut self) -> Result<u8, TsError> {
        Ok(self.take(1)?[0])
    }

    /// Next little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, TsError> {
        let pos = self.pos;
        Ok(u32::from_le_bytes(array(self.take(4)?, pos)?))
    }

    /// Next little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, TsError> {
        let pos = self.pos;
        Ok(u64::from_le_bytes(array(self.take(8)?, pos)?))
    }

    /// Next `u64`, converted to `usize`.
    pub fn usize(&mut self) -> Result<usize, TsError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| TsError::Parse(format!("length {v} overflows usize")))
    }

    /// A length prefix about to drive an allocation; bounded by the bytes
    /// actually remaining so corrupt prefixes cannot OOM the reader.
    pub fn len(&mut self, elem_bytes: usize) -> Result<usize, TsError> {
        let n = self.usize()?;
        let remaining = self.bytes.len() - self.pos;
        if n.saturating_mul(elem_bytes.max(1)) > remaining {
            return Err(TsError::Parse(format!(
                "declared length {n} exceeds remaining {remaining} bytes"
            )));
        }
        Ok(n)
    }

    /// Next little-endian `f64`.
    pub fn f64(&mut self) -> Result<f64, TsError> {
        let pos = self.pos;
        Ok(f64::from_le_bytes(array(self.take(8)?, pos)?))
    }

    /// Next length-prefixed `f64` vector.
    pub fn f64s(&mut self) -> Result<Vec<f64>, TsError> {
        let n = self.len(8)?;
        (0..n).map(|_| self.f64()).collect()
    }

    /// Next length-prefixed `u64` vector.
    pub fn u64s(&mut self) -> Result<Vec<u64>, TsError> {
        let n = self.len(8)?;
        (0..n).map(|_| self.u64()).collect()
    }

    /// Succeeds when every byte was consumed; `what` names the blob in
    /// the trailing-bytes error.
    pub fn finish(&self, what: &str) -> Result<(), TsError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(TsError::Parse(format!("{n} trailing bytes after {what}"))),
        }
    }

    /// Next length-prefixed `usize` vector.
    pub fn usizes(&mut self) -> Result<Vec<usize>, TsError> {
        self.u64s()?
            .into_iter()
            .map(|v| {
                usize::try_from(v).map_err(|_| TsError::Parse(format!("value {v} overflows usize")))
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Model encoding
// ---------------------------------------------------------------------------

fn put_config(out: &mut Vec<u8>, cfg: &KGraphConfig) {
    put_u64(out, cfg.k as u64);
    put_u64s(out, cfg.lengths.iter().map(|&l| l as u64));
    put_u64(out, cfg.n_lengths as u64);
    put_f64(out, cfg.length_fraction_range.0);
    put_f64(out, cfg.length_fraction_range.1);
    put_u64(out, cfg.psi as u64);
    put_u64(out, cfg.kde_grid as u64);
    put_f64(out, cfg.min_density_ratio);
    put_u64(out, cfg.stride as u64);
    put_u64(out, cfg.pca_sample as u64);
    put_u64(out, cfg.n_init as u64);
    out.push(cfg.edge_features as u8);
    out.push(cfg.node_features as u8);
    // Retired `parallel` flag, kept at its old default so KGM2 bytes do not change.
    out.push(1);
    put_u64(out, cfg.seed);
}

fn read_config(c: &mut Cursor) -> Result<KGraphConfig, TsError> {
    Ok(KGraphConfig {
        k: c.usize()?,
        lengths: c.usizes()?,
        n_lengths: c.usize()?,
        length_fraction_range: (c.f64()?, c.f64()?),
        psi: c.usize()?,
        kde_grid: c.usize()?,
        min_density_ratio: c.f64()?,
        stride: c.usize()?,
        pca_sample: c.usize()?,
        n_init: c.usize()?,
        edge_features: c.u8()? != 0,
        node_features: c.u8()? != 0,
        // The retired `parallel` flag byte is read and ignored.
        seed: c.u8().and_then(|_| c.u64())?,
    })
}

fn put_matrix(out: &mut Vec<u8>, m: &Matrix) {
    put_u64(out, m.rows() as u64);
    put_u64(out, m.cols() as u64);
    for &v in m.as_slice() {
        put_f64(out, v);
    }
}

fn read_matrix(c: &mut Cursor) -> Result<Matrix, TsError> {
    let rows = c.usize()?;
    let cols = c.usize()?;
    let n = rows
        .checked_mul(cols)
        .ok_or_else(|| TsError::Parse("matrix shape overflow".into()))?;
    if n.saturating_mul(8) > c.bytes.len() - c.pos {
        return Err(TsError::Parse(format!(
            "matrix {rows}x{cols} exceeds remaining bytes"
        )));
    }
    let data = (0..n).map(|_| c.f64()).collect::<Result<Vec<_>, _>>()?;
    Ok(Matrix::from_vec(rows, cols, data))
}

fn put_embedding(out: &mut Vec<u8>, emb: &LayerEmbedding) {
    put_f64s(out, emb.pca.mean());
    put_matrix(out, emb.pca.components());
    put_f64s(out, emb.pca.explained_variance());
    put_f64(out, emb.pca.total_variance());
    put_u64(out, emb.nodes.len() as u64);
    for n in &emb.nodes {
        put_u64(out, n.sector as u64);
        put_f64(out, n.radius);
    }
    put_f64(out, emb.center.0);
    put_f64(out, emb.center.1);
    put_u64(out, emb.psi as u64);
    put_u64(out, emb.stride as u64);
}

fn read_embedding(c: &mut Cursor) -> Result<LayerEmbedding, TsError> {
    let mean = c.f64s()?;
    let components = read_matrix(c)?;
    let explained = c.f64s()?;
    let total = c.f64()?;
    if components.cols() != mean.len() || components.rows() != explained.len() {
        return Err(TsError::Parse("inconsistent PCA shapes".into()));
    }
    let pca = Pca::from_parts(mean, components, explained, total);
    let n_nodes = c.len(16)?;
    let nodes = (0..n_nodes)
        .map(|_| {
            Ok(RadialNode {
                sector: c.usize()?,
                radius: c.f64()?,
            })
        })
        .collect::<Result<Vec<_>, TsError>>()?;
    let center = (c.f64()?, c.f64()?);
    let psi = c.usize()?;
    let stride = c.usize()?;
    if psi == 0 || stride == 0 {
        return Err(TsError::Parse(format!(
            "embedding needs psi and stride >= 1, got psi {psi}, stride {stride}"
        )));
    }
    if let Some(n) = nodes.iter().find(|n| n.sector >= psi) {
        return Err(TsError::Parse(format!(
            "node sector {} out of range for psi {psi}",
            n.sector
        )));
    }
    Ok(LayerEmbedding::new(pca, nodes, center, psi, stride))
}

fn put_layer(out: &mut Vec<u8>, layer: &GraphLayer) {
    put_u64(out, layer.length as u64);
    // Node payloads in id order.
    put_u64(out, layer.graph.node_count() as u64);
    for (_, p) in layer.graph.nodes_iter() {
        put_u64(out, p.sector as u64);
        put_f64(out, p.radius);
        put_u64(out, p.count as u64);
        put_f64s(out, &p.pattern);
    }
    // Edge triples in edge-id order (already (src, dst)-sorted).
    put_u64(out, layer.graph.edge_count() as u64);
    for (_, s, t, &w) in layer.graph.edges_iter() {
        put_u64(out, s.0 as u64);
        put_u64(out, t.0 as u64);
        put_f64(out, w);
    }
    put_u64(out, layer.paths.len() as u64);
    for path in &layer.paths {
        put_u64s(out, path.iter().map(|n| n.0 as u64));
    }
    put_u64s(out, layer.labels.iter().map(|&l| l as u64));
    put_embedding(out, &layer.embedding);
}

fn read_layer(c: &mut Cursor) -> Result<GraphLayer, TsError> {
    let length = c.usize()?;
    let n_nodes = c.len(8)?;
    let payloads = (0..n_nodes)
        .map(|_| {
            Ok(NodePattern {
                sector: c.usize()?,
                radius: c.f64()?,
                count: c.usize()?,
                pattern: c.f64s()?,
            })
        })
        .collect::<Result<Vec<_>, TsError>>()?;
    let n_edges = c.len(24)?;
    let mut builder = GraphBuilder::with_capacity(n_edges);
    for _ in 0..n_edges {
        let s = c.u64()?;
        let t = c.u64()?;
        let w = c.f64()?;
        if s >= n_nodes as u64 || t >= n_nodes as u64 {
            return Err(TsError::Parse(format!(
                "edge ({s}, {t}) references missing node (graph has {n_nodes})"
            )));
        }
        builder.add_edge(NodeId(s as u32), NodeId(t as u32), w);
    }
    // Stored edges are unique per (src, dst): the merge closure never
    // fires, and the builder's sort reproduces the fitted CSR exactly.
    let graph = builder.build(payloads, |acc, w| *acc += w);
    let n_paths = c.len(8)?;
    let paths = (0..n_paths)
        .map(|_| {
            let raw = c.u64s()?;
            raw.into_iter()
                .map(|v| {
                    if v >= n_nodes as u64 {
                        Err(TsError::Parse(format!("path node {v} out of range")))
                    } else {
                        Ok(NodeId(v as u32))
                    }
                })
                .collect::<Result<Vec<_>, TsError>>()
        })
        .collect::<Result<Vec<_>, TsError>>()?;
    let labels = c.usizes()?;
    let embedding = read_embedding(c)?;
    if embedding.nodes.len() != n_nodes || embedding.pca.mean().len() != length {
        return Err(TsError::Parse(format!(
            "embedding of {} nodes and dimension {} does not match a layer of {n_nodes} nodes and length {length}",
            embedding.nodes.len(),
            embedding.pca.mean().len()
        )));
    }
    Ok(GraphLayer {
        length,
        graph,
        paths,
        labels,
        embedding,
    })
}

/// Encodes a fitted model into the `KGM2` byte format (CRC-32 trailer
/// over everything before it).
pub fn write_model(model: &KGraphModel) -> Vec<u8> {
    let mut out = Vec::with_capacity(4096);
    out.extend_from_slice(MAGIC);
    put_config(&mut out, &model.config);
    put_u64s(&mut out, model.labels.iter().map(|&l| l as u64));
    put_matrix(&mut out, &model.consensus);
    put_u64(&mut out, model.scores.len() as u64);
    for s in &model.scores {
        put_u64(&mut out, s.length as u64);
        put_f64(&mut out, s.wc);
        put_f64(&mut out, s.we);
    }
    put_u64(&mut out, model.best_layer as u64);
    put_u64(&mut out, model.layers.len() as u64);
    for layer in &model.layers {
        put_layer(&mut out, layer);
    }
    seal(out)
}

/// Appends the CRC-32 trailer over every byte of `out` (magic included).
pub fn seal(mut out: Vec<u8>) -> Vec<u8> {
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Opens a blob written by [`seal`]: checks the 4-byte `magic`, verifies
/// the CRC-32 trailer *before* anything is parsed and returns a cursor
/// over the payload just past the magic. `kind` names the blob in errors
/// (`"model"` reports e.g. "not a KGM2 model file" and "KGM2 model
/// checksum mismatch").
pub fn open<'a>(bytes: &'a [u8], magic: &[u8; 4], kind: &str) -> Result<Cursor<'a>, TsError> {
    let found: &[u8] = bytes
        .get(..4)
        .ok_or_else(|| TsError::Parse(format!("{kind} file truncated ({} bytes)", bytes.len())))?;
    let format = String::from_utf8_lossy(magic);
    if found != magic {
        return Err(TsError::Parse(format!(
            "not a {format} {kind} file (magic {found:?})"
        )));
    }
    if bytes.len() < 8 {
        return Err(TsError::Parse(format!(
            "{format} {kind} file truncated ({} bytes)",
            bytes.len()
        )));
    }
    let (payload, trailer) = bytes.split_at(bytes.len() - 4);
    let expected = u32::from_le_bytes(array(trailer, payload.len())?);
    let actual = crc32(payload);
    if actual != expected {
        return Err(TsError::Parse(format!(
            "{format} {kind} checksum mismatch (stored {expected:#010x}, computed {actual:#010x}): \
             file is corrupt or truncated"
        )));
    }
    Ok(Cursor {
        bytes: payload,
        pos: 4,
    })
}

/// Decodes a model from `KGM2` bytes.
///
/// # Errors
///
/// [`TsError::Parse`] on a wrong magic, a CRC-32 mismatch, truncation,
/// or any internal inconsistency (edge/path references outside the node
/// range, PCA shape mismatches, out-of-range layer index).
pub fn read_model(bytes: &[u8]) -> Result<KGraphModel, TsError> {
    let mut c = open(bytes, MAGIC, "model")?;
    let config = read_config(&mut c)?;
    let labels = c.usizes()?;
    let consensus = read_matrix(&mut c)?;
    let n_scores = c.len(24)?;
    let scores = (0..n_scores)
        .map(|_| {
            Ok(LengthScore {
                length: c.usize()?,
                wc: c.f64()?,
                we: c.f64()?,
            })
        })
        .collect::<Result<Vec<_>, TsError>>()?;
    let best_layer = c.usize()?;
    let n_layers = c.len(8)?;
    let layers = (0..n_layers)
        .map(|_| read_layer(&mut c))
        .collect::<Result<Vec<_>, TsError>>()?;
    if best_layer >= layers.len() {
        return Err(TsError::Parse(format!(
            "best layer {best_layer} out of range ({} layers)",
            layers.len()
        )));
    }
    c.finish("model")?;
    Ok(KGraphModel::new(
        config, layers, consensus, labels, scores, best_layer,
    ))
}

/// Saves a model to `path` (atomically: write to `path.tmp`, then rename).
pub fn save_model(model: &KGraphModel, path: &Path) -> Result<(), TsError> {
    let bytes = write_model(model);
    let tmp = path.with_extension("kgm.tmp");
    std::fs::write(&tmp, &bytes)
        .and_then(|_| std::fs::rename(&tmp, path))
        .map_err(|e| TsError::Parse(format!("writing {}: {e}", path.display())))
}

/// Loads a model from `path`.
pub fn load_model(path: &Path) -> Result<KGraphModel, TsError> {
    let bytes = std::fs::read(path)
        .map_err(|e| TsError::Parse(format!("reading {}: {e}", path.display())))?;
    read_model(&bytes)
}

/// Encodes per-layer streaming delta state (`KGD1`): one
/// [`DeltaGraph`] per graph layer, CRC-32 trailer included. A session can
/// persist its un-compacted transitions across restarts without touching
/// the (much larger) base model file.
pub fn write_delta_state(deltas: &[DeltaGraph<f64>]) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(DELTA_MAGIC);
    put_u64(&mut out, deltas.len() as u64);
    for d in deltas {
        put_u64(&mut out, d.node_count() as u64);
        put_u64(&mut out, d.edge_count() as u64);
        for (s, t, &w) in d.iter() {
            put_u64(&mut out, s.0 as u64);
            put_u64(&mut out, t.0 as u64);
            put_f64(&mut out, w);
        }
    }
    seal(out)
}

/// Decodes `KGD1` delta state. The aggregated edges round-trip exactly;
/// the raw (pre-aggregation) ingest counter is diagnostic-only and resets
/// to the number of distinct edges.
pub fn read_delta_state(bytes: &[u8]) -> Result<Vec<DeltaGraph<f64>>, TsError> {
    let mut c = open(bytes, DELTA_MAGIC, "delta")?;
    let n_layers = c.len(16)?;
    let mut deltas = Vec::with_capacity(n_layers);
    for _ in 0..n_layers {
        let nodes = c.usize()?;
        let n_edges = c.len(24)?;
        let mut triples = Vec::with_capacity(n_edges);
        for _ in 0..n_edges {
            let s = c.u64()?;
            let t = c.u64()?;
            let w = c.f64()?;
            if s >= nodes as u64 || t >= nodes as u64 {
                return Err(TsError::Parse(format!(
                    "delta edge ({s}, {t}) references missing node (delta has {nodes})"
                )));
            }
            triples.push((NodeId(s as u32), NodeId(t as u32), w));
        }
        let mut delta = DeltaGraph::new(nodes);
        delta.ingest(triples, |acc, w| *acc += w);
        deltas.push(delta);
    }
    c.finish("delta state")?;
    Ok(deltas)
}

/// Approximate heap footprint of a fitted model in bytes — the currency of
/// the serving layer's eviction budget. Counts the dominant flat arrays
/// (CSR adjacency, patterns, paths, consensus); small fixed overheads are
/// ignored.
pub fn model_approx_bytes(model: &KGraphModel) -> usize {
    let mut bytes = std::mem::size_of::<KGraphModel>();
    bytes += model.consensus.as_slice().len() * 8;
    bytes += model.labels.len() * 8;
    bytes += model.scores.len() * std::mem::size_of::<LengthScore>();
    for layer in &model.layers {
        // CSR: out/in offsets, targets, sources, weights, in-edge ids.
        let e = layer.graph.edge_count();
        let n = layer.graph.node_count();
        bytes += 2 * (n + 1) * 4 + e * (4 + 4 + 8 + 4 + 4);
        for (_, p) in layer.graph.nodes_iter() {
            bytes += std::mem::size_of::<NodePattern>() + p.pattern.len() * 8;
        }
        for path in &layer.paths {
            bytes += path.len() * 4 + std::mem::size_of::<Vec<NodeId>>();
        }
        bytes += layer.labels.len() * 8;
        let emb = &layer.embedding;
        bytes += emb.pca.mean().len() * 8
            + emb.pca.components().as_slice().len() * 8
            + emb.pca.explained_variance().len() * 8
            + emb.nodes.len() * std::mem::size_of::<RadialNode>();
    }
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anomaly::anomaly_scores;
    use crate::pipeline::KGraph;
    use tscore::{Dataset, DatasetKind, TimeSeries};

    fn toy_dataset() -> Dataset {
        let mut series = Vec::new();
        for f in [0.2f64, 0.9] {
            for p in 0..5 {
                series.push(TimeSeries::new(
                    (0..80).map(|i| ((i + p) as f64 * f).sin()).collect(),
                ));
            }
        }
        Dataset::new("toy", DatasetKind::Simulated, series)
    }

    fn fitted() -> KGraphModel {
        let cfg = KGraphConfig {
            n_lengths: 2,
            psi: 10,
            pca_sample: 400,
            n_init: 2,
            ..KGraphConfig::new(2)
        };
        KGraph::new(cfg).fit(&toy_dataset())
    }

    #[test]
    fn round_trip_preserves_everything_observable() {
        let model = fitted();
        let bytes = write_model(&model);
        let loaded = read_model(&bytes).expect("round trip");

        assert_eq!(loaded.labels, model.labels);
        assert_eq!(loaded.best_layer, model.best_layer);
        assert_eq!(loaded.consensus.as_slice(), model.consensus.as_slice());
        assert_eq!(loaded.layers.len(), model.layers.len());
        for (a, b) in loaded.layers.iter().zip(&model.layers) {
            assert_eq!(a.length, b.length);
            assert_eq!(a.labels, b.labels);
            assert_eq!(a.paths, b.paths);
            assert_eq!(a.graph.node_count(), b.graph.node_count());
            assert_eq!(a.graph.edge_count(), b.graph.edge_count());
            for (ea, eb) in a.graph.edges_iter().zip(b.graph.edges_iter()) {
                assert_eq!((ea.1, ea.2, ea.3), (eb.1, eb.2, eb.3));
            }
        }

        // Fit → save → load → *identical* scores: the acceptance check.
        let fresh: Vec<f64> = (0..80).map(|i| (i as f64 * 0.2).sin()).collect();
        let a = anomaly_scores(model.best(), &fresh, 5).unwrap();
        let b = anomaly_scores(loaded.best(), &fresh, 5).unwrap();
        assert_eq!(a, b, "anomaly scores must be bit-identical after reload");
        assert_eq!(model.predict(&fresh), loaded.predict(&fresh));
        let fa = crate::features::feature_matrix(model.best(), true, true);
        let fb = crate::features::feature_matrix(loaded.best(), true, true);
        assert_eq!(fa, fb, "feature matrices must be bit-identical");
    }

    #[test]
    fn save_and_load_file() {
        let model = fitted();
        let dir = std::env::temp_dir().join(format!("kgm-serial-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.kgm");
        save_model(&model, &path).expect("save");
        let loaded = load_model(&path).expect("load");
        assert_eq!(loaded.labels, model.labels);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_inputs_are_parse_errors() {
        let model = fitted();
        let bytes = write_model(&model);
        // Wrong magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(read_model(&bad), Err(TsError::Parse(_))));
        // The retired checksum-less `KGM1` layout: the body without its
        // trailer, under the old magic.
        let mut v1 = bytes[..bytes.len() - 4].to_vec();
        v1[..4].copy_from_slice(b"KGM1");
        assert!(matches!(read_model(&v1), Err(TsError::Parse(_))));
        // Truncations at every prefix must error, never panic.
        for cut in [0, 3, 4, 10, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                matches!(read_model(&bytes[..cut]), Err(TsError::Parse(_))),
                "cut at {cut} must be a parse error"
            );
        }
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(read_model(&long), Err(TsError::Parse(_))));
    }

    #[test]
    fn bit_flips_are_caught_by_the_checksum() {
        let model = fitted();
        let bytes = write_model(&model);
        assert_eq!(&bytes[..4], b"KGM2");
        // Flip one bit at a spread of positions: every flip must be
        // reported as corruption (checksum mismatch), never panic and
        // never load.
        for pos in [4usize, 100, bytes.len() / 2, bytes.len() - 5] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x01;
            match read_model(&bad) {
                Err(TsError::Parse(msg)) => {
                    assert!(msg.contains("checksum"), "flip at {pos}: {msg}")
                }
                other => panic!("flip at {pos} must fail, got {other:?}"),
            }
        }
    }

    #[test]
    fn delta_state_round_trips() {
        use tsgraph::delta::DeltaGraph;
        use tsgraph::NodeId;
        let mut a: DeltaGraph<f64> = DeltaGraph::new(5);
        a.ingest(
            [
                (NodeId(0), NodeId(1), 1.0),
                (NodeId(0), NodeId(1), 1.0),
                (NodeId(4), NodeId(2), 1.0),
            ],
            |acc, w| *acc += w,
        );
        let b: DeltaGraph<f64> = DeltaGraph::new(3);
        let bytes = write_delta_state(&[a.clone(), b]);
        let loaded = read_delta_state(&bytes).expect("round trip");
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0].node_count(), 5);
        assert_eq!(loaded[0].edge_count(), 2);
        assert_eq!(loaded[0].weight_between(NodeId(0), NodeId(1)), Some(&2.0));
        assert_eq!(loaded[1].node_count(), 3);
        assert!(loaded[1].is_empty());

        // Corruption and truncation are parse errors.
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x08;
        assert!(matches!(read_delta_state(&bad), Err(TsError::Parse(_))));
        for cut in [0, 3, bytes.len() - 1] {
            assert!(read_delta_state(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn delta_state_truncated_at_every_prefix_is_an_error() {
        use tsgraph::delta::DeltaGraph;
        use tsgraph::NodeId;
        let mut a: DeltaGraph<f64> = DeltaGraph::new(7);
        a.ingest(
            (0..6).map(|i| (NodeId(i % 7), NodeId((i * 3) % 7), i as f64)),
            |acc, w| *acc += w,
        );
        let bytes = write_delta_state(&[a, DeltaGraph::new(2)]);
        // Every proper prefix must be rejected cleanly — a torn write can
        // leave the file cut at any byte.
        for cut in 0..bytes.len() {
            assert!(
                matches!(read_delta_state(&bytes[..cut]), Err(TsError::Parse(_))),
                "cut at {cut} must be a parse error"
            );
        }
    }

    #[test]
    fn delta_state_bit_flips_are_caught_by_the_checksum() {
        use tsgraph::delta::DeltaGraph;
        use tsgraph::NodeId;
        let mut a: DeltaGraph<f64> = DeltaGraph::new(4);
        a.ingest(
            [(NodeId(0), NodeId(3), 1.5), (NodeId(2), NodeId(1), -0.5)],
            |acc, w| *acc += w,
        );
        let bytes = write_delta_state(&[a]);
        assert_eq!(&bytes[..4], b"KGD1");
        for pos in 0..bytes.len() {
            for bit in [0x01u8, 0x80] {
                let mut bad = bytes.clone();
                bad[pos] ^= bit;
                match read_delta_state(&bad) {
                    Err(TsError::Parse(msg)) => assert!(
                        msg.contains("checksum") || msg.contains("magic") || pos < 4,
                        "flip at {pos}: unexpected message {msg}"
                    ),
                    other => panic!("flip bit {bit:#x} at {pos} must fail, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn approx_bytes_is_plausible() {
        let model = fitted();
        let approx = model_approx_bytes(&model);
        let exact = write_model(&model).len();
        // The estimate tracks the serialized size within a small factor.
        assert!(approx > exact / 4, "approx {approx} vs serialized {exact}");
        assert!(approx < exact * 4, "approx {approx} vs serialized {exact}");
    }
}
