//! Compact binary save/load for fitted [`KGraphModel`]s.
//!
//! Serving a model must not require refitting it: `fit` costs seconds to
//! minutes, while a server restart should reload its registry in
//! milliseconds. This module writes everything a fitted model holds — the
//! per-length graph layers (node patterns + CSR edge triples), the stored
//! embeddings (PCA, radial nodes), paths, partitions and scores — into a
//! little-endian, length-prefixed binary format (`KGM3`).
//!
//! Graphs are stored as node payloads plus `(src, dst, weight)` edge
//! triples and rebuilt through [`tsgraph::GraphBuilder`] at load time; the
//! builder sorts and deduplicates, so the reloaded CSR is bit-identical to
//! the fitted one and every downstream consumer (scores, features,
//! graphoids, rendering) produces identical results. Every edge-triple list
//! in the system — model edges, `KGD1` delta edges and streamfit's `KGS1`
//! pending triples — goes through one codec, [`put_triples`] and
//! [`Cursor::triples`].
//!
//! ## Path runs
//!
//! Consecutive windows of a series mostly stay on one node, so `KGM3`
//! stores each training path as its window count followed by one
//! `(node id, run length)` pair per run of one node, all unsigned LEB128
//! varints ([`put_varint`], [`Cursor::varint`]). Before anything is
//! allocated the reader refuses an overlong varint, a zero run, a run past
//! the path's window count, a node id outside the layer, and a file that
//! declares more than [`MAX_PATH_WINDOWS`] path windows, so a crafted file
//! whose CRC verifies cannot drive an allocation past that bound. The
//! writer refuses a model past the same bound ([`try_write_model`]), so no
//! file it writes is one the reader would refuse.
//!
//! ## The previous generation, `KGM2`
//!
//! [`read_model`] still reads `KGM2`, for one format generation. It
//! differs in two sections only: each path is a `u64` count and one `u64`
//! per window, and a matrix slot (`u64 rows, u64 cols, rows·cols × f64`)
//! between the labels and the scores once held the n × n consensus matrix,
//! which the model now derives ([`KGraphModel::consensus`]). The reader
//! skips whatever matrix it finds there, bounds-checked and without
//! allocating. `KGM3` has no slot.
//!
//! The format is deliberately dependency-free (no serde in the image) and
//! versioned by magic: readers reject unknown magics with
//! [`TsError::Parse`] instead of misinterpreting bytes.
//!
//! ## Integrity
//!
//! Model files end in a CRC-32 trailer ([`crate::checksum`]) over every
//! preceding byte, verified *before* parsing so truncation and bit rot are
//! reported as corruption rather than as a confusing structural error deep
//! inside the file. Delta state ([`write_delta_state`]) uses the same
//! trailer under its own magic, `KGD1`. Every checksummed blob is framed
//! by [`seal`] on write and [`open`] / [`Cursor::finish`] on read. The
//! trailer is zlib's CRC-32 from the slicing-by-16 kernel of
//! [`crate::checksum`]: a checksum pass costs about what encoding does.

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
const MAGIC: &[u8; 4] = b"KGM3";

/// Magic of the previous model format generation, still read.
const MAGIC_V2: &[u8; 4] = b"KGM2";

/// The most path windows one model file may declare over all its layers:
/// 2^26 windows, 256 MiB of node ids. The largest fit this repository runs
/// (9,000 series) holds a few million.
pub const MAX_PATH_WINDOWS: u64 = 1 << 26;

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

/// Appends `v` as an unsigned LEB128 varint: seven bits per byte, low
/// bits first, the high bit set on every byte but the last.
#[inline]
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
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

/// Appends a count-prefixed list of `(u64 src, u64 dst, f64 w)` edge
/// triples, the layout [`Cursor::triples`] reads back.
pub fn put_triples(out: &mut Vec<u8>, triples: impl IntoIterator<Item = (NodeId, NodeId, f64)>) {
    let at = out.len();
    put_u64(out, 0);
    let mut n = 0u64;
    for (s, t, w) in triples {
        put_u64(out, u64::from(s.0));
        put_u64(out, u64::from(t.0));
        put_f64(out, w);
        n += 1;
    }
    out[at..at + 8].copy_from_slice(&n.to_le_bytes());
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
        let n = self.u64()?;
        self.fits(n, elem_bytes)
    }

    /// `n` as a count of elements of at least `elem_bytes` bytes each, when
    /// the bytes remaining can hold them.
    fn fits(&self, n: u64, elem_bytes: usize) -> Result<usize, TsError> {
        let remaining = self.remaining();
        match usize::try_from(n) {
            Ok(n) if n.saturating_mul(elem_bytes.max(1)) <= remaining => Ok(n),
            _ => Err(TsError::Parse(format!(
                "declared length {n} exceeds remaining {remaining} bytes"
            ))),
        }
    }

    /// Next unsigned LEB128 varint, as [`put_varint`] writes it. An
    /// encoding of more than ten bytes, one whose bits overflow a `u64` and
    /// one that ends in a needless zero byte are overlong.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, TsError> {
        let mut v = 0u64;
        for (i, &b) in self.bytes[self.pos..].iter().take(10).enumerate() {
            v |= u64::from(b & 0x7f) << (7 * i);
            if b & 0x80 == 0 {
                if (i == 9 && b > 1) || (i > 0 && b == 0) {
                    break;
                }
                self.pos += i + 1;
                return Ok(v);
            }
        }
        Err(self.varint_error())
    }

    #[cold]
    fn varint_error(&self) -> TsError {
        let rest = &self.bytes[self.pos..];
        TsError::Parse(if rest.len() < 10 && rest.iter().all(|b| b & 0x80 != 0) {
            format!("model file truncated at byte {}", self.bytes.len())
        } else {
            format!("overlong varint at byte {}", self.pos)
        })
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

    /// Next list written by [`put_triples`]; every endpoint must be below
    /// `node_bound`.
    pub fn triples(&mut self, node_bound: usize) -> Result<Vec<(NodeId, NodeId, f64)>, TsError> {
        let n = self.len(24)?;
        (0..n)
            .map(|_| Ok((self.node(node_bound)?, self.node(node_bound)?, self.f64()?)))
            .collect()
    }

    /// Next `u64` as a node id below `bound`.
    fn node(&mut self, bound: usize) -> Result<NodeId, TsError> {
        node_id(self.u64()?, bound)
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
        let n = self.len(8)?;
        (0..n).map(|_| self.usize()).collect()
    }
}

/// `v` as a node id below `bound`.
fn node_id(v: u64, bound: usize) -> Result<NodeId, TsError> {
    match u32::try_from(v) {
        Ok(id) if (id as usize) < bound => Ok(NodeId(id)),
        _ => Err(TsError::Parse(format!(
            "node {v} out of range (graph has {bound} nodes)"
        ))),
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
    // Retired `parallel` flag, kept at its old default.
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

/// Next matrix shape and its bounds-checked payload bytes, not yet decoded.
fn matrix_bytes<'a>(c: &mut Cursor<'a>) -> Result<(usize, usize, &'a [u8]), TsError> {
    let (rows, cols) = (c.usize()?, c.usize()?);
    let bytes = rows
        .checked_mul(cols)
        .and_then(|n| n.checked_mul(8))
        .ok_or_else(|| TsError::Parse(format!("matrix shape {rows}x{cols} overflows")))?;
    Ok((rows, cols, c.take(bytes)?))
}

fn read_matrix(c: &mut Cursor) -> Result<Matrix, TsError> {
    let (rows, cols, bytes) = matrix_bytes(c)?;
    let mut m = Cursor::new(bytes);
    let data = (0..rows * cols)
        .map(|_| m.f64())
        .collect::<Result<_, _>>()?;
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
    // Node payloads in id order; each leads with its node's sector and
    // radius from the embedding.
    put_u64(out, layer.graph.node_count() as u64);
    for (id, p) in layer.graph.nodes_iter() {
        let n = &layer.embedding.nodes[id.index()];
        put_u64(out, n.sector as u64);
        put_f64(out, n.radius);
        put_u64(out, p.count as u64);
        put_f64s(out, &p.pattern);
    }
    // Edge triples in edge-id order (already (src, dst)-sorted).
    put_triples(out, layer.graph.edges_iter().map(|(_, s, t, &w)| (s, t, w)));
    put_varint(out, layer.paths.len() as u64);
    for path in &layer.paths {
        put_path(out, path);
    }
    put_u64s(out, layer.labels.iter().map(|&l| l as u64));
    put_embedding(out, &layer.embedding);
}

/// Appends `path` as its window count, then one `(node, run length)`
/// varint pair per run of one node.
fn put_path(out: &mut Vec<u8>, path: &[NodeId]) {
    put_varint(out, path.len() as u64);
    for run in path.chunk_by(|a, b| a == b) {
        put_varint(out, u64::from(run[0].0));
        put_varint(out, run.len() as u64);
    }
}

/// Next path written by [`put_path`], its nodes below `n_nodes`.
/// `windows_left` is what the file may still declare of its path-window
/// bound; the path's own count is taken from it before anything is
/// allocated, and no run may pass that count.
fn read_path(
    c: &mut Cursor,
    n_nodes: usize,
    windows_left: &mut u64,
) -> Result<Vec<NodeId>, TsError> {
    let windows = c.varint()?;
    *windows_left = windows_left.checked_sub(windows).ok_or_else(|| {
        TsError::Parse(format!(
            "a path of {windows} windows passes the path-window bound of a model file"
        ))
    })?;
    let windows = windows as usize;
    // Runs compress, so the bytes left bound the first allocation only;
    // later growth follows runs that passed their checks.
    let mut path = Vec::with_capacity(windows.min(c.remaining()));
    while path.len() < windows {
        let node = node_id(c.varint()?, n_nodes)?;
        let run = c.varint()?;
        let left = windows - path.len();
        if run == 0 || run > left as u64 {
            return Err(TsError::Parse(format!(
                "path run of {run} windows where {left} remain"
            )));
        }
        path.resize(path.len() + run as usize, node);
    }
    Ok(path)
}

/// Decodes one layer; `v2` selects the `KGM2` path layout.
fn read_layer(c: &mut Cursor, v2: bool, windows_left: &mut u64) -> Result<GraphLayer, TsError> {
    let length = c.usize()?;
    let n_nodes = c.len(8)?;
    let payloads = (0..n_nodes)
        .map(|_| {
            // The node's sector and radius lead the payload; they are read
            // and ignored, since the embedding holds them.
            c.usize().and_then(|_| c.f64())?;
            Ok(NodePattern {
                count: c.usize()?,
                pattern: c.f64s()?,
            })
        })
        .collect::<Result<Vec<_>, TsError>>()?;
    let edges = c.triples(n_nodes)?;
    let mut builder = GraphBuilder::with_capacity(edges.len());
    for (s, t, w) in edges {
        builder.add_edge(s, t, w);
    }
    // Stored edges are unique per (src, dst): the merge closure never
    // fires, and the builder's sort reproduces the fitted CSR exactly.
    let graph = builder.build(payloads, |acc, w| *acc += w);
    let paths = if v2 {
        let n_paths = c.len(8)?;
        (0..n_paths)
            .map(|_| {
                let len = c.len(8)?;
                (0..len).map(|_| c.node(n_nodes)).collect()
            })
            .collect::<Result<Vec<_>, TsError>>()?
    } else {
        let n_paths = c.varint()?;
        let n_paths = c.fits(n_paths, 1)?;
        (0..n_paths)
            .map(|_| read_path(c, n_nodes, windows_left))
            .collect::<Result<Vec<_>, TsError>>()?
    };
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

/// Encodes a fitted model into the `KGM3` byte format (CRC-32 trailer
/// over everything before it).
///
/// # Panics
///
/// When the model holds more than [`MAX_PATH_WINDOWS`] path windows: a
/// file [`read_model`] would refuse. [`try_write_model`] returns that as
/// an error instead.
pub fn write_model(model: &KGraphModel) -> Vec<u8> {
    try_write_model(model).unwrap_or_else(|e| panic!("{e}"))
}

/// [`write_model`], refusing with [`TsError::InvalidParameter`] a model
/// of more than [`MAX_PATH_WINDOWS`] path windows, which [`read_model`]
/// would not load.
pub fn try_write_model(model: &KGraphModel) -> Result<Vec<u8>, TsError> {
    encode_model(model, MAX_PATH_WINDOWS)
}

/// [`write_model`] under a path-window bound of `max_windows`.
fn encode_model(model: &KGraphModel, max_windows: u64) -> Result<Vec<u8>, TsError> {
    let windows: u64 = model
        .layers
        .iter()
        .flat_map(|layer| &layer.paths)
        .map(|path| path.len() as u64)
        .sum();
    if windows > max_windows {
        return Err(TsError::InvalidParameter(format!(
            "a model of {windows} path windows passes the {max_windows}-window bound of a model file"
        )));
    }
    let mut out = Vec::with_capacity(4096);
    out.extend_from_slice(MAGIC);
    put_config(&mut out, &model.config);
    put_u64s(&mut out, model.labels.iter().map(|&l| l as u64));
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
    Ok(seal(out))
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
/// (`"model"` reports e.g. "not a KGM3 model file" and "KGM3 model
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

/// Decodes a model from `KGM3` bytes, or from `KGM2` bytes of the
/// previous format generation.
///
/// # Errors
///
/// [`TsError::Parse`] on a wrong magic, a CRC-32 mismatch, truncation,
/// or any internal inconsistency (edge/path references outside the node
/// range, malformed path runs, PCA shape mismatches, out-of-range layer
/// index).
pub fn read_model(bytes: &[u8]) -> Result<KGraphModel, TsError> {
    decode_model(bytes, MAX_PATH_WINDOWS)
}

/// [`read_model`] under a path-window bound of `max_windows`.
fn decode_model(bytes: &[u8], max_windows: u64) -> Result<KGraphModel, TsError> {
    let v2 = bytes.starts_with(MAGIC_V2);
    let mut c = open(bytes, if v2 { MAGIC_V2 } else { MAGIC }, "model")?;
    let config = read_config(&mut c)?;
    let labels = c.usizes()?;
    if v2 {
        // The retired consensus slot, skipped without decoding.
        matrix_bytes(&mut c)?;
    }
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
    let mut windows_left = max_windows;
    let layers = (0..n_layers)
        .map(|_| read_layer(&mut c, v2, &mut windows_left))
        .collect::<Result<Vec<_>, TsError>>()?;
    if best_layer >= layers.len() {
        return Err(TsError::Parse(format!(
            "best layer {best_layer} out of range ({} layers)",
            layers.len()
        )));
    }
    c.finish("model")?;
    Ok(KGraphModel::new(config, layers, labels, scores, best_layer))
}

/// Loads a model from `path`.
pub fn load_model(path: &Path) -> Result<KGraphModel, TsError> {
    let bytes = std::fs::read(path)
        .map_err(|e| TsError::Parse(format!("reading {}: {e}", path.display())))?;
    read_model(&bytes)
}

/// Encodes streaming delta state (`KGD1`): a list of [`DeltaGraph`]s,
/// CRC-32 trailer included. A streaming session writes one, its best
/// layer's (the previous generation wrote one per graph layer), so it can
/// persist its un-compacted transitions across restarts without touching
/// the (much larger) base model file.
pub fn write_delta_state(deltas: &[DeltaGraph<f64>]) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(DELTA_MAGIC);
    put_u64(&mut out, deltas.len() as u64);
    for d in deltas {
        put_u64(&mut out, d.node_count() as u64);
        put_triples(&mut out, d.iter().map(|(s, t, &w)| (s, t, w)));
    }
    seal(out)
}

/// Decodes `KGD1` delta state. The aggregated edges round-trip exactly.
pub fn read_delta_state(bytes: &[u8]) -> Result<Vec<DeltaGraph<f64>>, TsError> {
    let mut c = open(bytes, DELTA_MAGIC, "delta")?;
    let n_layers = c.len(16)?;
    let mut deltas = Vec::with_capacity(n_layers);
    for _ in 0..n_layers {
        let nodes = c.usize()?;
        let triples = c.triples(nodes)?;
        let mut delta = DeltaGraph::new(nodes);
        delta.ingest(triples, |acc, w| *acc += w);
        deltas.push(delta);
    }
    c.finish("delta state")?;
    Ok(deltas)
}

/// Approximate heap footprint of a fitted model in bytes — the currency of
/// the serving layer's eviction budget (and the `bytes` that `graphserve`
/// reports per model). Counts the dominant flat arrays (CSR adjacency,
/// patterns, paths); small fixed overheads are ignored.
pub fn model_approx_bytes(model: &KGraphModel) -> usize {
    let mut bytes = std::mem::size_of::<KGraphModel>();
    bytes += model.labels.len() * 8;
    bytes += model.scores.len() * std::mem::size_of::<LengthScore>();
    for layer in &model.layers {
        // CSR: out offsets (u32), then per edge its target (u32), weight
        // (f64) and source (u32).
        let e = layer.graph.edge_count();
        let n = layer.graph.node_count();
        bytes += (n + 1) * 4 + e * (4 + 8 + 4);
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
        assert_eq!(loaded.consensus().as_slice(), model.consensus().as_slice());
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
        std::fs::write(&path, write_model(&model)).expect("write");
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
        // Every cut and bit flip of all three checksummed formats is swept
        // in `streamfit/tests/corruption_sweep.rs`.
    }

    #[test]
    fn varints_round_trip_and_refuse_overlong_encodings() {
        for v in [0, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            let mut c = Cursor::new(&out);
            assert_eq!(c.varint().unwrap(), v);
            c.finish("varint").unwrap();
        }
        let parse_error =
            |bytes: &[u8]| matches!(Cursor::new(bytes).varint(), Err(TsError::Parse(_)));
        assert!(parse_error(&[]), "empty");
        assert!(parse_error(&[0x80]), "truncated");
        assert!(parse_error(&[0x80, 0x00]), "a needless zero byte");
        assert!(parse_error(&[0xff; 11]), "eleven bytes");
        let mut past_u64 = vec![0xff; 9];
        past_u64.push(0x02);
        assert!(parse_error(&past_u64), "bits past u64");
    }

    /// A one-layer model over `n_nodes` nodes in a chain, with the given
    /// training paths: a layer wider than any fit of the toy data, so node
    /// ids take multi-byte varints.
    fn with_paths(n_nodes: usize, paths: Vec<Vec<NodeId>>) -> KGraphModel {
        let length = 4;
        let payloads = (0..n_nodes)
            .map(|_| NodePattern {
                count: 1,
                pattern: vec![0.25; length],
            })
            .collect();
        let mut builder = GraphBuilder::with_capacity(n_nodes);
        for i in 1..n_nodes as u32 {
            builder.add_edge(NodeId(i - 1), NodeId(i), 1.0);
        }
        let graph = builder.build(payloads, |acc, w| *acc += w);
        let pca = Pca::from_parts(
            vec![0.0; length],
            Matrix::zeros(2, length),
            vec![1.0, 0.5],
            2.0,
        );
        let nodes = (0..n_nodes)
            .map(|i| RadialNode {
                sector: i % 8,
                radius: 1.0 + i as f64,
            })
            .collect();
        let labels = vec![0; paths.len()];
        let layer = GraphLayer {
            length,
            graph,
            paths,
            labels: labels.clone(),
            embedding: LayerEmbedding::new(pca, nodes, (0.0, 0.0), 8, 1),
        };
        let score = LengthScore {
            length,
            wc: 0.5,
            we: 0.25,
        };
        KGraphModel::new(KGraphConfig::new(2), vec![layer], labels, vec![score], 0)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn path_runs_round_trip(
            runs in proptest::collection::vec(
                proptest::collection::vec((0u32..300, 0u32..3, 1usize..2_000), 0..10),
                0..8,
            )
        ) {
            // Kind 0 is a run of one window, kind 1 a short run, kind 2 a
            // long one; a path with no runs is empty.
            let paths: Vec<Vec<NodeId>> = runs
                .iter()
                .map(|path| {
                    path.iter()
                        .flat_map(|&(node, kind, len)| {
                            let run = [1, len % 4 + 1, len][kind as usize];
                            std::iter::repeat_n(NodeId(node), run)
                        })
                        .collect()
                })
                .collect();
            let model = with_paths(300, paths);
            let bytes = write_model(&model);
            let loaded = read_model(&bytes).expect("round trip");
            proptest::prop_assert_eq!(&loaded.layers[0].paths, &model.layers[0].paths);
            proptest::prop_assert_eq!(write_model(&loaded), bytes);
        }
    }

    #[test]
    fn path_runs_past_their_bounds_are_parse_errors() {
        // One path of three windows on node 200 (two varint bytes), as the
        // last section before the layer's labels.
        let model = with_paths(300, vec![vec![NodeId(200); 3]]);
        let bytes = write_model(&model);
        let mut run = Vec::new();
        put_varint(&mut run, 3);
        put_varint(&mut run, 200);
        put_varint(&mut run, 3);
        let at = bytes
            .windows(run.len())
            .position(|w| w == run)
            .expect("the encoded path");
        let body = &bytes[..bytes.len() - 4];
        let with_path = |path: &[u64]| {
            let mut out = body[..at].to_vec();
            for &v in path {
                put_varint(&mut out, v);
            }
            out.extend_from_slice(&body[at + run.len()..]);
            seal(out)
        };
        assert!(
            read_model(&with_path(&[3, 200, 3])).is_ok(),
            "the splice is exact"
        );
        for (path, why) in [
            (&[3, 200, 0, 200, 3][..], "a zero run"),
            (&[3, 300, 3][..], "a node id past the layer"),
            (&[3, 200, 4][..], "a run past the path's windows"),
            (&[3, 200, 1 << 40][..], "a 2^40 run"),
            (&[1 << 40, 200, 1 << 40][..], "a 2^40-window path"),
            (
                &[MAX_PATH_WINDOWS + 1, 200, 3][..],
                "a path past the file's bound",
            ),
        ] {
            match read_model(&with_path(path)) {
                Err(TsError::Parse(_)) => {}
                other => panic!("{why} must be a parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn the_path_window_bound_holds_on_both_sides() {
        // Seven windows over two paths; the real bound is 2^26, too many
        // windows to build here, so the bound is passed in.
        let model = with_paths(300, vec![vec![NodeId(3); 4], vec![NodeId(299); 3]]);
        let bytes = encode_model(&model, 7).expect("a model at the bound is written");
        let loaded = decode_model(&bytes, 7).expect("and loads");
        assert_eq!(loaded.layers[0].paths, model.layers[0].paths);
        assert_eq!(bytes, write_model(&model));
        assert!(matches!(
            encode_model(&model, 6),
            Err(TsError::InvalidParameter(_))
        ));
        assert!(matches!(decode_model(&bytes, 6), Err(TsError::Parse(_))));
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
        let edges: Vec<_> = loaded[0].iter().map(|(s, t, &w)| (s, t, w)).collect();
        assert_eq!(
            edges,
            vec![(NodeId(0), NodeId(1), 2.0), (NodeId(4), NodeId(2), 1.0)]
        );
        assert_eq!(loaded[1].node_count(), 3);
        assert!(loaded[1].is_empty());
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
