//! One truncation and bit-flip sweep for every checksummed format: `KGM4`
//! models (and `KGM3`, the previous generation, which still loads),
//! `KGD1` delta state and `KGS1` session state.
//!
//! A torn write can cut a file at any byte and bit rot can flip any bit,
//! so [`sweep`] tries every proper prefix and two bit flips at every byte
//! of one blob. Every cut must be a [`TsError::Parse`]; every flip must be
//! reported by the magic check or the CRC-32 trailer before any field is
//! decoded. Nothing may panic. The fixtures are kept to a few kilobytes,
//! because a sweep costs one checksum pass per byte.
//!
//! The `KGM3` test builds its blob with [`kgm3`], a writer of that layout
//! shared with graphserve's recovery tests: the blob loads to the model it
//! was written from. A model file two generations old (`KGM2`) is refused
//! on its magic with a message that names it. The last test pins that
//! `KGS1` bounds the pending triples by the node count of its delta.

#[path = "../../kgraph/tests/support/kgm3.rs"]
mod kgm3;

use kgm3::kgm3;
use kgraph::serial::{read_delta_state, read_model, seal, write_delta_state, write_model};
use kgraph::{KGraph, KGraphConfig, KGraphModel};
use std::fmt::Debug;
use std::sync::Arc;
use streamfit::{read_session_state, write_session_state, StreamConfig, StreamSession};
use tscore::error::TsError;
use tscore::{Dataset, DatasetKind, TimeSeries};
use tsgraph::delta::DeltaGraph;

/// Decodes every cut and every flipped copy of `bytes`.
fn sweep<T: Debug>(what: &str, bytes: &[u8], decode: impl Fn(&[u8]) -> Result<T, TsError>) {
    decode(bytes).unwrap_or_else(|e| panic!("intact {what} must decode: {e}"));
    for cut in 0..bytes.len() {
        match decode(&bytes[..cut]) {
            Err(TsError::Parse(_)) => {}
            other => panic!("{what} cut at {cut} must be a parse error, got {other:?}"),
        }
    }
    let mut long = bytes.to_vec();
    long.push(0);
    assert!(
        matches!(decode(&long), Err(TsError::Parse(_))),
        "{what} with a trailing byte must be a parse error"
    );
    let mut bad = bytes.to_vec();
    for pos in 0..bytes.len() {
        for bit in [0x01u8, 0x80] {
            bad[pos] ^= bit;
            match decode(&bad) {
                Err(TsError::Parse(msg)) if msg.contains("checksum") || msg.contains("magic") => {}
                other => panic!("{what} flip {bit:#x} at {pos}: got {other:?}"),
            }
            bad[pos] ^= bit;
        }
    }
}

/// A one-length model over six short series: a blob of a few kilobytes.
fn tiny_model() -> KGraphModel {
    let series: Vec<TimeSeries> = (0..6)
        .map(|p| {
            let f = if p < 3 { 0.3 } else { 0.9 };
            TimeSeries::new((0..40).map(|i| ((i + p) as f64 * f).sin()).collect())
        })
        .collect();
    let ds = Dataset::new("tiny", DatasetKind::Simulated, series);
    let cfg = KGraphConfig {
        psi: 6,
        pca_sample: 100,
        n_init: 1,
        ..KGraphConfig::new(2)
    }
    .with_lengths(vec![8]);
    KGraph::new(cfg).fit(&ds)
}

/// A session over `model` with deltas, pending triples and scores all
/// non-empty.
fn busy_session(model: KGraphModel) -> StreamSession {
    let cfg = StreamConfig {
        refresh_every: 20,
        compact_every: 0,
    };
    let mut session = StreamSession::new(Arc::new(model), cfg);
    let wave =
        |from: usize| -> Vec<f64> { (from..from + 12).map(|i| (i as f64 * 0.5).sin()).collect() };
    session.append(0, &wave(0)).unwrap();
    session.append(0, &wave(12)).unwrap();
    session.append(1, &wave(3)).unwrap();
    let status = session.status();
    assert!(status.delta_edges > 0 && status.pending_triples > 0 && status.refreshes > 0);
    session
}

#[test]
fn kgm4_every_cut_and_flip_is_a_parse_error() {
    let model = tiny_model();
    let bytes = write_model(&model);
    assert_eq!(&bytes[..4], b"KGM4");
    sweep("KGM4", &bytes, read_model);
}

#[test]
fn kgd1_every_cut_and_flip_is_a_parse_error() {
    let session = busy_session(tiny_model());
    let bytes = session.delta_state();
    assert_eq!(&bytes[..4], b"KGD1");
    sweep("KGD1", &bytes, read_delta_state);
    // An empty delta is a valid blob too.
    sweep(
        "empty KGD1",
        &write_delta_state(&DeltaGraph::new(3)),
        read_delta_state,
    );
}

#[test]
fn kgs1_every_cut_and_flip_is_a_parse_error() {
    let session = busy_session(tiny_model());
    let bytes = write_session_state(&session, 7);
    assert_eq!(&bytes[..4], b"KGS1");
    sweep("KGS1", &bytes, read_session_state);
}

#[test]
fn kgm3_still_loads_and_every_cut_and_flip_is_a_parse_error() {
    let model = tiny_model();
    let old = kgm3(&model);
    let loaded = read_model(&old).expect("KGM3 loads");
    assert_eq!(
        write_model(&loaded),
        write_model(&model),
        "KGM3 re-encodes to the KGM4 bytes"
    );
    sweep("KGM3", &old, read_model);
}

#[test]
fn a_kgm2_model_is_refused_naming_its_format() {
    // The reader refuses on the magic, before the checksum and the body,
    // so any body under the `KGM2` magic stands for a file of that format.
    let old = kgm3(&tiny_model());
    let mut body = old[..old.len() - 4].to_vec();
    body[..4].copy_from_slice(b"KGM2");
    for bytes in [seal(body.clone()), body] {
        match read_model(&bytes) {
            Err(TsError::Parse(msg)) => assert!(
                msg.contains("KGM2 model files")
                    && msg.contains("no longer read")
                    && msg.contains("KGM4 and KGM3"),
                "{msg}"
            ),
            other => panic!("a KGM2 file must be refused, got {other:?}"),
        }
    }
}

#[test]
fn kgs1_pending_triple_past_its_delta_is_a_parse_error() {
    let session = busy_session(tiny_model());
    let bytes = write_session_state(&session, 7);
    let mut body = bytes[..bytes.len() - 4].to_vec();
    let u64_at = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
    // Magic and five u64 counters, then the length-prefixed KGD1 blob,
    // then the pending layer count and layer 0's triple count.
    let kgd1_len = u64_at(&body, 44) as usize;
    let layer0 = 52 + kgd1_len + 8;
    assert!(u64_at(&body, layer0) > 0, "layer 0 has pending triples");
    let nodes = session.model().layers[0].graph.node_count() as u64;
    body[layer0 + 8..layer0 + 16].copy_from_slice(&nodes.to_le_bytes());
    match read_session_state(&seal(body)) {
        Err(TsError::Parse(msg)) => assert!(msg.contains("out of range"), "{msg}"),
        other => panic!("a pending node past the delta must be refused, got {other:?}"),
    }
}
