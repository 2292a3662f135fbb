//! The `KGW1` per-model write-ahead ingest journal.
//!
//! Layout (little-endian throughout):
//!
//! ```text
//! header:  b"KGW1" | u64 base_seq
//! record:  u32 len | payload | u32 crc32(payload)
//! payload: u64 seq | u32 series | u32 n_points | n_points × f64
//! ```
//!
//! A journal follows one snapshot generation: `base_seq` is that
//! generation's sequence number, and its records carry `base_seq + 1,
//! base_seq + 2, …` contiguously. Replay stops cleanly at the first record
//! that is torn, fails its CRC, or breaks the sequence — everything before
//! it is applied, everything after it is discarded, and nothing ever
//! panics on arbitrary bytes. That is exactly the crash contract: a record
//! is durable once its bytes and checksum hit the disk, and a crash
//! mid-record loses only that record (which was never acknowledged if
//! `sync_every == 1`).
//!
//! A journal is created header first and never renamed over; the
//! durability layer names it after its generation and deletes it only
//! with that generation. The writer acknowledges an
//! append only after the record bytes are written and — on the
//! group-commit cadence — fsync'd. On a failed append it rolls the file
//! back to the previous record boundary so a retry cannot produce a
//! duplicate; when even the rollback fails the WAL is poisoned and the
//! caller must stop accepting writes for this model. An acknowledged
//! record is never taken back: the ingest route checks a record before
//! journaling it, and one the session refuses anyway degrades the model
//! with the journal left as it is.

use crate::fsio::{Fs, WalFile};
use kgraph::checksum::crc32;
use kgraph::serial::{put_f64, put_u32, put_u64, Cursor};
use std::io;
use std::path::Path;
use tscore::error::TsError;

/// Magic prefix of a WAL file.
pub const WAL_MAGIC: &[u8; 4] = b"KGW1";

/// Header length: magic + base sequence.
pub const WAL_HEADER_LEN: u64 = 12;

/// Hard cap on one record's payload — an ingest body is already bounded
/// by the server's `max_body_bytes`, so anything larger is corruption,
/// not data.
const MAX_RECORD_LEN: u32 = 64 << 20;

/// One logged ingest.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Sequence number (contiguous from `base_seq + 1`).
    pub seq: u64,
    /// Session-local series index the points were appended to.
    pub series: usize,
    /// The appended points.
    pub points: Vec<f64>,
}

/// Serialises one record (length prefix + payload + CRC trailer).
pub fn encode_record(seq: u64, series: u32, points: &[f64]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(16 + points.len() * 8);
    put_u64(&mut payload, seq);
    put_u32(&mut payload, series);
    put_u32(&mut payload, points.len() as u32);
    for &p in points {
        put_f64(&mut payload, p);
    }
    let mut out = Vec::with_capacity(payload.len() + 8);
    put_u32(&mut out, payload.len() as u32);
    out.extend_from_slice(&payload);
    put_u32(&mut out, crc32(&payload));
    out
}

/// Serialises the 12-byte WAL header.
pub fn encode_header(base_seq: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(WAL_HEADER_LEN as usize);
    out.extend_from_slice(WAL_MAGIC);
    put_u64(&mut out, base_seq);
    out
}

/// What a WAL replay recovered.
#[derive(Debug, Clone)]
pub struct WalReplay {
    /// Sequence number covered by the snapshot this WAL extends.
    pub base_seq: u64,
    /// Valid records, in sequence order.
    pub records: Vec<WalRecord>,
    /// Byte offset of the end of the last valid record — the truncation
    /// point for healing a torn tail.
    pub valid_bytes: u64,
    /// Whether trailing bytes after the valid prefix were discarded.
    pub torn: bool,
}

/// Decodes a WAL image, stopping cleanly at the first torn, corrupt or
/// out-of-sequence record.
///
/// # Errors
///
/// [`TsError::Parse`] only when the file cannot be a `KGW1` log at all:
/// wrong magic with at least 4 bytes present, or a `base_seq` of
/// `u64::MAX`, after which no record number exists. A header shorter than 12
/// bytes whose bytes are a prefix of a valid header is treated as a torn
/// creation — no records, nothing lost — because the header is the first
/// thing written to a brand-new log, before any record is appended.
pub fn replay(bytes: &[u8]) -> Result<WalReplay, TsError> {
    if bytes.len() >= 4 && &bytes[..4] != WAL_MAGIC {
        return Err(TsError::Parse(format!(
            "not a KGW1 write-ahead log (magic {:?})",
            &bytes[..4]
        )));
    }
    let mut c = Cursor::new(bytes);
    let Ok(base_seq) = c.take(4).and_then(|_| c.u64()) else {
        return Ok(WalReplay {
            base_seq: 0,
            records: Vec::new(),
            valid_bytes: bytes.len() as u64,
            torn: !bytes.is_empty(),
        });
    };
    // No record can follow a header at `u64::MAX`: such a header is
    // corruption, not an empty log.
    let mut next_seq = Some(base_seq.checked_add(1).ok_or_else(|| {
        TsError::Parse(format!(
            "KGW1 base sequence {base_seq} leaves no room for records"
        ))
    })?);
    let mut records = Vec::new();
    let mut valid_bytes = WAL_HEADER_LEN;
    while c.remaining() > 0 {
        match next_record(&mut c) {
            Some(record) if Some(record.seq) == next_seq => {
                next_seq = record.seq.checked_add(1);
                records.push(record);
                valid_bytes = c.pos() as u64;
            }
            _ => {
                return Ok(WalReplay {
                    base_seq,
                    records,
                    valid_bytes,
                    torn: true,
                })
            }
        }
    }
    Ok(WalReplay {
        base_seq,
        records,
        valid_bytes,
        torn: false,
    })
}

/// Decodes the record at the cursor; `None` when it is torn, fails its
/// CRC or is malformed.
fn next_record(c: &mut Cursor) -> Option<WalRecord> {
    let len = c.u32().ok()?;
    if !(16..=MAX_RECORD_LEN).contains(&len) {
        return None;
    }
    let payload = c.take(len as usize).ok()?;
    if crc32(payload) != c.u32().ok()? {
        return None;
    }
    let mut p = Cursor::new(payload);
    let seq = p.u64().ok()?;
    let series = p.u32().ok()?;
    let n_points = p.u32().ok()?;
    if p.remaining() != n_points as usize * 8 {
        return None;
    }
    let points = (0..n_points)
        .map(|_| p.f64().ok())
        .collect::<Option<Vec<_>>>()?;
    Some(WalRecord {
        seq,
        series: series as usize,
        points,
    })
}

/// An append error, flagging whether the log was left in an unknown state.
#[derive(Debug)]
pub struct WalError {
    /// The underlying I/O error.
    pub io: io::Error,
    /// When true, the failed bytes could not be rolled back: the on-disk
    /// tail is unknown and the WAL must not accept further appends.
    pub poisoned: bool,
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.poisoned {
            write!(f, "WAL poisoned (rollback failed): {}", self.io)
        } else {
            write!(f, "WAL append failed (rolled back): {}", self.io)
        }
    }
}

/// The per-model WAL writer.
pub struct Wal {
    file: Box<dyn WalFile>,
    /// Length up to the end of the last fully-written record.
    len: u64,
    next_seq: u64,
    sync_every: u64,
    appends_since_sync: u64,
}

impl Wal {
    /// Creates the log at `path` for the generation at `base_seq`: the
    /// header is written and fsync'd, the file opened for appending, and
    /// the directory fsync'd, so the log is durable before the first
    /// append can land in it. A file already at `path` is truncated: the
    /// durability layer creates a journal only where none holds a record.
    pub fn create(fs: &dyn Fs, path: &Path, base_seq: u64, sync_every: u64) -> io::Result<Wal> {
        fs.write(path, &encode_header(base_seq))?;
        let mut file = fs.open_wal(path)?;
        let len = file.len()?;
        if let Some(dir) = path.parent() {
            fs.sync_dir(dir)?;
        }
        Ok(Wal {
            file,
            len,
            next_seq: base_seq + 1,
            sync_every: sync_every.max(1),
            appends_since_sync: 0,
        })
    }

    /// Appends one ingest record and group-commits on the configured
    /// cadence. Returns the record's sequence number and whether this
    /// append triggered an fsync.
    ///
    /// # Errors
    ///
    /// [`WalError`] with `poisoned == false` when the append failed but the
    /// file was rolled back to the previous record boundary (the caller may
    /// retry); `poisoned == true` when the rollback itself failed and the
    /// log must be retired.
    pub fn append(&mut self, series: u32, points: &[f64]) -> Result<(u64, bool), WalError> {
        let seq = self.next_seq;
        let record = encode_record(seq, series, points);
        let result = self.file.append(&record).and_then(|()| {
            if self.appends_since_sync + 1 >= self.sync_every {
                self.file.sync()?;
                Ok(true)
            } else {
                Ok(false)
            }
        });
        match result {
            Ok(synced) => {
                self.appends_since_sync = if synced {
                    0
                } else {
                    self.appends_since_sync + 1
                };
                self.len += record.len() as u64;
                self.next_seq += 1;
                Ok((seq, synced))
            }
            Err(io) => {
                // Undo the partial record so a retry cannot duplicate it.
                let rolled_back = self.file.set_len(self.len).is_ok();
                Err(WalError {
                    io,
                    poisoned: !rolled_back,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_rejects_a_header_with_no_room_for_records() {
        // `base_seq + 1` overflows: a parse error (the model degrades to
        // read-only), not a panic and not a wrapped counter that would
        // accept a record numbered 0.
        let mut bytes = encode_header(u64::MAX);
        bytes.extend(encode_record(0, 0, &[1.0]));
        match replay(&bytes) {
            Err(TsError::Parse(msg)) => assert!(msg.contains("base sequence"), "{msg}"),
            other => panic!("overflowing header must be a parse error, got {other:?}"),
        }
    }

    #[test]
    fn replay_stops_after_the_record_numbered_u64_max() {
        let mut bytes = encode_header(u64::MAX - 1);
        bytes.extend(encode_record(u64::MAX, 0, &[1.0]));
        bytes.extend(encode_record(0, 0, &[2.0]));
        let rep = replay(&bytes).expect("valid header");
        assert_eq!(rep.records.len(), 1);
        assert_eq!(rep.records[0].seq, u64::MAX);
        assert!(rep.torn, "nothing can follow the last sequence number");
    }
}
