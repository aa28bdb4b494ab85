//! The write-ahead mutation log.
//!
//! A WAL is a sequence of **segments** (`wal-<first_epoch>.log`), each an
//! 8-byte magic followed by length-delimited frames:
//!
//! ```text
//! varint(body_len) ‖ body ‖ crc32(body) (4 bytes LE)
//! body = varint(epoch) ‖ varint(events_seen)
//!        ‖ varint(n_added)   ‖ (varint src ‖ varint dst ‖ varint part)*
//!        ‖ varint(n_removed) ‖ (varint src ‖ varint dst ‖ varint part)*
//! ```
//!
//! Varints use the shared strict LEB128 codec of [`ebv_graph::varint`],
//! so every frame has exactly one valid encoding. A reader accepts the
//! longest valid prefix of each segment: the first truncated varint, short
//! read or CRC mismatch ends the segment — that is what a torn tail from a
//! crash looks like, and the half-written frame is discarded fail-safe
//! (recovery re-derives it from the event stream). A frame whose CRC
//! *matches* but whose content misbehaves — undecodable body, or an epoch
//! that does not continue the segment's lineage — is never crash damage
//! and is reported as a hard error instead.
//!
//! A new segment is started after every checkpoint (and on every process
//! start), so a segment's frames are consumed strictly in epoch order and
//! old segments can be retired once a checkpoint covers them.

use std::fs::{self, File};
use std::path::{Path, PathBuf};

use ebv_bsp::MutationBatch;
use ebv_graph::varint;
use ebv_graph::Edge;
use ebv_partition::PartitionId;

use crate::crc::crc32;
use crate::error::{Result, StateError};
use crate::failpoint::Failpoint;

/// Magic bytes opening every WAL segment (version 1).
pub const WAL_MAGIC: [u8; 8] = *b"EBVWAL\x01\0";

/// One decoded WAL frame: the mutation batch that became `epoch`, plus the
/// cumulative raw event count through that batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalFrame {
    /// The epoch this batch produced when applied.
    pub epoch: u64,
    /// Raw stream events (inserts + deletes, pre-cancellation) consumed
    /// through the end of this batch.
    pub events_seen: u64,
    /// The batch itself, reconstructed part-for-part.
    pub batch: MutationBatch,
}

/// Encodes one frame (length prefix + body + CRC) into a buffer.
pub fn encode_frame(epoch: u64, events_seen: u64, batch: &MutationBatch) -> Vec<u8> {
    let mut body = Vec::with_capacity(16 + 12 * batch.len());
    push_varint(&mut body, epoch);
    push_varint(&mut body, events_seen);
    push_pairs(&mut body, batch.added());
    push_pairs(&mut body, batch.removed());
    let mut frame = Vec::with_capacity(body.len() + varint::MAX_LEN + 4);
    push_varint(&mut frame, body.len() as u64);
    frame.extend_from_slice(&body);
    frame.extend_from_slice(&crc32(&body).to_le_bytes());
    frame
}

pub(crate) fn push_varint(out: &mut Vec<u8>, value: u64) {
    varint::write_u64(out, value).expect("Vec writes are infallible");
}

pub(crate) fn push_pairs(out: &mut Vec<u8>, pairs: &[(Edge, PartitionId)]) {
    push_varint(out, pairs.len() as u64);
    for &(edge, part) in pairs {
        push_varint(out, edge.src.raw());
        push_varint(out, edge.dst.raw());
        push_varint(out, part.index() as u64);
    }
}

/// A strict varint cursor over an in-memory buffer, tracking its offset
/// for error reporting. Shared by the WAL and checkpoint decoders.
pub(crate) struct Cursor<'a> {
    bytes: &'a [u8],
    offset: u64,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, offset: 0 }
    }

    pub(crate) fn offset(&self) -> u64 {
        self.offset
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Reads one varint; `None` for anything short of a complete,
    /// canonical encoding.
    pub(crate) fn varint(&mut self) -> Option<u64> {
        let mut rest = self.bytes;
        let mut consumed = 0u64;
        match varint::read_u64(&mut rest, &mut consumed) {
            Ok(Some(value)) => {
                self.bytes = rest;
                self.offset += consumed;
                Some(value)
            }
            _ => None,
        }
    }

    /// Takes `len` raw bytes, or `None` when the buffer is shorter.
    pub(crate) fn take(&mut self, len: usize) -> Option<&'a [u8]> {
        if self.bytes.len() < len {
            return None;
        }
        let (head, rest) = self.bytes.split_at(len);
        self.bytes = rest;
        self.offset += len as u64;
        Some(head)
    }
}

/// Decodes a CRC-verified frame body; `None` when the body is malformed
/// (the caller reports it as corruption, since the CRC vouched for it).
fn decode_body(body: &[u8]) -> Option<WalFrame> {
    let mut cursor = Cursor::new(body);
    let epoch = cursor.varint()?;
    let events_seen = cursor.varint()?;
    let added = decode_pairs(&mut cursor)?;
    let removed = decode_pairs(&mut cursor)?;
    if !cursor.is_empty() {
        return None;
    }
    Some(WalFrame {
        epoch,
        events_seen,
        batch: MutationBatch::from_parts(added, removed),
    })
}

/// Reads one [`push_pairs`] list. Shared by the WAL and checkpoint decoders,
/// which report `None` — including an id past the 32-bit vertex range — as
/// corruption.
pub(crate) fn decode_pairs(cursor: &mut Cursor<'_>) -> Option<Vec<(Edge, PartitionId)>> {
    let count = usize::try_from(cursor.varint()?).ok()?;
    let mut pairs = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        let src = cursor.varint()?;
        let dst = cursor.varint()?;
        let part = u32::try_from(cursor.varint()?).ok()?;
        pairs.push((Edge::try_from_raw(src, dst)?, PartitionId::new(part)));
    }
    Some(pairs)
}

/// Reads the longest valid frame prefix of one segment file.
///
/// Returns the decoded frames. Truncation, a torn varint or a CRC
/// mismatch ends the read silently (torn tail). A segment shorter than
/// the magic — including a zero-length file — is an empty valid prefix.
///
/// # Errors
///
/// [`StateError::Corrupt`] when a full-length magic is wrong or a
/// CRC-verified frame fails to decode, [`StateError::EpochRegression`]
/// when a CRC-verified frame's epoch fails to increase within the
/// segment, and [`StateError::Io`] on read failures.
pub fn read_segment(path: &Path) -> Result<Vec<WalFrame>> {
    let bytes = fs::read(path)?;
    if bytes.len() < WAL_MAGIC.len() {
        // A crash while writing the magic (or an empty placeholder file).
        return Ok(Vec::new());
    }
    if bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(StateError::Corrupt {
            file: path.to_path_buf(),
            offset: 0,
            message: format!("bad WAL magic {:?}", &bytes[..WAL_MAGIC.len()]),
        });
    }
    let mut cursor = Cursor::new(&bytes[WAL_MAGIC.len()..]);
    let mut frames: Vec<WalFrame> = Vec::new();
    loop {
        if cursor.is_empty() {
            return Ok(frames); // clean end at a frame boundary
        }
        let frame_offset = WAL_MAGIC.len() as u64 + cursor.offset();
        let Some(body_len) = cursor.varint() else {
            return Ok(frames); // torn length prefix
        };
        let Ok(body_len) = usize::try_from(body_len) else {
            return Ok(frames); // a length this absurd is torn garbage
        };
        let Some(body) = cursor.take(body_len) else {
            return Ok(frames); // torn body
        };
        let Some(crc_bytes) = cursor.take(4) else {
            return Ok(frames); // torn checksum
        };
        let stored = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
        if crc32(body) != stored {
            return Ok(frames); // torn or bit-rotted frame: discard fail-safe
        }
        // From here on the CRC vouches for the content: failures are
        // corruption (or a writer bug), never a torn tail.
        let frame = decode_body(body).ok_or_else(|| StateError::Corrupt {
            file: path.to_path_buf(),
            offset: frame_offset,
            message: "CRC-valid frame body does not decode".to_string(),
        })?;
        if let Some(last) = frames.last() {
            if frame.epoch != last.epoch + 1 {
                return Err(StateError::EpochRegression {
                    file: path.to_path_buf(),
                    expected: last.epoch + 1,
                    found: frame.epoch,
                });
            }
        }
        frames.push(frame);
    }
}

/// Lists the WAL segments of `dir` in ascending first-epoch order.
pub(crate) fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut segments = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if let Some(first_epoch) = name
            .strip_prefix("wal-")
            .and_then(|rest| rest.strip_suffix(".log"))
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            segments.push((first_epoch, path));
        }
    }
    segments.sort();
    Ok(segments)
}

/// The append side of the WAL: one open segment at a time, rotated at
/// every checkpoint. Segments are created lazily on the first append so
/// the file name can carry its first frame's epoch.
#[derive(Debug)]
pub(crate) struct WalWriter {
    dir: PathBuf,
    failpoint: Failpoint,
    current: Option<File>,
}

impl WalWriter {
    /// A writer over `dir` with no open segment.
    pub(crate) fn new(dir: PathBuf, failpoint: Failpoint) -> Self {
        WalWriter {
            dir,
            failpoint,
            current: None,
        }
    }

    /// Appends one frame, opening a fresh segment named after `epoch` if
    /// none is open. Returns the bytes written (including magic when a
    /// segment was opened).
    ///
    /// # Errors
    ///
    /// [`StateError::Io`] and [`StateError::InjectedCrash`].
    pub(crate) fn append(
        &mut self,
        epoch: u64,
        events_seen: u64,
        batch: &MutationBatch,
    ) -> Result<u64> {
        let mut written = 0u64;
        if self.current.is_none() {
            // `create` truncates: the only way the name can collide is a
            // pre-crash segment whose first frame never became valid, and
            // recovery has already discarded everything in it.
            let mut file = File::create(self.dir.join(format!("wal-{epoch}.log")))?;
            self.failpoint.write_all(&mut file, &WAL_MAGIC)?;
            written += WAL_MAGIC.len() as u64;
            self.current = Some(file);
        }
        let frame = encode_frame(epoch, events_seen, batch);
        let file = self.current.as_mut().expect("segment opened above");
        self.failpoint.write_all(file, &frame)?;
        Ok(written + frame.len() as u64)
    }

    /// Closes the open segment; the next append starts a new one. Called
    /// at checkpoint boundaries so retired epochs live in retired files.
    pub(crate) fn rotate(&mut self) {
        self.current = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ebv-wal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn batch(added: &[(u64, u64, u32)], removed: &[(u64, u64, u32)]) -> MutationBatch {
        let pairs = |list: &[(u64, u64, u32)]| {
            list.iter()
                .map(|&(s, d, p)| (Edge::from((s, d)), PartitionId::new(p)))
                .collect()
        };
        MutationBatch::from_parts(pairs(added), pairs(removed))
    }

    #[test]
    fn frames_round_trip_through_a_segment() {
        let dir = temp_dir("roundtrip");
        let mut writer = WalWriter::new(dir.clone(), Failpoint::disarmed());
        let batches = [
            batch(&[(0, 1, 0), (1, 2, 1)], &[]),
            batch(&[(5, 9, 3)], &[(0, 1, 0)]),
            batch(&[], &[]),
        ];
        for (i, b) in batches.iter().enumerate() {
            writer.append(i as u64 + 1, (i as u64 + 1) * 10, b).unwrap();
        }
        let frames = read_segment(&dir.join("wal-1.log")).unwrap();
        assert_eq!(frames.len(), 3);
        for (i, frame) in frames.iter().enumerate() {
            assert_eq!(frame.epoch, i as u64 + 1);
            assert_eq!(frame.events_seen, (i as u64 + 1) * 10);
            assert_eq!(frame.batch, batches[i]);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_truncation_point_yields_the_valid_prefix() {
        let dir = temp_dir("torn");
        let mut writer = WalWriter::new(dir.clone(), Failpoint::disarmed());
        writer.append(1, 2, &batch(&[(3, 4, 0)], &[])).unwrap();
        writer.append(2, 4, &batch(&[(4, 5, 1)], &[])).unwrap();
        let path = dir.join("wal-1.log");
        let full = fs::read(&path).unwrap();
        let first_frame_end = {
            let frames1 = encode_frame(1, 2, &batch(&[(3, 4, 0)], &[]));
            WAL_MAGIC.len() + frames1.len()
        };
        for cut in 0..full.len() {
            fs::write(&path, &full[..cut]).unwrap();
            let frames = read_segment(&path).unwrap();
            let expected = if cut >= full.len() {
                2
            } else if cut >= first_frame_end {
                1
            } else {
                0
            };
            assert_eq!(frames.len(), expected, "cut at byte {cut}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_tail_frame_is_discarded_but_regression_errors() {
        let dir = temp_dir("crc");
        let path = dir.join("wal-1.log");
        let mut writer = WalWriter::new(dir.clone(), Failpoint::disarmed());
        writer.append(1, 1, &batch(&[(1, 2, 0)], &[])).unwrap();
        writer.append(2, 2, &batch(&[(2, 3, 0)], &[])).unwrap();
        // Flip one bit inside the second frame's body: CRC mismatch, torn.
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 6;
        bytes[last] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let frames = read_segment(&path).unwrap();
        assert_eq!(frames.len(), 1, "bit-rotted frame discarded fail-safe");

        // A CRC-*valid* frame that repeats epoch 1 is a lineage fork.
        let mut writer = WalWriter::new(dir.clone(), Failpoint::disarmed());
        let _ = fs::remove_file(&path);
        writer.append(1, 1, &batch(&[(1, 2, 0)], &[])).unwrap();
        writer.append(1, 2, &batch(&[(9, 9, 0)], &[])).unwrap();
        let err = read_segment(&path).unwrap_err();
        assert!(
            matches!(
                err,
                StateError::EpochRegression {
                    expected: 2,
                    found: 1,
                    ..
                }
            ),
            "{err}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zero_length_and_foreign_files() {
        let dir = temp_dir("degenerate");
        let path = dir.join("wal-0.log");
        fs::write(&path, b"").unwrap();
        assert!(read_segment(&path).unwrap().is_empty(), "zero-length file");
        fs::write(&path, b"NOTAWAL!extra").unwrap();
        assert!(matches!(
            read_segment(&path).unwrap_err(),
            StateError::Corrupt { offset: 0, .. }
        ));
        fs::remove_dir_all(&dir).unwrap();
    }
}
