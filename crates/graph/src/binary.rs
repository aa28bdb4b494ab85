//! A compact binary edge-stream format.
//!
//! Layout: an 8-byte magic (`EBVSTRM` plus a format version byte) followed
//! by edges as pairs of LEB128 varint-encoded vertex identifiers. Typical
//! social-network edge lists compress to 2–6 bytes per endpoint instead of
//! the 8 of fixed-width `u64`, and the format needs no length prefix — the
//! stream simply ends at a pair boundary. The varints are 64-bit; a reader
//! rejects an id past the 32-bit [`VertexId`] range as malformed.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::error::{GraphError, Result};
use crate::source::EdgeSource;
use crate::types::{Edge, VertexId};
use crate::varint::{self, VarintError};

/// Magic bytes opening every binary edge stream (version 1).
pub const MAGIC: [u8; 8] = *b"EBVSTRM\x01";

/// Serializer for the binary edge-stream format.
///
/// # Examples
///
/// ```
/// use ebv_graph::{BinaryEdgeReader, BinaryEdgeWriter, Edge, EdgeSource};
///
/// # fn main() -> Result<(), ebv_graph::GraphError> {
/// let mut buffer = Vec::new();
/// let mut writer = BinaryEdgeWriter::new(&mut buffer)?;
/// writer.write_edge(Edge::from((3u64, 70_000u64)))?;
/// writer.finish()?;
///
/// let mut reader = BinaryEdgeReader::new(buffer.as_slice())?;
/// assert_eq!(reader.next_edge().unwrap()?, Edge::from((3u64, 70_000u64)));
/// assert!(reader.next_edge().is_none());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct BinaryEdgeWriter<W: Write> {
    writer: BufWriter<W>,
}

impl<W: Write> BinaryEdgeWriter<W> {
    /// Starts a new stream by writing the magic header.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Io`] when writing fails.
    pub fn new(inner: W) -> Result<Self> {
        let mut writer = BufWriter::new(inner);
        writer.write_all(&MAGIC)?;
        Ok(BinaryEdgeWriter { writer })
    }

    /// Appends one edge.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Io`] when writing fails.
    pub fn write_edge(&mut self, edge: Edge) -> Result<()> {
        varint::write_u64(&mut self.writer, edge.src.raw())?;
        varint::write_u64(&mut self.writer, edge.dst.raw())?;
        Ok(())
    }

    /// Flushes and closes the stream.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Io`] when flushing fails.
    pub fn finish(mut self) -> Result<()> {
        self.writer.flush()?;
        Ok(())
    }
}

impl BinaryEdgeWriter<File> {
    /// Creates a binary edge-stream file.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Io`] when the file cannot be created.
    pub fn create<P: AsRef<Path>>(path: P) -> Result<Self> {
        BinaryEdgeWriter::new(File::create(path)?)
    }
}

/// Streaming deserializer for the binary edge-stream format; see
/// [`BinaryEdgeWriter`].
#[derive(Debug)]
pub struct BinaryEdgeReader<R> {
    reader: BufReader<R>,
    offset: u64,
}

impl<R: Read> BinaryEdgeReader<R> {
    /// Opens a stream, validating the magic header.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidFormat`] when the magic does not match
    /// and [`GraphError::Io`] on read failures.
    pub fn new(inner: R) -> Result<Self> {
        let mut reader = BufReader::new(inner);
        let mut magic = [0u8; 8];
        reader.read_exact(&mut magic).map_err(|err| {
            if err.kind() == std::io::ErrorKind::UnexpectedEof {
                GraphError::InvalidFormat {
                    offset: 0,
                    message: "stream shorter than the 8-byte magic header".to_string(),
                }
            } else {
                GraphError::Io(err)
            }
        })?;
        if magic != MAGIC {
            return Err(GraphError::InvalidFormat {
                offset: 0,
                message: format!("bad magic {magic:?}, expected {MAGIC:?}"),
            });
        }
        Ok(BinaryEdgeReader { reader, offset: 8 })
    }

    /// Reads one vertex id, a varint via the shared strict codec; `Ok(None)`
    /// on clean EOF at the first byte when `allow_eof` is set.
    fn read_id(&mut self, allow_eof: bool) -> Result<Option<VertexId>> {
        let invalid = |offset: u64, message: &str| GraphError::InvalidFormat {
            offset,
            message: message.to_string(),
        };
        match varint::read_u64(&mut self.reader, &mut self.offset) {
            Ok(Some(value)) => VertexId::try_new(value).map(Some).ok_or_else(|| {
                invalid(
                    self.offset,
                    &format!("vertex id {value} exceeds the 32-bit id range"),
                )
            }),
            Ok(None) if allow_eof => Ok(None),
            Ok(None) => Err(invalid(self.offset, "stream truncated mid-edge")),
            Err(VarintError::Truncated) => Err(invalid(self.offset, "stream truncated mid-edge")),
            Err(VarintError::Overflow) => Err(invalid(self.offset, "varint overflows u64")),
            Err(VarintError::NonCanonical) => Err(invalid(
                self.offset,
                "non-canonical over-long varint encoding",
            )),
            Err(VarintError::Io(err)) => Err(GraphError::Io(err)),
        }
    }
}

impl BinaryEdgeReader<File> {
    /// Opens a binary edge-stream file.
    ///
    /// # Errors
    ///
    /// See [`BinaryEdgeReader::new`].
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self> {
        BinaryEdgeReader::new(File::open(path)?)
    }
}

impl<R: Read> EdgeSource for BinaryEdgeReader<R> {
    fn next_edge(&mut self) -> Option<Result<Edge>> {
        let src = match self.read_id(true) {
            Ok(Some(src)) => src,
            Ok(None) => return None,
            Err(err) => return Some(Err(err)),
        };
        match self.read_id(false) {
            Ok(Some(dst)) => Some(Ok(Edge::new(src, dst))),
            // `allow_eof = false` maps EOF to InvalidFormat, so plain
            // unreachable data never reaches here.
            Ok(None) => unreachable!("read_id(false) never yields None"),
            Err(err) => Some(Err(err)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(edges: &[(u64, u64)]) -> Vec<Edge> {
        let mut buffer = Vec::new();
        let mut writer = BinaryEdgeWriter::new(&mut buffer).unwrap();
        for &pair in edges {
            writer.write_edge(Edge::from(pair)).unwrap();
        }
        writer.finish().unwrap();
        let mut reader = BinaryEdgeReader::new(buffer.as_slice()).unwrap();
        let mut out = Vec::new();
        while let Some(edge) = reader.next_edge() {
            out.push(edge.unwrap());
        }
        out
    }

    #[test]
    fn roundtrips_varied_magnitudes() {
        let top = VertexId::MAX_RAW;
        let edges = [
            (0, 1),
            (127, 128),
            (16_383, 16_384),
            (top, 42),
            (1 << 31, top - 3),
        ];
        let out = roundtrip(&edges);
        assert_eq!(out.len(), edges.len());
        for (edge, &(s, d)) in out.iter().zip(&edges) {
            assert_eq!(*edge, Edge::from((s, d)));
        }

        // One past the top of the id range, as a source and as a target:
        // a typed error after the edges before it, not a panic.
        for past in [(top + 1, 0), (3, u64::MAX)] {
            let mut buffer = MAGIC.to_vec();
            for value in [5, 6, past.0, past.1] {
                varint::write_u64(&mut buffer, value).unwrap();
            }
            let mut reader = BinaryEdgeReader::new(buffer.as_slice()).unwrap();
            assert_eq!(
                reader.next_edge().unwrap().unwrap(),
                Edge::from((5u64, 6u64))
            );
            match reader.next_edge().unwrap().unwrap_err() {
                GraphError::InvalidFormat { message, .. } => {
                    assert!(message.contains("32-bit"), "{message}")
                }
                other => panic!("expected InvalidFormat, got {other:?}"),
            }
        }
    }

    #[test]
    fn writer_golden_bytes() {
        // One edge per varint length an id can take (1 to 5 bytes), each
        // endpoint at the bottom and top of its length.
        let edges = [
            (0, 127),
            (128, 16_383),
            (16_384, 2_097_151),
            (2_097_152, 268_435_455),
            (268_435_456, VertexId::MAX_RAW),
        ];
        let mut buffer = Vec::new();
        let mut writer = BinaryEdgeWriter::new(&mut buffer).unwrap();
        for &pair in &edges {
            writer.write_edge(Edge::from(pair)).unwrap();
        }
        writer.finish().unwrap();
        let expected: &[u8] = &[
            b'E', b'B', b'V', b'S', b'T', b'R', b'M', 0x01, // MAGIC
            0x00, 0x7f, // 0, 127
            0x80, 0x01, 0xff, 0x7f, // 128, 16_383
            0x80, 0x80, 0x01, 0xff, 0xff, 0x7f, // 16_384, 2_097_151
            0x80, 0x80, 0x80, 0x01, 0xff, 0xff, 0xff, 0x7f, // 2^21, 2^28 - 1
            0x80, 0x80, 0x80, 0x80, 0x01, 0xff, 0xff, 0xff, 0xff, 0x0f, // 2^28, 2^32 - 1
        ];
        assert_eq!(buffer, expected);
        assert_eq!(roundtrip(&edges).len(), edges.len());
    }

    #[test]
    fn empty_stream_roundtrips() {
        assert_eq!(roundtrip(&[]), Vec::new());
    }

    #[test]
    fn compactness_beats_fixed_width_for_small_ids() {
        let mut buffer = Vec::new();
        let mut writer = BinaryEdgeWriter::new(&mut buffer).unwrap();
        for i in 0..1000u64 {
            writer
                .write_edge(Edge::from((i % 100, (i + 1) % 100)))
                .unwrap();
        }
        writer.finish().unwrap();
        // 8 magic + 2 bytes per edge, far below 16 bytes per edge.
        assert!(buffer.len() < 8 + 1000 * 4, "{} bytes", buffer.len());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = BinaryEdgeReader::new(&b"NOTMAGIC rest"[..]).unwrap_err();
        assert!(matches!(err, GraphError::InvalidFormat { offset: 0, .. }));
        let err = BinaryEdgeReader::new(&b"EBV"[..]).unwrap_err();
        assert!(matches!(err, GraphError::InvalidFormat { offset: 0, .. }));
    }

    #[test]
    fn over_long_varint_encodings_are_rejected() {
        // `src = [0x80, 0x00]` is a non-canonical encoding of zero: the
        // continuation byte contributes no bits. A strict reader must
        // refuse it — WAL framing reuses this decoder, and canonical
        // encodings are what make re-encoded frames byte-identical.
        let mut buffer = MAGIC.to_vec();
        buffer.extend_from_slice(&[0x80, 0x00, 0x05]);
        let mut reader = BinaryEdgeReader::new(buffer.as_slice()).unwrap();
        let err = reader.next_edge().unwrap().unwrap_err();
        match err {
            GraphError::InvalidFormat { offset, message } => {
                assert_eq!(offset, 10, "both bytes of the bad varint consumed");
                assert!(message.contains("non-canonical"), "{message}");
            }
            other => panic!("expected InvalidFormat, got {other:?}"),
        }
    }

    #[test]
    fn truncation_mid_edge_is_detected() {
        let mut buffer = Vec::new();
        let mut writer = BinaryEdgeWriter::new(&mut buffer).unwrap();
        writer.write_edge(Edge::from((300u64, 400u64))).unwrap();
        writer.finish().unwrap();
        // Drop the final byte: the second varint of the edge is now cut off.
        buffer.pop();
        let mut reader = BinaryEdgeReader::new(buffer.as_slice()).unwrap();
        let err = reader.next_edge().unwrap().unwrap_err();
        assert!(matches!(err, GraphError::InvalidFormat { .. }));
    }
}
