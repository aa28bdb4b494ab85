//! Shared LEB128 varint codec.
//!
//! The binary edge-stream format ([`crate::BinaryEdgeReader`]) and the
//! durable-state WAL framing (`ebv-state`) both encode integers as LEB128
//! varints. This module is the single implementation both build on: 7
//! value bits per byte, least-significant group first, high bit set on
//! every byte except the last.
//!
//! The reader is strict: it rejects encodings that overflow `u64` *and*
//! non-canonical over-long encodings (a multi-byte encoding whose final
//! byte contributes no bits, e.g. `[0x80, 0x00]` for zero). Canonicality
//! matters for durability framing — if every value has exactly one valid
//! encoding, a re-encoded frame is byte-identical to the original, so
//! CRC-verified frames can be compared and re-emitted without drift.

use std::io::{self, Read, Write};

/// Maximum encoded length of a `u64` varint (`ceil(64 / 7)` bytes).
pub const MAX_LEN: usize = 10;

/// Why a varint read failed.
#[derive(Debug)]
pub enum VarintError {
    /// The underlying reader failed with a real I/O error.
    Io(io::Error),
    /// The stream ended after at least one byte of an unfinished varint.
    Truncated,
    /// The encoding does not fit in 64 bits.
    Overflow,
    /// Over-long encoding: a multi-byte varint whose final byte is zero.
    /// Canonical LEB128 never emits trailing zero groups.
    NonCanonical,
}

impl std::fmt::Display for VarintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VarintError::Io(err) => write!(f, "varint read failed: {err}"),
            VarintError::Truncated => write!(f, "stream truncated mid-varint"),
            VarintError::Overflow => write!(f, "varint overflows u64"),
            VarintError::NonCanonical => {
                write!(f, "non-canonical over-long varint encoding")
            }
        }
    }
}

impl std::error::Error for VarintError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VarintError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<io::Error> for VarintError {
    fn from(err: io::Error) -> Self {
        VarintError::Io(err)
    }
}

/// Writes the canonical LEB128 encoding of `value`; returns the number of
/// bytes written (1..=[`MAX_LEN`]).
///
/// # Errors
///
/// Propagates any error from the underlying writer.
pub fn write_u64<W: Write>(writer: &mut W, mut value: u64) -> io::Result<usize> {
    let mut written = 0;
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        written += 1;
        if value == 0 {
            writer.write_all(&[byte])?;
            return Ok(written);
        }
        writer.write_all(&[byte | 0x80])?;
    }
}

/// Reads one varint from `reader`.
///
/// Returns `Ok(None)` on clean EOF before the first byte — the caller
/// decides whether that is a valid end of stream. `consumed` is advanced
/// by every byte actually read, including on the error paths, so callers
/// can report precise offsets.
///
/// # Errors
///
/// [`VarintError::Truncated`] when EOF hits mid-varint,
/// [`VarintError::Overflow`] when the value exceeds `u64`,
/// [`VarintError::NonCanonical`] for over-long encodings, and
/// [`VarintError::Io`] for real reader failures.
pub fn read_u64<R: Read>(reader: &mut R, consumed: &mut u64) -> Result<Option<u64>, VarintError> {
    let mut value: u64 = 0;
    let mut shift: u32 = 0;
    let mut first = true;
    loop {
        let mut byte = [0u8; 1];
        match reader.read_exact(&mut byte) {
            Ok(()) => {}
            Err(err) if err.kind() == io::ErrorKind::UnexpectedEof => {
                if first {
                    return Ok(None);
                }
                return Err(VarintError::Truncated);
            }
            Err(err) => return Err(VarintError::Io(err)),
        }
        *consumed += 1;
        if byte[0] & 0x80 == 0 && byte[0] == 0 && !first {
            return Err(VarintError::NonCanonical);
        }
        if shift >= 64 || (shift == 63 && byte[0] & 0x7E != 0) {
            return Err(VarintError::Overflow);
        }
        value |= u64::from(byte[0] & 0x7F) << shift;
        if byte[0] & 0x80 == 0 {
            return Ok(Some(value));
        }
        shift += 7;
        first = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_all(bytes: &[u8]) -> Result<Option<u64>, VarintError> {
        let mut consumed = 0;
        read_u64(&mut &bytes[..], &mut consumed)
    }

    #[test]
    fn roundtrips_and_reports_length() {
        for value in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            1 << 40,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buffer = Vec::new();
            let written = write_u64(&mut buffer, value).unwrap();
            assert_eq!(written, buffer.len());
            let mut consumed = 0;
            let back = read_u64(&mut buffer.as_slice(), &mut consumed).unwrap();
            assert_eq!(back, Some(value));
            assert_eq!(consumed, buffer.len() as u64);
        }
    }

    #[test]
    fn clean_eof_is_none_and_counts_nothing() {
        let mut consumed = 0;
        assert!(matches!(read_u64(&mut &b""[..], &mut consumed), Ok(None)));
        assert_eq!(consumed, 0);
    }

    #[test]
    fn truncation_mid_varint_is_detected() {
        let mut consumed = 0;
        let err = read_u64(&mut &[0x80u8][..], &mut consumed).unwrap_err();
        assert!(matches!(err, VarintError::Truncated));
        assert_eq!(consumed, 1);
    }

    #[test]
    fn overflow_is_rejected() {
        // Eleven continuation bytes push shift past 64 bits.
        let bytes = [0xFFu8; 10];
        assert!(matches!(read_all(&bytes), Err(VarintError::Overflow)));
        // Ten bytes whose final group sets bits above bit 63.
        let mut high = [0xFFu8; 10];
        high[9] = 0x7F;
        assert!(matches!(read_all(&high), Err(VarintError::Overflow)));
    }

    #[test]
    fn over_long_encodings_are_rejected() {
        // `[0x80, 0x00]` is zero with a redundant continuation byte.
        assert!(matches!(
            read_all(&[0x80, 0x00]),
            Err(VarintError::NonCanonical)
        ));
        // `[0xFF, 0x80, 0x00]` pads 127 out to three bytes.
        assert!(matches!(
            read_all(&[0xFF, 0x80, 0x00]),
            Err(VarintError::NonCanonical)
        ));
        // A lone zero byte is the canonical encoding of zero.
        assert_eq!(read_all(&[0x00]).unwrap(), Some(0));
    }

    #[test]
    fn max_len_matches_u64_max() {
        assert_eq!(write_u64(&mut Vec::new(), u64::MAX).unwrap(), MAX_LEN);
    }
}
