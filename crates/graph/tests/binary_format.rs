//! Property and adversarial tests for the binary varint edge-stream
//! format: arbitrary edge lists roundtrip exactly, and every malformed
//! input class (truncation, overlong varints, bad magic, ids past the
//! 32-bit vertex range) surfaces as a typed [`GraphError::InvalidFormat`]
//! — never a panic.

use proptest::prelude::*;

use ebv_graph::{
    varint, BinaryEdgeReader, BinaryEdgeWriter, Edge, EdgeSource, GraphError, VertexId, MAGIC,
};

fn encode(edges: &[(u64, u64)]) -> Vec<u8> {
    let mut buffer = Vec::new();
    let mut writer = BinaryEdgeWriter::new(&mut buffer).unwrap();
    for &pair in edges {
        writer.write_edge(Edge::from(pair)).unwrap();
    }
    writer.finish().unwrap();
    buffer
}

/// The stream a writer with no id range would produce: magic, then every
/// id as a varint, past-range ones included.
fn encode_raw(pairs: &[(u64, u64)]) -> Vec<u8> {
    let mut buffer = MAGIC.to_vec();
    for &(src, dst) in pairs {
        varint::write_u64(&mut buffer, src).unwrap();
        varint::write_u64(&mut buffer, dst).unwrap();
    }
    buffer
}

fn decode_all(bytes: &[u8]) -> Result<Vec<Edge>, GraphError> {
    let mut reader = BinaryEdgeReader::new(bytes)?;
    let mut out = Vec::new();
    while let Some(edge) = reader.next_edge() {
        out.push(edge?);
    }
    Ok(out)
}

/// The edges decoded before the first error, and that error.
fn decode_prefix(bytes: &[u8]) -> (Vec<Edge>, Option<GraphError>) {
    let mut reader = BinaryEdgeReader::new(bytes).unwrap();
    let mut out = Vec::new();
    while let Some(edge) = reader.next_edge() {
        match edge {
            Ok(edge) => out.push(edge),
            Err(err) => return (out, Some(err)),
        }
    }
    (out, None)
}

/// Ids of `bits` significant bits for `bits` uniform in `0..=max_bits`,
/// so every varint length class up to `max_bits` is drawn.
fn id(max_bits: u32) -> impl Strategy<Value = u64> {
    (any::<u64>(), 0..=max_bits).prop_map(|(x, bits)| x.checked_shr(64 - bits).unwrap_or(0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Roundtrip: any edge list (endpoints spanning every varint length
    /// class up to the top of the 32-bit id range) decodes to exactly the
    /// edges that were written. One id past the range, spliced in at any
    /// edge, ends the stream there with a typed error.
    #[test]
    fn arbitrary_edges_roundtrip(
        edges in proptest::collection::vec((id(32), id(32)), 0..200),
        past in (VertexId::MAX_RAW + 1)..=u64::MAX,
        at in any::<u64>(),
        as_src in any::<bool>(),
    ) {
        let bytes = encode(&edges);
        prop_assert_eq!(&bytes, &encode_raw(&edges));
        let decoded = decode_all(&bytes).unwrap();
        prop_assert_eq!(decoded.len(), edges.len());
        for (edge, &(s, d)) in decoded.iter().zip(&edges) {
            prop_assert_eq!(*edge, Edge::from((s, d)));
        }

        let mut hostile = edges.clone();
        let at = (at as usize) % (hostile.len() + 1);
        hostile.insert(at, if as_src { (past, 0) } else { (0, past) });
        let (decoded, err) = decode_prefix(&encode_raw(&hostile));
        prop_assert_eq!(&decoded[..], &decode_all(&bytes).unwrap()[..at]);
        match err {
            Some(GraphError::InvalidFormat { message, .. }) => {
                prop_assert!(message.contains("32-bit"), "{}", message)
            }
            other => prop_assert!(false, "expected InvalidFormat, got {:?}", other),
        }
    }

    /// Truncating a stream of arbitrary 64-bit ids at any byte inside the
    /// edge payload yields a prefix of the edges and, unless the cut falls
    /// on a pair boundary past only in-range ids, a typed InvalidFormat
    /// error — never a panic, never a phantom edge.
    #[test]
    fn truncation_never_panics(
        edges in proptest::collection::vec((id(64), id(64)), 1..50),
        cut in any::<u64>(),
    ) {
        let bytes = encode_raw(&edges);
        let cut = MAGIC.len() + (cut as usize) % (bytes.len() - MAGIC.len());
        let (decoded, err) = decode_prefix(&bytes[..cut]);
        prop_assert!(decoded.len() < edges.len());
        for (edge, &(s, d)) in decoded.iter().zip(&edges) {
            prop_assert_eq!((edge.src.raw(), edge.dst.raw()), (s, d));
        }
        match err {
            None => {}
            Some(GraphError::InvalidFormat { offset, .. }) => {
                prop_assert!(offset <= cut as u64);
            }
            Some(other) => prop_assert!(false, "unexpected error class: {}", other),
        }
    }
}

#[test]
fn truncated_varint_mid_continuation_is_invalid_format() {
    // A single continuation byte promises more bytes that never arrive.
    let mut bytes = MAGIC.to_vec();
    bytes.push(0x80);
    let mut reader = BinaryEdgeReader::new(bytes.as_slice()).unwrap();
    let err = reader.next_edge().unwrap().unwrap_err();
    assert!(
        matches!(err, GraphError::InvalidFormat { ref message, .. } if message.contains("truncated")),
        "got {err}"
    );
}

#[test]
fn truncated_second_endpoint_is_invalid_format() {
    // A complete src varint with no dst at all: EOF at a non-pair boundary.
    let mut bytes = MAGIC.to_vec();
    bytes.push(0x07);
    let mut reader = BinaryEdgeReader::new(bytes.as_slice()).unwrap();
    let err = reader.next_edge().unwrap().unwrap_err();
    assert!(matches!(err, GraphError::InvalidFormat { .. }), "got {err}");
}

#[test]
fn overlong_varint_is_invalid_format_not_a_panic() {
    // Eleven continuation groups: the value would need more than 64 bits.
    let mut bytes = MAGIC.to_vec();
    bytes.extend_from_slice(&[0xFF; 10]);
    bytes.push(0x01);
    let mut reader = BinaryEdgeReader::new(bytes.as_slice()).unwrap();
    let err = reader.next_edge().unwrap().unwrap_err();
    assert!(
        matches!(err, GraphError::InvalidFormat { ref message, .. } if message.contains("overflow")),
        "got {err}"
    );
}

#[test]
fn ten_byte_varint_with_excess_high_bits_is_rejected() {
    // u32::MAX, the top vertex id, is five bytes and decodes.
    let mut top = MAGIC.to_vec();
    top.extend_from_slice(&[0xFF, 0xFF, 0xFF, 0xFF, 0x0F]);
    top.push(0x00);
    let mut reader = BinaryEdgeReader::new(top.as_slice()).unwrap();
    let edge = reader.next_edge().unwrap().unwrap();
    assert_eq!(edge.src.raw(), VertexId::MAX_RAW);
    assert_eq!(edge.dst.raw(), 0);

    // u64::MAX encodes as nine 0xFF bytes plus 0x01: a valid varint, but
    // far past the 32-bit id range.
    let mut wide = MAGIC.to_vec();
    wide.extend_from_slice(&[0xFF; 9]);
    wide.push(0x01); // u64::MAX as src
    wide.push(0x00); // dst = 0
    let mut reader = BinaryEdgeReader::new(wide.as_slice()).unwrap();
    let err = reader.next_edge().unwrap().unwrap_err();
    assert!(
        matches!(err, GraphError::InvalidFormat { offset: 18, ref message } if message.contains("32-bit")),
        "got {err}"
    );

    // Flipping more bits into the tenth byte overflows the 64-bit value
    // range itself.
    let mut overflowing = MAGIC.to_vec();
    overflowing.extend_from_slice(&[0xFF; 9]);
    overflowing.push(0x03); // one bit beyond the 64th
    overflowing.push(0x00);
    let mut reader = BinaryEdgeReader::new(overflowing.as_slice()).unwrap();
    let err = reader.next_edge().unwrap().unwrap_err();
    assert!(
        matches!(err, GraphError::InvalidFormat { ref message, .. } if message.contains("overflow")),
        "got {err}"
    );
}

#[test]
fn error_offsets_point_into_the_stream() {
    // First edge decodes, the second is truncated: the reported offset
    // lands past the healthy edge.
    let mut bytes = encode(&[(300, 400)]);
    let healthy = bytes.len() as u64;
    bytes.push(0x80);
    let mut reader = BinaryEdgeReader::new(bytes.as_slice()).unwrap();
    assert_eq!(
        reader.next_edge().unwrap().unwrap(),
        Edge::from((300u64, 400u64))
    );
    match reader.next_edge().unwrap().unwrap_err() {
        GraphError::InvalidFormat { offset, .. } => assert!(offset >= healthy),
        other => panic!("unexpected error class: {other}"),
    }
}
