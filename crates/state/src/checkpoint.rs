//! Full-state epoch checkpoints.
//!
//! A checkpoint captures everything a restart needs to continue the
//! lineage at epoch `E` without replaying history from zero:
//!
//! * the **partitioner** — the surviving `(edge, partition)` pairs in
//!   insertion order plus the observed vertex universe, from which
//!   [`DynamicPartitioner::restore`] reproduces placement-identical
//!   state;
//! * the **distribution**, which is *derived*, not stored: every layer
//!   follows the one copy rule of [`ebv_partition::CopyLog`] (inserts and
//!   the receiving half of a move append, deletes and the donor half of a
//!   move take the newest copy on their partition), so each worker's edge
//!   list is the surviving stream filtered to that worker, in order. The
//!   file keeps only the worker count and vertex universe, and
//!   [`Checkpoint::rebuild_graph`] streams the survivors back through
//!   [`DistributedGraphBuilder`] — replica sets, master election, isolated
//!   placement and the routing table are all deterministic functions of
//!   the per-worker lists;
//! * the **warm series** — named algorithm value vectors (components,
//!   distances, …) so warm-started programs re-seed instead of re-running
//!   cold;
//! * the stream position (`events_seen`) so a deterministic event source
//!   can be fast-forwarded past everything the checkpoint already covers.
//!
//! The file is a magic, a varint-encoded body and a trailing CRC-32,
//! written to a temporary name and atomically renamed into place — a
//! checkpoint either exists completely or not at all.

use std::fs;
use std::path::Path;

use ebv_bsp::{DistributedGraph, DistributedGraphBuilder};
use ebv_graph::{Edge, VertexId};
use ebv_partition::{DynamicPartitioner, PartitionId};

use crate::crc::crc32;
use crate::error::{Result, StateError};
use crate::wal::{decode_pairs, push_pairs, push_varint, Cursor};

/// Magic bytes opening every checkpoint file (version 2: the edges once).
pub(crate) const CHECKPOINT_MAGIC: [u8; 8] = *b"EBVCKPT\x02";

/// A named warm-algorithm value series carried by a checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub enum SeriesValues {
    /// Unsigned values (components, hop counts, …).
    U64(Vec<u64>),
    /// Floating values (distances, ranks); stored as raw bits, so the
    /// round trip is bit-exact including NaN payloads and infinities.
    F64(Vec<f64>),
}

impl SeriesValues {
    /// Number of values in the series.
    pub fn len(&self) -> usize {
        match self {
            SeriesValues::U64(v) => v.len(),
            SeriesValues::F64(v) => v.len(),
        }
    }

    /// Whether the series holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A decoded checkpoint; see the [module documentation](self).
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The epoch this checkpoint captures.
    pub epoch: u64,
    /// Raw stream events consumed through this epoch.
    pub events_seen: u64,
    /// Vertex universe of the distribution (`DistributedGraph::num_vertices`).
    pub num_vertices: usize,
    /// Worker count of the distribution.
    pub workers: usize,
    /// The partitioner's observed universe (`DynamicPartitioner::num_vertices`).
    pub universe: usize,
    /// The partitioner's surviving pairs in insertion order.
    pub surviving: Vec<(Edge, PartitionId)>,
    /// Named warm series, sorted by name.
    pub series: Vec<(String, SeriesValues)>,
}

impl Checkpoint {
    /// Captures the durable snapshot of a live distribution and the
    /// partitioner it was built from. Debug builds assert that every
    /// worker holds exactly the partitioner's survivors on it, in order —
    /// what [`rebuild_graph`](Self::rebuild_graph) relies on.
    pub fn capture(
        distributed: &DistributedGraph,
        partitioner: &DynamicPartitioner,
        events_seen: u64,
        series: Vec<(String, SeriesValues)>,
    ) -> Self {
        let surviving: Vec<(Edge, PartitionId)> = partitioner.surviving().collect();
        debug_assert!(
            distributed
                .subgraphs()
                .iter()
                .all(|sg| sg.edges().iter().eq(surviving
                    .iter()
                    .filter(|&&(_, part)| part == sg.part())
                    .map(|(edge, _)| edge))),
            "every worker's edge list is the survivors filtered to it"
        );
        Checkpoint {
            epoch: distributed.epoch() as u64,
            events_seen,
            num_vertices: distributed.num_vertices(),
            workers: distributed.num_workers(),
            universe: partitioner.num_vertices(),
            surviving,
            series,
        }
    }

    /// Rebuilds the distribution this checkpoint captured, epoch stamp
    /// included. The result satisfies
    /// [`DistributedGraph::same_structure`] against the original.
    ///
    /// # Errors
    ///
    /// [`StateError::InvalidState`] when the survivors name a worker the
    /// distribution does not have (they came from a live graph, so this
    /// indicates file tampering that still passed CRC).
    pub fn rebuild_graph(&self) -> Result<DistributedGraph> {
        let invalid = |err: ebv_bsp::BspError| StateError::InvalidState {
            message: format!("checkpoint does not describe a buildable distribution: {err}"),
        };
        let mut builder = DistributedGraphBuilder::new(self.workers)
            .map_err(invalid)?
            .with_num_vertices(self.num_vertices)
            .with_epoch(
                usize::try_from(self.epoch).map_err(|_| StateError::InvalidState {
                    message: format!("checkpoint epoch {} exceeds usize", self.epoch),
                })?,
            );
        for &(edge, part) in &self.surviving {
            builder.add_edge(edge, part).map_err(invalid)?;
        }
        builder.finish().map_err(invalid)
    }

    /// Encodes the checkpoint: magic ‖ body ‖ crc32(body), written into
    /// one buffer sized from the element counts.
    pub fn encode(&self) -> Vec<u8> {
        // A pair is three varints — ids below 2^21 and a partition index
        // make it at most 7 bytes — and most series values are small; the
        // estimate only has to make regrowth rare, not impossible.
        let values: usize = self.series.iter().map(|(_, values)| values.len()).sum();
        let names: usize = self.series.iter().map(|(name, _)| name.len() + 12).sum();
        let mut out = Vec::with_capacity(
            CHECKPOINT_MAGIC.len() + 64 + 8 * self.surviving.len() + 4 * values + names,
        );
        out.extend_from_slice(&CHECKPOINT_MAGIC);
        self.encode_body(&mut out);
        let crc = crc32(&out[CHECKPOINT_MAGIC.len()..]);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Appends the varint-encoded body — what the CRC covers.
    fn encode_body(&self, out: &mut Vec<u8>) {
        push_varint(out, self.epoch);
        push_varint(out, self.events_seen);
        push_varint(out, self.num_vertices as u64);
        push_varint(out, self.workers as u64);
        push_varint(out, self.universe as u64);
        push_pairs(out, &self.surviving);
        push_varint(out, self.series.len() as u64);
        for (name, values) in &self.series {
            push_varint(out, name.len() as u64);
            out.extend_from_slice(name.as_bytes());
            match values {
                SeriesValues::U64(values) => {
                    out.push(0);
                    push_varint(out, values.len() as u64);
                    for &v in values {
                        push_varint(out, v);
                    }
                }
                SeriesValues::F64(values) => {
                    out.push(1);
                    push_varint(out, values.len() as u64);
                    for &v in values {
                        push_varint(out, v.to_bits());
                    }
                }
            }
        }
    }

    /// Loads and verifies a checkpoint file.
    ///
    /// Unlike WAL segments there is no torn-tail tolerance: checkpoints
    /// are atomically renamed into place, so *any* damage — truncation,
    /// wrong magic, CRC mismatch, undecodable body — is an error. The
    /// recovery layer treats a failing load as "try the previous
    /// checkpoint in the lineage".
    ///
    /// # Errors
    ///
    /// [`StateError::UnsupportedVersion`] for a checkpoint of another
    /// format version, [`StateError::Corrupt`] for every other validation
    /// failure and [`StateError::Io`] for filesystem failures.
    pub fn load(path: &Path) -> Result<Self> {
        let corrupt = |offset: u64, message: String| StateError::Corrupt {
            file: path.to_path_buf(),
            offset,
            message,
        };
        let bytes = fs::read(path)?;
        if bytes.len() < CHECKPOINT_MAGIC.len() + 4 {
            return Err(corrupt(0, format!("{} bytes is too short", bytes.len())));
        }
        let (magic, version) = bytes.split_at(CHECKPOINT_MAGIC.len() - 1);
        if magic != &CHECKPOINT_MAGIC[..magic.len()] {
            return Err(corrupt(0, "bad checkpoint magic".to_string()));
        }
        if version[0] != CHECKPOINT_MAGIC[magic.len()] {
            return Err(StateError::UnsupportedVersion {
                file: path.to_path_buf(),
                found: version[0],
            });
        }
        let body = &bytes[CHECKPOINT_MAGIC.len()..bytes.len() - 4];
        let stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
        if crc32(body) != stored {
            return Err(corrupt(
                CHECKPOINT_MAGIC.len() as u64,
                format!(
                    "CRC mismatch: stored {stored:#010x}, computed {:#010x}",
                    crc32(body)
                ),
            ));
        }
        Self::decode_body(body).ok_or_else(|| {
            corrupt(
                CHECKPOINT_MAGIC.len() as u64,
                "CRC-valid checkpoint body does not decode".to_string(),
            )
        })
    }

    fn decode_body(body: &[u8]) -> Option<Self> {
        let mut cursor = Cursor::new(body);
        let epoch = cursor.varint()?;
        let events_seen = cursor.varint()?;
        let num_vertices = usize::try_from(cursor.varint()?).ok()?;
        let workers = usize::try_from(cursor.varint()?).ok()?;
        let universe = usize::try_from(cursor.varint()?).ok()?;
        // Vertex spaces past the 32-bit id range are corruption, as are the
        // ids `decode_pairs` rejects.
        let id_space = VertexId::MAX_RAW as usize + 1;
        if num_vertices > id_space || universe > id_space {
            return None;
        }
        let surviving = decode_pairs(&mut cursor)?;
        let n_series = usize::try_from(cursor.varint()?).ok()?;
        let mut series = Vec::with_capacity(n_series.min(1 << 10));
        for _ in 0..n_series {
            let name_len = usize::try_from(cursor.varint()?).ok()?;
            let name = String::from_utf8(cursor.take(name_len)?.to_vec()).ok()?;
            let kind = *cursor.take(1)?.first()?;
            let len = usize::try_from(cursor.varint()?).ok()?;
            let values = match kind {
                0 => {
                    let mut values = Vec::with_capacity(len.min(1 << 24));
                    for _ in 0..len {
                        values.push(cursor.varint()?);
                    }
                    SeriesValues::U64(values)
                }
                1 => {
                    let mut values = Vec::with_capacity(len.min(1 << 24));
                    for _ in 0..len {
                        values.push(f64::from_bits(cursor.varint()?));
                    }
                    SeriesValues::F64(values)
                }
                _ => return None,
            };
            series.push((name, values));
        }
        if !cursor.is_empty() {
            return None;
        }
        Some(Checkpoint {
            epoch,
            events_seen,
            num_vertices,
            workers,
            universe,
            surviving,
            series,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RecoveredState;
    use ebv_partition::{EbvPartitioner, StreamConfig};

    fn sample_state() -> (DistributedGraph, DynamicPartitioner) {
        let mut partitioner = EbvPartitioner::new()
            .dynamic(StreamConfig::new(3).with_expected_vertices(32))
            .unwrap();
        let mut builder = DistributedGraph::builder(3).unwrap().with_num_vertices(32);
        for (s, d) in [(0u64, 1u64), (1, 2), (2, 3), (3, 4), (4, 0), (5, 6), (6, 7)] {
            let part = partitioner.insert(Edge::from((s, d)));
            builder.add_edge(Edge::from((s, d)), part).unwrap();
        }
        partitioner.delete(Edge::from((2u64, 3u64))).unwrap();
        let mut distributed = builder.finish().unwrap();
        // Keep the graph consistent with the partitioner: delete the same
        // edge from whichever worker holds it.
        let holder = distributed
            .subgraphs()
            .iter()
            .find(|sg| sg.edges().contains(&Edge::from((2u64, 3u64))))
            .map(|sg| sg.part());
        if let Some(part) = holder {
            let mut batch = ebv_bsp::MutationBatch::new();
            batch.record_delete(Edge::from((2u64, 3u64)), part);
            distributed.apply_mutations(&batch).unwrap();
        }
        (distributed, partitioner)
    }

    #[test]
    fn encode_load_round_trip_is_exact() {
        let (distributed, partitioner) = sample_state();
        let series = vec![
            ("cc".to_string(), SeriesValues::U64(vec![0, 0, 2, 2, 0])),
            (
                "sssp".to_string(),
                SeriesValues::F64(vec![0.0, 1.5, f64::INFINITY, -0.0]),
            ),
        ];
        let checkpoint = Checkpoint::capture(&distributed, &partitioner, 99, series);
        let dir = std::env::temp_dir().join(format!("ebv-ckpt-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("checkpoint-1.ckpt");
        fs::write(&path, checkpoint.encode()).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded, checkpoint);
        // The single-buffer encode is the file format's definition byte
        // for byte: magic, then a separately built body, then its CRC.
        let mut body = Vec::new();
        checkpoint.encode_body(&mut body);
        let framed = [&CHECKPOINT_MAGIC[..], &body, &crc32(&body).to_le_bytes()].concat();
        assert_eq!(checkpoint.encode(), framed);
        match &loaded.series[1].1 {
            SeriesValues::F64(values) => {
                assert!(values[2].is_infinite());
                assert!(values[3].is_sign_negative(), "-0.0 round-trips bit-exactly");
            }
            other => panic!("wrong kind: {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rebuild_reproduces_the_distribution_and_partitioner() {
        let (distributed, partitioner) = sample_state();
        let checkpoint = Checkpoint::capture(&distributed, &partitioner, 7, Vec::new());
        let rebuilt = checkpoint.rebuild_graph().unwrap();
        assert!(rebuilt.same_structure(&distributed));
        assert_eq!(rebuilt.epoch(), distributed.epoch());

        let mut fresh = EbvPartitioner::new()
            .dynamic(StreamConfig::new(3).with_expected_vertices(32))
            .unwrap();
        // `resume` restores the partitioner and rebuilds in place of `empty`.
        let empty = DistributedGraph::builder(3).unwrap().finish().unwrap();
        let recovered = RecoveredState {
            checkpoint: Some(checkpoint),
            frames: Vec::new(),
        };
        let resumed = recovered
            .resume(empty, &mut fresh, None, |_, _, _, _| {
                Ok::<_, std::convert::Infallible>(())
            })
            .unwrap();
        assert!(resumed.same_structure(&distributed));
        assert_eq!(fresh.snapshot().unwrap(), partitioner.snapshot().unwrap());
    }

    #[test]
    fn a_checkpoint_after_a_rebalance_resumes_the_live_state() {
        use ebv_bsp::MutationBatch;
        use ebv_partition::RebalanceConfig;

        let p = 3;
        let mut partitioner = EbvPartitioner::new()
            .dynamic(StreamConfig::new(p).with_expected_vertices(24))
            .unwrap();
        let mut distributed = DistributedGraph::build_streaming(p, None, Vec::new()).unwrap();
        let mut batch = MutationBatch::new();
        for i in 0..72u64 {
            let edge = Edge::from((i % 24, (i * 7 + 5) % 24));
            batch.record_insert(edge, partitioner.insert(edge));
        }
        distributed.apply_mutations(&batch).unwrap();

        // Skew the load onto partition 0: drop most copies held elsewhere.
        let victims: Vec<Edge> = (partitioner.surviving())
            .filter(|(_, part)| part.index() != 0)
            .map(|(edge, _)| edge)
            .collect();
        let mut batch = MutationBatch::new();
        for &edge in &victims[..victims.len() * 9 / 10] {
            batch.record_delete(edge, partitioner.delete(edge).unwrap());
        }
        distributed.apply_mutations(&batch).unwrap();

        // Rebalance, and replay the migrations downstream.
        let config = RebalanceConfig::new()
            .with_max_edge_imbalance(1.25)
            .with_target_edge_imbalance(1.05);
        assert!(
            partitioner.metrics().edge_imbalance > 1.25,
            "the skew holds"
        );
        let plan = partitioner.rebalance(&config).unwrap();
        assert!(!plan.is_empty(), "the skew migrates something");
        let mut batch = MutationBatch::new();
        for m in plan.moves() {
            batch.record_move(m.edge, m.from, m.to);
        }
        distributed.apply_mutations(&batch).unwrap();

        let checkpoint = Checkpoint::capture(&distributed, &partitioner, 0, Vec::new());
        assert!(checkpoint
            .rebuild_graph()
            .unwrap()
            .same_structure(&distributed));

        let mut resumed_partitioner = EbvPartitioner::new()
            .dynamic(StreamConfig::new(p).with_expected_vertices(24))
            .unwrap();
        let empty = DistributedGraph::builder(p).unwrap().finish().unwrap();
        let recovered = RecoveredState {
            checkpoint: Some(checkpoint),
            frames: Vec::new(),
        };
        let resumed = recovered
            .resume(empty, &mut resumed_partitioner, None, |_, _, _, _| {
                Ok::<_, std::convert::Infallible>(())
            })
            .unwrap();
        assert!(resumed.same_structure(&distributed));
        assert!(resumed_partitioner.surviving().eq(partitioner.surviving()));
    }

    #[test]
    fn any_damage_is_rejected() {
        let (distributed, partitioner) = sample_state();
        let checkpoint = Checkpoint::capture(&distributed, &partitioner, 7, Vec::new());
        let dir = std::env::temp_dir().join(format!("ebv-ckpt-bad-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("checkpoint-1.ckpt");
        let bytes = checkpoint.encode();

        // Truncation at any byte is rejected (no torn tolerance here).
        fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
        assert!(matches!(
            Checkpoint::load(&path).unwrap_err(),
            StateError::Corrupt { .. }
        ));
        // A flipped bit in the body fails the CRC.
        let mut flipped = bytes.clone();
        flipped[CHECKPOINT_MAGIC.len() + 2] ^= 0x10;
        fs::write(&path, &flipped).unwrap();
        assert!(matches!(
            Checkpoint::load(&path).unwrap_err(),
            StateError::Corrupt { .. }
        ));
        // Zero-length file.
        fs::write(&path, b"").unwrap();
        assert!(matches!(
            Checkpoint::load(&path).unwrap_err(),
            StateError::Corrupt { .. }
        ));
        // A foreign magic is corruption, not a version.
        let mut foreign = bytes.clone();
        foreign[0] = b'X';
        fs::write(&path, &foreign).unwrap();
        assert!(matches!(
            Checkpoint::load(&path).unwrap_err(),
            StateError::Corrupt { .. }
        ));
        // So is a CRC-valid body whose vertex space outruns 32-bit ids.
        for wide in [(1 << 32) + 1, 1 << 40] {
            let mut spaced = checkpoint.clone();
            spaced.num_vertices = wide;
            fs::write(&path, spaced.encode()).unwrap();
            assert!(matches!(
                Checkpoint::load(&path).unwrap_err(),
                StateError::Corrupt { .. }
            ));
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_version_one_checkpoint_is_unsupported() {
        // A v1 body stored every worker's edge list before the survivors;
        // the version byte alone decides, before the body is read.
        let mut v1 = b"EBVCKPT\x01".to_vec();
        let body = [7u8, 0, 4, 1, 0, 4, 0, 0];
        v1.extend_from_slice(&body);
        v1.extend_from_slice(&crc32(&body).to_le_bytes());
        let dir = std::env::temp_dir().join(format!("ebv-ckpt-v1-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("checkpoint-7.ckpt");
        fs::write(&path, &v1).unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        assert!(
            matches!(&err, StateError::UnsupportedVersion { file, found: 1 } if *file == path),
            "{err}"
        );
        assert!(err.to_string().contains("version 1"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
