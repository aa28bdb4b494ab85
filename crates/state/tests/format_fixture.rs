//! Format compatibility across the narrowing of `VertexId` to 32 bits.
//!
//! `fixtures/u64_ids/` is the state directory [`scenario`] left behind at
//! checkpoint cadence 4, written by the last version of this crate whose
//! vertex ids were `u64`s: a `MANIFEST`, `checkpoint-4.ckpt` and the WAL
//! segments `wal-1.log` (epochs 1–4, covered by the checkpoint) and
//! `wal-5.log` (epochs 5 and 6). The bytes are the point of the test, so
//! they are never regenerated. They must
//!
//! 1. open and resume to the state a fresh, non-durable run reaches;
//! 2. re-encode byte-identical (checkpoint and every WAL frame);
//! 3. equal, file for file, what today's writer leaves for the same
//!    scenario, so checkpoint and WAL sizes are unchanged too.

use std::convert::Infallible;
use std::fs;
use std::path::{Path, PathBuf};

use ebv_bsp::{DistributedGraph, DurabilityHook, MutationBatch};
use ebv_graph::Edge;
use ebv_partition::{DynamicPartitioner, EbvPartitioner, RebalanceConfig, StreamConfig};
use ebv_state::wal::{encode_frame, read_segment, WAL_MAGIC};
use ebv_state::{Checkpoint, DurableState, SeriesValues};

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/u64_ids");
const CADENCE: usize = 4;
const EPOCHS: u64 = 6;
const WORKERS: usize = 3;
/// Ids reach past 127, so the files hold one- and two-byte varints.
const UNIVERSE: u64 = 300;

fn fresh_partitioner() -> DynamicPartitioner {
    EbvPartitioner::new()
        .dynamic(StreamConfig::new(WORKERS).with_expected_vertices(UNIVERSE as usize))
        .unwrap()
}

fn empty_world() -> DistributedGraph {
    DistributedGraph::builder(WORKERS)
        .unwrap()
        .with_num_vertices(UNIVERSE as usize)
        .finish()
        .unwrap()
}

/// Six epochs of inserts and deletes with a rebalance in epoch 3, logged
/// to `store` before each batch is applied and made durable after it,
/// with two warm series staged along the way. Returns the live world and
/// the events consumed.
fn scenario(store: Option<&DurableState>) -> (DistributedGraph, DynamicPartitioner, u64) {
    let mut partitioner = fresh_partitioner();
    let mut distributed = empty_world();
    let mut events = 0u64;
    let mut lcg = 0x2545_f491_4f6c_dd1du64;
    let mut next = move |bound: u64| {
        lcg = lcg
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (lcg >> 33) % bound
    };
    for epoch in 1..=EPOCHS {
        let mut batch = MutationBatch::new();
        for _ in 0..40 {
            let (src, dst) = (next(UNIVERSE), next(UNIVERSE));
            if src != dst {
                let edge = Edge::from((src, dst));
                batch.record_insert(edge, partitioner.insert(edge));
                events += 1;
            }
        }
        for _ in 0..8 {
            let live = partitioner.live_edges() as u64;
            let (edge, _) = partitioner.surviving().nth(next(live) as usize).unwrap();
            batch.record_delete(edge, partitioner.delete(edge).unwrap());
            events += 1;
        }
        if epoch == 3 {
            let config = RebalanceConfig::new()
                .with_max_edge_imbalance(1.0)
                .with_target_edge_imbalance(1.0);
            let plan = partitioner.rebalance(&config).unwrap();
            assert!(!plan.is_empty(), "the rebalance moves copies");
            for m in plan.moves() {
                batch.record_move(m.edge, m.from, m.to);
            }
        }
        if let Some(store) = store {
            store.log_batch(epoch, events, &batch).unwrap();
        }
        distributed.apply_mutations(&batch).unwrap();
        if let Some(store) = store {
            let values = (0..UNIVERSE).map(|v| v * epoch).collect();
            store.stage_series("cc", SeriesValues::U64(values));
            let values = (0..UNIVERSE).map(|v| v as f64 / epoch as f64).collect();
            store.stage_series("sssp", SeriesValues::F64(values));
            store
                .epoch_durable(&distributed, &partitioner, events)
                .unwrap();
        }
    }
    (distributed, partitioner, events)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ebv-fixture-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// The directory's files, by name, in name order.
fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<_> = fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, fs::read(&path).unwrap())
        })
        .collect();
    files.sort();
    files
}

#[test]
fn the_fixture_opens_and_resumes_to_a_fresh_run() {
    let dir = temp_dir("resume");
    for (name, bytes) in files(Path::new(FIXTURE)) {
        fs::write(dir.join(name), bytes).unwrap();
    }
    let (_store, recovered) = DurableState::open(&dir, CADENCE).unwrap();
    assert_eq!(recovered.checkpoint.as_ref().map(|c| c.epoch), Some(4));
    let replayed: Vec<u64> = recovered.frames.iter().map(|f| f.epoch).collect();
    assert_eq!(replayed, [5, 6]);

    let (distributed, partitioner, events) = scenario(None);
    assert_eq!(recovered.events_seen(), events);
    let mut resumed_partitioner = fresh_partitioner();
    let resumed = recovered
        .resume(
            empty_world(),
            &mut resumed_partitioner,
            None,
            |_, _, _, _| Ok::<_, Infallible>(()),
        )
        .unwrap();
    assert!(resumed.same_structure(&distributed));
    assert_eq!(resumed.epoch(), distributed.epoch());
    assert!(resumed_partitioner.surviving().eq(partitioner.surviving()));
    assert_eq!(
        resumed_partitioner.snapshot().unwrap(),
        partitioner.snapshot().unwrap()
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn the_fixture_reencodes_byte_identical() {
    let fixture = Path::new(FIXTURE);
    let bytes = fs::read(fixture.join("checkpoint-4.ckpt")).unwrap();
    let checkpoint = Checkpoint::load(&fixture.join("checkpoint-4.ckpt")).unwrap();
    assert_eq!(checkpoint.encode(), bytes);

    let segment = fs::read(fixture.join("wal-5.log")).unwrap();
    let mut encoded = WAL_MAGIC.to_vec();
    for frame in read_segment(&fixture.join("wal-5.log")).unwrap() {
        encoded.extend(encode_frame(frame.epoch, frame.events_seen, &frame.batch));
    }
    assert_eq!(encoded, segment);
}

#[test]
fn todays_writer_leaves_the_fixture_bytes() {
    let dir = temp_dir("write");
    {
        let (store, recovered) = DurableState::open(&dir, CADENCE).unwrap();
        assert!(recovered.is_empty());
        scenario(Some(&store));
    }
    let (written, fixture) = (files(&dir), files(Path::new(FIXTURE)));
    let names = |files: &[(String, Vec<u8>)]| -> Vec<String> {
        files.iter().map(|(name, _)| name.clone()).collect()
    };
    assert_eq!(names(&written), names(&fixture));
    for ((name, ours), (_, theirs)) in written.iter().zip(&fixture) {
        assert_eq!(ours.len(), theirs.len(), "{name}: size");
        assert!(ours == theirs, "{name}: bytes differ");
    }
    fs::remove_dir_all(&dir).unwrap();
}
