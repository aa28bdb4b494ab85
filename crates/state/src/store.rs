//! The durable store: recovery, checkpoint cadence and the live hook.
//!
//! [`DurableState::open`] is the single entry point. It scans a state
//! directory, loads the newest checkpoint that still verifies (falling
//! back along the manifest lineage), reads the WAL suffix past it, and
//! returns both the live store and a [`RecoveredState`] describing exactly
//! what survived. [`RecoveredState::resume`] turns that back into the
//! live world — rebuild, restore, replay each frame through the caller's
//! epoch body, commit — and the caller fast-forwards its event source by
//! [`RecoveredState::events_seen`] and continues: the lineage never forks.
//!
//! Live operation goes through the [`DurabilityHook`] seam:
//! [`DurabilityHook::log_batch`] appends a WAL frame **before** the batch
//! is applied, and [`DurabilityHook::epoch_durable`] runs after the epoch
//! committed, writing a full checkpoint every `checkpoint_every` epochs
//! (tmp + atomic rename, manifest updated, old segments retired).
//!
//! Durability model: every append and checkpoint is flushed, so state
//! survives a killed **process** at any instant (the crash-at-any-point
//! property test drives exactly this via [`Failpoint`]). Writes are not
//! `fsync`ed, so a kernel panic or power failure may lose the tail — the
//! WAL's valid-prefix reader degrades that to "resume from the last
//! durable epoch", never to corruption.

use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ebv_bsp::{DistributedGraph, DurabilityHook, MutationBatch};
use ebv_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use ebv_partition::DynamicPartitioner;

use crate::checkpoint::{Checkpoint, SeriesValues};
use crate::error::{Result, StateError};
use crate::failpoint::Failpoint;
use crate::recover::RecoveredState;
use crate::wal::{self, WalFrame, WalWriter};

/// The manifest file name inside a state directory.
pub(crate) const MANIFEST_FILE: &str = "MANIFEST";
/// First line of a valid manifest.
const MANIFEST_HEADER: &str = "ebv-manifest v1";
/// How many checkpoints (newest first) the manifest retains.
const RETAINED_CHECKPOINTS: usize = 2;

/// State behind the store's mutex; see [`DurableState`].
#[derive(Debug)]
struct Inner {
    wal: WalWriter,
    /// Epoch of the newest on-disk checkpoint.
    last_checkpoint_epoch: Option<u64>,
    /// Warm series staged for the next checkpoint, keyed (and therefore
    /// serialized) by name.
    series: BTreeMap<String, SeriesValues>,
    /// Full known lineage, oldest first: `(epoch, file_name)`.
    lineage: Vec<(u64, String)>,
}

/// The live durable state plane; see the [module documentation](self).
#[derive(Debug)]
pub struct DurableState {
    dir: PathBuf,
    checkpoint_every: u64,
    failpoint: Failpoint,
    inner: Mutex<Inner>,
    wal_bytes: Arc<Counter>,
    checkpoint_seconds: Arc<Histogram>,
    checkpoint_epoch: Arc<Gauge>,
}

impl DurableState {
    /// Opens (creating if needed) the state directory and recovers
    /// whatever it holds. `checkpoint_every` is the epoch cadence of
    /// automatic checkpoints taken by [`DurabilityHook::epoch_durable`].
    ///
    /// # Errors
    ///
    /// [`StateError::InvalidState`] for a zero cadence, and every recovery
    /// failure described on [`Checkpoint::load`] and
    /// [`wal::read_segment`].
    pub fn open(dir: &Path, checkpoint_every: usize) -> Result<(Self, RecoveredState)> {
        Self::open_with_failpoint(dir, checkpoint_every, Failpoint::disarmed())
    }

    /// [`Self::open`] with an explicit fault-injection budget; the test
    /// harness uses this to crash the writer after any byte.
    ///
    /// # Errors
    ///
    /// As for [`Self::open`].
    pub fn open_with_failpoint(
        dir: &Path,
        checkpoint_every: usize,
        failpoint: Failpoint,
    ) -> Result<(Self, RecoveredState)> {
        if checkpoint_every == 0 {
            return Err(StateError::InvalidState {
                message: "checkpoint cadence must be at least 1 epoch".to_string(),
            });
        }
        fs::create_dir_all(dir)?;
        remove_stray_tmp_files(dir)?;

        let lineage = match read_manifest(dir)? {
            Some(lineage) => lineage,
            None => scan_for_checkpoints(dir)?,
        };
        let checkpoint = load_newest_valid(dir, &lineage)?;
        let anchor = checkpoint.as_ref().map(|c| c.epoch).unwrap_or(0);
        let frames = read_wal_suffix(dir, anchor)?;

        let registry = MetricsRegistry::global();
        registry
            .gauge("ebv_recovery_replayed_epochs")
            .set(frames.len() as f64);
        let checkpoint_epoch = registry.gauge("ebv_checkpoint_epoch");
        checkpoint_epoch.set(anchor as f64);

        let series = checkpoint
            .as_ref()
            .map(|c| c.series.iter().cloned().collect())
            .unwrap_or_default();
        let store = DurableState {
            dir: dir.to_path_buf(),
            checkpoint_every: checkpoint_every as u64,
            failpoint: failpoint.clone(),
            inner: Mutex::new(Inner {
                wal: WalWriter::new(dir.to_path_buf(), failpoint),
                last_checkpoint_epoch: checkpoint.as_ref().map(|c| c.epoch),
                series,
                lineage,
            }),
            wal_bytes: registry.counter("ebv_wal_bytes_total"),
            checkpoint_seconds: registry.histogram("ebv_checkpoint_seconds"),
            checkpoint_epoch,
        };
        Ok((store, RecoveredState { checkpoint, frames }))
    }

    /// Stages (or replaces) a named warm series for the next checkpoint.
    /// Staged series ride every checkpoint until restaged; recovery hands
    /// them back through [`RecoveredState::series_u64`].
    pub fn stage_series(&self, name: &str, values: SeriesValues) {
        let mut inner = self.inner.lock().expect("state lock");
        inner.series.insert(name.to_string(), values);
    }

    /// Writes a checkpoint of the given state **now**, regardless of
    /// cadence. Returns `false` (and does nothing) when the newest
    /// checkpoint already covers this epoch.
    ///
    /// The write is atomic: body to `*.tmp`, flush, rename, then the
    /// manifest the same way. A crash anywhere in between leaves the
    /// previous checkpoint authoritative and the WAL still covering the
    /// difference.
    ///
    /// # Errors
    ///
    /// [`StateError::InvalidState`] when `distributed` is *older* than the
    /// newest checkpoint (the caller is replaying history into a live
    /// store), plus I/O and injected-crash failures.
    pub fn checkpoint_now(
        &self,
        distributed: &DistributedGraph,
        partitioner: &DynamicPartitioner,
        events_seen: u64,
    ) -> Result<bool> {
        let started = Instant::now();
        let mut inner = self.inner.lock().expect("state lock");
        let epoch = distributed.epoch() as u64;
        if let Some(last) = inner.last_checkpoint_epoch {
            if epoch == last {
                return Ok(false);
            }
            if epoch < last {
                return Err(StateError::InvalidState {
                    message: format!(
                        "refusing checkpoint at epoch {epoch}: newest on disk is {last}"
                    ),
                });
            }
        }

        let series = inner
            .series
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        let checkpoint = Checkpoint::capture(distributed, partitioner, events_seen, series);
        let file_name = format!("checkpoint-{epoch}.ckpt");
        let tmp = self.dir.join(format!("{file_name}.tmp"));
        let mut file = File::create(&tmp)?;
        self.failpoint.write_all(&mut file, &checkpoint.encode())?;
        drop(file);
        self.failpoint.rename(&tmp, &self.dir.join(&file_name))?;

        inner.lineage.push((epoch, file_name));
        let retained_from = inner.lineage.len().saturating_sub(RETAINED_CHECKPOINTS);
        write_manifest(&self.dir, &inner.lineage[retained_from..], &self.failpoint)?;

        // Retention, after the manifest no longer references the dropped
        // files. Failures here are ignored: stray files are skipped (or
        // re-deleted) by the next open, never misread.
        let dropped: Vec<String> = inner
            .lineage
            .drain(..retained_from)
            .map(|(_, name)| name)
            .collect();
        for name in dropped {
            let _ = fs::remove_file(self.dir.join(name));
        }
        let oldest_retained = inner.lineage.first().map(|&(e, _)| e).unwrap_or(epoch);
        retire_wal_segments(&self.dir, oldest_retained);
        inner.wal.rotate();
        inner.last_checkpoint_epoch = Some(epoch);

        self.checkpoint_seconds
            .observe(started.elapsed().as_secs_f64());
        self.checkpoint_epoch.set(epoch as f64);
        Ok(true)
    }
}

impl DurabilityHook for DurableState {
    fn log_batch(
        &self,
        epoch: u64,
        events_seen: u64,
        batch: &MutationBatch,
    ) -> std::io::Result<()> {
        let mut inner = self.inner.lock().expect("state lock");
        let bytes = inner.wal.append(epoch, events_seen, batch)?;
        self.wal_bytes.add(bytes);
        Ok(())
    }

    fn epoch_durable(
        &self,
        distributed: &DistributedGraph,
        partitioner: &DynamicPartitioner,
        events_seen: u64,
    ) -> std::io::Result<()> {
        let due = {
            let inner = self.inner.lock().expect("state lock");
            let last = inner.last_checkpoint_epoch.unwrap_or(0);
            distributed.epoch() as u64 >= last + self.checkpoint_every
        };
        if due {
            self.checkpoint_now(distributed, partitioner, events_seen)?;
        }
        Ok(())
    }
}

/// Deletes leftover `*.tmp` files from a crashed atomic write.
fn remove_stray_tmp_files(dir: &Path) -> Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().is_some_and(|ext| ext == "tmp") {
            fs::remove_file(&path)?;
        }
    }
    Ok(())
}

/// Parses the manifest: `Ok(None)` when absent (fresh directory, or a
/// pre-manifest crash — the caller falls back to a directory scan).
fn read_manifest(dir: &Path) -> Result<Option<Vec<(u64, String)>>> {
    let path = dir.join(MANIFEST_FILE);
    let text = match fs::read_to_string(&path) {
        Ok(text) => text,
        Err(err) if err.kind() == ErrorKind::NotFound => return Ok(None),
        Err(err) => return Err(err.into()),
    };
    let corrupt = |message: String| StateError::Corrupt {
        file: path.clone(),
        offset: 0,
        message,
    };
    let mut lines = text.lines();
    if lines.next() != Some(MANIFEST_HEADER) {
        return Err(corrupt(format!("missing header {MANIFEST_HEADER:?}")));
    }
    let mut entries: Vec<(u64, String)> = Vec::new();
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let parsed = (|| {
            if tokens.next() != Some("checkpoint") {
                return None;
            }
            let epoch = tokens.next()?.strip_prefix("epoch=")?.parse::<u64>().ok()?;
            let file = tokens.next()?.strip_prefix("file=")?.to_string();
            let parent = tokens.next()?.strip_prefix("parent=")?;
            if parent != "none" && parent.parse::<u64>().is_err() {
                return None;
            }
            Some((epoch, file))
        })();
        let Some((epoch, file)) = parsed else {
            return Err(corrupt(format!("unparseable line {line:?}")));
        };
        if let Some(&(last, _)) = entries.last() {
            if epoch <= last {
                return Err(corrupt(format!(
                    "lineage not ascending: epoch {epoch} after {last}"
                )));
            }
        }
        entries.push((epoch, file));
    }
    Ok(Some(entries))
}

/// Atomically rewrites the manifest with the retained lineage.
fn write_manifest(dir: &Path, entries: &[(u64, String)], failpoint: &Failpoint) -> Result<()> {
    let mut text = String::from(MANIFEST_HEADER);
    text.push('\n');
    let mut parent: Option<u64> = None;
    for &(epoch, ref file) in entries {
        let parent_text = parent.map_or_else(|| "none".to_string(), |p| p.to_string());
        text.push_str(&format!(
            "checkpoint epoch={epoch} file={file} parent={parent_text}\n"
        ));
        parent = Some(epoch);
    }
    let tmp = dir.join(format!("{MANIFEST_FILE}.tmp"));
    let mut file = File::create(&tmp)?;
    failpoint.write_all(&mut file, text.as_bytes())?;
    drop(file);
    failpoint.rename(&tmp, &dir.join(MANIFEST_FILE))
}

/// When no manifest exists, rebuilds a lineage from `checkpoint-*.ckpt`
/// files on disk (ascending epoch order).
fn scan_for_checkpoints(dir: &Path) -> Result<Vec<(u64, String)>> {
    let mut found = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if let Some(epoch) = name
            .strip_prefix("checkpoint-")
            .and_then(|rest| rest.strip_suffix(".ckpt"))
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            found.push((epoch, name.to_string()));
        }
    }
    found.sort();
    Ok(found)
}

/// Loads the newest lineage entry that verifies, walking backwards on
/// failure. A non-empty lineage in which *nothing* loads is a hard error —
/// that cannot be explained by any crash window.
fn load_newest_valid(dir: &Path, lineage: &[(u64, String)]) -> Result<Option<Checkpoint>> {
    let mut last_failure: Option<StateError> = None;
    for &(epoch, ref file) in lineage.iter().rev() {
        match Checkpoint::load(&dir.join(file)) {
            Ok(checkpoint) if checkpoint.epoch == epoch => return Ok(Some(checkpoint)),
            Ok(checkpoint) => {
                last_failure = Some(StateError::Corrupt {
                    file: dir.join(file),
                    offset: 0,
                    message: format!(
                        "manifest says epoch {epoch} but file holds {}",
                        checkpoint.epoch
                    ),
                });
            }
            Err(err) => last_failure = Some(err),
        }
    }
    match last_failure {
        None => Ok(None),
        Some(err) => Err(err),
    }
}

/// Reads every WAL segment and stitches the strictly consecutive suffix
/// past `anchor` (the recovered checkpoint's epoch, or 0).
fn read_wal_suffix(dir: &Path, anchor: u64) -> Result<Vec<WalFrame>> {
    let mut frames: Vec<WalFrame> = Vec::new();
    let mut expected = anchor + 1;
    for (_, path) in wal::list_segments(dir)? {
        for frame in wal::read_segment(&path)? {
            if frame.epoch < expected {
                continue; // already covered by the checkpoint or an earlier segment
            }
            if frame.epoch > expected {
                return Err(StateError::EpochRegression {
                    file: path,
                    expected,
                    found: frame.epoch,
                });
            }
            expected += 1;
            frames.push(frame);
        }
    }
    Ok(frames)
}

/// Deletes WAL segments made redundant by the retained checkpoints: a
/// segment is safe to drop once the *next* segment already starts at or
/// before `oldest_retained + 1`. The newest segment always survives.
fn retire_wal_segments(dir: &Path, oldest_retained: u64) {
    let Ok(segments) = wal::list_segments(dir) else {
        return;
    };
    for pair in segments.windows(2) {
        if pair[1].0 <= oldest_retained + 1 {
            let _ = fs::remove_file(&pair[0].1);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::convert::Infallible;

    use super::*;
    use crate::checkpoint::CHECKPOINT_MAGIC;
    use ebv_graph::Edge;
    use ebv_partition::{EbvPartitioner, PartitionId, StreamConfig};

    pub(crate) fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ebv-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    pub(crate) fn batch(added: &[(u64, u64, u32)], removed: &[(u64, u64, u32)]) -> MutationBatch {
        let pairs = |list: &[(u64, u64, u32)]| {
            list.iter()
                .map(|&(s, d, p)| (Edge::from((s, d)), PartitionId::new(p)))
                .collect()
        };
        MutationBatch::from_parts(pairs(added), pairs(removed))
    }

    /// The partitioner every world below is configured with.
    pub(crate) fn fresh_partitioner() -> DynamicPartitioner {
        EbvPartitioner::new()
            .dynamic(StreamConfig::new(3).with_expected_vertices(64))
            .unwrap()
    }

    /// The edgeless distribution every world below starts from.
    pub(crate) fn empty_world() -> DistributedGraph {
        DistributedGraph::builder(3)
            .unwrap()
            .with_num_vertices(64)
            .finish()
            .unwrap()
    }

    /// `recovered` resumed into a fresh world by an epoch body that does
    /// nothing, committing nowhere.
    pub(crate) fn resumed(recovered: &RecoveredState) -> (DistributedGraph, DynamicPartitioner) {
        let mut partitioner = fresh_partitioner();
        let distributed = recovered
            .resume(empty_world(), &mut partitioner, None, |_, _, _, _| {
                Ok::<_, Infallible>(())
            })
            .unwrap();
        (distributed, partitioner)
    }

    /// A small live world: partitioner + distribution kept in lockstep
    /// through `epochs` single-edge epochs.
    pub(crate) fn churned_world(epochs: usize) -> (DistributedGraph, DynamicPartitioner, u64) {
        let mut partitioner = fresh_partitioner();
        let mut distributed = empty_world();
        let mut events = 0u64;
        for i in 0..epochs as u64 {
            let edge = Edge::from((i % 13, (i * 7 + 1) % 13));
            let part = partitioner.insert(edge);
            let mut batch = MutationBatch::new();
            batch.record_insert(edge, part);
            distributed.apply_mutations(&batch).unwrap();
            events += 1;
        }
        (distributed, partitioner, events)
    }

    #[test]
    fn empty_directory_recovers_to_nothing() {
        let dir = temp_dir("empty");
        let (_store, recovered) = DurableState::open(&dir, 4).unwrap();
        assert!(recovered.is_empty());
        assert!(recovered.frames.is_empty());
        assert_eq!(recovered.events_seen(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zero_cadence_is_rejected() {
        let dir = temp_dir("cadence");
        assert!(matches!(
            DurableState::open(&dir, 0).unwrap_err(),
            StateError::InvalidState { .. }
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_only_recovery_replays_from_epoch_one() {
        let dir = temp_dir("wal-only");
        let logged = [
            (2, batch(&[(0, 1, 0), (1, 2, 1)], &[])),
            (3, batch(&[], &[(0, 1, 0)])),
            (5, batch(&[(4, 5, 2)], &[])),
        ];
        let mut live = empty_world();
        {
            let (store, recovered) = DurableState::open(&dir, 100).unwrap();
            assert!(recovered.is_empty());
            for (epoch, (events, batch)) in (1..).zip(&logged) {
                store.log_batch(epoch, *events, batch).unwrap();
                live.apply_mutations(batch).unwrap();
            }
        }
        let (_store, recovered) = DurableState::open(&dir, 100).unwrap();
        assert!(recovered.checkpoint.is_none());
        assert_eq!(recovered.frames.len(), 3);
        assert_eq!(recovered.frames.last().map(|f| f.epoch), Some(3));
        assert_eq!(recovered.events_seen(), 5);
        assert_eq!(recovered.frames[1].batch, batch(&[], &[(0, 1, 0)]));

        let (resumed, partitioner) = resumed(&recovered);
        assert!(resumed.same_structure(&live));
        assert_eq!(resumed.epoch(), 3);
        assert_eq!(
            partitioner.surviving().collect::<Vec<_>>(),
            vec![
                (Edge::from((1u64, 2u64)), PartitionId::new(1)),
                (Edge::from((4u64, 5u64)), PartitionId::new(2)),
            ]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_only_recovery_restores_the_world() {
        let dir = temp_dir("ckpt-only");
        let (distributed, partitioner, events) = churned_world(9);
        {
            let (store, _) = DurableState::open(&dir, 4).unwrap();
            store.stage_series("cc", SeriesValues::U64(vec![1, 2, 3]));
            assert!(store
                .checkpoint_now(&distributed, &partitioner, events)
                .unwrap());
            // Same epoch again: a no-op, not an error.
            assert!(!store
                .checkpoint_now(&distributed, &partitioner, events)
                .unwrap());
        }
        let (_store, recovered) = DurableState::open(&dir, 4).unwrap();
        assert!(recovered.frames.is_empty());
        let checkpoint = recovered.checkpoint.as_ref().expect("checkpoint recovered");
        assert_eq!(checkpoint.epoch, distributed.epoch() as u64);
        assert_eq!(checkpoint.events_seen, events);
        assert_eq!(
            checkpoint.series,
            vec![("cc".to_string(), SeriesValues::U64(vec![1, 2, 3]))]
        );
        let rebuilt = checkpoint.rebuild_graph().unwrap();
        assert!(rebuilt.same_structure(&distributed));
        assert_eq!(rebuilt.epoch(), distributed.epoch());

        let (resumed, fresh) = resumed(&recovered);
        assert!(resumed.same_structure(&distributed));
        assert_eq!(resumed.epoch(), distributed.epoch());
        assert!(fresh.surviving().eq(partitioner.surviving()));
        assert_eq!(fresh.snapshot().unwrap(), partitioner.snapshot().unwrap());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_plus_wal_suffix_recovers_both() {
        let dir = temp_dir("ckpt-plus-wal");
        let (mut distributed, partitioner, events) = churned_world(4);
        let checkpointed = distributed.epoch() as u64;
        {
            let (store, _) = DurableState::open(&dir, 100).unwrap();
            store
                .checkpoint_now(&distributed, &partitioner, events)
                .unwrap();
            for (i, added) in [(20, 21, 0), (21, 22, 1)].into_iter().enumerate() {
                let logged = batch(&[added], &[]);
                let i = i as u64;
                store
                    .log_batch(checkpointed + 1 + i, events + 1 + i, &logged)
                    .unwrap();
                distributed.apply_mutations(&logged).unwrap();
            }
        }
        let (_store, recovered) = DurableState::open(&dir, 100).unwrap();
        assert_eq!(
            recovered.checkpoint.as_ref().map(|c| c.epoch),
            Some(checkpointed)
        );
        assert_eq!(recovered.frames.len(), 2);
        assert_eq!(
            recovered.frames.last().map(|f| f.epoch),
            Some(checkpointed + 2)
        );
        assert_eq!(recovered.events_seen(), events + 2);

        let (resumed, fresh) = resumed(&recovered);
        assert!(resumed.same_structure(&distributed));
        assert_eq!(resumed.epoch(), distributed.epoch());
        let logged = [(20u64, 21u64, 0), (21, 22, 1)]
            .map(|(s, d, p)| (Edge::from((s, d)), PartitionId::new(p)));
        assert!(fresh.surviving().eq(partitioner.surviving().chain(logged)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zero_length_wal_segment_is_harmless() {
        let dir = temp_dir("zero-wal");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("wal-1.log"), b"").unwrap();
        let (_store, recovered) = DurableState::open(&dir, 4).unwrap();
        assert!(recovered.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crc_valid_frame_with_an_id_past_the_32_bit_range_is_corrupt() {
        let dir = temp_dir("hostile-id");
        fs::create_dir_all(&dir).unwrap();
        // epoch 1, 1 event, one added copy (2^32 -> 0 on partition 0), no
        // removals: well-formed varints under a valid CRC.
        let mut body = Vec::new();
        for value in [1, 1, 1, 1 << 32, 0, 0, 0] {
            wal::push_varint(&mut body, value);
        }
        let mut segment = wal::WAL_MAGIC.to_vec();
        wal::push_varint(&mut segment, body.len() as u64);
        segment.extend_from_slice(&body);
        segment.extend_from_slice(&crate::crc::crc32(&body).to_le_bytes());
        fs::write(dir.join("wal-1.log"), &segment).unwrap();
        let err = DurableState::open(&dir, 4).unwrap_err();
        assert!(
            matches!(err, StateError::Corrupt { offset, .. } if offset == wal::WAL_MAGIC.len() as u64),
            "{err}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crc_valid_epoch_gap_is_a_hard_error() {
        let dir = temp_dir("gap");
        {
            let (store, _) = DurableState::open(&dir, 100).unwrap();
            // Epoch 5 with no checkpoint and no epochs 1–4: the frame is
            // intact (CRC passes) but applying it would fork the lineage.
            store.log_batch(5, 5, &batch(&[(1, 2, 0)], &[])).unwrap();
        }
        let err = DurableState::open(&dir, 100).unwrap_err();
        assert!(
            matches!(
                err,
                StateError::EpochRegression {
                    expected: 1,
                    found: 5,
                    ..
                }
            ),
            "{err}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stray_tmp_files_are_cleaned_and_checkpoints_are_retained() {
        let dir = temp_dir("retention");
        let (store, _) = DurableState::open(&dir, 100).unwrap();
        fs::write(dir.join("checkpoint-9.ckpt.tmp"), b"half").unwrap();

        let mut partitioner = EbvPartitioner::new()
            .dynamic(StreamConfig::new(2).with_expected_vertices(32))
            .unwrap();
        let mut distributed = DistributedGraph::builder(2)
            .unwrap()
            .with_num_vertices(32)
            .finish()
            .unwrap();
        let mut events = 0u64;
        for round in 0..3u64 {
            for i in 0..2u64 {
                let edge = Edge::from((round * 2 + i, round * 2 + i + 1));
                let part = partitioner.insert(edge);
                let mut b = MutationBatch::new();
                b.record_insert(edge, part);
                store
                    .log_batch(distributed.epoch() as u64 + 1, events + 1, &b)
                    .unwrap();
                distributed.apply_mutations(&b).unwrap();
                events += 1;
            }
            store
                .checkpoint_now(&distributed, &partitioner, events)
                .unwrap();
        }
        // Only the newest two checkpoints survive on disk and in the
        // manifest; older WAL segments are retired.
        let on_disk = scan_for_checkpoints(&dir).unwrap();
        assert_eq!(
            on_disk.iter().map(|&(e, _)| e).collect::<Vec<_>>(),
            vec![4, 6]
        );
        let manifest = read_manifest(&dir).unwrap().unwrap();
        assert_eq!(
            manifest.iter().map(|&(e, _)| e).collect::<Vec<_>>(),
            vec![4, 6]
        );

        // A fresh open recovers the newest checkpoint cleanly (and deletes
        // the stray tmp file).
        let (_s2, recovered) = DurableState::open(&dir, 100).unwrap();
        assert_eq!(recovered.checkpoint.as_ref().map(|c| c.epoch), Some(6));
        assert!(recovered.frames.is_empty());
        assert!(!dir.join("checkpoint-9.ckpt.tmp").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_newest_checkpoint_falls_back_along_the_lineage() {
        let dir = temp_dir("fallback");
        let (store, _) = DurableState::open(&dir, 100).unwrap();
        let (distributed, partitioner, events) = churned_world(3);
        store
            .checkpoint_now(&distributed, &partitioner, events)
            .unwrap();
        let (distributed2, partitioner2, events2) = churned_world(5);
        store
            .checkpoint_now(&distributed2, &partitioner2, events2)
            .unwrap();

        // Rot the newest checkpoint: recovery must fall back to epoch 3.
        let newest = dir.join("checkpoint-5.ckpt");
        let mut bytes = fs::read(&newest).unwrap();
        let len = bytes.len();
        bytes[len - 10] ^= 0x01;
        fs::write(&newest, &bytes).unwrap();
        let (_s2, recovered) = DurableState::open(&dir, 100).unwrap();
        assert_eq!(recovered.checkpoint.map(|c| c.epoch), Some(3));

        // Rot both: with a manifest full of unloadable checkpoints,
        // recovery refuses rather than silently starting empty.
        let older = dir.join("checkpoint-3.ckpt");
        let mut bytes = fs::read(&older).unwrap();
        let len = bytes.len();
        bytes[len - 10] ^= 0x01;
        fs::write(&older, &bytes).unwrap();
        assert!(matches!(
            DurableState::open(&dir, 100).unwrap_err(),
            StateError::Corrupt { .. }
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_directory_of_version_one_checkpoints_refuses_to_open() {
        let dir = temp_dir("v1-only");
        let (store, _) = DurableState::open(&dir, 100).unwrap();
        for n in [3, 5] {
            let (distributed, partitioner, events) = churned_world(n);
            store
                .checkpoint_now(&distributed, &partitioner, events)
                .unwrap();
        }
        drop(store);
        // Stamp both files with the version 1 magic: the CRC covers only
        // the body, so each still verifies up to its version byte.
        for n in [3, 5] {
            let path = dir.join(format!("checkpoint-{n}.ckpt"));
            let mut bytes = fs::read(&path).unwrap();
            bytes[CHECKPOINT_MAGIC.len() - 1] = 1;
            fs::write(&path, &bytes).unwrap();
        }
        // Neither the manifest's lineage nor a scan of the directory starts
        // empty over them: the typed error surfaces.
        for manifest in [true, false] {
            if !manifest {
                fs::remove_file(dir.join(MANIFEST_FILE)).unwrap();
            }
            assert!(matches!(
                DurableState::open(&dir, 100).unwrap_err(),
                StateError::UnsupportedVersion { found: 1, .. }
            ));
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_checkpoint_write_is_rejected() {
        let dir = temp_dir("stale");
        let (store, _) = DurableState::open(&dir, 100).unwrap();
        let (new_world, new_part, _) = churned_world(6);
        store.checkpoint_now(&new_world, &new_part, 6).unwrap();
        let (old_world, old_part, _) = churned_world(2);
        assert!(matches!(
            store.checkpoint_now(&old_world, &old_part, 2).unwrap_err(),
            StateError::InvalidState { .. }
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_during_checkpoint_leaves_the_previous_one_authoritative() {
        let dir = temp_dir("crash-ckpt");
        let (distributed, partitioner, events) = churned_world(4);
        let total_units = {
            let (store, _) = DurableState::open(&dir, 100).unwrap();
            let fp = Failpoint::disarmed();
            let probe = temp_dir("crash-ckpt-probe");
            let (probe_store, _) =
                DurableState::open_with_failpoint(&probe, 100, fp.clone()).unwrap();
            probe_store
                .checkpoint_now(&distributed, &partitioner, events)
                .unwrap();
            let _ = fs::remove_dir_all(&probe);
            drop(store);
            let _ = fs::remove_dir_all(&dir);
            fp.units_used()
        };
        // Crash at every unit of the checkpoint write path: afterwards the
        // directory must either hold the full checkpoint or recover empty —
        // never anything in between.
        for budget in 0..total_units {
            let _ = fs::remove_dir_all(&dir);
            let fp = Failpoint::crash_after(budget);
            let (store, _) = DurableState::open_with_failpoint(&dir, 100, fp).unwrap();
            let err = store
                .checkpoint_now(&distributed, &partitioner, events)
                .unwrap_err();
            assert!(
                matches!(err, StateError::InjectedCrash),
                "budget {budget}: {err}"
            );
            let (_s2, recovered) = DurableState::open(&dir, 100).unwrap();
            match recovered.checkpoint {
                None => assert!(recovered.frames.is_empty(), "budget {budget}"),
                Some(ckpt) => {
                    assert_eq!(ckpt.epoch, distributed.epoch() as u64, "budget {budget}");
                    assert!(ckpt.rebuild_graph().unwrap().same_structure(&distributed));
                }
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
