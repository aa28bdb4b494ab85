//! Crash recovery, Pregel's way: reload the newest checkpoint, then
//! re-execute the logged epochs through the live loop's own epoch body
//! ([`RecoveredState::resume`]).

use ebv_bsp::{run_epoch, DistributedGraph, EpochCommitter, MutationBatch, MutationStats};
use ebv_graph::Edge;
use ebv_partition::{CopyLog, DynamicPartitioner, PartitionId, PartitionMetrics};

use crate::checkpoint::{Checkpoint, SeriesValues};
use crate::error::{Result, ResumeError, StateError};
use crate::wal::WalFrame;

/// What [`DurableState::open`](crate::DurableState::open) found on disk.
/// The default is an empty directory: nothing to rebuild or replay.
#[derive(Debug, Default)]
pub struct RecoveredState {
    /// The newest checkpoint that verified, if any.
    pub checkpoint: Option<Checkpoint>,
    /// WAL frames past the checkpoint, in strict epoch order starting at
    /// `checkpoint.epoch + 1` (or epoch 1 when there is no checkpoint).
    pub frames: Vec<WalFrame>,
}

impl RecoveredState {
    /// Raw stream events already consumed by the recovered state; a
    /// deterministic event source should skip this many events before
    /// producing new ones.
    pub fn events_seen(&self) -> u64 {
        self.frames
            .last()
            .map(|f| f.events_seen)
            .or_else(|| self.checkpoint.as_ref().map(|c| c.events_seen))
            .unwrap_or(0)
    }

    /// Whether the directory held no durable state at all.
    pub fn is_empty(&self) -> bool {
        self.checkpoint.is_none() && self.frames.is_empty()
    }

    /// The checkpoint's warm `u64` series `name`, or `None` without a
    /// checkpoint.
    ///
    /// # Errors
    ///
    /// [`StateError::InvalidState`] when the checkpoint has no `u64` series
    /// of that name (a version skew passes the CRC).
    pub fn series_u64(&self, name: &str) -> Result<Option<Vec<u64>>> {
        let Some(checkpoint) = &self.checkpoint else {
            return Ok(None);
        };
        match checkpoint.series.iter().find(|(n, _)| n == name) {
            Some((_, SeriesValues::U64(values))) => Ok(Some(values.clone())),
            _ => Err(StateError::InvalidState {
                message: format!(
                    "checkpoint at epoch {} has no u64 series {name:?}",
                    checkpoint.epoch
                ),
            }),
        }
    }

    /// Resumes the recovered world: rebuilds the checkpoint's distribution
    /// (or keeps `empty` without one), restores the freshly configured
    /// `partitioner` through
    /// [`resume_partition_state`](Self::resume_partition_state), then for
    /// each WAL frame applies it, runs `on_epoch` — the closure
    /// `EventPipeline::run_applied_opts` takes, handed the restored
    /// partitioner's metrics — and commits through `committer`, both by
    /// the pipeline's own [`run_epoch`] (prepare beside `on_epoch`, commit
    /// after it returned `Ok`). A checkpoint with no frames runs one
    /// empty-batch epoch, which republishes the recovered values; an empty
    /// directory returns `empty` and commits nothing.
    ///
    /// # Errors
    ///
    /// [`ResumeError::State`] when the checkpoint does not rebuild, the
    /// partitioner does not restore or a frame does not apply (naming its
    /// WAL epoch); [`ResumeError::Epoch`] with `on_epoch`'s error, readers
    /// left on the last committed epoch.
    pub fn resume<F, E>(
        &self,
        empty: DistributedGraph,
        partitioner: &mut DynamicPartitioner,
        committer: Option<&dyn EpochCommitter>,
        mut on_epoch: F,
    ) -> std::result::Result<DistributedGraph, ResumeError<E>>
    where
        F: FnMut(
            &DistributedGraph,
            &MutationBatch,
            PartitionMetrics,
            MutationStats,
        ) -> std::result::Result<(), E>,
    {
        let mut distributed = match &self.checkpoint {
            Some(checkpoint) => checkpoint.rebuild_graph()?,
            None => empty,
        };
        if self.is_empty() {
            return Ok(distributed);
        }
        let (universe, pairs) = self.resume_partition_state()?;
        partitioner
            .restore(universe, pairs)
            .map_err(|err| StateError::InvalidState {
                message: format!("the recovered partitioner does not restore: {err}"),
            })?;
        let republish = MutationBatch::new();
        let batches = self.frames.iter().map(|f| (f.epoch, &f.batch)).chain(
            self.frames
                .is_empty()
                .then_some((distributed.epoch() as u64, &republish)),
        );
        for (epoch, batch) in batches {
            let stats =
                distributed
                    .apply_mutations(batch)
                    .map_err(|err| StateError::InvalidState {
                        message: format!("WAL epoch {epoch} does not apply: {err}"),
                    })?;
            run_epoch(committer, &distributed, || {
                on_epoch(&distributed, batch, partitioner.metrics(), stats)
            })
            .map_err(ResumeError::Epoch)?;
        }
        Ok(distributed)
    }

    /// Computes the partitioner's state at the resume point: the
    /// checkpoint's surviving pairs with every WAL frame applied **as
    /// recorded** through a [`CopyLog`] — a removal takes the newest live
    /// copy of its edge on its partition (the rule the partitioner's
    /// deletes and moves follow), an insertion appends with its logged
    /// placement. Removals apply before insertions within a frame, because
    /// a delete-then-reinsert batch records the same edge in both lists
    /// and the delete refers to the pre-batch copy.
    ///
    /// [`resume`](Self::resume) feeds the result to
    /// [`DynamicPartitioner::restore`] on a freshly configured
    /// partitioner; placement then continues bit-identically to the
    /// pre-crash run.
    ///
    /// # Errors
    ///
    /// [`StateError::InvalidState`] when a logged removal names a
    /// partition holding no live copy of its edge — the check
    /// `apply_mutations` makes; the WAL and checkpoint contradict each
    /// other, which no crash window can produce.
    pub fn resume_partition_state(&self) -> Result<(usize, Vec<(Edge, PartitionId)>)> {
        let mut universe = self.checkpoint.as_ref().map(|c| c.universe).unwrap_or(0);
        let checkpointed: &[(Edge, PartitionId)] = self
            .checkpoint
            .as_ref()
            .map_or(&[], |c| c.surviving.as_slice());
        let logged: usize = self.frames.iter().map(|f| f.batch.added().len()).sum();
        let mut log = CopyLog::default();
        log.reserve(checkpointed.len() + logged, checkpointed.len());
        for &(edge, part) in checkpointed {
            log.push(edge, part);
        }
        for frame in &self.frames {
            for &(edge, part) in frame.batch.removed() {
                if log.remove(edge, Some(part)).is_none() {
                    return Err(StateError::InvalidState {
                        message: format!(
                            "WAL epoch {} removes {edge:?}, which has no live copy on {part:?}",
                            frame.epoch
                        ),
                    });
                }
            }
            for &(edge, part) in frame.batch.added() {
                let top = edge.src.raw().max(edge.dst.raw()) + 1;
                universe = universe.max(usize::try_from(top).unwrap_or(usize::MAX));
                log.push(edge, part);
            }
        }
        Ok((universe, log.into_pairs()))
    }
}

#[cfg(test)]
mod tests {
    use std::convert::Infallible;

    use ebv_serve::SnapshotStore;

    use super::*;
    use crate::store::tests::{batch, churned_world, empty_world, fresh_partitioner, temp_dir};
    use crate::DurableState;
    use ebv_bsp::DurabilityHook;

    #[test]
    fn series_u64_is_typed_on_a_missing_or_mistyped_series() {
        assert_eq!(RecoveredState::default().series_u64("cc").unwrap(), None);
        let (distributed, partitioner, events) = churned_world(2);
        let series = vec![
            ("cc".to_string(), SeriesValues::U64(vec![4, 5])),
            ("pr".to_string(), SeriesValues::F64(vec![0.5])),
        ];
        let recovered = RecoveredState {
            checkpoint: Some(Checkpoint::capture(
                &distributed,
                &partitioner,
                events,
                series,
            )),
            frames: Vec::new(),
        };
        assert_eq!(recovered.series_u64("cc").unwrap(), Some(vec![4, 5]));
        for name in ["sssp", "pr"] {
            let err = recovered.series_u64(name).unwrap_err();
            assert!(
                matches!(&err, StateError::InvalidState { message } if message.contains(name)),
                "{err}"
            );
        }
    }

    #[test]
    fn a_checkpoint_only_directory_commits_and_serves_the_checkpoint_epoch() {
        let dir = temp_dir("resume-ckpt-only");
        let (distributed, partitioner, events) = churned_world(5);
        DurableState::open(&dir, 100)
            .unwrap()
            .0
            .checkpoint_now(&distributed, &partitioner, events)
            .unwrap();
        let (_store, recovered) = DurableState::open(&dir, 100).unwrap();
        let served = SnapshotStore::new();
        let mut bodies = Vec::new();
        let mut fresh = fresh_partitioner();
        let resumed = recovered
            .resume(
                empty_world(),
                &mut fresh,
                Some(&served),
                |dg, batch, _, _| {
                    bodies.push((dg.epoch(), batch.is_empty()));
                    Ok::<_, Infallible>(())
                },
            )
            .unwrap();
        assert!(resumed.same_structure(&distributed));
        assert_eq!(bodies, vec![(distributed.epoch(), true)]);
        assert_eq!(
            served.handle().snapshot().unwrap().epoch,
            distributed.epoch() as u64
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_empty_directory_returns_empty_and_commits_nothing() {
        let served = SnapshotStore::new();
        let mut fresh = fresh_partitioner();
        let mut bodies = 0;
        let resumed = RecoveredState::default()
            .resume(empty_world(), &mut fresh, Some(&served), |_, _, _, _| {
                bodies += 1;
                Ok::<_, Infallible>(())
            })
            .unwrap();
        assert!(resumed.same_structure(&empty_world()));
        assert_eq!((resumed.epoch(), bodies, fresh.live_edges()), (0, 0, 0));
        assert!(served.handle().snapshot().is_err(), "nothing was committed");
    }

    #[test]
    fn a_failing_epoch_stops_replay_on_the_last_committed_epoch() {
        let dir = temp_dir("resume-fails");
        {
            let (store, _) = DurableState::open(&dir, 100).unwrap();
            for epoch in 1..=3u64 {
                store
                    .log_batch(epoch, epoch, &batch(&[(epoch, epoch + 1, 0)], &[]))
                    .unwrap();
            }
        }
        let (_store, recovered) = DurableState::open(&dir, 100).unwrap();
        let served = SnapshotStore::new();
        let mut fresh = fresh_partitioner();
        let mut bodies = Vec::new();
        let err = recovered
            .resume(empty_world(), &mut fresh, Some(&served), |dg, _, _, _| {
                bodies.push(dg.epoch());
                match dg.epoch() {
                    2 => Err("epoch 2 body failed"),
                    _ => Ok(()),
                }
            })
            .unwrap_err();
        assert!(matches!(err, ResumeError::Epoch("epoch 2 body failed")));
        assert_eq!(bodies, vec![1, 2], "replay stops at the failing epoch");
        assert_eq!(served.handle().snapshot().unwrap().epoch, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_frame_that_does_not_apply_names_its_wal_epoch() {
        // A partitioner of four parts restores a pair on partition 3, but
        // the three-worker distribution has no worker for it.
        let recovered = RecoveredState {
            checkpoint: None,
            frames: vec![WalFrame {
                epoch: 1,
                events_seen: 1,
                batch: batch(&[(1, 2, 3)], &[]),
            }],
        };
        let mut four = ebv_partition::EbvPartitioner::new()
            .dynamic(ebv_partition::StreamConfig::new(4).with_expected_vertices(64))
            .unwrap();
        let err = recovered
            .resume(empty_world(), &mut four, None, |_, _, _, _| {
                Ok::<_, Infallible>(())
            })
            .unwrap_err();
        assert!(
            matches!(&err, ResumeError::State(StateError::InvalidState { message })
                if message.starts_with("WAL epoch 1 does not apply")),
            "{err}"
        );
    }

    #[test]
    fn resume_partition_state_applies_removals_before_insertions() {
        // Epoch 1 inserts X→0 and Y→1; epoch 2 deletes X's old copy and
        // re-inserts X on partition 2 in the same batch. The recorded
        // removal must pop the *pre-batch* copy, keeping the re-insert.
        let recovered = RecoveredState {
            checkpoint: None,
            frames: vec![
                WalFrame {
                    epoch: 1,
                    events_seen: 2,
                    batch: batch(&[(7, 3, 0), (3, 4, 1)], &[]),
                },
                WalFrame {
                    epoch: 2,
                    events_seen: 4,
                    batch: batch(&[(7, 3, 2)], &[(7, 3, 0)]),
                },
            ],
        };
        let (universe, pairs) = recovered.resume_partition_state().unwrap();
        assert_eq!(universe, 8);
        assert_eq!(
            pairs,
            vec![
                (Edge::from((3u64, 4u64)), PartitionId::new(1)),
                (Edge::from((7u64, 3u64)), PartitionId::new(2)),
            ]
        );

        // A removal from a partition holding no live copy is evidence of a
        // forked lineage, not a crash: hard error.
        let broken = RecoveredState {
            checkpoint: None,
            frames: vec![WalFrame {
                epoch: 1,
                events_seen: 2,
                batch: batch(&[(1, 2, 0)], &[(9, 9, 0)]),
            }],
        };
        assert!(matches!(
            broken.resume_partition_state().unwrap_err(),
            StateError::InvalidState { .. }
        ));
    }

    /// `resume_partition_state` by brute force: an `rposition` scan over
    /// the `(edge, partition)` pair and a mid-vector `remove` per logged
    /// removal. The reference the copy-log implementation is checked
    /// against, error strings included.
    fn resume_by_scan(recovered: &RecoveredState) -> Result<(usize, Vec<(Edge, PartitionId)>)> {
        let mut universe = recovered
            .checkpoint
            .as_ref()
            .map(|c| c.universe)
            .unwrap_or(0);
        let mut pairs = recovered
            .checkpoint
            .as_ref()
            .map(|c| c.surviving.clone())
            .unwrap_or_default();
        for frame in &recovered.frames {
            for &(edge, part) in frame.batch.removed() {
                let Some(pos) = pairs.iter().rposition(|&pair| pair == (edge, part)) else {
                    return Err(StateError::InvalidState {
                        message: format!(
                            "WAL epoch {} removes {edge:?}, which has no live copy on {part:?}",
                            frame.epoch
                        ),
                    });
                };
                pairs.remove(pos);
            }
            for &(edge, part) in frame.batch.added() {
                let top = edge.src.raw().max(edge.dst.raw()) + 1;
                universe = universe.max(usize::try_from(top).unwrap_or(usize::MAX));
                pairs.push((edge, part));
            }
        }
        Ok((universe, pairs))
    }

    #[test]
    fn resume_errors_keep_their_wording() {
        let frame = |epoch, added: &[(u64, u64, u32)], removed: &[(u64, u64, u32)]| WalFrame {
            epoch,
            events_seen: epoch,
            batch: batch(added, removed),
        };
        let dead = RecoveredState {
            checkpoint: None,
            frames: vec![
                frame(1, &[(1, 2, 0)], &[]),
                frame(2, &[], &[(1, 2, 0)]),
                frame(3, &[], &[(1, 2, 0)]),
            ],
        };
        assert_eq!(
            dead.resume_partition_state().unwrap_err().to_string(),
            resume_by_scan(&dead).unwrap_err().to_string()
        );
        assert!(dead
            .resume_partition_state()
            .unwrap_err()
            .to_string()
            .contains("WAL epoch 3 removes Edge { src: VertexId(1), dst: VertexId(2) }, which has no live copy"));

        // The named partition decides: live copies on 0 and 2 do not
        // license a removal from partition 1.
        let misplaced = RecoveredState {
            checkpoint: None,
            frames: vec![
                frame(1, &[(1, 2, 0), (1, 2, 2)], &[]),
                frame(2, &[], &[(1, 2, 1)]),
            ],
        };
        assert_eq!(
            misplaced.resume_partition_state().unwrap_err().to_string(),
            resume_by_scan(&misplaced).unwrap_err().to_string()
        );
        assert!(misplaced
            .resume_partition_state()
            .unwrap_err()
            .to_string()
            .contains("which has no live copy on PartitionId(1)"));
    }

    mod resume_differential {
        use proptest::prelude::*;

        use super::*;

        type Op = (u8, u64, u64, u32, usize);

        /// Turns one frame's ops into a batch. Kinds 0–4 add a random pair;
        /// 5–6 remove the *newest live copy* of a random live edge and 7
        /// moves a random live copy — often not its edge's newest — to
        /// another partition, removing the newest copy on its own (both
        /// valid by construction, so most lineages run deep); 8–9 add a
        /// self-loop or, one time in eight, remove an arbitrary pair —
        /// usually dead or on the wrong partition. `live` follows the scan
        /// semantics: removals first, then additions.
        fn frame_from_ops(ops: &[Op], live: &mut Vec<(Edge, PartitionId)>) -> MutationBatch {
            let (mut added, mut removed) = (Vec::new(), Vec::new());
            for &(kind, src, dst, part, pick) in ops {
                let pair = (Edge::from((src, dst)), PartitionId::new(part));
                match kind {
                    0..=4 => added.push(pair),
                    5..=7 if !live.is_empty() => {
                        let (edge, on) = live[pick % live.len()];
                        let newest = if kind == 7 {
                            live.iter().rposition(|&copy| copy == (edge, on))
                        } else {
                            live.iter().rposition(|&(e, _)| e == edge)
                        };
                        removed.push(live.remove(newest.unwrap()));
                        if kind == 7 {
                            added.push((edge, PartitionId::new((on.raw() + 1 + part % 2) % 3)));
                        }
                    }
                    5..=7 => {}
                    _ if pick % 8 == 0 => removed.push(pair),
                    _ => added.push((Edge::from((src, src)), pair.1)),
                }
            }
            live.extend(added.iter().copied());
            MutationBatch::from_parts(added, removed)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Random checkpoint + WAL lineages over a universe small
            /// enough for duplicate copies, self-loops, moves and
            /// delete-then-reinsert frames, salted with removals of dead
            /// edges and wrong partitions: the copy-log resume returns the
            /// scan's `(universe, pairs)` or the scan's error, verbatim.
            #[test]
            fn linear_resume_matches_the_scan(
                checkpointed in proptest::collection::vec((0u64..5, 0u64..5, 0u32..3), 0..40),
                with_checkpoint in any::<bool>(),
                frames in proptest::collection::vec(
                    proptest::collection::vec(
                        (0u8..10, 0u64..6, 0u64..6, 0u32..3, 0usize..1000),
                        0..30,
                    ),
                    0..8,
                ),
            ) {
                let surviving: Vec<(Edge, PartitionId)> = checkpointed
                    .iter()
                    .map(|&(s, d, p)| (Edge::from((s, d)), PartitionId::new(p)))
                    .collect();
                let mut live = if with_checkpoint { surviving.clone() } else { Vec::new() };
                let checkpoint = with_checkpoint.then(|| Checkpoint {
                    epoch: 4,
                    events_seen: 0,
                    num_vertices: 5,
                    workers: 3,
                    universe: 5,
                    surviving,
                    series: Vec::new(),
                });
                let base = checkpoint.as_ref().map_or(0, |c| c.epoch);
                let frames = frames
                    .iter()
                    .enumerate()
                    .map(|(i, ops)| WalFrame {
                        epoch: base + 1 + i as u64,
                        events_seen: 0,
                        batch: frame_from_ops(ops, &mut live),
                    })
                    .collect();
                let recovered = RecoveredState { checkpoint, frames };
                let text = |result: Result<(usize, Vec<(Edge, PartitionId)>)>| {
                    result.map_err(|err| err.to_string())
                };
                prop_assert_eq!(
                    text(recovered.resume_partition_state()),
                    text(resume_by_scan(&recovered))
                );
            }
        }
    }
}
