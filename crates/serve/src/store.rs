//! The epoch-versioned snapshot store: staged series, atomic epoch flips,
//! reads that never wait on a snapshot build.
//!
//! The write side is the epoch driver: after each applied mutation epoch
//! it runs its programs with
//! [`RunOptions::publish_to`](ebv_bsp::RunOptions::publish_to) pointed at
//! the store's [`series sinks`](SnapshotStore::series_sink) (staging one
//! named value array per program), then commits — one pointer swap that
//! makes every staged series visible together, tagged with the epoch. The
//! read side is any number of [`QueryHandle`] clones: point lookups, top-k
//! and neighborhood reads all answer from one `Arc` to an immutable
//! [`GraphSnapshot`], so a reader holding epoch N's answers is undisturbed
//! by the flip to N+1 — snapshot isolation at epoch granularity, never a
//! torn read.
//!
//! The published pointer is a plain `RwLock<Arc<GraphSnapshot>>` beside a
//! generation counter; each handle keeps its own pinned copy of the `Arc`
//! and goes back to the lock only when the generation has moved. The
//! reader/writer contract is stated on [`SnapshotStore`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use ebv_algorithms::PageRankValue;
use ebv_bsp::publish::{EpochCommitter, ValueSink};
use ebv_bsp::{DistributedGraph, ExecutionStats};
use ebv_obs::{Counter, Gauge, Histogram, MetricsRegistry};

use crate::adjacency::Adjacency;
use crate::handle::QueryHandle;
use crate::topk::ZoneMap;

/// One queried value, as served: `Null` renders a vertex whose value is
/// the series' absent sentinel (e.g. an unreachable SSSP distance).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryValue {
    /// An integral value (component label, distance, BFS depth).
    U64(u64),
    /// A floating-point value (PageRank).
    F64(f64),
    /// The series marks this vertex absent (e.g. unreachable).
    Null,
}

impl QueryValue {
    /// The value as a JSON fragment (`Null` becomes `null`).
    pub fn to_json(&self) -> String {
        match self {
            QueryValue::U64(v) => v.to_string(),
            QueryValue::F64(v) => format!("{v}"),
            QueryValue::Null => "null".to_string(),
        }
    }
}

/// A published series' backing array.
#[derive(Debug, Clone)]
pub enum SeriesData {
    /// `u64` per vertex, with an optional absent sentinel that serves as
    /// `null` (and is skipped by top-k).
    U64 {
        /// Per-vertex values, indexed by vertex id.
        values: Vec<u64>,
        /// The sentinel meaning "no value" (e.g. `UNREACHABLE`).
        absent: Option<u64>,
    },
    /// `f64` per vertex.
    F64(Vec<f64>),
}

impl SeriesData {
    pub(crate) fn len(&self) -> usize {
        match self {
            SeriesData::U64 { values, .. } => values.len(),
            SeriesData::F64(values) => values.len(),
        }
    }

    pub(crate) fn get(&self, vertex: usize) -> QueryValue {
        match self {
            SeriesData::U64 { values, absent } => {
                let v = values[vertex];
                if Some(v) == *absent {
                    QueryValue::Null
                } else {
                    QueryValue::U64(v)
                }
            }
            SeriesData::F64(values) => QueryValue::F64(values[vertex]),
        }
    }
}

/// One named per-vertex value array (e.g. `cc`, `sssp`, `pagerank`).
#[derive(Debug, Clone)]
pub struct Series {
    /// Series name, as addressed by `/query/<name>/<vertex>`.
    pub name: String,
    /// The values.
    pub data: SeriesData,
}

/// A committed series and the zone map its top-k gates on, behind one
/// `Arc`: a series carried forward keeps its map by pointer.
#[derive(Debug)]
struct CommittedSeries {
    series: Series,
    zones: ZoneMap,
}

impl CommittedSeries {
    fn new(series: Series) -> CommittedSeries {
        let zones = ZoneMap::build(&series.data);
        CommittedSeries { series, zones }
    }
}

/// A batch is patched into the previous adjacency only while its affected
/// vertices are at most one in this many; past that the per-vertex holder
/// probes cost more than the counting-sort rebuild they avoid.
const PATCH_MAX_AFFECTED_SHARE: usize = 8;

/// Why a read could not be answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryError {
    /// No epoch has been committed yet.
    NotReady,
    /// The snapshot has no series of that name.
    UnknownSeries,
    /// The vertex id is outside the snapshot's vertex space.
    UnknownVertex,
    /// The snapshot was committed without adjacency.
    NoAdjacency,
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::NotReady => write!(f, "no epoch published yet"),
            QueryError::UnknownSeries => write!(f, "unknown series"),
            QueryError::UnknownVertex => write!(f, "unknown vertex"),
            QueryError::NoAdjacency => write!(f, "snapshot has no adjacency"),
        }
    }
}

impl std::error::Error for QueryError {}

/// One committed epoch's complete, immutable served state.
#[derive(Debug, Clone, Default)]
pub struct GraphSnapshot {
    /// The mutation epoch these values belong to.
    pub epoch: u64,
    /// The vertex-space size at this epoch.
    pub num_vertices: usize,
    /// Behind `Arc`s so that a series or an adjacency the next commit does
    /// not replace is carried forward as a pointer, not a copy.
    series: Vec<Arc<CommittedSeries>>,
    adjacency: Option<Arc<Adjacency>>,
}

impl GraphSnapshot {
    /// The published series names, in staging order.
    pub fn series_names(&self) -> Vec<&str> {
        self.series.iter().map(|c| c.series.name.as_str()).collect()
    }

    fn committed(&self, name: &str) -> Result<&CommittedSeries, QueryError> {
        self.series
            .iter()
            .find(|c| c.series.name == name)
            .map(|committed| &**committed)
            .ok_or(QueryError::UnknownSeries)
    }

    /// The named series, if published.
    pub fn series(&self, name: &str) -> Option<&Series> {
        self.committed(name).ok().map(|c| &c.series)
    }

    /// Vertex `vertex`'s value in series `name`.
    ///
    /// # Errors
    ///
    /// [`QueryError::UnknownSeries`] / [`QueryError::UnknownVertex`].
    pub fn lookup(&self, name: &str, vertex: u64) -> Result<QueryValue, QueryError> {
        let series = self.series(name).ok_or(QueryError::UnknownSeries)?;
        let index = vertex as usize;
        if index >= series.data.len() {
            return Err(QueryError::UnknownVertex);
        }
        Ok(series.data.get(index))
    }

    /// The `k` best vertices of series `name` as `(vertex, value)` pairs:
    /// largest first when `descending`, smallest first otherwise; ties go
    /// to the lower vertex id; absent (`Null`) vertices are skipped. One
    /// pass over the chunks of the series its zone map cannot rule out,
    /// with working memory sized from `min(k, num_vertices)`, so any `k` —
    /// `usize::MAX` included — is served.
    ///
    /// # Errors
    ///
    /// [`QueryError::UnknownSeries`].
    pub fn topk(
        &self,
        name: &str,
        k: usize,
        descending: bool,
    ) -> Result<Vec<(u64, QueryValue)>, QueryError> {
        let committed = self.committed(name)?;
        let data = &committed.series.data;
        Ok(crate::topk::topk(data, &committed.zones, k, descending))
    }

    /// The sorted out-neighbors of `vertex`.
    ///
    /// # Errors
    ///
    /// [`QueryError::NoAdjacency`] / [`QueryError::UnknownVertex`].
    pub fn neighbors(&self, vertex: u64) -> Result<&[u64], QueryError> {
        let adjacency = self.adjacency.as_deref().ok_or(QueryError::NoAdjacency)?;
        let index = vertex as usize;
        if index >= adjacency.num_vertices() {
            return Err(QueryError::UnknownVertex);
        }
        Ok(adjacency.neighbors(index))
    }
}

/// `snapshot`, unless no epoch has been committed yet.
pub(crate) fn ready(snapshot: &GraphSnapshot) -> Result<&GraphSnapshot, QueryError> {
    if snapshot.epoch == 0 && snapshot.series.is_empty() {
        return Err(QueryError::NotReady);
    }
    Ok(snapshot)
}

/// The store's shared core: the published snapshot plus the read-side
/// metrics, shared between the committing [`SnapshotStore`] and every
/// [`QueryHandle`].
pub(crate) struct StoreShared {
    /// The current epoch's snapshot. Both guards are held for one pointer
    /// operation only (see [`current`](StoreShared::current) and
    /// [`SnapshotStore::commit`]).
    published: RwLock<Arc<GraphSnapshot>>,
    /// Bumped (`Release`) after every swap of `published`: a handle whose
    /// pin was taken at this generation still holds the current snapshot.
    pub(crate) generation: AtomicU64,
    /// Read attempts; the previous count is the read's sampling tick.
    pub(crate) reads: Arc<Counter>,
    pub(crate) read_seconds: Arc<Histogram>,
    epoch_gauge: Arc<Gauge>,
    commits: Arc<Counter>,
    adjacency_patches: Arc<Counter>,
    adjacency_rebuilds: Arc<Counter>,
}

impl StoreShared {
    /// The currently published snapshot: an `Arc::clone` under the read
    /// guard. A poisoned lock is recovered — the only write ever made under
    /// the guard is a pointer swap, which leaves the slot valid at every
    /// step.
    pub(crate) fn current(&self) -> Arc<GraphSnapshot> {
        Arc::clone(&self.published.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// A pin of the current snapshot: the generation is loaded first, so
    /// the snapshot is never older than the generation it is filed under.
    pub(crate) fn pin(&self) -> (u64, Arc<GraphSnapshot>) {
        (self.generation.load(Ordering::Acquire), self.current())
    }
}

/// A value type the engine can stage into a named series.
pub trait SeriesValue: Clone {
    /// Packs a published value array into the series representation.
    fn pack(values: &[Self]) -> SeriesData;
}

impl SeriesValue for u64 {
    fn pack(values: &[Self]) -> SeriesData {
        SeriesData::U64 {
            values: values.to_vec(),
            absent: None,
        }
    }
}

impl SeriesValue for f64 {
    fn pack(values: &[Self]) -> SeriesData {
        SeriesData::F64(values.to_vec())
    }
}

impl SeriesValue for PageRankValue {
    /// PageRank publishes the normalized ranks, not the internal
    /// `(rank, partial)` pairs.
    fn pack(values: &[Self]) -> SeriesData {
        SeriesData::F64(ebv_algorithms::ranks(values))
    }
}

/// A [`ValueSink`] staging one named series into its [`SnapshotStore`].
/// Obtained from [`SnapshotStore::series_sink`]; pass it to
/// [`RunOptions::publish_to`](ebv_bsp::RunOptions::publish_to).
pub struct SeriesSink<'a, V> {
    store: &'a SnapshotStore,
    name: &'a str,
    absent: Option<u64>,
    _marker: std::marker::PhantomData<fn(&V)>,
}

impl<V> SeriesSink<'_, V> {
    /// Treats `sentinel` as "no value": lookups serve `null` and top-k
    /// skips it. Only meaningful for `u64` series (e.g.
    /// [`UNREACHABLE`](ebv_algorithms::UNREACHABLE) distances).
    pub fn with_absent(mut self, sentinel: u64) -> Self {
        self.absent = Some(sentinel);
        self
    }
}

impl<V: SeriesValue> ValueSink<V> for SeriesSink<'_, V> {
    fn publish(&self, values: &[V], _stats: &ExecutionStats) {
        let mut data = V::pack(values);
        if let (SeriesData::U64 { absent, .. }, Some(sentinel)) = (&mut data, self.absent) {
            *absent = Some(sentinel);
        }
        self.store.stage(Series {
            name: self.name.to_string(),
            data,
        });
    }
}

/// The writable half of the query plane: stage series, then
/// [`commit`](SnapshotStore::commit) them as one epoch.
///
/// Reads go through [`QueryHandle`]s (see
/// [`handle`](SnapshotStore::handle)); the store itself is the single
/// writer the epoch driver owns.
///
/// # Reader/writer contract
///
/// A commit builds the new snapshot — zone maps included — before it takes
/// the write guard, holds the guard for a pointer swap only, drops its
/// reference to the retired snapshot after releasing it, and then bumps
/// the store's generation (`Release`). A read loads the generation
/// (`Acquire`) and answers from the snapshot its handle pinned at that
/// generation; only when the generation has moved does it re-pin, by
/// cloning the published `Arc` under the read guard. So a reader can wait
/// on a writer for one pointer store — never for a snapshot build or free —
/// and a writer waits only for readers that are mid-`Arc::clone`, never
/// for a read.
///
/// **Retention.** A [`QueryHandle`] keeps the snapshot it last read alive
/// until its next read or its drop, so a retired epoch's memory is freed
/// by whichever holder lets go of it last — possibly a reader re-pinning.
pub struct SnapshotStore {
    shared: Arc<StoreShared>,
    staging: Mutex<Vec<Series>>,
    /// Whether [`EpochCommitter::commit_epoch`] serves adjacency; set by
    /// [`serve_adjacency`](SnapshotStore::serve_adjacency).
    adjacency_from_pipeline: std::sync::atomic::AtomicBool,
}

impl Default for SnapshotStore {
    fn default() -> Self {
        SnapshotStore::new()
    }
}

impl SnapshotStore {
    /// A store reporting read metrics to the global [`MetricsRegistry`].
    pub fn new() -> SnapshotStore {
        SnapshotStore::with_registry(MetricsRegistry::global())
    }

    /// A store reporting `ebv_query_reads_total` (read attempts through any
    /// of its handles, `NotReady` ones included), `ebv_query_read_seconds`
    /// (one attempt in 64, see [`QueryHandle`]), `ebv_query_epoch`,
    /// `ebv_query_commits_total` and — how each served adjacency was
    /// derived, see [`serve_adjacency`](Self::serve_adjacency) —
    /// `ebv_query_adjacency_patches_total` and
    /// `ebv_query_adjacency_rebuilds_total` to `registry`.
    pub fn with_registry(registry: &MetricsRegistry) -> SnapshotStore {
        SnapshotStore {
            shared: Arc::new(StoreShared {
                published: RwLock::new(Arc::new(GraphSnapshot::default())),
                generation: AtomicU64::new(0),
                reads: registry.counter("ebv_query_reads_total"),
                read_seconds: registry.histogram("ebv_query_read_seconds"),
                epoch_gauge: registry.gauge("ebv_query_epoch"),
                commits: registry.counter("ebv_query_commits_total"),
                adjacency_patches: registry.counter("ebv_query_adjacency_patches_total"),
                adjacency_rebuilds: registry.counter("ebv_query_adjacency_rebuilds_total"),
            }),
            staging: Mutex::new(Vec::new()),
            adjacency_from_pipeline: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// A cheap clonable read handle sharing this store's snapshots.
    pub fn handle(&self) -> QueryHandle {
        QueryHandle::new(Arc::clone(&self.shared))
    }

    /// Stages `series` for the next commit, replacing any staged series of
    /// the same name. Staged series are invisible to readers until
    /// [`commit`](SnapshotStore::commit).
    pub fn stage(&self, series: Series) {
        let mut staging = self.staging.lock().unwrap_or_else(|e| e.into_inner());
        match staging.iter_mut().find(|s| s.name == series.name) {
            Some(slot) => *slot = series,
            None => staging.push(series),
        }
    }

    /// A sink staging the engine's published values as series `name`.
    /// The `'static` name keeps sinks trivially reusable across epochs.
    pub fn series_sink<V: SeriesValue>(&self, name: &'static str) -> SeriesSink<'_, V> {
        SeriesSink {
            store: self,
            name,
            absent: None,
            _marker: std::marker::PhantomData,
        }
    }

    /// Makes [`EpochCommitter::commit_epoch`] serve the global adjacency
    /// of each committed epoch. The first commit — and any commit whose
    /// graph is not one small batch past the previously committed one — is
    /// an `O(E)` counting-sort build; after that an epoch costs a block
    /// copy of the previous CSR plus a re-read of the batch's affected
    /// vertices (see [`EpochCommitter::commit_epoch`] on this type). Leave
    /// it off when only value lookups are served.
    pub fn serve_adjacency(&self, enabled: bool) {
        self.adjacency_from_pipeline
            .store(enabled, std::sync::atomic::Ordering::Relaxed);
    }

    /// Atomically publishes everything staged since the last commit as
    /// `epoch`'s snapshot. Readers holding the previous snapshot are
    /// undisturbed; new reads see the complete new epoch.
    pub fn commit(&self, epoch: u64, num_vertices: usize, adjacency: Option<Adjacency>) {
        self.publish(epoch, num_vertices, adjacency.map(Arc::new));
    }

    fn publish(&self, epoch: u64, num_vertices: usize, adjacency: Option<Arc<Adjacency>>) {
        let staged = {
            let mut staging = self.staging.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *staging)
        };
        // Carry forward series not re-staged this epoch (a program that
        // didn't run still serves its last committed values) with their
        // zone maps, and the adjacency when this commit brings none — all
        // by pointer. A staged series gets its zone map here, before the
        // write guard.
        let previous = self.shared.current();
        let mut series: Vec<Arc<CommittedSeries>> = staged
            .into_iter()
            .map(|staged| Arc::new(CommittedSeries::new(staged)))
            .collect();
        for old in &previous.series {
            if !series.iter().any(|c| c.series.name == old.series.name) {
                series.push(Arc::clone(old));
            }
        }
        let adjacency = adjacency.or_else(|| previous.adjacency.clone());
        let next = Arc::new(GraphSnapshot {
            epoch,
            num_vertices,
            series,
            adjacency,
        });
        // The write guard is a temporary of this one statement: the swap
        // is all that happens under it, and the retired snapshot (freed
        // once no reader holds it) drops after the guard's release.
        let retired = std::mem::replace(
            &mut *self
                .shared
                .published
                .write()
                .unwrap_or_else(|e| e.into_inner()),
            next,
        );
        drop(retired);
        self.shared.generation.fetch_add(1, Ordering::Release);
        self.shared.epoch_gauge.set(epoch as f64);
        self.shared.commits.add(1);
    }
}

impl std::fmt::Debug for SnapshotStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotStore")
            .field("epoch", &self.shared.current().epoch)
            .finish()
    }
}

impl EpochCommitter for SnapshotStore {
    /// The pipeline-side commit: called by the `ebv-dynamic` epoch loop
    /// (`EpochOptions::committer`) after each applied epoch's programs
    /// have staged their series. When [`serve_adjacency`] is on, the
    /// adjacency of the post-apply distribution is derived by the cheapest
    /// route its [`lineage`](DistributedGraph::lineage) proves correct:
    ///
    /// * the published adjacency already describes this very state (a
    ///   second commit of an unchanged graph) — shared, by pointer;
    /// * it describes the state the graph's last batch was applied to, and
    ///   the batch affected at most one vertex in eight — copied forward
    ///   with only the affected vertices re-read from their holders;
    /// * anything else — first commit, an epoch committed elsewhere or not
    ///   at all, a clone that diverged, a big batch — rebuilt from scratch
    ///   ([`Adjacency::from_distributed`]).
    ///
    /// The decision reads state ids, never epoch numbers: two graphs at
    /// the same epoch need not be the same state.
    ///
    /// [`serve_adjacency`]: SnapshotStore::serve_adjacency
    fn commit_epoch(&self, distributed: &DistributedGraph) {
        let adjacency = self
            .adjacency_from_pipeline
            .load(std::sync::atomic::Ordering::Relaxed)
            .then(|| {
                let lineage = distributed.lineage();
                let small =
                    lineage.affected.len() * PATCH_MAX_AFFECTED_SHARE <= distributed.num_vertices();
                // State 0 names no state (the default `Adjacency`, a fresh
                // graph's parent), so it never counts as a match.
                match self.shared.current().adjacency.as_ref() {
                    Some(held) if held.state == lineage.state => Arc::clone(held),
                    Some(held) if held.state == lineage.parent && held.state != 0 && small => {
                        self.shared.adjacency_patches.add(1);
                        Arc::new(held.patched(distributed, lineage.affected))
                    }
                    _ => {
                        self.shared.adjacency_rebuilds.add(1);
                        Arc::new(Adjacency::from_distributed(distributed))
                    }
                }
            });
        self.publish(
            distributed.epoch() as u64,
            distributed.num_vertices(),
            adjacency,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebv_bsp::MutationBatch;
    use ebv_graph::Edge;
    use ebv_partition::PartitionId;
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;
    use std::thread;

    fn store_with_cc() -> (SnapshotStore, QueryHandle) {
        let registry = MetricsRegistry::new();
        let store = SnapshotStore::with_registry(&registry);
        let handle = store.handle();
        store.stage(Series {
            name: "cc".to_string(),
            data: SeriesData::U64 {
                values: vec![0, 0, 0, 3, 3, 3],
                absent: None,
            },
        });
        store.commit(1, 6, None);
        (store, handle)
    }

    #[test]
    fn reads_before_the_first_commit_are_not_ready() {
        let registry = MetricsRegistry::new();
        let store = SnapshotStore::with_registry(&registry);
        let handle = store.handle();
        assert_eq!(handle.lookup("cc", 0), Err(QueryError::NotReady));
        assert_eq!(handle.topk("cc", 3, true), Err(QueryError::NotReady));
        assert_eq!(handle.snapshot().unwrap_err(), QueryError::NotReady);
        // A read attempt is counted — and sampled — whether or not it
        // finds an epoch; `snapshot()` is not a read.
        assert_eq!(registry.counter("ebv_query_reads_total").get(), 2);
        assert_eq!(registry.histogram("ebv_query_read_seconds").count(), 1);
    }

    #[test]
    fn lookup_topk_and_errors() {
        let (_store, handle) = store_with_cc();
        assert_eq!(handle.lookup("cc", 4), Ok(QueryValue::U64(3)));
        assert_eq!(handle.lookup("cc", 99), Err(QueryError::UnknownVertex));
        assert_eq!(handle.lookup("nope", 0), Err(QueryError::UnknownSeries));
        assert_eq!(handle.neighbors(0), Err(QueryError::NoAdjacency));

        // Descending top-2: the two lowest vertices labeled 3, ties by id.
        let top = handle.topk("cc", 2, true).unwrap();
        assert_eq!(top, vec![(3, QueryValue::U64(3)), (4, QueryValue::U64(3))]);
        // Ascending top-2: label-0 vertices first.
        let bottom = handle.topk("cc", 2, false).unwrap();
        assert_eq!(
            bottom,
            vec![(0, QueryValue::U64(0)), (1, QueryValue::U64(0))]
        );
        // k larger than the series serves everything.
        assert_eq!(handle.topk("cc", 100, true).unwrap().len(), 6);
        assert_eq!(handle.topk("cc", 0, true).unwrap(), vec![]);
    }

    #[test]
    fn absent_sentinels_serve_null_and_are_skipped_by_topk() {
        let registry = MetricsRegistry::new();
        let store = SnapshotStore::with_registry(&registry);
        let handle = store.handle();
        store.stage(Series {
            name: "sssp".to_string(),
            data: SeriesData::U64 {
                values: vec![0, 1, u64::MAX, 2],
                absent: Some(u64::MAX),
            },
        });
        store.commit(1, 4, None);
        assert_eq!(handle.lookup("sssp", 2), Ok(QueryValue::Null));
        assert_eq!(QueryValue::Null.to_json(), "null");
        let top = handle.topk("sssp", 10, true).unwrap();
        assert_eq!(top.len(), 3, "the unreachable vertex is skipped");
        assert_eq!(top[0], (3, QueryValue::U64(2)));
    }

    #[test]
    fn commits_carry_forward_unstaged_series_and_bump_metrics() {
        let registry = MetricsRegistry::new();
        let store = SnapshotStore::with_registry(&registry);
        let handle = store.handle();
        store.stage(Series {
            name: "cc".to_string(),
            data: u64::pack(&[7, 7]),
        });
        store.commit(1, 2, None);
        // Epoch 2 stages only a rank series; cc must still serve.
        store.stage(Series {
            name: "rank".to_string(),
            data: f64::pack(&[0.5, 0.5]),
        });
        store.commit(2, 2, None);
        let snapshot = handle.snapshot().unwrap();
        assert_eq!(snapshot.epoch, 2);
        assert_eq!(snapshot.series_names(), vec!["rank", "cc"]);
        assert_eq!(handle.lookup("cc", 0), Ok(QueryValue::U64(7)));
        assert_eq!(handle.lookup("rank", 1), Ok(QueryValue::F64(0.5)));

        // Every read is counted by the one counter whose previous value is
        // its sampling tick: one in 64 is timed, the first included.
        let reads = || registry.counter("ebv_query_reads_total").get();
        let timed = || registry.histogram("ebv_query_read_seconds").count();
        assert_eq!(reads(), 2, "snapshot() is not a read; the two lookups are");
        assert_eq!(timed(), 1, "the first read is timed");
        for r in 3..=300u64 {
            assert!(handle.lookup("cc", r % 2).is_ok());
            assert_eq!(reads(), r);
            assert_eq!(timed(), r.div_ceil(64), "after {r} reads");
        }
        assert_eq!(registry.gauge("ebv_query_epoch").get(), 2.0);
        assert_eq!(registry.counter("ebv_query_commits_total").get(), 2);
    }

    /// A store serving adjacency, with the registry its derivation counters
    /// report to.
    fn adjacency_store() -> (SnapshotStore, MetricsRegistry) {
        let registry = MetricsRegistry::new();
        let store = SnapshotStore::with_registry(&registry);
        store.serve_adjacency(true);
        (store, registry)
    }

    /// `(patched, rebuilt)` commits so far.
    fn derivations(registry: &MetricsRegistry) -> (u64, u64) {
        (
            registry.counter("ebv_query_adjacency_patches_total").get(),
            registry.counter("ebv_query_adjacency_rebuilds_total").get(),
        )
    }

    fn served(store: &SnapshotStore) -> Arc<Adjacency> {
        let snapshot = store.shared.current();
        Arc::clone(snapshot.adjacency.as_ref().expect("adjacency is served"))
    }

    /// The served adjacency is list for list what a from-scratch build of
    /// `graph` gives, and says it describes `graph`'s state.
    fn assert_serves(store: &SnapshotStore, graph: &DistributedGraph, context: &str) {
        let (held, rebuilt) = (served(store), Adjacency::from_distributed(graph));
        assert_eq!(held.offsets, rebuilt.offsets, "{context}");
        assert_eq!(held.targets, rebuilt.targets, "{context}");
        assert_eq!(held.state, graph.lineage().state, "{context}");
    }

    fn lcg(state: &mut u64, n: usize) -> usize {
        *state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((*state >> 33) % n as u64) as usize
    }

    /// A random multigraph over `n` vertices and 3 workers: `copies` edge
    /// copies drawn from few enough pairs that parallel copies, on the same
    /// worker and across workers, are common.
    fn multigraph(n: usize, copies: usize, rng: &mut u64) -> Vec<(Edge, PartitionId)> {
        (0..copies)
            .map(|_| {
                let src = lcg(rng, n) as u64;
                let edge = Edge::from((src, (src + 1 + lcg(rng, 3) as u64) % n as u64));
                (edge, PartitionId::from_index(lcg(rng, 3)))
            })
            .collect()
    }

    /// One small churn batch over `live`: a few deletions (LIFO), a few
    /// insertions, and every fifth epoch a vertex past the universe.
    fn small_batch(
        live: &mut Vec<(Edge, PartitionId)>,
        n: usize,
        epoch: usize,
        rng: &mut u64,
    ) -> MutationBatch {
        let mut batch = MutationBatch::new();
        for _ in 0..1 + lcg(rng, 3) {
            let pick = live[lcg(rng, live.len())];
            let latest = live.iter().rposition(|&pair| pair == pick).unwrap();
            live.remove(latest);
            batch.record_delete(pick.0, pick.1);
        }
        for _ in 0..1 + lcg(rng, 3) {
            let (edge, part) = multigraph(n, 1, rng)[0];
            batch.record_insert(edge, part);
            live.push((edge, part));
        }
        if epoch.is_multiple_of(5) {
            let edge = Edge::from((lcg(rng, n) as u64, (n + epoch) as u64));
            batch.record_insert(edge, PartitionId::new(0));
            live.push((edge, PartitionId::new(0)));
        }
        batch
    }

    #[test]
    fn thirty_patched_epochs_equal_thirty_rebuilds() {
        let mut rng = 0xD1B5_4A32_D192_ED03u64;
        let n = 240;
        let mut live = multigraph(n, 900, &mut rng);
        let mut graph =
            DistributedGraph::build_streaming(3, Some(n), live.iter().copied()).unwrap();
        let (store, registry) = adjacency_store();
        store.commit_epoch(&graph);
        assert_serves(&store, &graph, "first commit");
        assert_eq!(derivations(&registry), (0, 1), "nothing to patch yet");
        for epoch in 1..=30 {
            let batch = small_batch(&mut live, n, epoch, &mut rng);
            graph.apply_mutations(&batch).unwrap();
            store.commit_epoch(&graph);
            assert_serves(&store, &graph, &format!("epoch {epoch}"));
            assert_eq!(derivations(&registry), (epoch as u64, 1), "epoch {epoch}");
        }
        // And the state really is the multigraph's: a fresh build of the
        // survivors serves the same lists.
        let fresh = DistributedGraph::build_streaming(3, Some(graph.num_vertices()), live).unwrap();
        let rebuilt = Adjacency::from_distributed(&fresh);
        assert_eq!(served(&store).targets, rebuilt.targets);
    }

    #[test]
    fn a_commit_rebuilds_unless_it_knows_the_previous_adjacency_is_the_parent() {
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
        let n = 240;
        let mut live = multigraph(n, 900, &mut rng);
        let mut graph =
            DistributedGraph::build_streaming(3, Some(n), live.iter().copied()).unwrap();
        let (store, registry) = adjacency_store();
        store.commit_epoch(&graph);
        assert_eq!(derivations(&registry), (0, 1), "first commit");

        // An empty batch is the same state: the same adjacency, by pointer.
        let before = served(&store);
        graph.apply_mutations(&MutationBatch::new()).unwrap();
        store.commit_epoch(&graph);
        assert!(Arc::ptr_eq(&before, &served(&store)));
        assert_eq!(
            derivations(&registry),
            (0, 1),
            "neither patched nor rebuilt"
        );

        // Two applies between commits: the store holds the grandparent.
        for epoch in 1..=2 {
            let batch = small_batch(&mut live, n, epoch, &mut rng);
            graph.apply_mutations(&batch).unwrap();
        }
        store.commit_epoch(&graph);
        assert_serves(&store, &graph, "epoch gap");
        assert_eq!(derivations(&registry), (0, 2));

        // A clone that diverges after the last commit: same epoch number as
        // the committed successor, a different batch, the same parent.
        let mut twin_live = live.clone();
        let mut twin = graph.clone();
        graph
            .apply_mutations(&small_batch(&mut live, n, 3, &mut rng))
            .unwrap();
        twin.apply_mutations(&small_batch(&mut twin_live, n, 4, &mut rng))
            .unwrap();
        store.commit_epoch(&graph);
        assert_eq!(derivations(&registry), (1, 2), "one batch past the commit");
        assert_eq!(twin.epoch(), graph.epoch());
        store.commit_epoch(&twin);
        assert_serves(&store, &twin, "diverged clone");
        assert_eq!(derivations(&registry), (1, 3), "epoch + 1 proves nothing");
        // Back on the original line the store now holds a stranger's state.
        store.commit_epoch(&graph);
        assert_serves(&store, &graph, "back from the clone");
        assert_eq!(derivations(&registry), (1, 4));

        // A batch over the size rule: more than one vertex in eight.
        let mut big = MutationBatch::new();
        for v in 0..n as u64 / 8 + 1 {
            let edge = Edge::from((v, (v + 7) % n as u64));
            big.record_insert(edge, PartitionId::new(1));
        }
        graph.apply_mutations(&big).unwrap();
        assert!(graph.lineage().affected.len() * PATCH_MAX_AFFECTED_SHARE > graph.num_vertices());
        store.commit_epoch(&graph);
        assert_serves(&store, &graph, "big batch");
        assert_eq!(derivations(&registry), (1, 5));

        // Adjacency off for an epoch: the stale one is carried (as before),
        // and turning it back on cannot patch from it.
        store.serve_adjacency(false);
        graph
            .apply_mutations(&small_batch(&mut live, n, 6, &mut rng))
            .unwrap();
        let stale = served(&store);
        store.commit_epoch(&graph);
        assert!(Arc::ptr_eq(&stale, &served(&store)));
        store.serve_adjacency(true);
        graph
            .apply_mutations(&small_batch(&mut live, n, 7, &mut rng))
            .unwrap();
        store.commit_epoch(&graph);
        assert_serves(&store, &graph, "adjacency back on");
        assert_eq!(derivations(&registry), (1, 6));
        // From here the line is unbroken again.
        graph
            .apply_mutations(&small_batch(&mut live, n, 8, &mut rng))
            .unwrap();
        store.commit_epoch(&graph);
        assert_serves(&store, &graph, "patched again");
        assert_eq!(derivations(&registry), (2, 6));
    }

    #[test]
    fn carry_forward_shares_the_previous_snapshots_arrays() {
        let mut rng = 7u64;
        let live = multigraph(32, 90, &mut rng);
        let graph = DistributedGraph::build_streaming(3, Some(32), live).unwrap();
        let (store, _registry) = adjacency_store();
        let handle = store.handle();
        store.stage(Series {
            name: "cc".to_string(),
            data: u64::pack(&[1; 32]),
        });
        store.commit_epoch(&graph);
        let first = handle.snapshot().unwrap();
        store.commit(graph.epoch() as u64 + 1, 32, None);
        let second = handle.snapshot().unwrap();
        assert_eq!(second.epoch, first.epoch + 1);
        let busiest = (0..32u64)
            .max_by_key(|&v| first.neighbors(v).unwrap().len())
            .unwrap();
        assert!(!first.neighbors(busiest).unwrap().is_empty());
        assert_eq!(
            first.neighbors(busiest).unwrap().as_ptr(),
            second.neighbors(busiest).unwrap().as_ptr(),
            "the adjacency is carried forward as a pointer"
        );
        let (old, new) = (first.series("cc").unwrap(), second.series("cc").unwrap());
        assert!(std::ptr::eq(old, new), "so is a series nobody re-staged");
    }

    #[test]
    fn a_carried_forward_series_keeps_its_zone_map_and_a_restaged_one_gets_a_fresh_one() {
        let store = SnapshotStore::with_registry(&MetricsRegistry::new());
        let committed = |name: &str| {
            let snapshot = store.shared.current();
            let found = snapshot.series.iter().find(|c| c.series.name == name);
            Arc::clone(found.expect("series is committed"))
        };
        store.stage(Series {
            name: "cc".to_string(),
            data: u64::pack(&(0..200).collect::<Vec<u64>>()),
        });
        store.stage(Series {
            name: "rank".to_string(),
            data: f64::pack(&[0.25; 200]),
        });
        store.commit(1, 200, None);
        let (cc, rank) = (committed("cc"), committed("rank"));
        let restaged = f64::pack(&(0..200).map(|v| v as f64).collect::<Vec<_>>());
        store.stage(Series {
            name: "rank".to_string(),
            data: restaged.clone(),
        });
        store.commit(2, 200, None);
        assert!(Arc::ptr_eq(&cc, &committed("cc")), "carried with its map");
        let fresh = committed("rank");
        assert!(!Arc::ptr_eq(&rank, &fresh));
        assert_eq!(fresh.zones, ZoneMap::build(&restaged));
        assert_ne!(
            fresh.zones, rank.zones,
            "the old map went with the old values"
        );
    }

    #[test]
    fn pagerank_values_publish_as_normalized_ranks() {
        let values = vec![
            PageRankValue {
                rank: 0.25,
                partial: 0.0,
            },
            PageRankValue {
                rank: 0.75,
                partial: 0.0,
            },
        ];
        match PageRankValue::pack(&values) {
            SeriesData::F64(ranks) => assert_eq!(ranks, ebv_algorithms::ranks(&values)),
            other => panic!("expected F64 ranks, got {other:?}"),
        }
    }

    /// Commits `epoch` with one 64-element series holding `epoch` in every
    /// slot, so a snapshot mixing two epochs is detectable from its values.
    fn commit_uniform(store: &SnapshotStore, epoch: u64) {
        store.stage(Series {
            name: "v".to_string(),
            data: u64::pack(&[epoch; 64]),
        });
        store.commit(epoch, 64, None);
    }

    fn uniform_values(snapshot: &GraphSnapshot) -> &[u64] {
        match &snapshot.series("v").expect("series v is committed").data {
            SeriesData::U64 { values, .. } => values,
            other => panic!("expected a u64 series, got {other:?}"),
        }
    }

    /// The core torn-read property: each committed snapshot is internally
    /// consistent (all elements equal the epoch), so any mixed vector
    /// observed by a reader would prove a torn flip.
    ///
    /// The interleaving is forced rather than hoped for: the writer starts
    /// only once every reader has completed a load, and follows each commit
    /// with a wait for a further load, so reads race every one of the 500
    /// flips even when the scheduler would let the writer finish first.
    #[test]
    fn concurrent_readers_never_observe_a_torn_value() {
        let store = SnapshotStore::with_registry(&MetricsRegistry::new());
        commit_uniform(&store, 0);
        let stop = Arc::new(AtomicBool::new(false));
        let all_reading = Arc::new(Barrier::new(5));
        let total_loads = Arc::new(AtomicU64::new(0));
        let shared_handle = store.handle();
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let handle = shared_handle.clone();
                let stop = Arc::clone(&stop);
                let all_reading = Arc::clone(&all_reading);
                let total_loads = Arc::clone(&total_loads);
                thread::spawn(move || {
                    let mut last = 0u64;
                    let mut loads = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let snapshot = handle.snapshot().expect("epoch 0 is committed");
                        let values = uniform_values(&snapshot);
                        let first = values[0];
                        assert!(
                            values.iter().all(|&x| x == first),
                            "torn snapshot: {first} mixed with another epoch"
                        );
                        assert_eq!(snapshot.epoch, first, "values belong to their epoch tag");
                        assert!(first >= last, "flips must be monotonic");
                        last = first;
                        // The same through the handle's own pin: a point
                        // read and a top-k, each from one epoch, never
                        // older than the last one this reader saw.
                        let Ok(QueryValue::U64(point)) = handle.lookup("v", loads % 64) else {
                            panic!("epoch 0 is committed")
                        };
                        assert!(point >= last, "a pinned read went back in time");
                        last = point;
                        let top = handle
                            .topk("v", 3, loads.is_multiple_of(2))
                            .expect("committed");
                        let ids: Vec<u64> = top.iter().map(|&(vertex, _)| vertex).collect();
                        assert_eq!(ids, vec![0, 1, 2], "ties go to the lower ids");
                        let QueryValue::U64(best) = top[0].1 else {
                            panic!("a u64 series")
                        };
                        assert!(
                            top.iter().all(|&(_, value)| value == QueryValue::U64(best)),
                            "torn top-k: {top:?}"
                        );
                        assert!(best >= last, "a pinned top-k went back in time");
                        last = best;
                        loads += 1;
                        total_loads.fetch_add(1, Ordering::SeqCst);
                        if loads == 1 {
                            all_reading.wait();
                        }
                    }
                    loads
                })
            })
            .collect();
        all_reading.wait();
        for epoch in 1..=500u64 {
            let before = total_loads.load(Ordering::SeqCst);
            commit_uniform(&store, epoch);
            while total_loads.load(Ordering::SeqCst) == before {
                thread::yield_now();
            }
        }
        stop.store(true, Ordering::Relaxed);
        let total: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
        assert!(total > 0, "readers made progress");
        let last = store.handle().snapshot().unwrap();
        assert_eq!(uniform_values(&last), vec![500u64; 64]);
    }

    #[test]
    fn writers_are_serialized_and_last_store_wins() {
        let store = SnapshotStore::with_registry(&MetricsRegistry::new());
        thread::scope(|scope| {
            for w in 0..4u64 {
                let store = &store;
                scope.spawn(move || {
                    for i in 0..100u64 {
                        store.commit(w * 1000 + i, 0, None);
                    }
                });
            }
        });
        // One of the writers' final values survived (no corruption).
        let last = store.handle().snapshot().unwrap().epoch;
        assert!((0..4).any(|w| last == w * 1000 + 99), "last = {last}");
    }
}
