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

/// How a served adjacency was derived; a commit counts the route of the
/// adjacency it serves.
enum Route {
    /// The published adjacency already described this state.
    Shared,
    /// Copied forward from the parent's with the affected lists re-read.
    Patched,
    /// Built from scratch.
    Rebuilt,
}

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

    /// The sorted out-neighbors of `vertex`, as raw 32-bit vertex ids.
    ///
    /// # Errors
    ///
    /// [`QueryError::NoAdjacency`] / [`QueryError::UnknownVertex`].
    pub fn neighbors(&self, vertex: u64) -> Result<&[u32], QueryError> {
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
    /// Whether an [`EpochCommitter`] commit serves adjacency; set by
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

    /// Makes the [`EpochCommitter`] commits serve the global adjacency
    /// of each committed epoch. The first commit — and any commit whose
    /// graph is not one small batch past the previously committed one — is
    /// an `O(E)` counting-sort build; after that an epoch costs a block
    /// copy of the previous CSR plus a re-read of the batch's affected
    /// vertices (see [`EpochCommitter::prepare_epoch`] on this type). In an
    /// epoch loop that derivation runs beside the epoch's programs, and the
    /// commit it returns only publishes it. Leave it off when only value
    /// lookups are served; then `prepare_epoch` derives nothing.
    pub fn serve_adjacency(&self, enabled: bool) {
        self.adjacency_from_pipeline
            .store(enabled, std::sync::atomic::Ordering::Relaxed);
    }

    fn serves_adjacency(&self) -> bool {
        self.adjacency_from_pipeline
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The adjacency of `distributed`, by the cheapest route its
    /// [`lineage`](DistributedGraph::lineage) proves correct against the
    /// published snapshot (see [`EpochCommitter::prepare_epoch`] on this
    /// type). Reads only the graph and the published snapshot, so it may
    /// run beside the epoch's programs.
    fn derive_adjacency(&self, distributed: &DistributedGraph) -> (Arc<Adjacency>, Route) {
        let lineage = distributed.lineage();
        let small = lineage.affected.len() * PATCH_MAX_AFFECTED_SHARE <= distributed.num_vertices();
        // State 0 names no state (the default `Adjacency`, a fresh graph's
        // parent), so it never counts as a match.
        match self.shared.current().adjacency.as_ref() {
            Some(held) if held.state == lineage.state => (Arc::clone(held), Route::Shared),
            Some(held) if held.state == lineage.parent && held.state != 0 && small => (
                Arc::new(held.patched(distributed, lineage.affected)),
                Route::Patched,
            ),
            _ => (
                Arc::new(Adjacency::from_distributed(distributed)),
                Route::Rebuilt,
            ),
        }
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
    /// The pipeline-side commit: called by the epoch loops (through
    /// [`run_epoch`](ebv_bsp::run_epoch)) beside each applied epoch's
    /// programs, and its commit once they have staged their series. When
    /// [`serve_adjacency`] is on, the adjacency of the post-apply
    /// distribution is derived here — reading the graph and the published
    /// snapshot only, never `staging`, which the programs fill meanwhile —
    /// by the cheapest route the graph's
    /// [`lineage`](DistributedGraph::lineage) proves correct:
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
    /// The decisions read state ids, never epoch numbers: two graphs at
    /// the same epoch need not be the same state. The returned commit
    /// counts the route and publishes the staged series with that
    /// adjacency; dropped, it publishes and counts nothing.
    ///
    /// [`serve_adjacency`]: SnapshotStore::serve_adjacency
    fn prepare_epoch<'a>(
        &'a self,
        distributed: &'a DistributedGraph,
    ) -> Box<dyn FnOnce() + Send + 'a> {
        let derived = self
            .serves_adjacency()
            .then(|| self.derive_adjacency(distributed));
        Box::new(move || {
            let adjacency = derived.map(|(adjacency, route)| {
                match route {
                    Route::Shared => {}
                    Route::Patched => self.shared.adjacency_patches.add(1),
                    Route::Rebuilt => self.shared.adjacency_rebuilds.add(1),
                }
                adjacency
            });
            self.publish(
                distributed.epoch() as u64,
                distributed.num_vertices(),
                adjacency,
            );
        })
    }
}

#[cfg(test)]
mod tests;
