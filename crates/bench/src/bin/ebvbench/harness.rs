//! What the three workload families share: the [`Workload`] contract, the
//! per-pass record, step metering (wall time plus requested bytes), result
//! fingerprints and the scratch directory.

use std::error::Error;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ebv_bsp::{BspEngine, DistributedGraph, ExecutionStats, MutationStats};
use ebv_obs::Recorder;
use ebv_partition::PartitionMetrics;

use crate::alloc::requested_bytes;
use crate::machine::Machine;
use crate::reads::ReadTiming;
use crate::trace::Tracer;

pub type Result<T> = std::result::Result<T, Box<dyn Error>>;

/// Every workload distributes over this many workers…
pub const WORKERS: usize = 8;
/// …and runs them on the calling thread: threads on two shared vCPUs do
/// not repeat (README.md), and sequential is the engine's bitwise reference.
pub fn engine() -> BspEngine {
    BspEngine::sequential()
}

/// One named pass/fail check of the end-of-run verification.
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
}

/// Exact per-pass counts the per-layer metrics are derived from.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub supersteps: u64,
    pub messages: u64,
    pub sent_per_worker: Vec<u64>,
    /// Raw events fed to the dynamic partitioner.
    pub events: u64,
    /// Raw events that cancelled inside their batch.
    pub cancelled_events: u64,
    /// Applied (non-empty) epochs.
    pub epochs: u64,
    pub workers_touched: u64,
    pub edges_rebuilt: u64,
    /// Edge copies the applied batches added or removed.
    pub edges_changed: u64,
    pub cone_vertices: u64,
    pub wal_bytes: u64,
    pub checkpoints: u64,
    pub checkpoint_bytes: u64,
    pub partitioner_state_bytes: u64,
    pub replayed_frames: u64,
}

impl Counters {
    pub fn absorb_run(&mut self, stats: &ExecutionStats) {
        self.supersteps += stats.num_supersteps() as u64;
        self.messages += stats.total_messages() as u64;
        let sent = stats.messages_sent_per_worker();
        self.sent_per_worker.resize(sent.len(), 0);
        for (total, sent) in self.sent_per_worker.iter_mut().zip(sent) {
            *total += sent as u64;
        }
    }

    pub fn absorb_apply(&mut self, stats: &MutationStats) {
        if stats.workers_touched > 0 {
            self.epochs += 1;
        }
        self.workers_touched += stats.workers_touched as u64;
        self.edges_rebuilt += stats.edges_rebuilt as u64;
        self.edges_changed += (stats.edges_added + stats.edges_removed) as u64;
    }

    /// Max/mean of per-worker sent messages over the pass (1 when nothing
    /// was sent, like `max_mean_ratio`).
    pub fn message_imbalance(&self) -> f64 {
        let sent: Vec<usize> = self.sent_per_worker.iter().map(|&s| s as usize).collect();
        ebv_partition::max_mean_ratio(&sent)
    }
}

/// What one pass over the `S` steps measured.
pub struct PassRecord {
    /// Wall time of each step, in milliseconds.
    pub step_ms: Vec<f64>,
    /// The read block after each step.
    pub reads: Vec<ReadTiming>,
    /// Bytes requested inside the timed steps and read blocks.
    pub alloc_bytes: u64,
    /// The partition quality the product holds at the end of the pass.
    pub quality: PartitionMetrics,
    /// Digest of every value the pass computed; equal across passes.
    pub fingerprint: u64,
    pub counters: Counters,
}

/// One benchmark workload: inputs from a seed, a repeatable set-up, and a
/// pass of `steps()` deterministic steps from the post-set-up state.
pub trait Workload {
    /// What the generator hands the program: events, or an edge file.
    type Input;
    /// The post-set-up state every pass starts from.
    type State;
    /// The end-of-pass state the reference checks inspect.
    type End;

    fn steps(&self) -> usize;

    /// How often set-up is repeated for the `setup_s` median.
    fn setup_reps(&self) -> usize;

    /// Generates the inputs from `seed`, before any timing.
    fn generate(&self, seed: u64, dir: &Path) -> Result<Self::Input>;

    /// Loads the input, builds the starting state and runs one warm-up
    /// step, so that work moved into lazy initialisation shows in `setup_s`.
    fn setup(&self, input: &Self::Input, dir: &Path, tracer: &Tracer) -> Result<Self::State>;

    /// Replays the steps once. With a disabled `tracer` and a
    /// `NoopRecorder` this goes through the product's own entry points;
    /// with an enabled one, through the benchmark's unrolled copy that
    /// wraps every public call in a span. `machine` is sampled before every
    /// step. Returns the measurements and the end state for the reference
    /// checks.
    fn pass<R: Recorder>(
        &self,
        input: &Self::Input,
        state: &Self::State,
        dir: &Path,
        recorder: &R,
        tracer: &Tracer,
        machine: &Machine,
    ) -> Result<(PassRecord, Self::End)>;

    /// Compares the pass's results with independent references.
    fn verify(
        &self,
        input: &Self::Input,
        state: &Self::State,
        end: &Self::End,
    ) -> Result<Vec<Check>>;

    /// The distribution the pass ended on (for the executor-mode probe).
    fn end_graph<'a>(&self, end: &'a Self::End) -> &'a DistributedGraph;

    /// `partition.order_ms`: the one layer a span cannot reach, timed on its
    /// own by the workloads that run it.
    fn partition_order_ms(&self, _state: &Self::State) -> f64 {
        0.0
    }
}

/// Wall time and requested bytes of one timed region.
pub struct Meter {
    started: Instant,
    bytes_before: u64,
}

impl Meter {
    pub fn start() -> Self {
        Meter {
            bytes_before: requested_bytes(),
            started: Instant::now(),
        }
    }

    /// `(milliseconds, bytes requested)` since [`Meter::start`].
    pub fn stop(self) -> (f64, u64) {
        let ms = self.started.elapsed().as_secs_f64() * 1e3;
        (ms, requested_bytes() - self.bytes_before)
    }
}

/// FNV-1a over 64-bit words: the order-sensitive digest passes are compared
/// by.
pub struct Fingerprint(u64);

impl Fingerprint {
    pub fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn words(&mut self, words: &[u64]) {
        words.iter().for_each(|&word| self.word(word));
    }

    pub fn quality(&mut self, metrics: &PartitionMetrics) {
        self.word(metrics.replication_factor.to_bits());
        self.word(metrics.edge_imbalance.to_bits());
        self.word(metrics.vertex_imbalance.to_bits());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The run's scratch directory, inside the checkout: under
/// `$CARGO_TARGET_DIR` (or `target/`), removed on drop. Names are
/// fixed-width so path lengths — and with them the exact allocation counts —
/// do not depend on the process id.
pub struct WorkDir {
    base: PathBuf,
    root: PathBuf,
}

impl WorkDir {
    pub fn create() -> std::io::Result<Self> {
        let base = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
        let base = PathBuf::from(base);
        let root = base
            .join("ebvbench-work")
            .join(format!("{:010}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(WorkDir { base, root })
    }

    pub fn path(&self) -> &Path {
        &self.root
    }

    /// Where the traced run leaves its Chrome trace; it outlives the run.
    pub fn trace_path(&self, workload: &str) -> PathBuf {
        self.base.join(format!("ebvbench-trace-{workload}.json"))
    }

    /// A fresh, empty `<kind>-<index>` subdirectory.
    pub fn fresh(&self, kind: &str, index: usize) -> std::io::Result<PathBuf> {
        let dir = self.root.join(format!("{kind}-{index:04}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}
