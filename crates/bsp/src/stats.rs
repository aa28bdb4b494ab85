//! Execution statistics and the deterministic cost model.
//!
//! The paper's Tables II, IV and V and Figures 2–4 are all derived from three
//! per-worker, per-superstep quantities: computational work, messages sent
//! and messages received. [`ExecutionStats`] records them exactly (they are
//! platform-independent counters, the same metric the paper uses in Section
//! V-C), and [`CostModel`] converts them into the modeled execution-time
//! breakdown (comp, comm, ΔC, execution time) reported by Table II and
//! plotted in Figures 2–4.

use std::fmt;

use ebv_partition::max_mean_ratio;

/// Counters for one worker during one superstep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerSuperstepStats {
    /// Work units performed in the computation stage. One unit is one edge
    /// relaxation *performed* — an edge a worklist never reaches costs
    /// nothing — so the count follows a program's frontier, not the size of
    /// its subgraph. CC's component superstep counts local edges + local
    /// vertices in superstep 0 (whether or not the subgraph's
    /// [`local_components`](crate::Subgraph::local_components) were cached)
    /// and the vertices it relabels afterwards.
    pub work: u64,
    /// Replica messages sent during the communication stage.
    pub messages_sent: usize,
    /// Replica messages received during the communication stage.
    pub messages_received: usize,
    /// Local value writes performed
    /// ([`SubgraphContext::set_value`](crate::SubgraphContext::set_value)
    /// calls; a vertex lowered twice counts twice — CC lowers a component's
    /// label on its first member once per message that undercuts it, then
    /// each other member once).
    pub updates: usize,
}

/// Counters for all workers during one superstep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SuperstepStats {
    /// Per-worker counters, indexed by worker (partition).
    pub per_worker: Vec<WorkerSuperstepStats>,
}

impl SuperstepStats {
    /// Total messages sent by all workers in this superstep.
    pub fn messages(&self) -> usize {
        self.per_worker.iter().map(|w| w.messages_sent).sum()
    }

    /// Total updates performed by all workers in this superstep.
    pub fn updates(&self) -> usize {
        self.per_worker.iter().map(|w| w.updates).sum()
    }
}

/// Counters for a whole program execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecutionStats {
    /// Number of workers.
    pub num_workers: usize,
    /// Mutation epoch of the distributed graph the program ran on: 0 for a
    /// fresh build, incremented per absorbed non-empty mutation batch (see
    /// `DistributedGraph::apply_mutations`).
    pub epoch: usize,
    /// Workers re-assembled by the mutation epoch that produced the
    /// distribution this program ran on (0 for fresh builds) — the
    /// incremental-assembly locality counter of
    /// `DistributedGraph::last_mutation`.
    pub workers_touched: usize,
    /// Local edges re-indexed by that mutation epoch (0 for fresh builds).
    pub edges_rebuilt: usize,
    /// Per-superstep counters.
    pub supersteps: Vec<SuperstepStats>,
}

impl ExecutionStats {
    /// Number of supersteps executed.
    pub fn num_supersteps(&self) -> usize {
        self.supersteps.len()
    }

    /// Total number of replica messages sent over the whole execution — the
    /// platform-independent communication metric of Table IV.
    pub fn total_messages(&self) -> usize {
        self.supersteps.iter().map(|s| s.messages()).sum()
    }

    /// Total work units over the whole execution.
    pub fn total_work(&self) -> u64 {
        self.supersteps
            .iter()
            .flat_map(|s| s.per_worker.iter())
            .map(|w| w.work)
            .sum()
    }

    /// Messages sent by each worker, summed over supersteps.
    pub fn messages_sent_per_worker(&self) -> Vec<usize> {
        let mut totals = vec![0usize; self.num_workers];
        for superstep in &self.supersteps {
            for (i, w) in superstep.per_worker.iter().enumerate() {
                totals[i] += w.messages_sent;
            }
        }
        totals
    }

    /// The max/mean ratio of per-worker sent messages — the communication
    /// imbalance metric of Table V.
    pub fn message_max_mean_ratio(&self) -> f64 {
        max_mean_ratio(&self.messages_sent_per_worker())
    }

    /// Work units performed by each worker, summed over supersteps.
    pub(crate) fn work_per_worker(&self) -> Vec<usize> {
        let mut totals = vec![0usize; self.num_workers];
        for superstep in &self.supersteps {
            for (i, w) in superstep.per_worker.iter().enumerate() {
                totals[i] += w.work as usize;
            }
        }
        totals
    }

    /// The max/mean ratio of per-worker work units — the deterministic
    /// counted counterpart of the wall-clock `ebv_bsp_straggler_ratio`
    /// gauge: work skew predicts compute-time skew under the cost model,
    /// so a divergence between the two points at platform effects (cache,
    /// scheduling) rather than partitioning.
    pub(crate) fn work_max_mean_ratio(&self) -> f64 {
        max_mean_ratio(&self.work_per_worker())
    }
}

impl fmt::Display for ExecutionStats {
    /// One-line summary: supersteps, messages, work units, workers, epoch
    /// and (when non-zero) the incremental-assembly counters.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} supersteps, {} messages, {} work units over {} workers (epoch {}",
            self.num_supersteps(),
            self.total_messages(),
            self.total_work(),
            self.num_workers,
            self.epoch,
        )?;
        if self.workers_touched > 0 || self.edges_rebuilt > 0 {
            write!(
                f,
                ", {} workers touched, {} edges rebuilt",
                self.workers_touched, self.edges_rebuilt
            )?;
        }
        write!(f, ")")
    }
}

/// Converts counted work and messages into modeled seconds.
///
/// The absolute constants are calibrated to commodity-cluster magnitudes
/// (tens of nanoseconds per edge traversal, hundreds of nanoseconds per
/// message, a millisecond of barrier overhead); the paper's conclusions rest
/// on *relative* comparisons between partitioners, which are preserved under
/// any positive choice of constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Seconds of computation per work unit (edge traversal).
    pub seconds_per_work_unit: f64,
    /// Seconds of communication per replica message.
    pub seconds_per_message: f64,
    /// Fixed per-superstep synchronization overhead in seconds.
    pub superstep_overhead: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            seconds_per_work_unit: 5e-8,
            seconds_per_message: 6e-7,
            superstep_overhead: 1e-3,
        }
    }
}

/// The comp/comm/sync spans of one worker in one superstep — one bar of the
/// Figure 4 timeline.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TimelineSpan {
    /// Modeled computation seconds.
    pub comp: f64,
    /// Modeled communication seconds.
    pub comm: f64,
    /// Modeled synchronization (waiting) seconds.
    pub sync: f64,
}

/// The Table II execution-time breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct Breakdown {
    /// Mean over workers of the total computation time (the paper's `comp`).
    pub comp: f64,
    /// Mean over workers of the total communication time (the paper's `comm`).
    pub comm: f64,
    /// Accumulated synchronization gap `ΔC = Σ_k (max_i − min_i)`.
    pub delta_c: f64,
    /// Modeled execution time `Σ_k max_i(comp + comm)` plus superstep
    /// overhead.
    pub execution_time: f64,
    /// Per-worker, per-superstep spans (the Figure 4 timeline).
    pub timelines: Vec<Vec<TimelineSpan>>,
}

impl fmt::Display for Breakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "comp {:.3}s, comm {:.3}s, deltaC {:.3}s, execution {:.3}s",
            self.comp, self.comm, self.delta_c, self.execution_time
        )
    }
}

impl CostModel {
    /// Computes the Table II breakdown (and Figure 4 timelines) from the
    /// execution counters.
    pub fn breakdown(&self, stats: &ExecutionStats) -> Breakdown {
        let p = stats.num_workers.max(1);
        let mut comp_totals = vec![0.0f64; p];
        let mut comm_totals = vec![0.0f64; p];
        let mut delta_c = 0.0f64;
        let mut execution_time = 0.0f64;
        let mut timelines: Vec<Vec<TimelineSpan>> = vec![Vec::new(); p];

        for superstep in &stats.supersteps {
            let spans: Vec<(f64, f64)> = superstep
                .per_worker
                .iter()
                .map(|w| {
                    let comp = w.work as f64 * self.seconds_per_work_unit;
                    let comm =
                        (w.messages_sent + w.messages_received) as f64 * self.seconds_per_message;
                    (comp, comm)
                })
                .collect();
            let busy: Vec<f64> = spans.iter().map(|(c, m)| c + m).collect();
            let max_busy = busy.iter().copied().fold(0.0f64, f64::max);
            let min_busy = busy.iter().copied().fold(f64::INFINITY, f64::min);
            let min_busy = if min_busy.is_finite() { min_busy } else { 0.0 };
            delta_c += max_busy - min_busy;
            execution_time += max_busy + self.superstep_overhead;
            for (i, (comp, comm)) in spans.iter().enumerate() {
                comp_totals[i] += comp;
                comm_totals[i] += comm;
                timelines[i].push(TimelineSpan {
                    comp: *comp,
                    comm: *comm,
                    sync: max_busy - busy[i],
                });
            }
        }

        Breakdown {
            comp: comp_totals.iter().sum::<f64>() / p as f64,
            comm: comm_totals.iter().sum::<f64>() / p as f64,
            delta_c,
            execution_time,
            timelines,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_two_workers() -> ExecutionStats {
        ExecutionStats {
            num_workers: 2,
            epoch: 0,
            workers_touched: 0,
            edges_rebuilt: 0,
            supersteps: vec![
                SuperstepStats {
                    per_worker: vec![
                        WorkerSuperstepStats {
                            work: 100,
                            messages_sent: 10,
                            messages_received: 5,
                            updates: 3,
                        },
                        WorkerSuperstepStats {
                            work: 200,
                            messages_sent: 20,
                            messages_received: 25,
                            updates: 4,
                        },
                    ],
                },
                SuperstepStats {
                    per_worker: vec![
                        WorkerSuperstepStats {
                            work: 50,
                            messages_sent: 0,
                            messages_received: 20,
                            updates: 1,
                        },
                        WorkerSuperstepStats {
                            work: 60,
                            messages_sent: 0,
                            messages_received: 10,
                            updates: 0,
                        },
                    ],
                },
            ],
        }
    }

    #[test]
    fn totals_are_summed_correctly() {
        let s = stats_two_workers();
        assert_eq!(s.num_supersteps(), 2);
        assert_eq!(s.total_messages(), 30);
        assert_eq!(s.total_work(), 410);
        assert_eq!(s.messages_sent_per_worker(), vec![10, 20]);
        assert!((s.message_max_mean_ratio() - 20.0 / 15.0).abs() < 1e-12);
        assert_eq!(s.work_per_worker(), vec![150, 260]);
        assert!((s.work_max_mean_ratio() - 260.0 / 205.0).abs() < 1e-12);
        assert_eq!(s.supersteps[0].messages(), 30);
        assert_eq!(s.supersteps[0].updates(), 7);
    }

    #[test]
    fn execution_stats_display_is_one_line() {
        let mut s = stats_two_workers();
        assert_eq!(
            s.to_string(),
            "2 supersteps, 30 messages, 410 work units over 2 workers (epoch 0)"
        );
        s.epoch = 3;
        s.workers_touched = 1;
        s.edges_rebuilt = 42;
        let line = s.to_string();
        assert!(line.contains("epoch 3"));
        assert!(line.contains("1 workers touched, 42 edges rebuilt"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn breakdown_matches_hand_computation() {
        let s = stats_two_workers();
        let model = CostModel {
            seconds_per_work_unit: 1.0,
            seconds_per_message: 10.0,
            superstep_overhead: 0.0,
        };
        let b = model.breakdown(&s);
        // Superstep 0: worker0 busy = 100 + 150 = 250, worker1 = 200 + 450 = 650.
        // Superstep 1: worker0 busy = 50 + 200 = 250, worker1 = 60 + 100 = 160.
        assert!((b.execution_time - (650.0 + 250.0)).abs() < 1e-9);
        assert!((b.delta_c - ((650.0 - 250.0) + (250.0 - 160.0))).abs() < 1e-9);
        assert!((b.comp - (150.0 + 260.0) / 2.0).abs() < 1e-9);
        assert!((b.comm - ((150.0 + 200.0) + (450.0 + 100.0)) / 2.0).abs() < 1e-9);
        // Timeline sync spans: the slowest worker waits 0.
        assert!((b.timelines[1][0].sync - 0.0).abs() < 1e-12);
        assert!((b.timelines[0][0].sync - 400.0).abs() < 1e-9);
        assert!(b.to_string().contains("execution"));
    }

    #[test]
    fn default_cost_model_is_positive() {
        let m = CostModel::default();
        assert!(m.seconds_per_work_unit > 0.0);
        assert!(m.seconds_per_message > 0.0);
        assert!(m.superstep_overhead > 0.0);
    }

    #[test]
    fn empty_stats_are_well_behaved() {
        let s = ExecutionStats::default();
        assert_eq!(s.total_messages(), 0);
        assert_eq!(s.total_work(), 0);
        assert!((s.message_max_mean_ratio() - 1.0).abs() < 1e-12);
        let b = CostModel::default().breakdown(&s);
        assert_eq!(b.execution_time, 0.0);
        assert_eq!(b.delta_c, 0.0);
    }

    /// Zero-worker / zero-work guard: the skew ratios the engine exports
    /// to /metrics must stay finite (neutral 1.0) when a run had no
    /// workers or its supersteps performed no work at all — never
    /// `0/0 = NaN` or `x/0 = inf`.
    #[test]
    fn skew_ratios_are_finite_for_zero_worker_and_zero_work_runs() {
        // No workers at all (the degenerate stats shape).
        let no_workers = ExecutionStats {
            num_workers: 0,
            ..ExecutionStats::default()
        };
        assert!(no_workers.work_max_mean_ratio().is_finite());
        assert_eq!(no_workers.work_max_mean_ratio(), 1.0);
        assert_eq!(no_workers.message_max_mean_ratio(), 1.0);

        // Workers present, but every superstep counted zero work and zero
        // messages (e.g. a fully quiesced warm epoch).
        let zero_work = ExecutionStats {
            num_workers: 3,
            epoch: 5,
            workers_touched: 0,
            edges_rebuilt: 0,
            supersteps: vec![SuperstepStats {
                per_worker: vec![WorkerSuperstepStats::default(); 3],
            }],
        };
        assert_eq!(zero_work.work_per_worker(), vec![0, 0, 0]);
        assert!(zero_work.work_max_mean_ratio().is_finite());
        assert_eq!(zero_work.work_max_mean_ratio(), 1.0);
        assert!(zero_work.message_max_mean_ratio().is_finite());
        assert_eq!(zero_work.message_max_mean_ratio(), 1.0);
    }
}
