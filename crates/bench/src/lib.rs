//! # ebv-bench — the experiment harness
//!
//! Reproduces every table and figure of the paper's evaluation section from
//! the synthetic dataset registry:
//!
//! | Experiment | Binary |
//! |------------|--------|
//! | Table I — graph statistics | `table1_graph_stats` |
//! | Table II — CC breakdown, 4 workers | `table2_cc_breakdown` |
//! | Table III — partition metrics | `table3_partition_metrics` |
//! | Table IV — CC communication messages | `table4_cc_messages` |
//! | Table V — message max/mean imbalance | `table5_message_imbalance` |
//! | Figure 2 — CC/PR/SSSP execution time vs workers (power-law) | `fig2_execution_time` |
//! | Figure 3 — CC/SSSP on the road graph | `fig3_road` |
//! | Figure 4 — per-worker timeline breakdown | `fig4_worker_breakdown` |
//! | Figure 5 — replication-factor growth (EBV-sort vs unsort) | `fig5_replication_growth` |
//! | Evaluation-function ablation (extension) | `ablation_eval_terms` |
//!
//! Run a binary with `cargo run --release -p ebv-bench --bin <name>`; set
//! `EBV_SCALE=full` for the larger dataset sizes. Timing lives in the
//! `ebvbench` binary (the benchmark `BENCHMARK.json` names) and
//! `bench_dynamic`; `bench_gate` and `trace_check` are the CI gates over
//! their output.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod datasets;
mod json;
pub mod report;
pub mod runner;

pub use datasets::{Dataset, Scale};
pub use json::scan_values;
pub use report::{scientific, TextTable};
pub use runner::{partition_with_metrics, run_experiment, Application, ExperimentResult};
