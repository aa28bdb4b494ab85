//! # ebv-bench — the experiment harness
//!
//! Reproduces every table and figure of the paper's evaluation section from
//! the synthetic dataset registry. The [`paper`] module renders each one as
//! text, and the `paper` binary prints them:
//!
//! | Experiment | `paper` subcommand |
//! |------------|--------------------|
//! | Table I — graph statistics | `table1` |
//! | Table II — CC breakdown, 4 workers | `table2` |
//! | Table III — partition metrics | `table3` |
//! | Table IV — CC communication messages | `table4` |
//! | Table V — message max/mean imbalance | `table5` |
//! | Figure 2 — CC/PR/SSSP execution time vs workers (power-law) | `fig2` |
//! | Figure 3 — CC/SSSP on the road graph | `fig3` |
//! | Figure 4 — per-worker timeline breakdown | `fig4` |
//! | Figure 5 — replication-factor growth (EBV-sort vs unsort) | `fig5` |
//! | Evaluation-function ablation (extension) | `ablation` |
//!
//! Run one with `cargo run --release -p ebv-bench --bin paper -- <name>`,
//! or all ten in this order with `all`; set `EBV_SCALE=full` for the
//! larger dataset sizes. `crates/bench/golden/` pins each report's
//! small-scale output byte for byte. Timing lives in the `ebvbench` binary
//! (the benchmark `BENCHMARK.json` names) and `bench_dynamic`;
//! `bench_gate` and `trace_check` are the CI gates over their output.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

mod datasets;
mod json;
pub mod paper;
mod report;
mod runner;

pub use datasets::Scale;
pub use json::scan_values;
pub use report::TextTable;
