//! `ebvbench` — the benchmark every performance or simplicity claim about
//! this repository is measured with. README.md in this directory explains
//! the workloads, the estimator and the metrics; `--list` prints them.
//!
//! ```text
//! ebvbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ebvbench --selfcheck <runs> --workload <name> [--seed N] [--seconds S]
//! ebvbench --list
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The exit code is
//! non-zero when any operation failed.

mod alloc;
mod batch;
mod churn;
mod estimator;
mod harness;
mod machine;
mod reads;
mod report;
mod restart;
mod run;
mod selfcheck;
mod spec;
mod trace;

use std::process::ExitCode;

use batch::{Batch, BatchGraph};
use churn::Churn;
use harness::Result;
use report::Report;
use restart::Restart;
use run::{run, RunArgs};

#[global_allocator]
static GLOBAL: alloc::CountingAllocator = alloc::CountingAllocator;

const DEFAULT_SEED: u64 = 42;
const DEFAULT_SECONDS: f64 = 16.0;

fn run_workload(args: &RunArgs<'_>) -> Result<Report> {
    match args.workload {
        "batch_rmat" => run(
            &Batch {
                graph: BatchGraph::Rmat,
            },
            args,
        ),
        "batch_road" => run(
            &Batch {
                graph: BatchGraph::Road,
            },
            args,
        ),
        "churn_window" => run(
            &Churn {
                events_per_epoch: 32_768,
                steps: 16,
            },
            args,
        ),
        "churn_trickle" => run(
            &Churn {
                events_per_epoch: 256,
                steps: 40,
            },
            args,
        ),
        "restart" => run(&Restart, args),
        other => Err(format!("unknown workload {other:?}; --list names them").into()),
    }
}

fn list() {
    println!("workloads:");
    for workload in spec::WORKLOADS {
        println!("  {:<14} {}", workload.name, workload.why);
    }
    println!("end-to-end metrics (--trace 0), with the share by which each may worsen:");
    for metric in spec::END_TO_END {
        println!(
            "  {:<32} {:<6} {} is better, bound {:.0}%",
            metric.name,
            metric.unit,
            metric.better.as_str(),
            metric.bound.unwrap_or(0.0) * 100.0
        );
    }
    println!("per-layer metrics (--trace 1), not gated:");
    for metric in spec::PER_LAYER {
        println!(
            "  {:<32} {:<6} {} is better",
            metric.name,
            metric.unit,
            metric.better.as_str()
        );
    }
}

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: Option<usize>,
    list: bool,
}

fn parse_cli(mut args: impl Iterator<Item = String>) -> Result<Cli> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        selfcheck: None,
        list: false,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--list" => cli.list = true,
            "--workload" => cli.workload = Some(value()?),
            "--seed" => cli.seed = value()?.parse()?,
            "--seconds" => {
                cli.seconds = value()?.parse()?;
                if !(cli.seconds.is_finite() && cli.seconds > 0.0) {
                    return Err("--seconds must be a positive number".into());
                }
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}").into()),
                }
            }
            "--selfcheck" => cli.selfcheck = Some(value()?.parse()?),
            other => return Err(format!("unknown argument {other:?}").into()),
        }
    }
    Ok(cli)
}

fn main_inner() -> Result<bool> {
    let cli = parse_cli(std::env::args().skip(1))?;
    if cli.list {
        list();
        return Ok(true);
    }
    let workload = cli
        .workload
        .as_deref()
        .ok_or("--workload <name> is required; --list names them")?;
    if let Some(runs) = cli.selfcheck {
        return selfcheck::selfcheck(workload, runs, cli.seed, cli.seconds);
    }
    let report = run_workload(&RunArgs {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
    })?;
    for note in &report.notes {
        println!("{note}");
    }
    println!("{}", report.json_line());
    Ok(report.correct())
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(err) => {
            eprintln!("ebvbench: {err}");
            ExitCode::from(2)
        }
    }
}
