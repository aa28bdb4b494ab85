//! `--selfcheck N`: run one workload `N` times back to back, each in its
//! own process and with its own seed — as the benchmark driver does — and
//! report per end-to-end metric the spread against its bound. A later issue
//! uses this to tell "unresolved" (spread wider than the bound) from
//! "unchanged".

use std::process::Command;

use crate::estimator::{iqr_share, median};
use crate::harness::Result;
use crate::report::metric_in_json;
use crate::spec::END_TO_END;

/// Runs the workload `runs` times with seeds `seed, seed + 1, …` and prints
/// the table. Returns whether every run was correct and every spread except
/// `setup_s`'s stayed within its bound.
pub fn selfcheck(workload: &str, runs: usize, seed: u64, seconds: f64) -> Result<bool> {
    if runs < 2 {
        return Err("--selfcheck needs at least 2 runs to have a spread".into());
    }
    let exe = std::env::current_exe()?;
    let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
    let mut all_correct = true;
    for run in 0..runs {
        let run_seed = seed + run as u64;
        // `output` waits for the child, so none outlives this process.
        let output = Command::new(&exe)
            .args(["--workload", workload, "--trace", "0"])
            .args(["--seed", &run_seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .output()?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout.lines().last().unwrap_or_default();
        let correct = output.status.success() && line.contains("\"correct\": true");
        all_correct &= correct;
        print!("run {run:>2} seed {run_seed} correct={correct}");
        for (metric, column) in END_TO_END.iter().zip(&mut values) {
            let value = metric_in_json(line, metric.name)
                .ok_or_else(|| format!("run {run} printed no {}: {line:?}", metric.name))?;
            column.push(value);
            print!(" {}={value}", metric.name);
        }
        println!();
    }

    println!(
        "{:<20} {:>16} {:>10} {:>8}  verdict",
        "metric", "median", "spread", "bound"
    );
    let mut within = true;
    for (metric, column) in END_TO_END.iter().zip(&values) {
        let bound = metric.bound.expect("end-to-end metrics are gated");
        let spread = iqr_share(column);
        // The driver exempts set-up's spread (it gates only its median).
        let gated = metric.name != "setup_s";
        let verdict = if spread <= bound / 3.0 {
            "steady"
        } else if spread <= bound {
            "within bound, above a third of it"
        } else if gated {
            within = false;
            "UNRESOLVED: spread exceeds the bound"
        } else {
            "spread exceeds the bound (not gated)"
        };
        println!(
            "{:<20} {:>16.6} {:>9.3}% {:>7.1}%  {verdict}",
            metric.name,
            median(column),
            spread * 100.0,
            bound * 100.0
        );
    }
    Ok(all_correct && within)
}
