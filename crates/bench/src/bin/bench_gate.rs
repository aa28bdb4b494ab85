//! The CI bench-regression gate: compares the warm-vs-cold and
//! incremental-vs-full ratios of a `bench_dynamic` JSON report against the
//! checked-in baseline and exits non-zero when any ratio regressed past its
//! cap — so the speedups the dynamic subsystem ships cannot silently rot.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p ebv-bench --bin bench_gate -- \
//!     BENCH_dynamic.json [.github/bench_baseline.json]
//! ```
//!
//! Both arguments are optional and default to the workspace-root
//! `BENCH_dynamic.json` and `.github/bench_baseline.json`. The baseline
//! lists `"a/b"` measurement-name pairs with the maximum allowed
//! `seconds(a) / seconds(b)` ratio; a cap of 1.0 means "a must not be
//! slower than b" (e.g. warm epochs must beat cold re-execution). Missing
//! measurements or malformed files fail the gate — it is fail-closed.
//!
//! A gate may carry a `"min_cpus"` field: speedup caps below 1.0 are only
//! physically reachable on multi-core hosts, so such entries are enforced
//! on CI's 4-vCPU runners and *skipped with a printed note* on smaller
//! machines. Skipping never loosens fail-closed-ness: the gated
//! measurements must still exist in the report, and the unconditional
//! entries still apply everywhere.
//!
//! No JSON crate is available offline, so both files are read
//! with [`ebv_bench::scan_values`], a minimal scanner for the flat schemas
//! this repo emits.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ebv_bench::scan_values;

/// The `(name, seconds)` measurements of a `bench_dynamic` report.
fn parse_measurements(json: &str) -> Result<Vec<(String, f64)>, String> {
    let names = scan_values(json, "name");
    let seconds = scan_values(json, "seconds");
    if names.is_empty() || names.len() != seconds.len() {
        return Err(format!(
            "malformed bench report: {} names vs {} seconds values",
            names.len(),
            seconds.len()
        ));
    }
    names
        .into_iter()
        .zip(seconds)
        .map(|(name, s)| {
            let parsed = s
                .parse::<f64>()
                .map_err(|_| format!("measurement {name}: unparseable seconds {s:?}"))?;
            Ok((name, parsed))
        })
        .collect()
}

/// One baseline entry: `numerator/denominator <= max`, optionally only
/// enforced on hosts with at least `min_cpus` logical CPUs.
#[derive(Debug, PartialEq)]
struct Gate {
    numerator: String,
    denominator: String,
    max: f64,
    min_cpus: Option<usize>,
}

/// The caps of the baseline file. Each gate object is scanned on its own
/// (between its braces) so the optional `min_cpus` field cannot shear the
/// positional `ratio`/`max` alignment.
fn parse_baseline(json: &str) -> Result<Vec<Gate>, String> {
    let mut gates = Vec::new();
    for chunk in json.split('{').filter(|chunk| chunk.contains("\"ratio\"")) {
        let object = &chunk[..chunk.find('}').unwrap_or(chunk.len())];
        let ratio = match scan_values(object, "ratio").as_slice() {
            [one] => one.clone(),
            other => {
                return Err(format!(
                    "malformed baseline: a gate object holds {} ratio keys",
                    other.len()
                ))
            }
        };
        let max = match scan_values(object, "max").as_slice() {
            [one] => one.clone(),
            other => {
                return Err(format!(
                    "baseline ratio {ratio}: expected one max, found {}",
                    other.len()
                ))
            }
        };
        let (a, b) = ratio
            .split_once('/')
            .ok_or_else(|| format!("baseline ratio {ratio:?} is not \"a/b\""))?;
        let cap = max
            .parse::<f64>()
            .map_err(|_| format!("baseline ratio {ratio}: unparseable max {max:?}"))?;
        let min_cpus = match scan_values(object, "min_cpus").as_slice() {
            [] => None,
            [one] => Some(
                one.parse::<usize>()
                    .map_err(|_| format!("baseline ratio {ratio}: unparseable min_cpus {one:?}"))?,
            ),
            other => {
                return Err(format!(
                    "baseline ratio {ratio}: expected at most one min_cpus, found {}",
                    other.len()
                ))
            }
        };
        gates.push(Gate {
            numerator: a.to_string(),
            denominator: b.to_string(),
            max: cap,
            min_cpus,
        });
    }
    if gates.is_empty() {
        return Err("malformed baseline: no gate objects found".to_string());
    }
    Ok(gates)
}

fn seconds_of(measurements: &[(String, f64)], name: &str) -> Result<f64, String> {
    measurements
        .iter()
        .find(|(n, _)| n == name)
        .map(|&(_, s)| s)
        .ok_or_else(|| format!("measurement {name:?} missing from the bench report"))
}

fn run(bench_path: &Path, baseline_path: &Path, host_cpus: usize) -> Result<bool, String> {
    let bench = std::fs::read_to_string(bench_path)
        .map_err(|e| format!("cannot read {}: {e}", bench_path.display()))?;
    let baseline = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read {}: {e}", baseline_path.display()))?;
    let measurements = parse_measurements(&bench)?;
    let gates = parse_baseline(&baseline)?;

    let mut ok = true;
    println!(
        "bench-regression gate: {} (host cpus: {host_cpus})",
        bench_path.display()
    );
    for gate in &gates {
        let Gate {
            numerator,
            denominator,
            max: cap,
            min_cpus,
        } = gate;
        // Fail-closed even for skipped gates: the measurements must exist.
        let a = seconds_of(&measurements, numerator)?;
        let b = seconds_of(&measurements, denominator)?;
        if b <= 0.0 {
            return Err(format!(
                "measurement {denominator:?} has non-positive seconds"
            ));
        }
        let ratio = a / b;
        if let Some(needed) = min_cpus {
            if host_cpus < *needed {
                println!(
                    "  {numerator}/{denominator}: {ratio:.3} (max {cap:.3}) skipped — \
                     needs >= {needed} cpus, host has {host_cpus}"
                );
                continue;
            }
        }
        let verdict = if ratio <= *cap { "ok" } else { "REGRESSED" };
        println!("  {numerator}/{denominator}: {ratio:.3} (max {cap:.3}) {verdict}");
        if ratio > *cap {
            ok = false;
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let workspace_root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let mut args = std::env::args().skip(1);
    let bench_path = args
        .next()
        .map(PathBuf::from)
        .unwrap_or_else(|| workspace_root.join("BENCH_dynamic.json"));
    let baseline_path = args
        .next()
        .map(PathBuf::from)
        .unwrap_or_else(|| workspace_root.join(".github").join("bench_baseline.json"));

    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    match run(&bench_path, &baseline_path, host_cpus) {
        Ok(true) => {
            println!("all gated ratios within baseline");
            ExitCode::SUCCESS
        }
        Ok(false) => {
            eprintln!("bench-regression gate FAILED: at least one ratio regressed");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("bench-regression gate error: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPORT: &str = r#"{
  "benchmark": "dynamic",
  "measurements": [
    {"name": "cc_cold", "items": "labels", "count": 10, "seconds": 0.100000, "throughput_per_s": 100.0, "state_bytes": 0},
    {"name": "cc_warm_epoch", "items": "labels", "count": 10, "seconds": 0.025000, "throughput_per_s": 400.0, "state_bytes": 0}
  ]
}"#;

    #[test]
    fn parses_names_and_seconds_in_order() {
        let m = parse_measurements(REPORT).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m[0].0, "cc_cold");
        assert!((m[0].1 - 0.1).abs() < 1e-12);
        assert_eq!(m[1].0, "cc_warm_epoch");
        assert!((m[1].1 - 0.025).abs() < 1e-12);
    }

    #[test]
    fn baseline_caps_split_into_ratio_pairs() {
        let caps = parse_baseline(r#"{"gates": [{"ratio": "cc_warm_epoch/cc_cold", "max": 1.0}]}"#)
            .unwrap();
        assert_eq!(caps.len(), 1);
        assert_eq!(caps[0].numerator, "cc_warm_epoch");
        assert_eq!(caps[0].denominator, "cc_cold");
        assert!((caps[0].max - 1.0).abs() < 1e-12);
        assert_eq!(caps[0].min_cpus, None);
    }

    #[test]
    fn min_cpus_is_parsed_per_gate_without_shearing_alignment() {
        // The cpu-gated entry sits between two plain ones: a positional
        // scanner would mis-align, the per-object scanner must not.
        let caps = parse_baseline(
            r#"{"gates": [
                {"ratio": "a/b", "max": 1.0},
                {"ratio": "c/d", "max": 0.65, "min_cpus": 4},
                {"ratio": "e/f", "max": 1.25}
            ]}"#,
        )
        .unwrap();
        assert_eq!(caps.len(), 3);
        assert_eq!(caps[0].min_cpus, None);
        assert_eq!(caps[1].numerator, "c");
        assert!((caps[1].max - 0.65).abs() < 1e-12);
        assert_eq!(caps[1].min_cpus, Some(4));
        assert_eq!(caps[2].min_cpus, None);
        assert!(
            parse_baseline(r#"{"gates": [{"ratio": "a/b", "max": 1.0, "min_cpus": "x"}]}"#)
                .is_err()
        );
    }

    #[test]
    fn missing_measurements_and_malformed_ratios_are_errors() {
        let m = parse_measurements(REPORT).unwrap();
        assert!(seconds_of(&m, "sssp_cold").is_err());
        assert!(parse_baseline(r#"{"gates": [{"ratio": "no-slash", "max": 1.0}]}"#).is_err());
        assert!(parse_baseline(r#"{"gates": []}"#).is_err());
        assert!(parse_measurements("{}").is_err());
    }

    /// The checked-in baseline must parse and keep gating the series CI
    /// depends on — in particular the threaded-vs-sequential caps of the
    /// pooled (lane crew) engine (the gate is fail-closed: a missing
    /// measurement or a dropped entry fails CI, this test catches the
    /// dropped-entry half without a bench run).
    #[test]
    fn checked_in_baseline_gates_the_expected_ratios() {
        let baseline_path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("..")
            .join(".github")
            .join("bench_baseline.json");
        let baseline = std::fs::read_to_string(&baseline_path).unwrap();
        let caps = parse_baseline(&baseline).unwrap();
        for (numerator, denominator, cap, min_cpus) in [
            ("cc_cold_threaded", "cc_cold_sequential", 1.0, Some(2)),
            ("cc_cold_threaded", "cc_cold_sequential", 0.65, Some(4)),
            ("cc_traced", "cc_cold_sequential", 1.05, None),
            ("cc_served", "cc_cold_sequential", 1.05, None),
            ("cc_warm_epoch", "cc_cold", 1.0, None),
            ("cc_warm_epoch_served", "cc_warm_epoch", 1.05, Some(2)),
            ("sssp_warm_epoch", "sssp_cold", 1.0, None),
            ("epoch_apply_durable", "epoch_apply_incremental", 1.25, None),
            ("recovery_replay", "recovery_rebuild", 1.0, None),
            (
                "batch_ebv_sort_partition",
                "batch_ebv_partition",
                1.75,
                None,
            ),
        ] {
            let gate = caps
                .iter()
                .find(|g| {
                    g.numerator == numerator
                        && g.denominator == denominator
                        && g.min_cpus == min_cpus
                })
                .unwrap_or_else(|| {
                    panic!(
                        "baseline lost the {numerator}/{denominator} (min_cpus {min_cpus:?}) gate"
                    )
                });
            assert!(gate.max <= cap, "{numerator}/{denominator} cap loosened");
        }
    }

    #[test]
    fn gate_passes_within_cap_and_fails_beyond_it() {
        let dir = std::env::temp_dir().join("ebv_bench_gate_test");
        std::fs::create_dir_all(&dir).unwrap();
        let bench = dir.join("bench.json");
        std::fs::write(&bench, REPORT).unwrap();

        let passing = dir.join("passing.json");
        std::fs::write(
            &passing,
            r#"{"gates": [{"ratio": "cc_warm_epoch/cc_cold", "max": 1.0}]}"#,
        )
        .unwrap();
        assert!(run(&bench, &passing, 1).unwrap());

        let failing = dir.join("failing.json");
        std::fs::write(
            &failing,
            r#"{"gates": [{"ratio": "cc_cold/cc_warm_epoch", "max": 1.0}]}"#,
        )
        .unwrap();
        assert!(!run(&bench, &failing, 1).unwrap());
    }

    /// `min_cpus` gates are enforced on big hosts, skipped (with the
    /// measurements still required) on small ones.
    #[test]
    fn cpu_gated_entries_skip_below_their_floor_and_enforce_at_it() {
        let dir = std::env::temp_dir().join("ebv_bench_gate_cpu_test");
        std::fs::create_dir_all(&dir).unwrap();
        let bench = dir.join("bench.json");
        std::fs::write(&bench, REPORT).unwrap();

        // cc_cold/cc_warm_epoch = 4.0 violates the cap, but the gate only
        // applies on >= 4 cpus.
        let gated = dir.join("gated.json");
        std::fs::write(
            &gated,
            r#"{"gates": [{"ratio": "cc_cold/cc_warm_epoch", "max": 1.0, "min_cpus": 4}]}"#,
        )
        .unwrap();
        assert!(run(&bench, &gated, 1).unwrap(), "skipped below the floor");
        assert!(!run(&bench, &gated, 4).unwrap(), "enforced at the floor");

        // Skipping is not a loophole: a missing measurement still fails.
        let missing = dir.join("missing.json");
        std::fs::write(
            &missing,
            r#"{"gates": [{"ratio": "sssp_cold/cc_warm_epoch", "max": 1.0, "min_cpus": 4096}]}"#,
        )
        .unwrap();
        assert!(run(&bench, &missing, 1).is_err());
    }
}
