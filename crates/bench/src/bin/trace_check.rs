//! The CI trace-smoke gate: validates the Chrome-trace JSON (and optional
//! Prometheus metrics snapshot) emitted by `EBV_TRACE=... evolving_graph`
//! — plus, with the `--scrape-*` flags, the four payloads scraped from a
//! *live* `EBV_OBS_ADDR` server mid-run — and exits non-zero when the
//! telemetry plane stopped producing what it promises, so the
//! observability surface cannot silently rot.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p ebv-bench --bin trace_check -- \
//!     trace.json [metrics.prom] \
//!     [--scrape-metrics scrape.prom] [--scrape-epochs epochs.json] \
//!     [--scrape-healthz healthz.json] [--scrape-trace scrape-trace.json]
//! ```
//!
//! No JSON crate is available offline, so the trace is read
//! with the same minimal key scanner as `bench_gate`
//! ([`ebv_bench::scan_values`]) — enough of a parser for the flat event
//! schema `ebv-obs` emits. Missing files, zero events,
//! a missing phase, or a malformed event all fail the check — it is
//! fail-closed.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ebv_bench::scan_values;

/// Every phase the `evolving_graph` example must leave at least one span
/// for: the BSP superstep trio, the mutation path, the warm-start
/// invalidation hooks, and the two halves of a pipeline epoch (partition
/// decision, then apply). That is every phase `ebv-obs` declares, so a
/// phase nothing records cannot be added silently.
const REQUIRED_PHASES: [&str; 8] = [
    "compute",
    "scatter",
    "barrier",
    "mutation_apply",
    "routing_patch",
    "warm_invalidation",
    "partition_decide",
    "epoch_apply",
];

/// Phases a *mid-run* scrape of `/trace.json` must contain. The epoch
/// journal records its mark before the epoch callback runs, so a scrape
/// raced against the first epochs may legitimately predate the first
/// `warm_invalidation` span — it is excluded here, everything else from
/// the end-of-run set is required.
const SCRAPED_PHASES: [&str; 7] = [
    "compute",
    "scatter",
    "barrier",
    "mutation_apply",
    "routing_patch",
    "partition_decide",
    "epoch_apply",
];

/// Metric families the Prometheus snapshot must expose. The pool trio
/// (queue-wait histogram, lane-width gauge, work-skew gauge) is emitted by
/// the executor seam on every instrumented run, in every execution mode.
const REQUIRED_METRICS: [&str; 6] = [
    "ebv_bsp_supersteps_total",
    "ebv_mutation_epochs_total",
    "ebv_phase_compute_seconds_bucket",
    "ebv_bsp_pool_queue_wait_seconds_bucket",
    "ebv_bsp_pool_chunk_workers",
    "ebv_bsp_work_max_mean_ratio",
];

/// Validates a Chrome trace-event document against `required_phases`.
/// Returns the event count.
fn check_trace(json: &str, required_phases: &[&str]) -> Result<usize, String> {
    if !json.contains("\"traceEvents\"") {
        return Err("trace is missing the \"traceEvents\" array".to_string());
    }
    let names = scan_values(json, "name");
    if names.is_empty() {
        return Err("trace contains no events".to_string());
    }
    let phs = scan_values(json, "ph");
    let ts = scan_values(json, "ts");
    let durs = scan_values(json, "dur");
    if phs.len() != names.len() || ts.len() != names.len() || durs.len() != names.len() {
        return Err(format!(
            "malformed trace: {} names vs {} ph vs {} ts vs {} dur values",
            names.len(),
            phs.len(),
            ts.len(),
            durs.len()
        ));
    }
    if let Some(ph) = phs.iter().find(|ph| ph.as_str() != "X") {
        return Err(format!("unexpected event phase type {ph:?} (want \"X\")"));
    }
    for (key, values) in [("ts", &ts), ("dur", &durs)] {
        for value in values {
            let parsed: u64 = value
                .parse()
                .map_err(|_| format!("unparseable {key} value {value:?}"))?;
            if key == "dur" && parsed == 0 {
                return Err("zero-duration event (durations are clamped >= 1us)".to_string());
            }
        }
    }
    for phase in required_phases {
        if !names.iter().any(|n| n == phase) {
            return Err(format!("trace has no {phase:?} span"));
        }
    }
    Ok(names.len())
}

/// Validates the Prometheus text snapshot.
fn check_metrics(text: &str) -> Result<(), String> {
    if !text.contains("# TYPE") {
        return Err("metrics snapshot has no # TYPE lines".to_string());
    }
    for metric in REQUIRED_METRICS {
        if !text.contains(metric) {
            return Err(format!("metrics snapshot is missing {metric}"));
        }
    }
    Ok(())
}

/// Validates a `/metrics` scrape from a live server: everything a file
/// snapshot must have, plus the per-worker attribution families and the
/// straggler gauge only the live exposition carries.
fn check_scraped_metrics(text: &str) -> Result<(), String> {
    check_metrics(text)?;
    if !text.contains("ebv_worker_phase_seconds{worker=\"") {
        return Err("scraped metrics have no per-worker ebv_worker_phase_seconds family".into());
    }
    if !text.contains("ebv_bsp_straggler_ratio") {
        return Err("scraped metrics are missing ebv_bsp_straggler_ratio".into());
    }
    Ok(())
}

/// Validates an `/epochs.json` scrape: at least one snapshot, strictly
/// increasing epoch ids (one snapshot per applied epoch), and per-entry
/// apply-cost and per-phase-seconds objects.
fn check_epochs(json: &str) -> Result<usize, String> {
    if !json.contains("\"epochs\"") {
        return Err("epoch journal is missing the \"epochs\" array".to_string());
    }
    let epochs: Vec<u64> = scan_values(json, "epoch")
        .iter()
        .map(|value| {
            value
                .parse()
                .map_err(|_| format!("unparseable epoch id {value:?}"))
        })
        .collect::<Result<_, _>>()?;
    if epochs.is_empty() {
        return Err("epoch journal holds no snapshots".to_string());
    }
    if !epochs.windows(2).all(|pair| pair[0] < pair[1]) {
        return Err(format!("epoch ids are not strictly increasing: {epochs:?}"));
    }
    for key in ["apply_seconds", "phase_seconds", "straggler_ratio"] {
        let count = json.matches(&format!("\"{key}\":")).count();
        if count != epochs.len() {
            return Err(format!(
                "{} snapshots but {count} {key:?} entries",
                epochs.len()
            ));
        }
    }
    Ok(epochs.len())
}

/// Validates a `/healthz` scrape: the run must have reported itself live.
fn check_healthz(json: &str) -> Result<(), String> {
    let statuses = scan_values(json, "status");
    if statuses != ["ok"] {
        return Err(format!("healthz status is {statuses:?}, want [\"ok\"]"));
    }
    Ok(())
}

#[derive(Debug, Default)]
struct Options {
    trace: PathBuf,
    metrics: Option<PathBuf>,
    scrape_metrics: Option<PathBuf>,
    scrape_epochs: Option<PathBuf>,
    scrape_healthz: Option<PathBuf>,
    scrape_trace: Option<PathBuf>,
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

fn run(options: &Options) -> Result<(), String> {
    let trace = read(&options.trace)?;
    let events = check_trace(&trace, &REQUIRED_PHASES)?;
    println!(
        "trace ok: {} ({events} events, all {} required phases present)",
        options.trace.display(),
        REQUIRED_PHASES.len()
    );
    if let Some(path) = &options.metrics {
        check_metrics(&read(path)?)?;
        println!("metrics ok: {}", path.display());
    }
    if let Some(path) = &options.scrape_trace {
        let events = check_trace(&read(path)?, &SCRAPED_PHASES)?;
        println!("scraped trace ok: {} ({events} events)", path.display());
    }
    if let Some(path) = &options.scrape_metrics {
        check_scraped_metrics(&read(path)?)?;
        println!(
            "scraped metrics ok: {} (per-worker families + straggler gauge present)",
            path.display()
        );
    }
    if let Some(path) = &options.scrape_epochs {
        let epochs = check_epochs(&read(path)?)?;
        println!("scraped epochs ok: {} ({epochs} snapshots)", path.display());
    }
    if let Some(path) = &options.scrape_healthz {
        check_healthz(&read(path)?)?;
        println!("scraped healthz ok: {}", path.display());
    }
    Ok(())
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let mut options = Options::default();
    let mut positionals = Vec::new();
    while let Some(arg) = args.next() {
        let slot = match arg.as_str() {
            "--scrape-metrics" => &mut options.scrape_metrics,
            "--scrape-epochs" => &mut options.scrape_epochs,
            "--scrape-healthz" => &mut options.scrape_healthz,
            "--scrape-trace" => &mut options.scrape_trace,
            _ if arg.starts_with("--") => return Err(format!("unknown flag {arg}")),
            _ => {
                positionals.push(PathBuf::from(arg));
                continue;
            }
        };
        *slot = Some(PathBuf::from(
            args.next()
                .ok_or(format!("flag {arg} needs a file argument"))?,
        ));
    }
    let mut positionals = positionals.into_iter();
    options.trace = positionals
        .next()
        .ok_or("missing the <trace.json> argument".to_string())?;
    options.metrics = positionals.next();
    if let Some(extra) = positionals.next() {
        return Err(format!("unexpected argument {}", extra.display()));
    }
    Ok(options)
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!(
                "trace_check: {message}\nusage: trace_check <trace.json> [metrics.prom] \
                 [--scrape-metrics F] [--scrape-epochs F] [--scrape-healthz F] [--scrape-trace F]"
            );
            return ExitCode::FAILURE;
        }
    };
    match run(&options) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("trace_check: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebv_obs::Phase;

    fn event(name: &str, ts: u64, dur: u64) -> String {
        format!(
            "{{\"name\":\"{name}\",\"cat\":\"bsp\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\
             \"pid\":1,\"tid\":0,\"args\":{{\"epoch\":0,\"superstep\":0,\"worker\":0}}}}"
        )
    }

    fn trace_with(names: &[&str]) -> String {
        let events: Vec<String> = names
            .iter()
            .enumerate()
            .map(|(i, name)| event(name, i as u64 * 10, 2))
            .collect();
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }

    fn epochs_json(ids: &[u64]) -> String {
        let entries: Vec<String> = ids
            .iter()
            .map(|id| {
                format!(
                    "{{\"epoch\": {id}, \"batch_index\": 0, \"at_seconds\": 0.5, \
                     \"apply_seconds\": 0.01, \"straggler_ratio\": 1.25, \
                     \"phase_seconds\": {{\"compute\": 0.002, \"scatter\": 0.001}}}}"
                )
            })
            .collect();
        format!(
            "{{\"recorded_total\": {}, \"capacity\": 1024, \"epochs\": [{}]}}",
            ids.len(),
            entries.join(", ")
        )
    }

    #[test]
    fn every_declared_phase_is_required() {
        let declared: Vec<&str> = Phase::ALL.iter().map(|phase| phase.name()).collect();
        assert_eq!(declared, REQUIRED_PHASES);
    }

    #[test]
    fn complete_trace_passes() {
        let json = trace_with(&REQUIRED_PHASES);
        assert_eq!(
            check_trace(&json, &REQUIRED_PHASES).unwrap(),
            REQUIRED_PHASES.len()
        );
    }

    #[test]
    fn missing_phase_fails() {
        let (last, rest) = REQUIRED_PHASES.split_last().unwrap();
        let json = trace_with(rest);
        let err = check_trace(&json, &REQUIRED_PHASES).unwrap_err();
        assert!(err.contains(last), "{err}");
    }

    #[test]
    fn scraped_trace_does_not_require_warm_invalidation() {
        // A mid-run scrape may predate the first warm_invalidation span.
        let json = trace_with(&SCRAPED_PHASES);
        assert!(check_trace(&json, &REQUIRED_PHASES).is_err());
        assert_eq!(
            check_trace(&json, &SCRAPED_PHASES).unwrap(),
            SCRAPED_PHASES.len()
        );
        // But it still requires the BSP trio and the mutation path.
        let gutted = trace_with(&SCRAPED_PHASES[..3]);
        assert!(check_trace(&gutted, &SCRAPED_PHASES).is_err());
    }

    #[test]
    fn empty_trace_fails() {
        assert!(check_trace("{\"traceEvents\":[]}", &REQUIRED_PHASES).is_err());
        assert!(check_trace("not json at all", &REQUIRED_PHASES).is_err());
    }

    #[test]
    fn zero_duration_fails() {
        let mut names: Vec<&str> = REQUIRED_PHASES.to_vec();
        names.push("compute");
        let json = trace_with(&names).replace("\"dur\":2", "\"dur\":0");
        let err = check_trace(&json, &REQUIRED_PHASES).unwrap_err();
        assert!(err.contains("zero-duration"), "{err}");
    }

    #[test]
    fn wrong_event_type_fails() {
        let json = trace_with(&REQUIRED_PHASES).replace("\"ph\":\"X\"", "\"ph\":\"B\"");
        assert!(check_trace(&json, &REQUIRED_PHASES).is_err());
    }

    #[test]
    fn metrics_snapshot_is_checked() {
        let good = "# TYPE ebv_bsp_supersteps_total counter\n\
                    ebv_bsp_supersteps_total 12\n\
                    # TYPE ebv_mutation_epochs_total counter\n\
                    ebv_mutation_epochs_total 3\n\
                    # TYPE ebv_phase_compute_seconds histogram\n\
                    ebv_phase_compute_seconds_bucket{le=\"+Inf\"} 9\n\
                    # TYPE ebv_bsp_pool_queue_wait_seconds histogram\n\
                    ebv_bsp_pool_queue_wait_seconds_bucket{le=\"+Inf\"} 9\n\
                    # TYPE ebv_bsp_pool_chunk_workers gauge\n\
                    ebv_bsp_pool_chunk_workers 4\n\
                    # TYPE ebv_bsp_work_max_mean_ratio gauge\n\
                    ebv_bsp_work_max_mean_ratio 1.1\n";
        check_metrics(good).unwrap();
        assert!(check_metrics("# TYPE only\n").is_err());
        assert!(check_metrics("ebv_bsp_supersteps_total 1\n").is_err());
        // Losing any of the pool trio fails the snapshot check.
        assert!(check_metrics(&good.replace("ebv_bsp_pool_queue_wait_seconds", "x")).is_err());
        assert!(check_metrics(&good.replace("ebv_bsp_pool_chunk_workers", "x")).is_err());
        assert!(check_metrics(&good.replace("ebv_bsp_work_max_mean_ratio", "x")).is_err());

        // A live scrape additionally needs the labeled worker families and
        // the straggler gauge.
        assert!(check_scraped_metrics(good).is_err());
        let live = format!(
            "{good}# TYPE ebv_bsp_straggler_ratio gauge\n\
             ebv_bsp_straggler_ratio 1.5\n\
             # TYPE ebv_worker_phase_seconds counter\n\
             ebv_worker_phase_seconds{{worker=\"3\",phase=\"compute\"}} 0.25\n"
        );
        check_scraped_metrics(&live).unwrap();
    }

    #[test]
    fn epoch_journal_scrape_is_checked() {
        assert_eq!(check_epochs(&epochs_json(&[1, 2, 5])).unwrap(), 3);
        // Empty, non-increasing, or incomplete entries all fail.
        assert!(check_epochs(&epochs_json(&[])).is_err());
        assert!(check_epochs(&epochs_json(&[1, 1])).is_err());
        assert!(check_epochs(&epochs_json(&[2, 1])).is_err());
        assert!(check_epochs("{\"nothing\": true}").is_err());
        let missing_phases = epochs_json(&[1]).replace("\"phase_seconds\"", "\"other\"");
        assert!(check_epochs(&missing_phases).is_err());
    }

    #[test]
    fn healthz_scrape_is_checked() {
        check_healthz("{\"status\": \"ok\", \"epochs_recorded\": 4}").unwrap();
        assert!(check_healthz("{\"status\": \"stale\"}").is_err());
        assert!(check_healthz("{}").is_err());
    }
}
