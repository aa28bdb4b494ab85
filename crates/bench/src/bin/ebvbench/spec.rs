//! The benchmark's declared surface: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root carries the same tables for the driver; a unit test
//! keeps the two in step.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression; `None` for ungated per-layer metrics.
    pub bound: Option<f64>,
}

/// One workload and the reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "batch_rmat",
        why: "paper scenario on a power-law graph: batch EBV-sort and the message-heavy engine do the work, ebv-dynamic and ebv-state none",
    },
    WorkloadSpec {
        name: "batch_road",
        why: "same step on a road-like grid: a hundred nearly empty supersteps, so per-superstep overhead dominates per-message cost",
    },
    WorkloadSpec {
        name: "churn_window",
        why: "steady-state sliding window at 32768 events per durable epoch: per-event ingest cost (dynamic partitioner, apply) is most of the work",
    },
    WorkloadSpec {
        name: "churn_trickle",
        why: "same loop at 256 events per epoch: per-epoch fixed costs dominate and the partitioner is idle, so amortising changes show their cost",
    },
    WorkloadSpec {
        name: "restart",
        why: "crash-to-serving: checkpoint load, partitioner restore and WAL replay, the state plane's read side, checked equal to the live state",
    },
];

const fn gated(name: &'static str, unit: &'static str, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
    }
}

/// Every workload reports all of these with `--trace 0`.
pub const END_TO_END: [MetricSpec; 10] = [
    gated("setup_s", "s", 0.25),
    gated("unit_ms", "ms", 0.25),
    gated("read_ns", "ns", 0.25),
    gated("alloc_mb_per_unit", "MB", 0.10),
    gated("peak_rss_mb", "MB", 0.25),
    gated("replication_factor", "ratio", 0.02),
    gated("edge_imbalance", "ratio", 0.03),
    gated("vertex_imbalance", "ratio", 0.05),
    gated("comm_messages", "count", 0.20),
    gated("msg_imbalance", "ratio", 0.05),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Every workload reports all of these with `--trace 1`; a layer a workload
/// does not run reads 0. Times are per unit (step) unless the name says
/// otherwise.
pub const PER_LAYER: [MetricSpec; 52] = [
    // Input and batch partitioning.
    layer("stream.read_ms", "ms", Lower),
    layer("graph.build_ms", "ms", Lower),
    layer("partition.batch_ms", "ms", Lower),
    layer("partition.order_ms", "ms", Lower),
    layer("partition.metrics_ms", "ms", Lower),
    // Dynamic partitioning.
    layer("partition.dynamic_ms", "ms", Lower),
    layer("partition.dynamic_events_per_s", "1/s", Higher),
    layer("partition.state_mb", "MB", Lower),
    layer("partition.restore_ms", "ms", Lower),
    // Distributed graph and engine.
    layer("bsp.build_ms", "ms", Lower),
    layer("bsp.apply_ms", "ms", Lower),
    layer("bsp.apply_workers_touched", "count", Lower),
    layer("bsp.apply_rebuild_ratio", "ratio", Lower),
    layer("bsp.engine_ms", "ms", Lower),
    layer("bsp.supersteps", "count", Lower),
    layer("bsp.messages", "count", Lower),
    layer("bsp.us_per_superstep", "us", Lower),
    layer("bsp.ns_per_message", "ns", Lower),
    layer("bsp.seq_cc_ms", "ms", Lower),
    layer("bsp.pooled2_cc_ms", "ms", Lower),
    // Programs.
    layer("algorithms.cc_ms", "ms", Lower),
    layer("algorithms.sssp_ms", "ms", Lower),
    layer("algorithms.pr_ms", "ms", Lower),
    layer("algorithms.warm_build_ms", "ms", Lower),
    layer("algorithms.warm_cc_ms", "ms", Lower),
    layer("algorithms.warm_sssp_ms", "ms", Lower),
    layer("algorithms.warm_bfs_ms", "ms", Lower),
    layer("algorithms.cone_vertices", "count", Lower),
    // Pipeline, state and serving.
    layer("dynamic.pipeline_ms", "ms", Lower),
    layer("dynamic.cancelled_events", "count", Higher),
    layer("state.wal_append_ms", "ms", Lower),
    layer("state.wal_kb_per_epoch", "kB", Lower),
    layer("state.stage_ms", "ms", Lower),
    layer("state.checkpoint_ms", "ms", Lower),
    layer("state.checkpoint_mb", "MB", Lower),
    layer("state.open_ms", "ms", Lower),
    layer("state.rebuild_ms", "ms", Lower),
    layer("state.replay_ms", "ms", Lower),
    layer("state.replayed_frames", "count", Lower),
    layer("serve.commit_ms", "ms", Lower),
    layer("serve.lookup_ns", "ns", Lower),
    layer("serve.topk_us", "us", Lower),
    layer("serve.neighbors_ns", "ns", Lower),
    layer("serve.read_errors", "count", Lower),
    // Overheads and spread.
    layer("obs.recorder_overhead_pct", "%", Lower),
    layer("obs.spans_dropped", "count", Lower),
    layer("trace.overhead_pct", "%", Lower),
    layer("trace.unattributed_pct", "%", Lower),
    layer("unit.ms_p50", "ms", Lower),
    layer("unit.ms_p95", "ms", Lower),
    layer("unit.ms_spread_pct", "%", Lower),
    layer("machine.gather_ms", "ms", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::fmt::Write as _;

    /// Whether `name` is a name the benchmark contract accepts: 1 to 64 of
    /// `[A-Za-z0-9_.-]`, starting with a letter or digit.
    fn valid_name(name: &str) -> bool {
        let legal = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        (1..=64).contains(&name.len())
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(legal)
    }

    #[test]
    fn metric_name_validation() {
        for good in ["unit_ms", "bsp.ns_per_message", "a", "9lives", "x-y_z.0"] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", ".hidden", "-dash", "_x", "has space", "µs", "a/b", "q%"] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"n".repeat(64)));
        assert!(!valid_name(&"n".repeat(65)));
    }

    #[test]
    fn declared_names_are_valid_and_unique() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} is declared twice");
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        for metric in END_TO_END {
            let bound = metric.bound.expect("end-to-end metrics are gated");
            assert!(bound > 0.0 && bound <= 0.25, "{}", metric.name);
        }
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }

    /// The tables above rendered the way `BENCHMARK.json` lists them.
    fn render_tables() -> String {
        let mut out = String::new();
        let _ = write!(out, "\"workloads\":[");
        for (i, w) in WORKLOADS.iter().enumerate() {
            let comma = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{comma}{{\"name\":\"{}\",\"why\":\"{}\"}}",
                w.name, w.why
            );
        }
        let _ = write!(out, "],\"end_to_end\":[");
        for (i, m) in END_TO_END.iter().enumerate() {
            let comma = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{comma}{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\",\"bound\":{}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound.expect("gated"),
            );
        }
        let _ = write!(out, "],\"per_layer\":[");
        for (i, m) in PER_LAYER.iter().enumerate() {
            let comma = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{comma}{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str(),
            );
        }
        out.push(']');
        out
    }

    #[test]
    fn benchmark_json_lists_the_same_tables() {
        let manifest = include_str!("../../../../../BENCHMARK.json");
        // Whitespace outside strings is insignificant in JSON; inside the
        // `why` strings single spaces are kept by comparing with them
        // collapsed on both sides.
        let squash = |text: &str| -> String {
            let mut out = String::new();
            let mut in_string = false;
            for c in text.chars() {
                if c == '"' {
                    in_string = !in_string;
                }
                if in_string || !c.is_whitespace() {
                    out.push(c);
                }
            }
            out
        };
        let manifest = squash(manifest);
        let tables = squash(&render_tables());
        assert!(
            manifest.contains(&tables),
            "BENCHMARK.json is out of step with spec.rs; expected it to contain:\n{tables}"
        );
    }
}
