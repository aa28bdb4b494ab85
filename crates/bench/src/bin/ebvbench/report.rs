//! The run's result: the one-line JSON object the driver reads, and the
//! human-readable lines printed before it.

use std::fmt::Write as _;

use crate::spec::{MetricSpec, END_TO_END, PER_LAYER};

pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` in reporting order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines: the run's parameters, failed checks.
    pub notes: Vec<String>,
}

fn spec_of(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|metric| metric.name == name)
}

impl Report {
    pub fn new() -> Self {
        Report {
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn push(&mut self, name: &'static str, value: f64) {
        debug_assert!(spec_of(name).is_some(), "{name} is not a declared metric");
        self.metrics.push((name, value));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Whether every operation succeeded and every value is a number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|(_, value)| value.is_finite())
    }

    /// `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}` on one
    /// line. Values print with every digit `f64` holds.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let unit = spec_of(name).map_or("", |metric| metric.unit);
            // JSON has no NaN or infinity; `correct` is already false then.
            let value = if value.is_finite() { *value } else { 0.0 };
            let comma = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{comma}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// The value of metric `name` in a line [`Report::json_line`] printed.
pub fn metric_in_json(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_round_trips_through_the_selfcheck_reader() {
        let mut report = Report::new();
        report.attempted = 12;
        report.push("unit_ms", 1.2034);
        report.push("comm_messages", 468_525_068.0);
        report.push("setup_s", 0.000_000_25);
        let line = report.json_line();
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"unit_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}"));
        assert!(line.ends_with("}}") && !line.contains('\n'));
        assert_eq!(metric_in_json(&line, "unit_ms"), Some(1.2034));
        assert_eq!(metric_in_json(&line, "comm_messages"), Some(468_525_068.0));
        assert_eq!(metric_in_json(&line, "setup_s"), Some(0.000_000_25));
        assert_eq!(metric_in_json(&line, "read_ns"), None);
    }

    #[test]
    fn a_failure_or_a_non_number_makes_the_report_incorrect() {
        let mut report = Report::new();
        report.push("unit_ms", f64::NAN);
        assert!(!report.correct());
        assert!(report.json_line().contains("\"correct\": false"));
        let mut report = Report::new();
        report.failed = 1;
        assert!(!report.correct());
    }
}
