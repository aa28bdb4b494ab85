//! The paper's reports, pinned byte for byte.
//!
//! `crates/bench/golden/<name>.txt` is the exact small-scale stdout of
//! `paper <name>`. This test renders every report in-process from one
//! [`Experiments`], so the shared sweeps run once, and names the first line
//! where a report and its file differ. The files pin the reports' values;
//! the workspace's `tests/claims.rs` asserts the paper's claims as
//! thresholds on a graph of its own.
//!
//! A golden file changes only on purpose. Regenerate it with
//! `cargo run -p ebv-bench --bin paper -- <name> > crates/bench/golden/<name>.txt`
//! and add a CHANGES.md line that names the report, the rows that changed
//! and why. The full scale (`EBV_SCALE=full`) is not pinned.

use std::fs;
use std::path::Path;

use ebv_bench::paper::{Experiments, REPORTS};
use ebv_bench::Scale;

#[test]
fn every_report_matches_its_golden_file() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden");
    let experiments = Experiments::new(Scale::Small);
    let mut mismatches = Vec::new();
    for (name, report) in REPORTS {
        let path = golden.join(format!("{name}.txt"));
        let expected = fs::read_to_string(&path)
            .unwrap_or_else(|error| panic!("reading {}: {error}", path.display()));
        let rendered = report(&experiments).unwrap_or_else(|error| panic!("{name}: {error}"));
        if let Some(difference) = first_difference(&expected, &rendered) {
            mismatches.push(format!("{name}: {difference}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "reports differ from crates/bench/golden/:\n{}",
        mismatches.join("\n")
    );
}

/// The first line (newline included) where `rendered` departs from
/// `expected`, or `None` when the two are equal.
fn first_difference(expected: &str, rendered: &str) -> Option<String> {
    let mut expected_lines = expected.split_inclusive('\n');
    let mut rendered_lines = rendered.split_inclusive('\n');
    for line in 1.. {
        let (want, got) = (expected_lines.next(), rendered_lines.next());
        if want != got {
            return Some(format!("line {line}: golden {want:?}, rendered {got:?}"));
        }
        want?;
    }
    unreachable!("the line counter does not run out")
}

#[test]
fn first_difference_names_the_line_and_a_missing_newline() {
    assert_eq!(first_difference("a\nb\n", "a\nb\n"), None);
    assert_eq!(
        first_difference("a\nb\n", "a\nc\n").as_deref(),
        Some("line 2: golden Some(\"b\\n\"), rendered Some(\"c\\n\")")
    );
    assert_eq!(
        first_difference("a\n", "a").as_deref(),
        Some("line 1: golden Some(\"a\\n\"), rendered Some(\"a\")")
    );
    assert_eq!(
        first_difference("a\n", "a\nb\n").as_deref(),
        Some("line 2: golden None, rendered Some(\"b\\n\")")
    );
}
