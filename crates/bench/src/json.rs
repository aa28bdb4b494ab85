//! The fail-closed JSON scanner shared by the CI gate binaries
//! (`bench_gate`, `trace_check`).
//!
//! No JSON crate is available offline, and the gates only read the flat
//! schemas this repository emits itself, so one key scanner is enough of a
//! parser. It never guesses: a key that is absent yields no values, and the
//! callers turn a missing or misaligned value into a failed gate.

/// Extracts every string or number value keyed by `key` from a flat JSON
/// document, in document order (no escapes, no nesting of the scanned
/// keys).
pub fn scan_values(json: &str, key: &str) -> Vec<String> {
    let needle = format!("\"{key}\":");
    let mut values = Vec::new();
    let mut rest = json;
    while let Some(at) = rest.find(&needle) {
        rest = rest[at + needle.len()..].trim_start();
        let value = if let Some(quoted) = rest.strip_prefix('"') {
            let end = quoted.find('"').unwrap_or(quoted.len());
            quoted[..end].to_string()
        } else {
            rest.split(|c: char| c == ',' || c == '}' || c == ']' || c.is_whitespace())
                .next()
                .unwrap_or("")
                .to_string()
        };
        values.push(value);
    }
    values
}

#[cfg(test)]
mod tests {
    use super::scan_values;

    #[test]
    fn strings_and_numbers_come_back_in_document_order() {
        let json = r#"{"rows": [{"name": "a", "seconds": 1.5}, {"name":"b","seconds":2e-3}]}"#;
        assert_eq!(scan_values(json, "name"), ["a", "b"]);
        assert_eq!(scan_values(json, "seconds"), ["1.5", "2e-3"]);
        assert!(
            scan_values(json, "ratio").is_empty(),
            "absent keys yield nothing"
        );
        // A key that is only a suffix of another key does not match it.
        assert!(scan_values(r#"{"min_cpus": 4}"#, "cpus").is_empty());
    }
}
