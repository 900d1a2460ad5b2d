//! The run's result: named metrics with units, the failure tally, the
//! correctness checks, and the JSON line the benchmark ends with.

use crate::stats::Tally;
use std::path::Path;

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// Attempted and failed operations.
    pub tally: Tally,
    failures: Vec<String>,
}

impl Report {
    /// Records metric `name`.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite value or a repeated name.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is {value}");
        assert!(
            self.metrics.iter().all(|(n, _, _)| *n != name),
            "metric {name} reported twice"
        );
        self.metrics.push((name, value, unit));
    }

    /// Records a correctness check; a failed one makes the run fail.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let what = what();
            eprintln!("correctness check failed: {what}");
            self.failures.push(what);
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Checks that the reported metric names are exactly `declared`.
    pub fn check_names(&mut self, declared: &[String], section: &str) {
        let mut got: Vec<&str> = self.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
        let mut want: Vec<&str> = declared.iter().map(String::as_str).collect();
        got.sort_unstable();
        want.sort_unstable();
        self.check(got == want, || {
            format!("reported metrics differ from the {section} metrics BENCHMARK.json declares")
        });
    }

    /// One `name = value unit` line per metric, for reading.
    pub fn print_table(&self) {
        for (name, value, unit) in &self.metrics {
            println!("  {name:<40} {value:>16.6} {unit}");
        }
    }

    /// The final JSON line.
    pub fn json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.tally.attempted,
            self.tally.failed
        )
    }
}

/// The metric names a section (`end_to_end` or `per_layer`) of the
/// `BENCHMARK.json` at `path` declares, in file order.
pub fn declared_metrics(path: &Path, section: &str) -> std::io::Result<Vec<String>> {
    let text = std::fs::read_to_string(path)?;
    Ok(section_names(&text, section))
}

/// The `"name"` values inside the array of key `section` of a
/// `BENCHMARK.json` text.
fn section_names(text: &str, section: &str) -> Vec<String> {
    let key = format!("\"{section}\"");
    let Some(at) = text.find(&key) else {
        return Vec::new();
    };
    let body = &text[at + key.len()..];
    let body = &body[..body.find(']').unwrap_or(body.len())];
    body.split("\"name\"")
        .skip(1)
        .filter_map(|s| {
            let s = s
                .trim_start()
                .strip_prefix(':')?
                .trim_start()
                .strip_prefix('"')?;
            Some(s[..s.find('"')?].to_string())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = Report::default();
        r.metric("latency_ms", 1.25, "ms");
        r.tally.ran(10, 1);
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        r.check(false, || "mismatch".into());
        assert!(r.json().starts_with("{\"correct\": false"));
    }

    #[test]
    fn declared_names_are_read_per_section() {
        let text = r#"{"workloads": [{"name": "w", "why": "x"}],
            "end_to_end": [{"name": "a", "unit": "s"}, {"name":"b", "unit": "s"}],
            "per_layer": [{"name": "c.l0", "unit": "us"}]}"#;
        assert_eq!(section_names(text, "end_to_end"), ["a", "b"]);
        assert_eq!(section_names(text, "per_layer"), ["c.l0"]);
        assert!(section_names(text, "missing").is_empty());
    }

    #[test]
    fn name_check_ignores_order_but_not_membership() {
        let mut r = Report::default();
        r.metric("b", 1.0, "s");
        r.metric("a", 2.0, "s");
        r.check_names(&["a".into(), "b".into()], "end_to_end");
        assert!(r.correct());
        r.check_names(&["a".into()], "end_to_end");
        assert!(!r.correct());
    }
}
