//! What one path of a run produces: metrics with their sample counts,
//! correctness checks, and run facts; plus the JSON the run prints.

use std::fmt::Write;

/// Times each path sets itself up in a run; it reports the median.
pub const SETUPS: usize = 9;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
    /// Samples the value was computed from.
    pub samples: u64,
    /// What else a reader needs to interpret the value (e.g. which
    /// percentile a tail is), or empty.
    pub note: String,
}

/// A correctness check and its outcome.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Observed versus expected.
    pub detail: String,
}

/// Everything one path of a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics (untraced runs).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs).
    pub per_layer: Vec<Metric>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or returned a wrong answer.
    pub failed: u64,
    /// Correctness checks made.
    pub checks: Vec<Check>,
    /// Median set-up time of this path, s.
    pub setup_s: f64,
    /// Run facts (rates, thread and connection counts, ...).
    pub facts: Vec<(String, String)>,
}

impl Outcome {
    /// Record an end-to-end metric.
    pub fn e2e(&mut self, name: &str, unit: &'static str, value: f64, samples: u64) {
        self.end_to_end.push(metric(name, unit, value, samples));
    }

    /// Record a per-layer metric.
    pub fn layer(&mut self, name: &str, unit: &'static str, value: f64, samples: u64) {
        self.per_layer.push(metric(name, unit, value, samples));
    }

    /// Record a correctness check.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail,
        });
    }

    /// Record a run fact.
    pub fn fact(&mut self, key: &str, value: impl ToString) {
        self.facts.push((key.to_string(), value.to_string()));
    }
}

/// A metric with no note.
pub fn metric(name: &str, unit: &'static str, value: f64, samples: u64) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
        samples,
        note: String::new(),
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form
/// gives; non-finite values (which JSON cannot carry) become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// `{"name": {"value": v, "unit": u}, ...}`
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(metrics)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let m = [
            metric("tcp.lo.p50_us", "us", 412.125, 2000),
            metric("setup_s", "s", 0.25, 5),
        ];
        let line = result_line(true, 10, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"tcp.lo.p50_us\": {\"value\": 412.125, \"unit\": \"us\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_str("a\"b\n"), "\"a\\\"b\\n\"");
    }
}
