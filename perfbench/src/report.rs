//! The result line: one JSON object with `correct`, `attempted`, `failed`
//! and `metrics` (every end-to-end metric untraced, every per-layer
//! metric traced), each metric carrying its value and unit.

/// End-to-end metrics, `(name, unit)`: what a user of the store sees.
/// Every workload reports every one of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ops_per_s", "op/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("read_p50_us", "us"),
    ("read_pages_per_s", "page/s"),
    ("io_us_per_op", "us"),
    ("erases_per_op", "1"),
    ("recovery_ms", "ms"),
    ("recovery_io_ms", "ms"),
];

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// A finished run: every check passed.
#[derive(Clone, Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Check that the report carries exactly the metrics of `spec`, in
    /// order, with finite values — a benchmark bug otherwise.
    pub fn check_against(&self, spec: &[(&str, &str)]) -> Result<(), String> {
        let got: Vec<(&str, &str)> = self.metrics.iter().map(|m| (m.name, m.unit)).collect();
        if got != spec {
            return Err(format!("metric set mismatch: reported {got:?}, expected {spec:?}"));
        }
        if let Some(m) = self.metrics.iter().find(|m| !m.value.is_finite()) {
            return Err(format!("metric {} is not finite ({})", m.name, m.value));
        }
        Ok(())
    }

    /// The result line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, num(m.value), m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn num(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_shape() {
        let r = Report {
            attempted: 3,
            failed: 0,
            metrics: vec![
                Metric { name: "setup_s", value: 0.8127, unit: "s" },
                Metric { name: "erases_per_op", value: 2.0, unit: "1" },
            ],
        };
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": \
             {\"value\": 0.8127, \"unit\": \"s\"}, \"erases_per_op\": {\"value\": 2.0, \"unit\": \"1\"}}}"
        );
        assert!(pdl_obs::json::parse(&r.to_json()).is_ok());
    }
}
