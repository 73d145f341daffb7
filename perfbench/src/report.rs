//! The result line: checks counted as attempted/failed operations, and the
//! metrics of the run, printed as the last line of standard output.

/// Counts of checked operations plus the named metrics of one run.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Count one checked operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Count `n` operations of which `failed` failed.
    pub fn checks(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Failed operations so far.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Record a metric. A value that is not finite (a ratio over nothing)
    /// is recorded as 0 so the line stays valid JSON.
    ///
    /// # Panics
    ///
    /// Panics if `name` was already recorded: the result line must name
    /// each metric once.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(
            self.metrics.iter().all(|(n, _, _)| *n != name),
            "metric {name} recorded twice"
        );
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name, value, unit));
    }

    /// The result as one JSON object. `correct` holds when every checked
    /// operation passed and at least one was checked.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_counts_failures() {
        let mut r = Report::default();
        r.check(true);
        r.check(false);
        r.metric("latency_ms", 1.25, "ms");
        r.metric("bad", f64::NAN, "x");
        assert_eq!(
            r.to_json(),
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"bad\": {\"value\": 0.0, \"unit\": \"x\"}}}"
        );
    }
}
