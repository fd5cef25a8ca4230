//! The run's result: operation accounting, named metrics, and the one-line
//! JSON object the benchmark ends with.

use std::fmt::Write as _;

#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Operations that failed a check, one message each.
    pub failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push((name, value, unit));
    }

    /// Record `n` operations of which the listed ones failed.
    pub fn ops(&mut self, n: u64, failures: Vec<String>) {
        self.attempted += n;
        self.failed += failures.len() as u64;
        self.failures.extend(failures);
    }

    pub fn ok_frac(&self) -> f64 {
        (self.attempted - self.failed.min(self.attempted)) as f64 / self.attempted.max(1) as f64
    }

    pub fn print_failures(&self) {
        for f in self.failures.iter().take(20) {
            println!("FAILED {f}");
        }
        if self.failures.len() > 20 {
            println!("... and {} more failures", self.failures.len() - 20);
        }
    }

    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_one_object_with_full_digits() {
        let mut o = Outcome::default();
        o.ops(3, vec!["x".into()]);
        o.metric("call_ms.p50", 1.2034567891, "ms");
        o.metric("ok_frac", o.ok_frac(), "fraction");
        assert_eq!(
            o.json(),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"call_ms.p50\": {\"value\": 1.2034567891, \"unit\": \"ms\"}, \
             \"ok_frac\": {\"value\": 0.6666666666666666, \"unit\": \"fraction\"}}}"
        );
    }
}
