//! One run's result: the metric values in schema order, the operation
//! tally, and the three renderings — one human line per metric, the
//! machine-readable result line, and the `--out` file.

use crate::json::quote;
use crate::schema::{self, Metric};
use crate::stats::Value;

/// A workload run's result.
#[derive(Debug)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Input seed.
    pub seed: u64,
    /// Requested measuring time.
    pub seconds: f64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Timed operations attempted.
    pub attempted: u64,
    /// Failed, refused or output-mismatched operations.
    pub failed: u64,
    /// Problems that make the run's numbers unusable (not per-op
    /// failures), e.g. a lagging load generator.
    pub invalid: Vec<String>,
    /// Duration of each set-up, seconds.
    pub setup_s: Vec<f64>,
    metrics: Vec<(&'static Metric, Value)>,
}

impl Report {
    /// An empty report.
    pub fn new(workload: &'static str, seed: u64, seconds: f64, trace: bool) -> Report {
        Report {
            workload,
            seed,
            seconds,
            trace,
            attempted: 0,
            failed: 0,
            invalid: Vec::new(),
            setup_s: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Records a metric; the name must be in the schema.
    pub fn set(&mut self, name: &str, value: Value) {
        // invariant: every call site names a schema entry (the schema
        // tests and the per-workload smoke tests exercise them all).
        let metric = schema::lookup(name).unwrap_or_else(|| panic!("{name} is not in the schema"));
        self.metrics.retain(|(m, _)| m.name != name);
        self.metrics.push((metric, value));
    }

    /// Records a single-sample metric.
    pub fn set_single(&mut self, name: &str, value: f64) {
        self.set(name, Value::single(value));
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<Value> {
        self.metrics
            .iter()
            .find(|(m, _)| m.name == name)
            .map(|&(_, v)| v)
    }

    /// Counts one attempted operation, failed when `ok` is false.
    pub fn tally(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Outputs were all correct and the run is usable.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.invalid.is_empty()
    }

    fn ordered(&self) -> Vec<(&'static Metric, Value)> {
        schema::METRICS
            .iter()
            .filter_map(|m| self.metrics.iter().find(|(r, _)| r.name == m.name).copied())
            .collect()
    }

    /// One `name value unit n=<samples> spread=<IQR share>` line per
    /// recorded metric, in schema order.
    pub fn lines(&self) -> Vec<String> {
        self.ordered()
            .into_iter()
            .map(|(m, v)| {
                format!(
                    "{} {} {} n={} spread={:.4}",
                    m.name, v.value, m.unit, v.n, v.spread
                )
            })
            .collect()
    }

    /// The machine-readable result line: exactly the metrics of this mode's
    /// tier. Fails when one is missing or not a finite number.
    pub fn result_line(&self) -> Result<String, String> {
        let mut metrics = Vec::new();
        for metric in schema::result_tier(self.trace) {
            let value = self.get(metric.name).ok_or_else(|| {
                format!("{}: metric {} was not measured", self.workload, metric.name)
            })?;
            if !value.value.is_finite() {
                return Err(format!(
                    "{}: metric {} is {}",
                    self.workload, metric.name, value.value
                ));
            }
            metrics.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(metric.name),
                value.value,
                quote(metric.unit)
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }

    /// The full record for `--out` and `perf compare`: every metric with
    /// its sample count, spread and why it is measured, plus the run
    /// parameters.
    pub fn to_json(&self) -> String {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let metrics: Vec<String> = self
            .ordered()
            .into_iter()
            .filter(|(_, v)| v.value.is_finite())
            .map(|(m, v)| {
                format!(
                    "    {}: {{\"value\": {}, \"unit\": {}, \"better\": {}, \"n\": {}, \"spread\": {}, \"why\": {}}}",
                    quote(m.name),
                    v.value,
                    quote(m.unit),
                    quote(m.better.as_str()),
                    v.n,
                    v.spread,
                    quote(m.why)
                )
            })
            .collect();
        let invalid: Vec<String> = self.invalid.iter().map(|s| quote(s)).collect();
        format!(
            "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \
             \"nproc\": {nproc},\n  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \
             \"invalid\": [{}],\n  \"metrics\": {{\n{}\n  }}\n}}\n",
            quote(self.workload),
            self.seed,
            self.seconds,
            self.trace,
            self.correct(),
            self.attempted,
            self.failed,
            invalid.join(", "),
            metrics.join(",\n")
        )
    }
}

/// Peak resident set of this process in MB (`VmHWM`), or `None` where
/// `/proc/self/status` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn result_line_carries_exactly_the_mode_tier() {
        let mut report = Report::new("catalog_cold", 1, 10.0, false);
        for metric in schema::result_tier(false) {
            report.set(metric.name, Value::single(1.5));
        }
        report.set_single("prepare_s", 0.2);
        report.tally(true);
        let line = Json::parse(&report.result_line().expect("complete")).expect("valid JSON");
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(line.get("attempted").and_then(Json::as_f64), Some(1.0));
        let names: Vec<&str> = line
            .get("metrics")
            .and_then(Json::as_object)
            .expect("metrics object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let tier: Vec<&str> = schema::result_tier(false).map(|m| m.name).collect();
        assert_eq!(names, tier);
        // The traced tier is not complete, so the traced line fails.
        report.trace = true;
        assert!(report.result_line().is_err());
        let out = Json::parse(&report.to_json()).expect("valid --out JSON");
        assert!(out
            .get("metrics")
            .and_then(|m| m.get("prepare_s"))
            .is_some());
    }

    #[test]
    fn failures_and_invalid_phases_make_the_run_incorrect() {
        let mut report = Report::new("serve_mix", 1, 10.0, false);
        assert!(!report.correct(), "nothing attempted");
        report.tally(true);
        assert!(report.correct());
        report.invalid.push("generator lagged".into());
        assert!(!report.correct());
        report.invalid.clear();
        report.tally(false);
        assert!(!report.correct());
        assert_eq!((report.attempted, report.failed), (2, 1));
    }
}
