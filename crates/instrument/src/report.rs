//! The serializable perf report.

use std::fmt;

use crate::json::{self, JsonValue};

/// One closed timing span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name, e.g. `"fem.assemble"`.
    pub name: String,
    /// Nesting depth at open time (0 = top level).
    pub depth: u32,
    /// Elapsed wall-clock nanoseconds.
    pub nanos: u64,
}

/// One recorded stage counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterRecord {
    /// Counter name, e.g. `"idlz.nodes"`.
    pub name: String,
    /// Recorded value (last write wins).
    pub value: u64,
}

/// A machine-readable snapshot of one instrumented run: every span in
/// start order plus every counter. Produced by
/// [`take_report`](crate::take_report), serialized with
/// [`to_json`](PerfReport::to_json), and read back with
/// [`from_json`](PerfReport::from_json).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PerfReport {
    /// Closed spans in start order.
    pub spans: Vec<SpanRecord>,
    /// Counters in first-recorded order.
    pub counters: Vec<CounterRecord>,
}

/// Error from [`PerfReport::from_json`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportError {
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad perf report: {}", self.reason)
    }
}

impl std::error::Error for ReportError {}

impl PerfReport {
    /// The value of a counter, by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|c| c.name == name).map(|c| c.value)
    }

    /// Sets a counter, replacing the value of an existing record of that
    /// name (such as one summed by [`merge`](Self::merge)) or appending a
    /// new record.
    pub fn set_counter(&mut self, name: &str, value: u64) {
        match self.counters.iter_mut().find(|c| c.name == name) {
            Some(existing) => existing.value = value,
            None => self.counters.push(CounterRecord {
                name: name.to_owned(),
                value,
            }),
        }
    }

    /// Total nanoseconds of a named span, summed over repeats.
    pub fn span_nanos(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.nanos)
            .sum()
    }

    /// Merges another report into this one, **aggregating** rather than
    /// appending: a span in `other` whose `(name, depth)` pair already
    /// exists here adds its nanoseconds to the existing record, and a
    /// counter with an existing name adds its value. Unmatched records
    /// are appended in `other`'s order.
    ///
    /// This is how per-job telemetry aggregates: each batch job and each
    /// served request runs under its own [`record`](crate::record), and
    /// its report folds into a worker's or the server's aggregate. Note
    /// the counter semantics differ from [`counter`](crate::counter)
    /// (which is last-write-wins): merging *sums*, because two jobs'
    /// counts are additive.
    pub fn merge(&mut self, other: &PerfReport) {
        for span in &other.spans {
            match self
                .spans
                .iter_mut()
                .find(|s| s.name == span.name && s.depth == span.depth)
            {
                Some(existing) => existing.nanos = existing.nanos.saturating_add(span.nanos),
                None => self.spans.push(span.clone()),
            }
        }
        for counter in &other.counters {
            match self.counters.iter_mut().find(|c| c.name == counter.name) {
                Some(existing) => {
                    existing.value = existing.value.saturating_add(counter.value);
                }
                None => self.counters.push(counter.clone()),
            }
        }
    }

    /// Folds many per-thread reports into one aggregate with
    /// [`merge`](Self::merge). The fold order is the iteration order, so
    /// callers that need a stable span layout should seed the first
    /// report with the expected names.
    pub fn merge_all(reports: impl IntoIterator<Item = PerfReport>) -> PerfReport {
        let mut merged = PerfReport::default();
        for report in reports {
            merged.merge(&report);
        }
        merged
    }

    /// Serializes to a pretty-printed JSON object with `spans` and
    /// `counters` arrays. No external serializer: the format is small and
    /// stable, and the repository builds offline.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"name\": {}, \"depth\": {}, \"nanos\": {}}}",
                json::escape(&s.name),
                s.depth,
                s.nanos
            ));
        }
        if !self.spans.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"counters\": [");
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"name\": {}, \"value\": {}}}",
                json::escape(&c.name),
                c.value
            ));
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Parses a report previously written by [`to_json`](Self::to_json)
    /// (or any JSON object of the same shape).
    ///
    /// # Errors
    ///
    /// [`ReportError`] for malformed JSON or a missing/mistyped field.
    pub fn from_json(text: &str) -> Result<PerfReport, ReportError> {
        let bad = |reason: &str| ReportError {
            reason: reason.to_owned(),
        };
        let value = json::parse(text).map_err(|e| ReportError { reason: e })?;
        let object = value.as_object().ok_or_else(|| bad("top level must be an object"))?;
        let mut report = PerfReport::default();
        for item in object
            .get("spans")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| bad("missing \"spans\" array"))?
        {
            let span = item.as_object().ok_or_else(|| bad("span must be an object"))?;
            report.spans.push(SpanRecord {
                name: span
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| bad("span missing \"name\""))?
                    .to_owned(),
                depth: span
                    .get("depth")
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| bad("span missing \"depth\""))
                    .and_then(|depth| {
                        u32::try_from(depth).map_err(|_| bad("span \"depth\" exceeds u32"))
                    })?,
                nanos: span
                    .get("nanos")
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| bad("span missing \"nanos\""))?,
            });
        }
        for item in object
            .get("counters")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| bad("missing \"counters\" array"))?
        {
            let c = item.as_object().ok_or_else(|| bad("counter must be an object"))?;
            report.counters.push(CounterRecord {
                name: c
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| bad("counter missing \"name\""))?
                    .to_owned(),
                value: c
                    .get("value")
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| bad("counter missing \"value\""))?,
            });
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PerfReport {
        PerfReport {
            spans: vec![
                SpanRecord {
                    name: "idlz.run".to_owned(),
                    depth: 0,
                    nanos: 123_456_789,
                },
                SpanRecord {
                    name: "idlz.shape \"quoted\"\\".to_owned(),
                    depth: 1,
                    nanos: 42,
                },
            ],
            counters: vec![CounterRecord {
                name: "idlz.nodes".to_owned(),
                value: u64::MAX,
            }],
        }
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let report = sample();
        let back = PerfReport::from_json(&report.to_json()).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn empty_report_round_trips() {
        let report = PerfReport::default();
        let back = PerfReport::from_json(&report.to_json()).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn helpers_sum_and_find() {
        let mut report = sample();
        report.spans.push(SpanRecord {
            name: "idlz.run".to_owned(),
            depth: 0,
            nanos: 1,
        });
        assert_eq!(report.span_nanos("idlz.run"), 123_456_790);
        assert_eq!(report.counter("idlz.nodes"), Some(u64::MAX));
        assert_eq!(report.counter("missing"), None);
        report.set_counter("idlz.nodes", 7);
        assert_eq!(report.counters.len(), 1);
        assert_eq!(report.counter("idlz.nodes"), Some(7));
    }

    #[test]
    fn merge_aggregates_matching_records_and_appends_new() {
        let mut left = PerfReport {
            spans: vec![
                SpanRecord {
                    name: "batch.solve".to_owned(),
                    depth: 1,
                    nanos: 100,
                },
                SpanRecord {
                    name: "batch.parse".to_owned(),
                    depth: 1,
                    nanos: 10,
                },
            ],
            counters: vec![CounterRecord {
                name: "batch.jobs".to_owned(),
                value: 3,
            }],
        };
        let right = PerfReport {
            spans: vec![
                SpanRecord {
                    name: "batch.solve".to_owned(),
                    depth: 1,
                    nanos: 50,
                },
                // Same name at a different depth is a distinct record.
                SpanRecord {
                    name: "batch.solve".to_owned(),
                    depth: 0,
                    nanos: 7,
                },
            ],
            counters: vec![
                CounterRecord {
                    name: "batch.jobs".to_owned(),
                    value: 2,
                },
                CounterRecord {
                    name: "batch.failed".to_owned(),
                    value: 1,
                },
            ],
        };
        left.merge(&right);
        assert_eq!(left.spans.len(), 3);
        assert_eq!(left.span_nanos("batch.solve"), 157);
        assert_eq!(left.span_nanos("batch.parse"), 10);
        assert_eq!(left.counter("batch.jobs"), Some(5));
        assert_eq!(left.counter("batch.failed"), Some(1));
    }

    #[test]
    fn merge_all_folds_in_order_and_saturates() {
        let worker = |nanos, jobs| PerfReport {
            spans: vec![SpanRecord {
                name: "batch.contour".to_owned(),
                depth: 1,
                nanos,
            }],
            counters: vec![CounterRecord {
                name: "batch.jobs".to_owned(),
                value: jobs,
            }],
        };
        let merged =
            PerfReport::merge_all([worker(u64::MAX - 1, 1), worker(10, u64::MAX)]);
        assert_eq!(merged.spans.len(), 1);
        assert_eq!(merged.span_nanos("batch.contour"), u64::MAX);
        assert_eq!(merged.counter("batch.jobs"), Some(u64::MAX));
    }

    #[test]
    fn malformed_json_rejected() {
        assert!(PerfReport::from_json("{").is_err());
        assert!(PerfReport::from_json("[]").is_err());
        assert!(PerfReport::from_json("{\"spans\": [], \"counters\": 3}").is_err());
        for depth in ["-1", "4294967296"] {
            let json = format!(
                "{{\"spans\": [{{\"name\": \"x\", \"depth\": {depth}, \"nanos\": 0}}], \"counters\": []}}"
            );
            assert!(PerfReport::from_json(&json).is_err(), "depth {depth}");
        }
    }
}
