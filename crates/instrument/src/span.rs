//! The per-thread span/counter recorder.

use std::cell::RefCell;
use std::time::Instant;

use crate::report::{CounterRecord, PerfReport, SpanRecord};

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

#[derive(Default)]
struct Local {
    /// Names and start times of the spans currently open on this thread,
    /// outermost first. Maintained even while collection is disabled so
    /// error paths can always attach "where was the pipeline" context.
    stack: Vec<(&'static str, Instant)>,
    /// Where this thread's spans and counters land: the thread's own
    /// recorder, or the one a [`record`] call installed.
    recorder: Recorder,
}

#[derive(Default)]
struct Recorder {
    enabled: bool,
    /// Armed spans open under this recorder.
    depth: u32,
    /// Start order of the next span, so the report lists spans in the
    /// order they opened even though they are recorded when they close.
    next_seq: u64,
    /// `(start sequence, record)` pairs; sorted on drain.
    spans: Vec<(u64, SpanRecord)>,
    counters: Vec<CounterRecord>,
}

/// Turns collection on or off for the calling thread. Off is the
/// default; a disabled [`span`] records nothing and only maintains the
/// open-span name stack. Turning collection off keeps what was already
/// recorded for [`take_report`].
pub fn set_enabled(on: bool) {
    LOCAL.with(|l| l.borrow_mut().recorder.enabled = on);
}

/// Whether collection is on for the calling thread.
pub fn is_enabled() -> bool {
    LOCAL.with(|l| l.borrow().recorder.enabled)
}

/// Opens a timing span; the returned guard records the elapsed wall-clock
/// time when dropped. Spans opened while another span is live under the
/// same recorder record a one-greater nesting depth.
///
/// The open-span *name stack* is maintained even while collection is
/// disabled (a disabled span costs one clock read and one thread-local
/// push), so [`active_spans`] can always report where a failing pipeline
/// was and for how long it had been there.
pub fn span(name: &'static str) -> Span {
    let start = Instant::now();
    let armed = LOCAL.with(|l| {
        let l = &mut *l.borrow_mut();
        l.stack.push((name, start));
        let r = &mut l.recorder;
        if !r.enabled {
            return None;
        }
        let armed = Armed {
            start,
            seq: r.next_seq,
            depth: r.depth,
        };
        r.next_seq += 1;
        r.depth += 1;
        Some(armed)
    });
    Span { armed, name }
}

/// A span that is currently open on this thread, captured by
/// [`active_spans`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActiveSpan {
    /// The span name passed to [`span`].
    pub name: &'static str,
    /// Wall-clock nanoseconds the span has been open so far.
    pub elapsed_nanos: u64,
}

impl std::fmt::Display for ActiveSpan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({:.3} ms)",
            self.name,
            self.elapsed_nanos as f64 / 1e6
        )
    }
}

/// The spans currently open on this thread, outermost first, with their
/// elapsed time so far. Works whether or not collection is enabled, and
/// sees through [`record`] scopes; error types use it to attach "which
/// stage, how deep, for how long" context to failures.
pub fn active_spans() -> Vec<ActiveSpan> {
    LOCAL.with(|l| {
        l.borrow()
            .stack
            .iter()
            .map(|&(name, start)| ActiveSpan {
                name,
                elapsed_nanos: nanos_since(start),
            })
            .collect()
    })
}

/// Records a named counter value. Re-recording a name overwrites the
/// previous value, so stages can report "last value wins" totals.
pub fn counter(name: &'static str, value: u64) {
    update_counter(name, |_| value);
}

/// Adds `delta` to a named counter (starting from zero), so repeated
/// calls sum — the tally counterpart of [`counter`].
pub fn add(name: &'static str, delta: u64) {
    update_counter(name, |value| value.saturating_add(delta));
}

fn update_counter(name: &'static str, update: impl FnOnce(u64) -> u64) {
    LOCAL.with(|l| {
        let r = &mut l.borrow_mut().recorder;
        if !r.enabled {
            return;
        }
        match r.counters.iter_mut().find(|c| c.name == name) {
            Some(existing) => existing.value = update(existing.value),
            None => r.counters.push(CounterRecord {
                name: name.to_owned(),
                value: update(0),
            }),
        }
    });
}

/// Drains everything the calling thread's recorder holds into a
/// [`PerfReport`]. Spans are listed in start order; counters in
/// first-recorded order.
pub fn take_report() -> PerfReport {
    LOCAL.with(|l| {
        let r = &mut l.borrow_mut().recorder;
        let mut spans = std::mem::take(&mut r.spans);
        spans.sort_by_key(|&(seq, _)| seq);
        PerfReport {
            spans: spans.into_iter().map(|(_, record)| record).collect(),
            counters: std::mem::take(&mut r.counters),
        }
    })
}

/// Runs `f` with a fresh, enabled recorder on the calling thread and
/// returns its result with everything `f` recorded; depths count from
/// zero at `f`'s outermost span. The thread's previous recorder, with
/// whatever it held, is restored afterwards, also when `f` unwinds. One
/// `record` per batch job or served request is how each owns its
/// telemetry; [`PerfReport::merge`] aggregates them.
///
/// ```
/// let (sum, report) = cafemio_instrument::record(|| {
///     let _job = cafemio_instrument::span("demo.job");
///     cafemio_instrument::add("demo.items", 2);
///     cafemio_instrument::add("demo.items", 3);
///     2 + 3
/// });
/// assert_eq!((sum, report.spans[0].depth), (5, 0));
/// assert_eq!(report.counter("demo.items"), Some(5));
/// ```
pub fn record<T>(f: impl FnOnce() -> T) -> (T, PerfReport) {
    let fresh = Recorder {
        enabled: true,
        ..Recorder::default()
    };
    let outer = LOCAL.with(|l| std::mem::replace(&mut l.borrow_mut().recorder, fresh));
    let _restore = Restore(Some(outer));
    (f(), take_report())
}

/// Puts a [`record`] caller's recorder back when dropped.
struct Restore(Option<Recorder>);

impl Drop for Restore {
    fn drop(&mut self) {
        if let Some(outer) = self.0.take() {
            LOCAL.with(|l| l.borrow_mut().recorder = outer);
        }
    }
}

/// RAII timing guard returned by [`span`]. Dropping it records the span;
/// a guard created while collection is disabled does nothing.
#[must_use = "a span measures the scope it lives in; bind it to a variable"]
#[derive(Debug)]
pub struct Span {
    armed: Option<Armed>,
    name: &'static str,
}

#[derive(Debug)]
struct Armed {
    start: Instant,
    seq: u64,
    depth: u32,
}

impl Drop for Span {
    fn drop(&mut self) {
        let armed = self.armed.take();
        LOCAL.with(|l| {
            let l = &mut *l.borrow_mut();
            l.stack.pop();
            let Some(armed) = armed else {
                return;
            };
            let r = &mut l.recorder;
            r.depth = r.depth.saturating_sub(1);
            let record = SpanRecord {
                name: self.name.to_owned(),
                depth: armed.depth,
                nanos: nanos_since(armed.start),
            };
            r.spans.push((armed.seq, record));
        });
    }
}

fn nanos_since(start: Instant) -> u64 {
    start.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `f` with the calling thread's default recorder on and empty.
    /// Every test thread has its own recorder, so tests cannot see each
    /// other's spans.
    fn with_clean_collector<R>(f: impl FnOnce() -> R) -> R {
        set_enabled(true);
        let _ = take_report();
        let out = f();
        set_enabled(false);
        out
    }

    #[test]
    fn disabled_span_records_nothing() {
        set_enabled(false);
        let _ = take_report();
        {
            let _s = span("off");
            counter("off", 1);
            add("off.sum", 1);
        }
        let report = take_report();
        assert!(report.spans.is_empty());
        assert!(report.counters.is_empty());
    }

    #[test]
    fn active_spans_track_open_scopes_even_when_disabled() {
        set_enabled(false);
        assert!(active_spans().is_empty());
        let _outer = span("ctx.outer");
        {
            let _inner = span("ctx.inner");
            let open = active_spans();
            let names: Vec<&str> = open.iter().map(|s| s.name).collect();
            assert_eq!(names, ["ctx.outer", "ctx.inner"]);
        }
        let open = active_spans();
        assert_eq!(open.len(), 1);
        assert_eq!(open[0].name, "ctx.outer");
        assert!(open[0].to_string().starts_with("ctx.outer ("));
        drop(_outer);
        assert!(active_spans().is_empty());
    }

    #[test]
    fn nesting_depth_tracks_scopes() {
        let report = with_clean_collector(|| {
            let _a = span("a");
            {
                let _b = span("b");
                let _c = span("c");
            }
            let _d = span("d");
            drop(_d);
            drop(_a);
            take_report()
        });
        let by_name: Vec<(&str, u32)> = report
            .spans
            .iter()
            .map(|s| (s.name.as_str(), s.depth))
            .collect();
        assert_eq!(by_name, [("a", 0), ("b", 1), ("c", 2), ("d", 1)]);
    }

    #[test]
    fn spans_listed_in_start_order_not_close_order() {
        let report = with_clean_collector(|| {
            let outer = span("outer");
            let inner = span("inner");
            drop(inner); // closes first
            drop(outer);
            take_report()
        });
        assert_eq!(report.spans[0].name, "outer");
        assert_eq!(report.spans[1].name, "inner");
    }

    #[test]
    fn counters_overwrite_by_name() {
        let report = with_clean_collector(|| {
            counter("nodes", 10);
            counter("elements", 18);
            counter("nodes", 12);
            add("checks", 3);
            add("checks", 4);
            take_report()
        });
        assert_eq!(report.counters.len(), 3);
        assert_eq!(report.counter("nodes"), Some(12));
        assert_eq!(report.counter("elements"), Some(18));
        assert_eq!(report.counter("checks"), Some(7));
    }

    #[test]
    fn take_report_drains() {
        let report = with_clean_collector(|| {
            let _s = span("once");
            drop(_s);
            let first = take_report();
            assert_eq!(first.spans.len(), 1);
            take_report()
        });
        assert!(report.spans.is_empty());
    }

    #[test]
    fn depth_recovers_after_drain() {
        // A span dropped after an intervening drain must not underflow or
        // corrupt the depth of later spans.
        let report = with_clean_collector(|| {
            let open = span("left-open");
            let _ = take_report();
            drop(open);
            let _fresh = span("fresh");
            drop(_fresh);
            take_report()
        });
        let fresh = report.spans.iter().find(|s| s.name == "fresh").unwrap();
        assert_eq!(fresh.depth, 0);
    }

    #[test]
    fn another_threads_telemetry_stays_out_of_this_threads_reports() {
        let emit_elsewhere = || {
            std::thread::scope(|s| {
                s.spawn(|| {
                    set_enabled(true);
                    let _s = span("other.work");
                    counter("other.gauge", 7);
                });
            });
        };
        let drained = with_clean_collector(|| {
            emit_elsewhere();
            take_report()
        });
        let ((), recorded) = record(emit_elsewhere);
        assert_eq!(drained, PerfReport::default());
        assert_eq!(recorded, PerfReport::default());
    }

    #[test]
    fn record_scopes_collection_and_restores_the_enclosing_region() {
        let (outer, inner) = with_clean_collector(|| {
            let _before = span("outer.before");
            let (value, inner) = record(|| {
                let _job = span("inner.job");
                let _stage = span("inner.stage");
                add("inner.tally", 2);
                42
            });
            assert_eq!(value, 42);
            let unwound = std::panic::catch_unwind(|| {
                record(|| {
                    let _job = span("inner.panics");
                    panic!("job bug");
                })
            });
            assert!(unwound.is_err());
            assert!(is_enabled(), "the enclosing region is still on");
            let _after = span("outer.after");
            drop(_after);
            drop(_before);
            (take_report(), inner)
        });
        fn layout(report: &PerfReport) -> Vec<(&str, u32)> {
            report
                .spans
                .iter()
                .map(|s| (s.name.as_str(), s.depth))
                .collect()
        }
        // Inner depths restart at zero; the outer depth is untouched.
        assert_eq!(layout(&inner), [("inner.job", 0), ("inner.stage", 1)]);
        assert_eq!(inner.counter("inner.tally"), Some(2));
        assert_eq!(layout(&outer), [("outer.before", 0), ("outer.after", 1)]);
        assert!(outer.counters.is_empty());
        assert!(active_spans().is_empty());
    }
}
