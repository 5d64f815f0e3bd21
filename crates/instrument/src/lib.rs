//! # cafemio-instrument
//!
//! Stage-level observability for the cafemio pipeline.
//!
//! The paper's programs ran as overnight batch jobs where the only
//! "profile" was the operator's wall clock. Growing the reproduction into
//! a system that is "fast as the hardware allows" needs per-stage cost
//! visibility first: this crate provides **timing spans** (RAII guards
//! recording wall-clock durations with nesting depth), **stage counters**
//! (node counts, bandwidths, isogram segment totals), and a
//! [`PerfReport`] that serializes both to JSON — the machine-readable
//! artifact every perf PR benchmarks against.
//!
//! Every thread has its own recorder. Instrumentation is **off by
//! default and near-free when off**: a disabled [`span`] records nothing
//! (it only maintains the thread's open-span name stack behind
//! [`active_spans`], one clock read and one push), and a disabled
//! [`counter`] or [`add`] is one thread-local flag check. Turn collection
//! on around the region you care about, then drain with [`take_report`]:
//!
//! ```
//! cafemio_instrument::set_enabled(true);
//! {
//!     let _outer = cafemio_instrument::span("demo.outer");
//!     let _inner = cafemio_instrument::span("demo.inner");
//!     cafemio_instrument::counter("demo.items", 3);
//! }
//! let report = cafemio_instrument::take_report();
//! cafemio_instrument::set_enabled(false);
//! assert_eq!(report.spans.len(), 2);
//! assert_eq!(report.spans[0].name, "demo.outer");
//! assert_eq!(report.spans[1].depth, 1);
//! let json = report.to_json();
//! let back = cafemio_instrument::PerfReport::from_json(&json).unwrap();
//! assert_eq!(report, back);
//! ```
//!
//! [`set_enabled`] and [`take_report`] act on the calling thread only.
//! A unit of work that owns its telemetry — a batch job, a served
//! request — runs under [`record`], which installs a fresh recorder for
//! one closure and restores the thread's previous one afterwards; the
//! units' reports aggregate with [`PerfReport::merge`]. [`counter`]
//! overwrites (last value wins) and [`add`] sums. Pipeline kernels are
//! serial, so one deck's telemetry never fans out across threads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod json;
pub mod names;
mod report;
mod span;

pub use report::{CounterRecord, PerfReport, ReportError, SpanRecord};
pub use span::{
    active_spans, add, counter, is_enabled, record, set_enabled, span, take_report, ActiveSpan,
    Span,
};
