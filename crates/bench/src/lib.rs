//! # cafemio-bench
//!
//! The experiment harness: one runner per table/figure of the paper (the
//! index lives in `DESIGN.md` §3). The [`experiments`] module produces
//! [`FigureReport`]s — printable rows plus the regenerated plot frames —
//! which the `figures` binary prints and writes as SVGs. The rows hold no
//! timings: wall-clock time is the `perf` benchmark's job
//! (`src/bin/perf`, driven by `BENCHMARK.json`).
#![forbid(unsafe_code)]

pub mod experiments;
pub mod jobs;
pub mod mutate;
pub mod validate;

use cafemio::plotter::Frame;

/// One regenerated table/figure.
#[derive(Debug)]
pub struct FigureReport {
    /// Experiment id from `DESIGN.md` (e.g. `"F13"`).
    pub id: &'static str,
    /// What the paper's artifact shows.
    pub title: &'static str,
    /// Measured rows, ready to print.
    pub rows: Vec<String>,
    /// Frames to rasterize, with their output file stems.
    pub frames: Vec<(String, Frame)>,
}

impl FigureReport {
    /// Creates an empty report.
    pub fn new(id: &'static str, title: &'static str) -> FigureReport {
        FigureReport {
            id,
            title,
            rows: Vec::new(),
            frames: Vec::new(),
        }
    }

    /// Adds a measured row.
    pub fn row(&mut self, text: String) {
        self.rows.push(text);
    }

    /// Adds a frame under a file stem.
    pub fn frame(&mut self, stem: &str, frame: Frame) {
        self.frames.push((stem.to_owned(), frame));
    }
}
