//! `perf` — the repository's benchmark: deck-in → SVG-out latency on four
//! workloads, with a traced per-layer breakdown.
//!
//! ```sh
//! cargo run --release --locked --manifest-path crates/bench/src/bin/perf/Cargo.toml -- \
//!     --workload catalog_cold --seed 1 --seconds 10 --trace 0 [--out result.json]
//! cargo run --release --locked --manifest-path crates/bench/src/bin/perf/Cargo.toml -- \
//!     compare runs/seed1 runs/seed2          # applies the BENCHMARK.json bounds
//! ```
//!
//! Each invocation runs one workload in its own process, through the
//! public API only (`cafemio::pipeline`, `cafemio::plotter::render_svg`,
//! `cafemio_serve::Server`), with at most two load threads. It prints one
//! line per metric (`name value unit n=<samples> spread=<IQR share>`),
//! then, as the last line, the result object
//! `{"correct", "attempted", "failed", "metrics"}` carrying exactly the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`) that `BENCHMARK.json` declares. `--out` writes every
//! metric, with sample counts and spreads, for `perf compare`. The exit
//! code is nonzero when any output check fails.
//!
//! # Method
//!
//! * The seed generates every input: deck order, edit sessions, the serve
//!   request stream, the plate's load. The program sees only the
//!   generated decks and requests.
//! * Preparation — input generation and the golden outputs, each computed
//!   uncached, outside any timed region — is printed as `prepare_s` and
//!   never compared.
//! * Set-up — state construction plus one untimed warm-up pass — runs
//!   five times before the timed phase and five times after it;
//!   `setup_s` is the fastest decile of the ten.
//! * Closed-loop phases run a fixed operation count derived from
//!   `--seconds` (so two versions of the program do the same work);
//!   open-loop phases run a fixed rate for a fixed share of `--seconds`
//!   and time each request from its due time.
//! * Co-tenants on a shared machine slow whole stretches of a run, so
//!   bounded timings are taken per block of operations with the same mix
//!   of work and reported at the better decile of the blocks (see
//!   `stats.rs`). p99 is taken over the whole phase, only with at least
//!   1000 samples, and printed without a bound. A metric's spread is the
//!   IQR of its estimate over five equal consecutive parts of the phase,
//!   as a share of their median.
//! * Every timed output is checked: each SVG's digest must equal the
//!   uncached golden, `serve_mix` bodies must equal a direct
//!   `render_svg`, and the `large_plate` golden solution must pass the
//!   residual audit (relative residual ≤ 1e-8). Mismatches count as
//!   failed operations.
//! * End-to-end metrics come from untraced runs. `--trace 1` times each
//!   layer from this benchmark's own code, around calls into the layer's
//!   public functions: `catalog_cold` and `large_plate` go through a
//!   decomposed run whose SVGs must equal the untraced run's,
//!   `edit_replay` times every `PipelineBuilder` stage call and
//!   `render_svg`, and `serve_mix` reads the server's always-on telemetry
//!   plus client-side timers.
//!
//! # Workloads
//!
//! * **`catalog_cold`** — all 12 catalog decks, shuffled by seed each
//!   round, deck → SVG with no cache, one thread. Every cold layer does
//!   real work, mostly IDLZ and OSPL; cache and serve are bypassed, so
//!   this is the control for cache and serve changes.
//! * **`edit_replay`** — analyst sessions of 40 requests, one per deck in
//!   each seed-shuffled round, against one shared 32 MiB stage cache: 70 % resubmits, 20 %
//!   contour-interval edits, 10 % one-coordinate deck edits. Reads
//!   (hits) run beside writes (misses, puts, evictions, incremental
//!   re-idealization), and `render_svg` runs on every hit: cache gains
//!   show here and not in `catalog_cold`.
//! * **`serve_mix`** — an in-process server (2 workers, 256 MiB cache),
//!   real TCP, `POST /contour` from 2 clients: 70 % resubmits of recent
//!   decks, 30 % fresh edits; a low-rate and a high-rate open loop, then
//!   a closed loop for capacity. The only workload that crosses HTTP
//!   framing, admission, the dispatcher queue and the response cache;
//!   waiting shows in the tail before throughput drops.
//! * **`large_plate`** — a 16-band plate (2 048 elements, beyond the 1970
//!   card limits) as deck text, under `Capability::LargeMesh` and
//!   `SolverBackend::SparseCg`. Jacobi-PCG is about 90 % of each sample,
//!   so solver work shows here and nowhere else; `catalog_cold` is its
//!   control. The plate is the large-mesh smoke test's tall 16-band shape
//!   with an 8 × 8 grid per band instead of 60 × 60, so about a hundred
//!   samples fit in a ten-second run and the solve stays in the core's
//!   own caches. Each sample is its own block, so `p90_ms` equals
//!   `p50_ms` here.
//!
//! # Metrics
//!
//! The schema (`schema.rs`) lists every metric with its unit, direction,
//! tier and why it is measured; `BENCHMARK.json` declares the end-to-end
//! tier (with bounds) and the per-layer tier, and a test holds the two in
//! step. End to end: `setup_s`, `p50_ms`, `p90_ms`, `ops_per_s`,
//! `peak_rss_mb`. Per layer, as µs per operation: `idlz.parse_us`,
//! `idlz.run_us`, `core.setup_us`, `fem.solve_us`, `fem.recover_us`,
//! `ospl.run_us`, `plotter.svg_us`, plus work counts, cache and
//! response-cache ratios, and the reconciliation shares
//! `trace.unattributed_share` and `trace.overhead_share`. Details that
//! exist on some workloads only (p99, serve spans, queue wait, generator
//! lateness, sub-layer re-calls, incremental reuse) are printed and
//! written by `--out`, never put in the result line.
//!
//! # Known caveats
//!
//! * The server records `serve.parse` for both the HTTP read and the
//!   inline lint parse, so `serve.parse_us` is their sum;
//!   `serve.http_read_us` re-calls the HTTP parser on the request bytes
//!   and `lint.parse_us` is the difference.
//! * The stage cache keys the incremental idealizer's slot by data-set
//!   index, not by deck: consecutive edits of different decks share the
//!   slot, so `idlz.incremental_reuse_ratio` is low across sessions.

mod catalog;
mod compare;
mod drive;
mod edit;
mod inputs;
mod json;
mod plate;
mod report;
mod schema;
mod serve;
mod stats;

use std::process::ExitCode;

use report::Report;

/// A workload entry point: `(seed, seconds, trace)` → report.
type Run = fn(u64, f64, bool) -> Result<Report, String>;

/// The workloads, by name.
const WORKLOADS: [(&str, Run); 4] = [
    ("catalog_cold", catalog::run),
    ("edit_replay", edit::run),
    ("serve_mix", serve::run),
    ("large_plate", plate::run),
];

/// Parsed command line of a workload run.
#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: None,
    };
    let mut argv = argv.iter().peekable();
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                // `--trace` alone means on; `--trace 0|1` is explicit.
                args.trace = match argv.peek().map(|v| v.as_str()) {
                    Some("0") => {
                        argv.next();
                        false
                    }
                    Some("1") => {
                        argv.next();
                        true
                    }
                    _ => true,
                };
            }
            "--out" => args.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.iter().any(|(name, _)| *name == args.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|(name, _)| *name).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return compare::main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perf: {message}");
            eprintln!(
                "usage: perf --workload <name> --seed <u64> [--seconds <s>] [--trace [0|1]] [--out <file.json>]\n       perf compare <a> <b> [--benchmark BENCHMARK.json]"
            );
            return ExitCode::from(2);
        }
    };
    let run = WORKLOADS
        .iter()
        .find(|(name, _)| *name == args.workload)
        .map(|&(_, run)| run)
        .unwrap_or(catalog::run);
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "perf: workload={} seed={} seconds={} trace={} nproc={nproc}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let report = match run(args.seed, args.seconds, args.trace) {
        Ok(report) => report,
        Err(message) => {
            eprintln!("perf: {}: {message}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for line in report.lines() {
        println!("{line}");
    }
    for problem in &report.invalid {
        println!("perf: invalid: {problem}");
    }
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("perf: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    match report.result_line() {
        Ok(line) => println!("{line}"),
        Err(message) => {
            eprintln!("perf: {message}");
            return ExitCode::FAILURE;
        }
    }
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perf: {}: {} of {} operations failed their output check",
            args.workload, report.failed, report.attempted
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(text: &str) -> Result<Args, String> {
        parse_args(
            &text
                .split_whitespace()
                .map(str::to_owned)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn command_line_parses() {
        let parsed = args("--workload serve_mix --seed 7 --seconds 10 --trace 0").expect("valid");
        assert_eq!(
            parsed,
            Args {
                workload: "serve_mix".into(),
                seed: 7,
                seconds: 10.0,
                trace: false,
                out: None
            }
        );
        assert!(
            args("--workload large_plate --trace 1")
                .expect("valid")
                .trace
        );
        let bare = args("--workload edit_replay --trace --out r.json").expect("valid");
        assert!(bare.trace);
        assert_eq!(bare.out.as_deref(), Some("r.json"));
        assert!(args("--workload nope").is_err());
        assert!(args("--workload catalog_cold --seconds 0").is_err());
        assert!(args("--workload catalog_cold --bogus").is_err());
    }

    /// A tiny traced and untraced run of the cache-free workload: the
    /// result lines carry exactly their tiers and every output matches
    /// its golden.
    #[test]
    fn catalog_cold_emits_both_tiers() {
        for trace in [false, true] {
            let report = catalog::run(3, 0.03, trace).expect("runs");
            assert!(report.correct(), "{report:?}");
            report.result_line().expect("complete tier");
        }
    }
}
