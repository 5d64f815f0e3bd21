//! Edit-replay cache benchmark: how much faster does a resubmitted deck
//! answer once the stage cache has seen it?
//!
//! ```sh
//! cargo run --release -p cafemio-bench --bin cache_replay          # 7 reps/deck
//! cargo run --release -p cafemio-bench --bin cache_replay -- 15   # more reps
//! ```
//!
//! For every catalog deck the replay runs the full staged session
//! (parse → idealize → setup → solve → recover → contour) twice over:
//!
//! * **cold** — a fresh [`StageCache`] per repetition, so every stage
//!   computes;
//! * **warm** — one shared store seeded by a cold run, so every stage
//!   answers from its content-addressed key.
//!
//! Every warm result is compared byte-for-byte (via the f64-round-trip
//! `Debug` rendering) against the seeding cold run, and one warm
//! repetition per deck runs under the instrument collector to prove the
//! solver never executed (`fem.*` span count must be zero). The merged
//! report — `cache.cold_p50_micros`, `cache.warm_p50_micros`,
//! `cache.speedup_milli`, the store totals, and the zero
//! mismatch/fem-span tallies — is written to `BENCH_cache.json` for
//! `bench_validate`, and the process exits nonzero on any mismatch, any
//! warm solver work, or a speedup under the 10× floor.

use std::error::Error;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use cafemio::cache::StageCache;
use cafemio::instrument::PerfReport;
use cafemio::ospl::ContourOptions;
use cafemio::pipeline::{PipelineBuilder, PipelineError, StressComponent, StressPlot};
use cafemio::SessionConfig;
use cafemio_bench::jobs::standard_setup;
use cafemio_bench::mutate::base_decks;

/// The 10× acceptance floor, in milli-x.
const SPEEDUP_FLOOR_MILLI: u64 = 10_000;

fn run(config: &SessionConfig, text: &str) -> Result<Vec<StressPlot>, PipelineError> {
    PipelineBuilder::new()
        .config(config.clone())
        .component(StressComponent::Effective)
        .contour_options(ContourOptions::new())
        .parse(text)?
        .idealize()?
        .setup(standard_setup)?
        .solve()?
        .recover()?
        .contour()
}

/// p50 of a sample set, in microseconds (at least 1 so ratios and the
/// validator's positivity check stay meaningful).
fn p50_micros(samples: &mut [u64]) -> u64 {
    samples.sort_unstable();
    (samples[samples.len() / 2] / 1_000).max(1)
}

fn main() -> Result<(), Box<dyn Error>> {
    let mut args = std::env::args().skip(1);
    let reps: usize = match args.next() {
        Some(text) => text.parse()?,
        None => 7,
    };

    let decks = base_decks();
    println!("cache-replay: {} decks, {reps} reps each", decks.len());

    let mut cold_nanos = Vec::new();
    let mut warm_nanos = Vec::new();
    let mut mismatches = 0u64;
    let mut warm_fem_spans = 0u64;
    let mut hits = 0u64;
    let mut misses = 0u64;
    let mut evictions = 0u64;
    let mut bytes = 0u64;
    let mut entries = 0u64;
    let mut report = PerfReport::default();

    for (name, text) in &decks {
        // Cold: a fresh store every repetition.
        for _ in 0..reps {
            let config = SessionConfig::new().cache(Arc::new(StageCache::new()));
            let start = Instant::now();
            let plots = run(&config, text).map_err(|e| format!("{name}: cold run failed: {e}"))?;
            cold_nanos.push(start.elapsed().as_nanos() as u64);
            black_box(plots);
        }

        // Warm: one store, seeded once, replayed `reps` times.
        let store = Arc::new(StageCache::new());
        let config = SessionConfig::new().cache(Arc::clone(&store));
        let seed = run(&config, text).map_err(|e| format!("{name}: seed run failed: {e}"))?;
        let golden = format!("{seed:?}");
        for _ in 0..reps {
            let start = Instant::now();
            let warm = run(&config, text).map_err(|e| format!("{name}: warm run failed: {e}"))?;
            warm_nanos.push(start.elapsed().as_nanos() as u64);
            if format!("{warm:?}") != golden {
                mismatches += 1;
                eprintln!("cache-replay: MISMATCH: {name}: warm output diverged from cold");
            }
        }

        // One instrumented warm replay per deck: the span ledger proves
        // the solver never ran, and its counters fold into the artifact.
        let (warm, instrumented) = cafemio::instrument::record(|| run(&config, text));
        let warm = warm.map_err(|e| format!("{name}: warm run failed: {e}"))?;
        if format!("{warm:?}") != golden {
            mismatches += 1;
        }
        let fem = instrumented
            .spans
            .iter()
            .filter(|s| s.name.starts_with("fem."))
            .count() as u64;
        if fem > 0 {
            eprintln!("cache-replay: {name}: {fem} fem.* spans on a warm run");
        }
        warm_fem_spans += fem;
        report.merge(&instrumented);

        let stats = store.stats();
        hits += stats.hits;
        misses += stats.misses;
        evictions += stats.evictions;
        bytes += stats.bytes;
        entries += stats.entries as u64;
    }

    let cold_p50 = p50_micros(&mut cold_nanos);
    let warm_p50 = p50_micros(&mut warm_nanos);
    let speedup_milli = cold_p50.saturating_mul(1000) / warm_p50;

    // The merged instrument counters carry per-deck last values; replace
    // the cache totals with the aggregated store snapshots.
    report.set_counter("cache.hits", hits);
    report.set_counter("cache.misses", misses);
    report.set_counter("cache.evictions", evictions);
    report.set_counter("cache.bytes", bytes);
    report.set_counter("cache.entries", entries);
    report.set_counter("cache.replay_decks", decks.len() as u64);
    report.set_counter("cache.replay_mismatches", mismatches);
    report.set_counter("cache.warm_fem_spans", warm_fem_spans);
    report.set_counter("cache.cold_p50_micros", cold_p50);
    report.set_counter("cache.warm_p50_micros", warm_p50);
    report.set_counter("cache.speedup_milli", speedup_milli);
    report.set_counter("cache.speedup_floor_milli", SPEEDUP_FLOOR_MILLI);

    std::fs::write("BENCH_cache.json", report.to_json())?;
    println!(
        "cache-replay: cold p50 {cold_p50} us, warm p50 {warm_p50} us, \
         speedup {:.1}x -> BENCH_cache.json",
        speedup_milli as f64 / 1000.0
    );
    println!(
        "cache-replay: {hits} hits, {misses} misses, {mismatches} mismatches, \
         {warm_fem_spans} warm fem spans"
    );

    if mismatches > 0 {
        return Err(format!("{mismatches} warm/cold mismatches").into());
    }
    if warm_fem_spans > 0 {
        return Err(format!("{warm_fem_spans} fem.* spans on warm runs").into());
    }
    if hits == 0 {
        return Err("zero cache hits — the warm path never hit the store".into());
    }
    if speedup_milli < SPEEDUP_FLOOR_MILLI {
        return Err(format!(
            "warm replay only {:.1}x faster than cold (floor: 10x)",
            speedup_milli as f64 / 1000.0
        )
        .into());
    }
    Ok(())
}
