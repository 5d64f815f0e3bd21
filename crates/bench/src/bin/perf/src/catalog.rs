//! `catalog_cold`: every catalog deck, cold, deck → SVG, one thread.

use std::time::Instant;

use cafemio::fem::{CgOptions, SolverBackend};
use cafemio::idlz::Capability;
use cafemio::ospl::ContourOptions;
use cafemio::SessionConfig;
use cafemio_bench::jobs::standard_setup;
use cafemio_bench::mutate::{base_decks, SplitMix64};

use crate::drive::{builder, cold_phase, digest_svgs, finish, session, set_up, Direct};
use crate::inputs::shuffle;
use crate::report::Report;

/// Timed decks per `--seconds`: about one second of cold deck→SVG work
/// on the reference machine per second asked for.
pub const DECKS_PER_SECOND: f64 = 1000.0;

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let mut report = Report::new("catalog_cold", seed, seconds, trace);
    let prepare = Instant::now();
    let decks = base_decks();
    let cold = || builder(SessionConfig::new(), ContourOptions::new());
    let golden = decks
        .iter()
        .map(|(name, text)| {
            session(&cold(), text, &standard_setup)
                .map(|svgs| digest_svgs(&svgs))
                .map_err(|e| format!("{name}: {e}"))
        })
        .collect::<Result<Vec<_>, String>>()?;
    // Whole rounds of every deck, each round in a seed-shuffled order.
    let rounds = ((seconds * DECKS_PER_SECOND) / decks.len() as f64)
        .ceil()
        .max(2.0) as usize;
    let mut rng = SplitMix64::new(seed);
    let mut ops = Vec::with_capacity(rounds * decks.len());
    for _ in 0..rounds {
        let mut order: Vec<usize> = (0..decks.len()).collect();
        shuffle(&mut order, &mut rng);
        ops.extend(order.into_iter().map(|d| (decks[d].1.as_str(), golden[d])));
    }
    report.set_single("prepare_s", prepare.elapsed().as_secs_f64());

    let mut make = || {
        let pipeline = cold();
        for (text, _) in &ops[..decks.len()] {
            session(&pipeline, text, &standard_setup)?;
        }
        Ok(pipeline)
    };
    let pipeline = set_up(&mut report, &mut make, &mut drop)?;
    let direct = Direct {
        capability: Capability::Historical,
        backend: SolverBackend::Band,
        cg: CgOptions::new(),
        options: ContourOptions::new(),
    };
    cold_phase(
        &mut report,
        &pipeline,
        &direct,
        &standard_setup,
        &ops,
        decks.len(),
    );
    set_up(&mut report, &mut make, &mut drop).map(drop)?;
    finish(&mut report);
    Ok(report)
}
