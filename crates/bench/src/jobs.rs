//! The standard batch job corpus: every round-tripping catalog deck as a
//! ready-to-run [`BatchJob`], plus deterministic faulted variants.
//!
//! This is the workload the `batch_bench` binary times and the batch
//! determinism tests replay — a fixed, reproducible set of jobs built
//! from the paper's own structures ([`mod@cafemio::models::catalog`]) via
//! [`crate::mutate::base_decks`].

use cafemio::batch::BatchJob;
use cafemio::fem::{AnalysisKind, FemError, FemModel, Material};
use cafemio::geom::Point;
use cafemio::idlz::{IdealizationSpec, ShapeLine, Subdivision};
use cafemio::mesh::TriMesh;
use cafemio::pipeline::Stage;

use crate::mutate::{base_decks, mutate, unconstrained_model, Fault, SplitMix64};

/// A deck-agnostic cantilever setup: clamps every node in a thin band at
/// the mesh's minimum-`x` edge (both degrees of freedom) and pulls the
/// nodes in the matching band at maximum `x`. Works on any connected
/// catalog mesh, so one closure serves the whole corpus.
pub fn standard_setup(mesh: &TriMesh) -> Result<FemModel, FemError> {
    let mut model = FemModel::new(
        mesh.clone(),
        AnalysisKind::PlaneStress { thickness: 1.0 },
        Material::isotropic(30.0e6, 0.3),
    );
    let xs: Vec<f64> = mesh.nodes().map(|(_, n)| n.position.x).collect();
    let (min, max) = xs
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        });
    let band = 1e-9 + 0.10 * (max - min);
    for (id, node) in mesh.nodes() {
        if node.position.x <= min + band {
            model.fix_both(id);
        } else if node.position.x >= max - band {
            model.add_force(id, 25.0, 0.0);
        }
    }
    Ok(model)
}

/// A spec legal under Table 2 but within 10 % of the horizontal grid
/// limit (38 of 40 columns): the D004 proximity lint fires under the
/// historical capability and stays silent under `LargeMesh`.
pub fn near_limit_spec() -> IdealizationSpec {
    let mut spec = IdealizationSpec::new("NEAR THE GRID LIMIT");
    spec.add_subdivision(Subdivision::rectangular(1, (0, 0), (38, 2)).expect("valid box"));
    for (row, y) in [(0, 0.0), (2, 1.0)] {
        spec.add_shape_line(
            1,
            ShapeLine::straight((0, row), (38, row), Point::new(0.0, y), Point::new(38.0, y)),
        );
    }
    spec
}

/// Every catalog deck that round-trips, as a batch job with the
/// [`standard_setup`] boundary conditions and default contour options.
pub fn corpus() -> Vec<BatchJob> {
    base_decks()
        .into_iter()
        .map(|(name, text)| BatchJob::new(name, text, standard_setup))
        .collect()
}

/// A deterministic mixed corpus of at least `min_jobs` jobs: each round
/// contributes every base deck once clean and once per fault kind. Each
/// entry pairs the job with the [`Stage`] its error must be attributed
/// to (`None` for the clean jobs, which must complete).
pub fn faulted_corpus(seed: u64, min_jobs: usize) -> Vec<(Option<Stage>, BatchJob)> {
    let decks = base_decks();
    let mut rng = SplitMix64::new(seed);
    let mut jobs = Vec::new();
    while jobs.len() < min_jobs {
        for (name, text) in &decks {
            jobs.push((
                None,
                BatchJob::new(format!("{name}/clean/{}", jobs.len()), text, standard_setup),
            ));
            for fault in Fault::ALL {
                let mutated = mutate(text, fault, &mut rng);
                let job = if fault == Fault::SingularBc {
                    BatchJob::new(
                        format!("{name}/{}/{}", fault.name(), jobs.len()),
                        mutated,
                        unconstrained_model,
                    )
                } else {
                    BatchJob::new(
                        format!("{name}/{}/{}", fault.name(), jobs.len()),
                        mutated,
                        standard_setup,
                    )
                };
                jobs.push((Some(fault.expected_stage()), job));
            }
        }
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;
    use cafemio::batch::{run_batch, BatchOptions, JobOutcome};

    #[test]
    fn standard_setup_solves_every_corpus_deck() {
        let jobs = corpus();
        assert!(jobs.len() >= 4, "corpus too small: {}", jobs.len());
        let report = run_batch(&jobs, &BatchOptions::new().workers(2));
        for (job, outcome) in jobs.iter().zip(&report.outcomes) {
            assert!(
                matches!(outcome, JobOutcome::Completed { .. }),
                "{}: {outcome:?}",
                job.name()
            );
        }
    }

    #[test]
    fn faulted_corpus_reaches_requested_size_deterministically() {
        let a = faulted_corpus(11, 50);
        let b = faulted_corpus(11, 50);
        assert!(a.len() >= 50);
        assert_eq!(a.len(), b.len());
        for ((stage_a, job_a), (stage_b, job_b)) in a.iter().zip(&b) {
            assert_eq!(stage_a, stage_b);
            assert_eq!(job_a.deck(), job_b.deck());
        }
    }
}
