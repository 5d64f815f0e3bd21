//! Every public error variant renders a useful message and plays well
//! with `std::error::Error` chaining — the debuggability contract of the
//! public API.

use std::error::Error as _;

use cafemio::cards::{Card, CardError, Deck, Format, FormatReader, FormatWriter};
use cafemio::fem::FemError;
use cafemio::geom::{Arc, Point};
use cafemio::idlz::{Idealization, IdealizationSpec, IdlzError, ShapeLine, Subdivision};
use cafemio::ospl::OsplError;

#[test]
fn card_errors_name_the_problem() {
    let too_long = Card::new(&"X".repeat(99)).unwrap_err();
    assert!(too_long.to_string().contains("99 columns"));

    let bad_format = "(Q9)".parse::<Format>().unwrap_err();
    assert!(bad_format.to_string().contains("cannot parse format"));

    let format: Format = "(I5)".parse().unwrap();
    let bad_number = FormatReader::new(&format)
        .read_record("  ABC")
        .unwrap_err();
    assert!(bad_number.to_string().contains("column 1"));

    let mismatch = FormatWriter::new(&format)
        .write_record(&[cafemio::cards::Field::Alpha("X".into())])
        .unwrap_err();
    assert!(matches!(mismatch, CardError::KindMismatch { .. }));
    assert!(mismatch.to_string().contains("integer"));
}

#[test]
fn idlz_errors_carry_subdivision_context() {
    let bad_sub = Subdivision::rectangular(7, (5, 5), (3, 8)).unwrap_err();
    assert!(bad_sub.to_string().starts_with("subdivision 7"));

    // A folded shaping error names both element counts.
    let mut spec = IdealizationSpec::new("FOLD");
    spec.add_subdivision(Subdivision::rectangular(1, (0, 0), (4, 2)).unwrap());
    spec.add_shape_line(
        1,
        ShapeLine::straight((0, 0), (4, 0), Point::new(0.0, 0.0), Point::new(4.0, 0.0)),
    );
    spec.add_shape_line(
        1,
        ShapeLine::straight((0, 2), (4, 2), Point::new(0.0, 1.0), Point::new(4.0, -1.0)),
    );
    let fold = Idealization::run(&spec).unwrap_err();
    assert!(fold.to_string().contains("folds the surface"));

    // Card errors chain as sources through IdlzError and point at the
    // offending card.
    let deck = Deck::from_text("  XYZ\n").unwrap();
    let err = cafemio::idlz::deck::parse_deck(&deck).unwrap_err();
    assert_eq!(err.card_index(), Some(0));
    assert!(matches!(
        err,
        IdlzError::AtCard { ref source, .. } if matches!(**source, IdlzError::Card(_))
    ));
    assert!(err.source().is_some(), "source chain intact");
    assert!(err.source().unwrap().source().is_some(), "CardError reachable");
}

#[test]
fn arc_errors_chain_through_shaping() {
    let mut spec = IdealizationSpec::new("BAD ARC");
    spec.add_subdivision(Subdivision::rectangular(3, (0, 0), (2, 1)).unwrap());
    // Radius smaller than half the chord.
    spec.add_shape_line(
        3,
        ShapeLine::arc((0, 0), (2, 0), Point::new(0.0, 0.0), Point::new(10.0, 0.0), 1.0),
    );
    let err = Idealization::run(&spec).unwrap_err();
    match &err {
        IdlzError::Arc { subdivision, .. } => assert_eq!(*subdivision, 3),
        other => panic!("unexpected error {other:?}"),
    }
    assert!(err.to_string().contains("radius is smaller"));
    assert!(err.source().is_some());
    // The underlying ArcError is reachable by downcast.
    let source = err.source().unwrap();
    assert!(source.downcast_ref::<cafemio::geom::ArcError>().is_some());
}

#[test]
fn fem_errors_describe_the_failure() {
    let singular = FemError::SingularMatrix { equation: 42 };
    assert!(singular.to_string().contains("equation 42"));
    assert!(singular.to_string().contains("under-constrained"));

    let no_convergence = FemError::NoConvergence {
        iterations: 5,
        what: "contact active set",
    };
    assert!(no_convergence
        .to_string()
        .contains("did not converge in 5 iterations"));
}

#[test]
fn ospl_errors_describe_the_failure() {
    let limit = OsplError::LimitExceeded {
        what: "nodes",
        attempted: 900,
        limit: 800,
    };
    assert!(limit.to_string().contains("900 nodes (limit 800)"));
    assert_eq!(
        OsplError::NoContours.to_string(),
        "field is constant or empty; nothing to contour"
    );
}

/// A minimal valid single-data-set deck (the Appendix-B sample plate).
const PLATE_DECK: &str = concat!(
    "    1\n",
    "SIMPLE PLATE\n",
    "    0    0    0    1\n",
    "    1    0    0    4    2         0    0\n",
    "    1    2\n",
    "    0    0    4    0  0.0000  0.0000  2.0000  0.0000  0.0000\n",
    "    0    2    4    2  0.0000  0.5000  2.0000  0.5000  0.0000\n",
    "(2F9.5, 51X, I3, 5X, I3)\n",
    "(3I5, 62X, I3)\n",
);

// Golden pipeline errors: the exact rendered text is the contract — it
// is what a batch run prints for a rejected deck, so it must stay
// deterministic (stage name + underlying error, no timings).

#[test]
fn golden_bad_subdivision_card() {
    // Type-4 card whose upper-right corner equals its lower-left.
    let bad = PLATE_DECK.replace(
        "    1    0    0    4    2         0    0",
        "    1    0    0    0    0         0    0",
    );
    let err = cafemio::pipeline::PipelineBuilder::new()
        .parse(&bad)
        .and_then(|parsed| parsed.idealize())
        .unwrap_err();
    assert_eq!(err.stage(), cafemio::pipeline::Stage::DeckParse);
    assert_eq!(
        err.to_string(),
        "deck parsing failed: card 4: subdivision 1: upper-right corner (0, 0) must \
         exceed lower-left (0, 0) in both coordinates"
    );
}

#[test]
fn golden_arc_past_quarter_turn() {
    // Top side becomes an arc whose chord equals its diameter: a
    // half-turn, far past the program's 90-degree restriction.
    let bad = PLATE_DECK.replace(
        "    0    2    4    2  0.0000  0.5000  2.0000  0.5000  0.0000",
        "    0    2    4    2  0.0000  0.5000  2.0000  0.5000  1.0000",
    );
    let err = cafemio::pipeline::PipelineBuilder::new()
        .parse(&bad)
        .and_then(|parsed| parsed.idealize())
        .unwrap_err();
    assert_eq!(err.stage(), cafemio::pipeline::Stage::Idealize);
    assert_eq!(
        err.to_string(),
        "idealization failed: arc in subdivision 1: arc subtends more than 90 degrees"
    );
}

#[test]
fn golden_singular_stiffness_matrix() {
    use cafemio::pipeline::{PipelineError, Stage, StageError};
    // Factorization failure, as `ModelReady::solve` reports it.
    let err = PipelineError::at(
        Stage::Solve,
        StageError::Fem(FemError::SingularMatrix { equation: 42 }),
    );
    assert_eq!(
        err.to_string(),
        "solution failed: stiffness matrix not positive definite at equation 42 \
         (model may be under-constrained)"
    );
}

#[test]
fn golden_unconstrained_model_end_to_end() {
    // The deterministic singular case: no displacement constraint at
    // all is rejected structurally, before factorization can smear the
    // zero pivots into roundoff.
    let err = cafemio::pipeline::PipelineBuilder::new()
        .component(cafemio::pipeline::StressComponent::Effective)
        .parse(PLATE_DECK)
        .and_then(|parsed| parsed.idealize())
        .and_then(|idealized| {
            idealized.setup(|mesh| {
                Ok(cafemio::fem::FemModel::new(
                    mesh.clone(),
                    cafemio::fem::AnalysisKind::PlaneStress { thickness: 1.0 },
                    cafemio::fem::Material::isotropic(30.0e6, 0.3),
                ))
            })
        })
        .and_then(|ready| ready.solve())
        .unwrap_err();
    assert_eq!(err.stage(), cafemio::pipeline::Stage::Solve);
    assert_eq!(
        err.to_string(),
        "solution failed: model has no displacement constraints (stiffness \
         matrix is singular: all rigid-body modes are free)"
    );
    // Stage provenance includes the live span stack at capture time.
    assert!(err.span_context().contains(&"pipeline.solve"));
}

#[test]
fn geometry_errors_are_terse_and_lowercase() {
    let err = Arc::from_endpoints_radius(Point::ORIGIN, Point::new(10.0, 0.0), 1.0).unwrap_err();
    let text = err.to_string();
    assert!(text.chars().next().unwrap().is_lowercase());
    assert!(!text.ends_with('.'));
}
