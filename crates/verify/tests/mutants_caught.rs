//! The checker must catch every deliberately broken protocol, minimise
//! the failing sequence, and export a trace that replays the failure.

use dirsim::invariant::InvariantViolation;
use dirsim::{SimConfig, Simulator};
use dirsim_protocol::{CoherenceProtocol, DirSpec, Scheme};
use dirsim_trace::MemRef;
use dirsim_verify::mutants::{DroppedInvalidate, MisclassifiedHit};
use dirsim_verify::{explore, replay, CheckConfig, Failure};

fn bounds() -> CheckConfig {
    CheckConfig {
        caches: 3,
        blocks: 2,
        depth: 8,
    }
}

#[test]
fn dropped_invalidate_is_caught_and_minimised() {
    let cx = explore(
        "DroppedInvalidate",
        || Box::new(DroppedInvalidate::new(3)),
        &bounds(),
    )
    .expect_err("the checker must catch a lost invalidation");
    assert_eq!(
        cx.steps.len(),
        2,
        "minimal counterexample is two references"
    );
    assert!(
        matches!(
            cx.failure,
            Failure::Invariant(InvariantViolation::DirtyNotExclusive { .. })
        ),
        "expected the single-writer audit to fire, got: {}",
        cx.failure
    );
    // The counterexample replays: the same steps fail again from scratch…
    assert!(replay(|| Box::new(DroppedInvalidate::new(3)), &cx.steps).is_some());
    // …and every *correct* scheme sails through them.
    for scheme in dirsim_verify::gauntlet() {
        assert_eq!(
            replay(|| scheme.build(3), &cx.steps),
            None,
            "{} rejects the mutant's counterexample",
            scheme.name()
        );
    }
}

#[test]
fn misclassified_hit_is_caught_by_event_prediction() {
    let cx = explore(
        "MisclassifiedHit",
        || Box::new(MisclassifiedHit::new(3)),
        &bounds(),
    )
    .expect_err("the checker must catch the mispriced miss");
    assert!(
        matches!(
            cx.failure,
            Failure::Invariant(InvariantViolation::EventMismatch { .. })
        ),
        "expected the event audit to fire, got: {}",
        cx.failure
    );
    assert_eq!(cx.steps.len(), 2);
}

#[test]
fn exported_counterexample_trace_replays_through_the_engine() {
    let cx = explore(
        "DroppedInvalidate",
        || Box::new(DroppedInvalidate::new(3)),
        &bounds(),
    )
    .expect_err("mutant must be caught");
    let mut bytes = Vec::new();
    cx.write_trace(&mut bytes).unwrap();
    let refs: Vec<MemRef> = dirsim_trace::io::read_text(&bytes[..])
        .collect::<Result<_, _>>()
        .unwrap();
    assert_eq!(refs, cx.to_refs());

    // Replaying the exported trace through the full simulation engine
    // (oracle + invariant audit on) is clean for the real full map…
    let config = SimConfig {
        check_oracle: true,
        check_invariants: true,
        ..SimConfig::default()
    };
    let sim = Simulator::new(config);
    let mut good: Box<dyn CoherenceProtocol> = Scheme::Directory(DirSpec::dir_n_nb()).build(3);
    sim.run(good.as_mut(), refs.iter().copied())
        .expect("the correct protocol replays the counterexample cleanly");

    // …and trips the engine's own audit for the mutant.
    let mut bad = DroppedInvalidate::new(3);
    assert!(
        sim.run(&mut bad, refs.iter().copied()).is_err(),
        "the engine must reject the mutant on its own counterexample"
    );
}
