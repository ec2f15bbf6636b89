//! Stage-level integration tests for the typed pipeline (the
//! acceptance surface of the staged API): each stage runs
//! independently, one parse feeds many downstream artifacts, and each
//! stage reports its own failures.

use ecl_repro::prelude::*;
use sim::designs::PROTOCOL_STACK;

/// Parse-only: stop after the front end, inspect, never elaborate.
#[test]
fn parse_only_stage() {
    let parsed = Source::named("stack.ecl", PROTOCOL_STACK).parse().unwrap();
    assert_eq!(
        parsed.module_names(),
        ["assemble", "checkcrc", "prochdr", "toplevel"]
    );
    assert!(!parsed.diagnostics().has_errors());
    // Parse errors are stage-tagged.
    let e = Source::new("module oops(").parse().unwrap_err();
    assert_eq!(e.stage(), Stage::Parse);
    assert!(e.diagnostics().has_errors());
}

/// Split-only: one parse, one elaboration, both strategies — no
/// re-parsing anywhere.
#[test]
fn split_only_under_both_strategies() {
    let parsed = Source::named("stack.ecl", PROTOCOL_STACK).parse().unwrap();
    let elaborated = parsed.elaborate("checkcrc").unwrap();
    let max = elaborated.split_with(SplitStrategy::MaxEsterel).unwrap();
    let min = elaborated.split_with(SplitStrategy::MinEsterel).unwrap();
    // MinEsterel batches the CRC loop region into fewer actions.
    assert!(min.report().actions <= max.report().actions);
    // Both splits came from the same elaboration and parse (shared Arcs).
    assert_eq!(max.elaborated().entry(), "checkcrc");
    assert_eq!(min.elaborated().entry(), "checkcrc");
}

/// EFSM-only: compile the reactive part and stop; no codegen, no rt.
#[test]
fn efsm_only_stage() {
    let machine = Source::named("stack.ecl", PROTOCOL_STACK)
        .parse()
        .unwrap()
        .elaborate("prochdr")
        .unwrap()
        .split()
        .unwrap()
        .ir()
        .compile(&CompileOptions::default())
        .unwrap();
    machine.validate().unwrap();
    assert!(machine.efsm().states.len() >= 3);
}

/// The acceptance walk: parse once; split under both strategies;
/// generate EFSM + C + Verilog — all without re-parsing.
#[test]
fn one_parse_feeds_efsm_c_and_verilog() {
    let parsed = Source::named("stack.ecl", PROTOCOL_STACK).parse().unwrap();
    let elaborated = parsed.elaborate("toplevel").unwrap();
    for strategy in [SplitStrategy::MaxEsterel, SplitStrategy::MinEsterel] {
        let machine = elaborated
            .split_with(strategy)
            .unwrap()
            .ir()
            .compile(&Default::default())
            .unwrap();
        let artifacts = Artifacts::emit(&machine).unwrap();
        assert!(artifacts.c().contains("toplevel"));
        // The stack has a data part, so no hardware option — but the
        // Verilog question is still answerable per design.
        assert!(artifacts.verilog().is_none());
    }
    // A pure-control design from the same API has the hardware option.
    let hw = Source::new(
        "module ctl(input pure go, output pure done) {
           while (1) { await (go); emit (done); } }",
    )
    .finish("ctl")
    .unwrap();
    assert!(Artifacts::emit(&hw).unwrap().verilog().is_some());
}

/// A design that emits its own input is rejected at elaboration with a
/// readable, stage-tagged message.
#[test]
fn emitting_an_input_fails_elaboration() {
    let err = Source::named(
        "broken.ecl",
        "module bad(input pure a) { while (1) { emit (a); } }",
    )
    .parse()
    .unwrap()
    .elaborate("bad")
    .unwrap_err();
    assert_eq!(err.stage(), Stage::Elaborate);
    assert!(err.to_string().contains("emitted"), "{err}");
}
