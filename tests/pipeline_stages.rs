//! Stage-level integration tests for the typed pipeline and the
//! Workspace batch driver (the acceptance surface of the staged API):
//! each stage runs independently, one parse feeds many downstream
//! artifacts, and parallel batch compilation equals sequential.

use ecl_repro::prelude::*;
use sim::designs::{PROTOCOL_STACK, VOICE_PAGER};

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

fn design_fingerprint(d: &Design, m: &Efsm) -> (String, Vec<String>, String) {
    (
        d.entry.clone(),
        d.program()
            .signals()
            .iter()
            .map(|s| s.name.clone())
            .collect(),
        m.stats().to_string(),
    )
}

/// Workspace over ≥3 entry modules: parallel batch compilation returns
/// per-module results identical to sequential compilation, from one
/// shared parse.
#[test]
fn workspace_parallel_matches_sequential() {
    let jobs = [
        ("stack.ecl", "assemble"),
        ("stack.ecl", "checkcrc"),
        ("stack.ecl", "prochdr"),
        ("stack.ecl", "toplevel"),
        ("pager.ecl", "pager"),
    ];

    // Parallel batch.
    let mut ws_par = Workspace::new();
    ws_par.add_source("stack.ecl", PROTOCOL_STACK);
    ws_par.add_source("pager.ecl", VOICE_PAGER);
    let par: Vec<_> = ws_par
        .compile_all(&jobs)
        .into_iter()
        .map(|r| r.unwrap())
        .collect();
    let par_machines: Vec<_> = ws_par
        .machine_all(&jobs)
        .into_iter()
        .map(|r| r.unwrap())
        .collect();

    // Sequential reference.
    let mut ws_seq = Workspace::new();
    ws_seq.add_source("stack.ecl", PROTOCOL_STACK);
    ws_seq.add_source("pager.ecl", VOICE_PAGER);
    let seq: Vec<_> = jobs
        .iter()
        .map(|(n, e)| ws_seq.compile(n, e).unwrap())
        .collect();
    let seq_machines: Vec<_> = jobs
        .iter()
        .map(|(n, e)| ws_seq.machine(n, e).unwrap())
        .collect();

    for i in 0..jobs.len() {
        assert_eq!(
            design_fingerprint(&par[i], &par_machines[i]),
            design_fingerprint(&seq[i], &seq_machines[i]),
            "job {i} diverged between parallel and sequential"
        );
    }

    // Each source was parsed exactly once in the parallel session.
    let stats = ws_par.cache_stats();
    assert_eq!(stats.parse_misses, 2, "{stats:?}");
}

/// Per-job failures carry span-annotated diagnostics; sibling jobs in
/// the same batch still succeed.
#[test]
fn workspace_batch_isolates_failures() {
    let mut ws = Workspace::new();
    ws.add_source("stack.ecl", PROTOCOL_STACK);
    ws.add_source(
        "broken.ecl",
        "module bad(input pure a) { while (1) { emit (a); } }",
    );
    let results = ws.compile_all(&[
        ("stack.ecl", "toplevel"),
        ("broken.ecl", "bad"),
        ("stack.ecl", "assemble"),
    ]);
    assert!(results[0].is_ok());
    let err = results[1].as_ref().unwrap_err();
    // `bad` emits its own input: rejected at elaboration with a
    // readable, stage-tagged message.
    assert_eq!(err.stage(), Stage::Elaborate);
    assert!(err.to_string().contains("emitted"), "{err}");
    assert!(results[2].is_ok());
}

/// Batch codegen over a workspace session (emit_c / emit_verilog per
/// design).
#[test]
fn workspace_batch_codegen() {
    let mut ws = Workspace::new();
    ws.add_source("stack.ecl", PROTOCOL_STACK);
    let jobs = [
        ("stack.ecl", "assemble"),
        ("stack.ecl", "checkcrc"),
        ("stack.ecl", "prochdr"),
    ];
    let cs = ws.emit_c_all(&jobs);
    assert_eq!(cs.len(), 3);
    for (i, c) in cs.iter().enumerate() {
        let c = c.as_ref().unwrap();
        assert!(c.contains(jobs[i].1), "C for {} names it", jobs[i].1);
    }
    // The stack modules are data-dominated: no hardware option, and
    // the batch says so per design instead of failing wholesale.
    let vs = ws.emit_verilog_all(&jobs);
    assert!(vs.iter().all(|v| v.is_err()));
    // Everything above reused the session's single parse.
    assert_eq!(ws.cache_stats().parse_misses, 1);
}
