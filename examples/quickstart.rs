//! Quickstart on the staged pipeline: walk a small ECL module through
//! every stage — parse, elaborate, split, Esterel IR, EFSM, artifacts —
//! inspecting each one, then simulate a few instants.
//!
//! Run with: `cargo run --example quickstart`

use ecl_repro::prelude::*;
use sim::runner::InterpRunner;
use sim::tb::InstantEvents;

fn main() {
    let src = "
        module debounce(input pure raw, input pure clk, output pure clean) {
          int stable;
          while (1) {
            await (clk);
            present (raw) {
              stable = stable + 1;
              if (stable >= 3) { emit (clean); stable = 0; }
            } else {
              stable = 0;
            }
          }
        }";

    // Stage by stage; every artifact is inspectable before advancing.
    let parsed = Source::new(src).parse().expect("parses");
    println!("modules: {:?}", parsed.module_names());

    let elaborated = parsed.elaborate("debounce").expect("elaborates");
    println!(
        "elaborated: {} signals, {} variables",
        elaborated.elab().signals.len(),
        elaborated.elab().vars.len()
    );

    let split = elaborated.split().expect("splits");
    let report = split.report();
    println!(
        "split: {} reactive statements, {} extracted actions, {} predicates",
        report.reactive_stmts, report.actions, report.preds
    );

    let machine = split.ir().compile(&Default::default()).expect("EFSM");
    println!("EFSM: {}", machine.efsm().stats());
    println!("\n{}", efsm::dot::to_dot(machine.efsm(), 64));

    let artifacts = Artifacts::emit(&machine).expect("codegen");
    println!(
        "artifacts: {} bytes of C, hardware option: {}",
        artifacts.c().len(),
        artifacts.verilog().is_some()
    );

    // Simulate: 3 noisy then 4 clean clock edges.
    let design = machine.design();
    let mut run = InterpRunner::new(&design).expect("runtime");
    let pattern: &[&[&str]] = &[
        &[],
        &["clk", "raw"],
        &["clk"],
        &["clk", "raw"],
        &["clk", "raw"],
        &["clk", "raw"],
        &["clk", "raw"],
    ];
    let events: Vec<InstantEvents> = pattern
        .iter()
        .map(|ev| InstantEvents {
            pure: ev.iter().map(|s| s.to_string()).collect(),
            ..Default::default()
        })
        .collect();
    run.run_events(&events, |t, present| {
        let inputs = pattern[t as usize];
        let out: Vec<&str> = present.names().filter(|n| !inputs.contains(n)).collect();
        println!("t={t} inputs={inputs:?} -> {out:?}");
    })
    .expect("run");
}
