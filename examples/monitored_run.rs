//! The protocol stack with its observers attached.
//!
//! Parses the design once, synthesizes its observers to monitor EFSMs
//! (`synthesize_all`) and splits the design for simulation, then
//! drives the packet testbench twice — clean, and with a corrupted
//! CRC byte seeded — on both the synchronous and the partitioned
//! implementation. Finishes with the head of the recorded VCD trace.
//!
//! Run with: `cargo run --example monitored_run`
//!
//! With `ECL_TELEMETRY=1` (plus `ECL_TELEMETRY_OUT=<path|->` and
//! optionally `ECL_TELEMETRY_SPAN=<n>`), every run is bracketed by a
//! telemetry [`Run`] and the example doubles as a JSONL emitter — the
//! CI smoke job validates that stream with `check_telemetry`.
//!
//! With `ECL_FAULTS=key=value,...` (see `FaultPlan::parse`) every
//! run is armed with a deterministic fault plan: events may be
//! dropped or delayed, so verdicts other than PASS are an expected
//! outcome of an injected run — the CI chaos job uses exactly this to
//! put `fault_injected` lines into a validated stream.

use ecl_core::Source;
use ecl_observe::{check_async_with, check_interp_with, synthesize_all, MonitoredRun};
use ecl_syntax::diag::EclError;
use ecl_telemetry::Run;
use efsm::Backend;
use sim::designs::PROTOCOL_STACK;
use sim::runner::{AsyncRunner, FaultPlan, InjectionStats};
use sim::tb::PacketTb;

/// Bracket one monitored run with a telemetry `Run` (a no-op when the
/// stream is off), so run_start/run_end lines correlate the spans and
/// verdicts in between.
fn bracketed(
    config: &str,
    instants: usize,
    f: impl FnOnce() -> Result<MonitoredRun, EclError>,
) -> MonitoredRun {
    let run = Run::start("protocol_stack", config);
    let r = f().expect("monitored run succeeds");
    run.end(instants as u64);
    r
}

fn main() {
    // Telemetry is opt-in from the environment; when on, the whole
    // example emits one schema-versioned JSON object per line.
    ecl_telemetry::init_from_env();
    // So is fault injection: with `ECL_FAULTS` set, every run below
    // is armed with the same seeded plan, and FAIL/INCONCLUSIVE
    // verdicts are legitimate outcomes rather than errors.
    let faults = FaultPlan::from_env();
    if let Some(plan) = &faults {
        println!("fault plan armed from ECL_FAULTS: {plan:?}");
    }
    let mut injected = InjectionStats::default();
    // One parse feeds the observers and both implementations.
    let parsed = Source::named("protocol_stack.ecl", PROTOCOL_STACK)
        .parse()
        .expect("stack parses");
    let specs = synthesize_all(parsed.ast()).expect("observers synthesize");
    println!("design `toplevel` carries {} observers:", specs.len());
    for s in &specs {
        println!(
            "  {} ({} propert{}, {} monitor states)",
            s.name,
            s.props.len(),
            if s.props.len() == 1 { "y" } else { "ies" },
            s.efsm.states.len()
        );
    }

    let clean = PacketTb {
        packets: 3,
        corrupt_every: 0,
        reset_every: 0,
        seed: 1999,
    }
    .events();
    let corrupted = PacketTb {
        packets: 2,
        corrupt_every: 2, // packet #2 carries a corrupted CRC byte
        reset_every: 0,
        seed: 1999,
    }
    .events();

    // The runners' designs come from the same parse.
    let mono = parsed
        .elaborate("toplevel")
        .and_then(|e| e.split())
        .expect("stack compiles")
        .to_design();
    let parts = parsed.partition("toplevel").expect("stack partitions");

    // Execution backends are one knob: `Backend::Compiled` (fused
    // per-task instant programs — the default) or `Backend::Walker`
    // (the s-graph reference path differential tests compare
    // against). `coverage()` reports what the
    // compiled backend will actually run.
    let mut probe = AsyncRunner::new(
        vec![mono.clone()],
        &Default::default(),
        Default::default(),
        Default::default(),
    )
    .expect("runner builds");
    let cov = probe.coverage();
    println!(
        "\nbackend {:?}: {} states laid out as {} control ops, \
         {}/{} data hooks on bytecode (fully fused: {})",
        probe.backend(),
        cov.states(),
        cov.fused_rows(),
        cov.vm_compiled(),
        cov.vm_total(),
        cov.fully_fused()
    );
    probe.set_backend(Backend::Walker);
    println!(
        "backend {:?}: same design, same semantics, reference path",
        probe.backend()
    );

    println!("\nclean run (3 packets):");
    let r = bracketed("example/interp-clean", clean.len(), || {
        check_interp_with(&mono, &clean, &specs, 0, None, faults)
    });
    println!(" interpreter:\n{}", r.report);
    injected = injected + r.injected;
    let r = bracketed("example/async-clean", clean.len(), || {
        check_async_with(parts.clone(), &clean, &specs, 0, None, faults)
    });
    println!(" 3 RTOS tasks:\n{}", r.report);
    injected = injected + r.injected;

    println!("corrupted run (CRC byte of packet #2 flipped):");
    let interp_run = bracketed("example/interp-corrupted", corrupted.len(), || {
        check_interp_with(&mono, &corrupted, &specs, 200, None, faults)
    });
    println!(" interpreter:\n{}", interp_run.report);
    let r = bracketed("example/async-corrupted", corrupted.len(), || {
        check_async_with(parts, &corrupted, &specs, 0, None, faults)
    });
    println!(" 3 RTOS tasks:\n{}", r.report);
    injected = injected + interp_run.injected + r.injected;

    // The recorder kept the last 200 instants; dump the window head.
    let vcd = interp_run.trace.to_vcd("protocol_stack");
    println!(
        "recorded trace: {} instants retained",
        interp_run.trace.len()
    );
    println!("VCD head:");
    for line in vcd.lines().take(12) {
        println!("  {line}");
    }

    // Monitors also exist as C text, next to the design's own
    // artifacts.
    let monitor_c = specs
        .iter()
        .map(|s| codegen::emit_monitor_c(&s.efsm))
        .collect::<Vec<_>>()
        .join("\n");
    let first_line = monitor_c.lines().nth(1).unwrap_or_default();
    println!(
        "\nmonitor C emission: {} bytes ({first_line})",
        monitor_c.len()
    );

    if faults.is_some() {
        println!(
            "\nfault injection summary: {} injections\n  {injected:?}",
            injected.total()
        );
    }
}
