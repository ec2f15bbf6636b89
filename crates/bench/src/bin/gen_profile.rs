//! `gen_profile` — machine-readable hot-path profile of the two
//! evaluated designs.
//!
//! Where `gen_bench` answers "how fast", this answers "where does the
//! time go": it turns telemetry on, runs each design configuration
//! (protocol stack, voice pager × monolithic, 3-task partition) for
//! the standard 10k-instant monitored workload on the production
//! `Backend::Compiled` (fused instant programs + bytecode data
//! hooks), and dumps the full metric registry delta per configuration
//! — per-opcode VM counts and the FallbackStmt hit rate, table
//! row-scan/fused-program totals and rows-per-hit, kernel
//! dispatch/delivery/cycle counts and mailbox occupancy, per-instant
//! wall-time quantiles, and the static [`CoverageReport`] numbers
//! (fused states/rows, vm-compiled hooks, pure states).
//!
//! Each configuration is bracketed by a telemetry [`Run`], so piping
//! `ECL_TELEMETRY_OUT` somewhere also yields a schema-valid JSONL
//! stream; the profile JSON itself is written to `--out` (default
//! `PROFILE_reaction.json`) for CI artifacts and offline diffing.
//!
//! Usage: `gen_profile [--out PATH] [--instants N]`

use ecl_core::Design;
use ecl_observe::{synthesize_all, Monitor, MonitorSpec};
use ecl_telemetry::metrics as tm;
use ecl_telemetry::Run;
use efsm::Backend;
use sim::runner::{AsyncRunner, CoverageReport, Runner};
use sim::tb::{InstantEvents, PacketTb, PagerTb};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Default workload length (the same 10k instants `gen_bench` uses).
const DEFAULT_INSTANTS: usize = 10_000;

/// Everything the profile reports for one design configuration.
struct Profile {
    config: String,
    instants: usize,
    wall_ms: f64,
    coverage: CoverageReport,
    pure_states: u32,
}

fn monitors_for(specs: &[Arc<MonitorSpec>], r: &AsyncRunner) -> Vec<Monitor> {
    specs
        .iter()
        .map(|s| {
            let mut m = Monitor::new(Arc::clone(s));
            m.set_backend(Backend::Compiled);
            m.bind(r.sig_table());
            m
        })
        .collect()
}

/// Run one monitored configuration with a fresh metric registry and
/// return its profile; the registry is left holding exactly this
/// run's counts for the caller to render.
fn profile_one(
    config: &str,
    design: &str,
    designs: Vec<Design>,
    events: &[InstantEvents],
    specs: &[Arc<MonitorSpec>],
) -> Profile {
    tm::reset_all();
    let mut r = AsyncRunner::new(
        designs,
        &Default::default(),
        Default::default(),
        Default::default(),
    )
    .expect("runner builds");
    assert_eq!(r.backend(), Backend::Compiled);
    let coverage = r.coverage();
    let pure_states = r.machines().map(|m| m.stats().pure_states).sum();
    let mut mons = monitors_for(specs, &r);
    let run = Run::start(design, config);
    let t0 = Instant::now();
    r.run_events(events, |instant, present| {
        for m in &mut mons {
            m.step_present(instant, present);
        }
    })
    .expect("run succeeds");
    let wall_ms = t0.elapsed().as_secs_f64() * 1000.0;
    // The run_end event carries the coverage breakdown, so the JSONL
    // stream is self-describing about what backend actually ran.
    run.end_with_coverage(events.len() as u64, Some(&coverage.telemetry()));
    Profile {
        config: config.to_string(),
        instants: events.len(),
        wall_ms,
        coverage,
        pure_states,
    }
}

/// Render one configuration's section from the current registry state
/// (which `profile_one` left holding exactly that run's counts).
fn render(p: &Profile, out: &mut String) {
    let c = |name: &str| {
        tm::counters()
            .into_iter()
            .find(|c| c.name() == name)
            .map_or(0, |c| c.get())
    };
    let _ = writeln!(out, "    {{");
    let _ = writeln!(out, "      \"config\": \"{}\",", p.config);
    let _ = writeln!(out, "      \"instants\": {},", p.instants);
    let _ = writeln!(out, "      \"wall_ms\": {:.2},", p.wall_ms);
    let _ = writeln!(
        out,
        "      \"instants_per_sec\": {:.0},",
        p.instants as f64 / (p.wall_ms / 1000.0)
    );
    let _ = writeln!(
        out,
        "      \"coverage\": {{\"fused_states\": {}, \"states\": {}, \"fused_rows\": {}, \"vm_compiled\": {}, \"vm_total\": {}, \"pure_states\": {}}},",
        p.coverage.fused_states(),
        p.coverage.states(),
        p.coverage.fused_rows(),
        p.coverage.vm_compiled(),
        p.coverage.vm_total(),
        p.pure_states
    );
    let _ = writeln!(
        out,
        "      \"rtk\": {{\"dispatches\": {}, \"deliveries\": {}, \"task_cycles\": {}, \"rtos_cycles\": {}, \"events_lost\": {}, \"mailbox_occupancy_p99\": {}}},",
        c("rtk.dispatches"),
        c("rtk.deliveries"),
        c("rtk.task_cycles"),
        c("rtk.rtos_cycles"),
        c("rtk.events_lost"),
        tm::RTK_MAILBOX_OCCUPANCY.quantile(0.99)
    );
    let _ = writeln!(
        out,
        "      \"sim\": {{\"instants\": {}, \"instant_ns_p50\": {}, \"instant_ns_p99\": {}, \"instant_ns_max\": {}}},",
        c("sim.instants"),
        tm::SIM_INSTANT_NS.quantile(0.5),
        tm::SIM_INSTANT_NS.quantile(0.99),
        tm::SIM_INSTANT_NS.max()
    );
    // rows-per-hit: scans divided by the steps that resolved in the
    // dense backend (steps minus walker fallbacks).
    let steps = c("table.steps");
    let hits = steps.saturating_sub(c("table.walk_fallbacks"));
    let _ = writeln!(
        out,
        "      \"table\": {{\"steps\": {}, \"rows_scanned\": {}, \"rows_per_hit\": {:.2}, \"always_hits\": {}, \"fused_hits\": {}, \"fused_ops\": {}, \"walk_fallbacks\": {}}},",
        steps,
        c("table.rows_scanned"),
        c("table.rows_scanned") as f64 / hits.max(1) as f64,
        c("table.always_hits"),
        c("table.fused_hits"),
        c("table.fused_ops"),
        c("table.walk_fallbacks")
    );
    let vm_op_total: u64 = tm::VM_OPS.iter().map(|c| c.get()).sum();
    let _ = writeln!(
        out,
        "      \"vm\": {{\"hook_runs\": {}, \"walker_hooks\": {}, \"ops_total\": {}, \"fallback_stmts\": {}, \"fallback_rate\": {:.4}, \"ops\": {{{}}}}},",
        c("vm.hook_runs"),
        c("vm.walker_hooks"),
        vm_op_total,
        c("vm.fallback_stmts"),
        c("vm.fallback_stmts") as f64 / vm_op_total.max(1) as f64,
        tm::VM_OPS
            .iter()
            .filter(|c| c.get() > 0)
            .map(|c| format!("\"{}\": {}", c.name(), c.get()))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(
        out,
        "      \"mon\": {{\"steps\": {}, \"violations\": {}}}",
        c("mon.steps"),
        c("mon.violations")
    );
    let _ = write!(out, "    }}");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut out_path = "PROFILE_reaction.json".to_string();
    let mut instants = DEFAULT_INSTANTS;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                out_path = args[i + 1].clone();
                i += 2;
            }
            "--instants" => {
                instants = args[i + 1].parse().expect("--instants takes a number");
                i += 2;
            }
            other => panic!("unknown argument `{other}`"),
        }
    }

    // The profile is the point: telemetry is always on here. A JSONL
    // sink is still optional (ECL_TELEMETRY_OUT), and the env may
    // tune the span cadence.
    ecl_telemetry::init_from_env();
    ecl_telemetry::set_enabled(true);

    let mut stack_ev = PacketTb {
        packets: instants / 65 + 2,
        corrupt_every: 0,
        reset_every: 0,
        seed: 1999,
    }
    .events();
    stack_ev.truncate(instants);
    let mut pager_ev = PagerTb {
        rounds: instants / 69 + 2,
        frames: 4,
        seed: 7,
    }
    .events();
    pager_ev.truncate(instants);

    let stack_src = sim::designs::PROTOCOL_STACK;
    let pager_src = sim::designs::VOICE_PAGER;
    let stack_mono = ecl_bench::stack_mono();
    let stack_parts = ecl_bench::stack_parts();
    let pager_mono = ecl_bench::pager_mono();
    let pager_parts = ecl_bench::pager_parts();
    let stack_specs =
        synthesize_all(&ecl_syntax::parse_str(stack_src).unwrap()).expect("stack observers");
    let pager_specs =
        synthesize_all(&ecl_syntax::parse_str(pager_src).unwrap()).expect("pager observers");

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": 1,");
    let _ = writeln!(json, "  \"instants\": {instants},");
    let _ = writeln!(json, "  \"configs\": [");
    type Config<'a> = (
        &'a str,
        &'a str,
        Vec<Design>,
        &'a [InstantEvents],
        &'a [Arc<MonitorSpec>],
    );
    let configs: [Config<'_>; 4] = [
        (
            "stack/mono",
            "protocol_stack",
            vec![stack_mono],
            &stack_ev,
            &stack_specs,
        ),
        (
            "stack/parts",
            "protocol_stack",
            stack_parts,
            &stack_ev,
            &stack_specs,
        ),
        (
            "pager/mono",
            "voice_pager",
            vec![pager_mono],
            &pager_ev,
            &pager_specs,
        ),
        (
            "pager/parts",
            "voice_pager",
            pager_parts,
            &pager_ev,
            &pager_specs,
        ),
    ];
    let n = configs.len();
    for (i, (config, design, designs, events, specs)) in configs.into_iter().enumerate() {
        let p = profile_one(config, design, designs, events, specs);
        render(&p, &mut json);
        json.push_str(if i + 1 < n { ",\n" } else { "\n" });
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write profile output");
    println!("{json}");
    println!("wrote {out_path}");
}
