//! `gen_bench` — machine-readable reaction-throughput benchmark.
//!
//! Measures instants/second for the two evaluated designs
//! (protocol stack, voice pager) × two implementations (monolithic
//! single task, 3-task partition) × three instrumentation/backend
//! modes (traced: ring-buffer recording on; monitored: observers bound
//! and stepped per instant, `Backend::Walker` forced end to end —
//! s-graph walk + tree-walking data hooks; compiled: the same
//! monitored run under `Backend::Compiled` — fused per-task instant
//! programs, the production default). `speedup_compiled_over_walker`
//! is the headline fusion metric: compiled vs monitored on the same
//! workload, per design configuration. End-to-end compile times ride
//! along.
//!
//! Output is `BENCH_reaction.json`. Every config is normalized
//! against its own design's walker-forced `*/mono/monitored` run —
//! the reference path, measured in the same process. With `--check
//! BASELINE`, the run is compared against a checked-in baseline: the
//! *normalized* ratio of each config must not regress by more than
//! 20% (normalizing makes the check meaningful across machines of
//! different speeds).
//!
//! Usage: `gen_bench [--out PATH] [--check BASELINE] [--instants N]`

use ecl_bench::extract_normalized;
use ecl_core::Design;
use ecl_observe::{synthesize_all, Monitor, MonitorSpec};
use efsm::Backend;
use sim::runner::{AsyncRunner, Runner};
use sim::tb::{InstantEvents, PacketTb, PagerTb};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Default workload length (the ISSUE's "10k-instant run").
const DEFAULT_INSTANTS: usize = 10_000;
/// Allowed normalized-throughput regression against the baseline.
const TOLERANCE: f64 = 0.20;

struct Timed<T> {
    value: T,
    ms: f64,
}

fn timed<T>(f: impl FnOnce() -> T) -> Timed<T> {
    let t0 = Instant::now();
    let value = f();
    Timed {
        value,
        ms: t0.elapsed().as_secs_f64() * 1000.0,
    }
}

fn runner(designs: Vec<Design>) -> AsyncRunner {
    AsyncRunner::new(
        designs,
        &Default::default(),
        Default::default(),
        Default::default(),
    )
    .expect("runner builds")
}

/// Interleaved measurement rounds. Every configuration is measured
/// once per round and keeps its best rate, so each config's number
/// comes from the fastest machine phase seen over the *whole* run —
/// on shared machines with drifting CPU frequency this keeps the
/// normalized ratios (the CI regression metric) phase-independent.
const ROUNDS: usize = 3;

fn measure_all(mut jobs: Vec<(String, Box<dyn FnMut() -> usize + '_>)>) -> Vec<(String, f64)> {
    let mut best = vec![0.0f64; jobs.len()];
    for _ in 0..ROUNDS {
        for (j, (_, f)) in jobs.iter_mut().enumerate() {
            let t = timed(&mut *f);
            best[j] = best[j].max(t.value as f64 / (t.ms / 1000.0));
        }
    }
    jobs.iter()
        .map(|(label, _)| label.clone())
        .zip(best)
        .collect()
}

fn run_ids(mut r: AsyncRunner, events: &[InstantEvents], monitors: &mut [Monitor]) -> usize {
    r.run_events(events, |instant, present| {
        for m in monitors.iter_mut() {
            m.step_present(instant, present);
        }
    })
    .expect("run succeeds");
    events.len()
}

/// A runner forced onto `Backend::Walker` — s-graph walk and
/// tree-walking data hooks end to end (the `monitored`/`traced`
/// configs measure the reference path every config is normalized
/// against).
fn walked(designs: Vec<Design>) -> AsyncRunner {
    let mut r = runner(designs);
    r.set_backend(Backend::Walker);
    r
}

fn run_traced(mut r: AsyncRunner, events: &[InstantEvents]) -> usize {
    r.enable_trace(256);
    r.run_events(events, |_, _| {}).expect("run succeeds");
    events.len()
}

/// Bound monitor instances on the given stepping backend (the walked
/// configs force the s-graph walker on monitors too, so they
/// reproduce the pre-fusion hot path end to end).
fn monitors_for(specs: &[Arc<MonitorSpec>], r: &AsyncRunner, backend: Backend) -> Vec<Monitor> {
    specs
        .iter()
        .map(|s| {
            let mut m = Monitor::new(Arc::clone(s));
            m.set_backend(backend);
            m.bind(r.sig_table());
            m
        })
        .collect()
}

fn main() {
    // Honors `ECL_TELEMETRY=1`: the same interleaved best-of-3
    // methodology then measures the *instrumented* hot path, which is
    // how EXPERIMENTS.md quantifies telemetry overhead. The shipped
    // baseline (and the `--check` gate) is a telemetry-off run.
    ecl_telemetry::init_from_env();
    let args: Vec<String> = std::env::args().collect();
    let mut out_path = "BENCH_reaction.json".to_string();
    let mut check_path: Option<String> = None;
    let mut instants = DEFAULT_INSTANTS;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                out_path = args[i + 1].clone();
                i += 2;
            }
            "--check" => {
                check_path = Some(args[i + 1].clone());
                i += 2;
            }
            "--instants" => {
                instants = args[i + 1].parse().expect("--instants takes a number");
                i += 2;
            }
            other => panic!("unknown argument `{other}`"),
        }
    }

    // Workloads, truncated to the same instant budget.
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

    // Compile (timed): four design configurations.
    let stack_src = sim::designs::PROTOCOL_STACK;
    let pager_src = sim::designs::VOICE_PAGER;
    let stack_mono = timed(ecl_bench::stack_mono);
    let stack_parts = timed(ecl_bench::stack_parts);
    let pager_mono = timed(ecl_bench::pager_mono);
    let pager_parts = timed(ecl_bench::pager_parts);
    let stack_specs =
        synthesize_all(&ecl_syntax::parse_str(stack_src).unwrap()).expect("stack observers");
    let pager_specs =
        synthesize_all(&ecl_syntax::parse_str(pager_src).unwrap()).expect("pager observers");

    // All configurations, measured in interleaved rounds: traced,
    // monitored and compiled × four design configurations.
    type Config<'a> = (
        &'a str,
        Vec<Design>,
        &'a [InstantEvents],
        &'a [Arc<MonitorSpec>],
    );
    let configs: [Config<'_>; 4] = [
        (
            "stack/mono",
            vec![stack_mono.value.clone()],
            &stack_ev,
            &stack_specs,
        ),
        (
            "stack/parts",
            stack_parts.value.clone(),
            &stack_ev,
            &stack_specs,
        ),
        (
            "pager/mono",
            vec![pager_mono.value.clone()],
            &pager_ev,
            &pager_specs,
        ),
        (
            "pager/parts",
            pager_parts.value.clone(),
            &pager_ev,
            &pager_specs,
        ),
    ];
    // Static backend coverage per design configuration: how many
    // states fuse into row-scan + residual-program form, and how much
    // of the data path the bytecode VM compiles — recorded so the
    // benchmark file says what the `compiled` configs actually
    // exercised (100% fused means no s-graph walk inside an instant).
    let coverage: Vec<(String, String)> = configs
        .iter()
        .map(|(label, designs, _, _)| {
            let r = runner(designs.clone());
            let cov = r.coverage();
            let pure: u32 = r.machines().map(|m| m.stats().pure_states).sum();
            (
                label.replace('/', "_"),
                format!(
                    "{{\"fused_states\": {}, \"states\": {}, \"fused_rows\": {}, \"pure_states\": {pure}, \"vm_compiled\": {}, \"vm_total\": {}}}",
                    cov.fused_states(),
                    cov.states(),
                    cov.fused_rows(),
                    cov.vm_compiled(),
                    cov.vm_total(),
                ),
            )
        })
        .collect();
    let mut jobs: Vec<(String, Box<dyn FnMut() -> usize + '_>)> = Vec::new();
    for (label, designs, events, specs) in &configs {
        let d = designs.clone();
        jobs.push((
            format!("{label}/traced"),
            Box::new(move || run_traced(walked(d.clone()), events)),
        ));
        let d = designs.clone();
        jobs.push((
            format!("{label}/monitored"),
            Box::new(move || {
                let r = walked(d.clone());
                let mut mons = monitors_for(specs, &r, Backend::Walker);
                run_ids(r, events, &mut mons)
            }),
        ));
        let d = designs.clone();
        jobs.push((
            format!("{label}/compiled"),
            Box::new(move || {
                let r = runner(d.clone());
                assert_eq!(r.backend(), Backend::Compiled);
                let mut mons = monitors_for(specs, &r, Backend::Compiled);
                run_ids(r, events, &mut mons)
            }),
        ));
    }
    let runs = measure_all(jobs);
    let rate_of = |label: &str| {
        runs.iter()
            .find(|(l, _)| l == label)
            .map(|(_, v)| *v)
            .unwrap()
    };
    // The reference path: each design's walker-forced monitored mono
    // run, so every config normalizes against its own workload.
    let stack_ref = rate_of("stack/mono/monitored");
    let pager_ref = rate_of("pager/mono/monitored");
    let ref_of = |label: &str| {
        if label.starts_with("pager") {
            pager_ref
        } else {
            stack_ref
        }
    };

    // The fusion headline: one compiled backend vs the fully walked
    // path, same monitored workload, per design configuration.
    let compiled_speedup = |label: &str| {
        rate_of(&format!("{label}/compiled")) / rate_of(&format!("{label}/monitored"))
    };
    let compiled_speedups = [
        ("stack_mono", compiled_speedup("stack/mono")),
        ("stack_parts", compiled_speedup("stack/parts")),
        ("pager_mono", compiled_speedup("pager/mono")),
        ("pager_parts", compiled_speedup("pager/parts")),
    ];

    // Render JSON (no serde in the container: hand-rolled, stable).
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": 1,");
    let _ = writeln!(json, "  \"instants\": {instants},");
    let _ = writeln!(json, "  \"compile_ms\": {{");
    let _ = writeln!(json, "    \"stack_mono\": {:.2},", stack_mono.ms);
    let _ = writeln!(json, "    \"stack_parts\": {:.2},", stack_parts.ms);
    let _ = writeln!(json, "    \"pager_mono\": {:.2},", pager_mono.ms);
    let _ = writeln!(json, "    \"pager_parts\": {:.2}", pager_parts.ms);
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"coverage\": {{");
    for (i, (key, obj)) in coverage.iter().enumerate() {
        let _ = writeln!(
            json,
            "    \"{key}\": {obj}{}",
            if i + 1 < coverage.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"runs\": [");
    for (i, (label, rate)) in runs.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"config\": \"{label}\", \"instants_per_sec\": {:.0}, \"normalized\": {:.3}}}{}",
            rate,
            rate / ref_of(label),
            if i + 1 < runs.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"speedup_compiled_over_walker\": {{{}}}",
        compiled_speedups
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v:.2}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write benchmark output");
    println!("{json}");
    println!("wrote {out_path}");

    if let Some(baseline) = check_path {
        let base = std::fs::read_to_string(&baseline)
            .unwrap_or_else(|e| panic!("cannot read baseline {baseline}: {e}"));
        let mut failures = Vec::new();
        for (label, rate) in &runs {
            let Some(base_norm) = extract_normalized(&base, label) else {
                continue; // new config: no baseline yet
            };
            let norm = rate / ref_of(label);
            if norm < base_norm * (1.0 - TOLERANCE) {
                failures.push(format!(
                    "{label}: normalized {norm:.3} regressed >{:.0}% against baseline {base_norm:.3}",
                    TOLERANCE * 100.0
                ));
            }
        }
        if failures.is_empty() {
            println!("check against {baseline}: OK");
        } else {
            eprintln!("benchmark regression against {baseline}:");
            for f in &failures {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
    }
}
