//! `gen_bench` — the benchmark harness: reaction and fleet throughput,
//! a per-configuration hot-path profile and the ablation rows, written
//! to one JSON file and gated by one `--check`.
//!
//! One run measures, in order:
//!
//! 1. **Runner configs** (`runs`, gated). The two evaluated designs
//!    (protocol stack, voice pager) × two implementations (monolithic
//!    single task, 3-task partition) × three modes: `traced`
//!    (ring-buffer recording on) and `monitored` (observers stepped per
//!    instant), both with `Backend::Walker` forced end to end, and
//!    `compiled`, the same monitored run on the default
//!    `Backend::Compiled`. Every config is normalized against its own
//!    design's walker-forced `*/mono/monitored` run, measured in the
//!    same process; `speedup_compiled_over_walker` is compiled over
//!    monitored per design configuration.
//! 2. **Fleet rows** (`runs`, gated). `--sessions` supervised
//!    voice-pager sessions of 691 instants each, one shard per hardware
//!    thread, without (`pager/fleet/nockpt`) and with
//!    (`pager/fleet/ckpt64`) a checkpoint every 64 instants, normalized
//!    against one bare runner replaying the same stream. An
//!    `ECL_FAULTS` plan arms these sessions and nothing else, which
//!    makes the run the fleet chaos smoke: killed sessions restart from
//!    checkpoints and every session must still finish.
//! 3. **Profile** (`coverage` and `profile`, per design configuration).
//!    One monitored run on `Backend::Compiled` with telemetry on,
//!    bracketed by a telemetry `Run`, rendered from the whole metric
//!    registry.
//! 4. **Construction** (`construction`, not gated). The compile
//!    layers of each design configuration timed one by one: EFSM
//!    construction without the optimizer, the optimizer alone, the
//!    fused programs, and per design its observers' synthesis.
//! 5. **Ablations** (`ablations`): A1 MaxEsterel vs MinEsterel
//!    splitting (paper §3 vs §6), A2 EFSM optimization on/off (§3), A3
//!    Verilog for a pure-control machine (§4's hardware partition), A4
//!    delayed vs immediate `await`; and **monitor stepping**
//!    (`monitor_stepping`): the monolithic stack's observers stepped
//!    over its recorded presence sets by their dense tables (the
//!    `fused_*` members) vs the s-graph walker.
//!
//! With `--check BASELINE`, every `runs` config of the baseline must be
//! measured again, and its normalized ratio must not fall more than 20%
//! below the baseline's (normalizing makes the check meaningful across
//! machines of different speeds); configs new to this run pass.
//!
//! Telemetry follows `ECL_TELEMETRY*`: with `ECL_TELEMETRY=1` the
//! measured rows run the instrumented hot path, which is how
//! EXPERIMENTS.md quantifies telemetry overhead. The committed baseline
//! (and the CI gate) is a telemetry-off run.
//!
//! Usage: `gen_bench [--out PATH] [--check BASELINE] [--instants N] [--sessions N]`

use ecl_bench::compile_with;
use ecl_core::{Design, SplitStrategy};
use ecl_faults::FaultPlan;
use ecl_fleet::{FleetConfig, SessionSpec, SessionStatus, Supervisor};
use ecl_observe::{synthesize_all, Monitor, MonitorSpec, Verdict};
use ecl_telemetry::{metrics as tm, Run};
use efsm::{Backend, Efsm, SigTable};
use sim::runner::{AsyncRunner, Runner, SharedProgram};
use sim::tb::{InstantEvents, PacketTb};
use std::sync::Arc;
use std::time::Instant;

const USAGE: &str =
    "usage: gen_bench [--out PATH] [--check BASELINE] [--instants N] [--sessions N]";
/// Default length of the runner configs' and the profile's workload.
const DEFAULT_INSTANTS: usize = 10_000;
/// Default fleet size.
const DEFAULT_SESSIONS: usize = 1000;
/// Pager testbench rounds per fleet session (691 instants). Fixed, so
/// the fleet rows compare with their baseline whatever `--instants`
/// says.
const FLEET_ROUNDS: usize = 10;
/// Interleaved measurement rounds. Every configuration is measured
/// once per round and keeps its best rate, so each config's number
/// comes from the fastest machine phase seen over the *whole* run —
/// on shared machines with drifting CPU frequency this keeps the
/// normalized ratios (the CI regression metric) phase-independent.
const ROUNDS: usize = 3;
/// Calls per ablation row; each row keeps its fastest.
const ABLATION_REPS: usize = 10;

struct Args {
    out: String,
    check: Option<String>,
    instants: usize,
    sessions: usize,
}

/// Report a malformed command line and exit 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("gen_bench: {msg}\n{USAGE}");
    std::process::exit(2)
}

fn number(flag: &str, value: &str) -> usize {
    value
        .parse()
        .unwrap_or_else(|_| usage_error(&format!("{flag} takes a number, not `{value}`")))
}

fn parse_args() -> Args {
    let mut args = Args {
        out: "BENCH_reaction.json".to_string(),
        check: None,
        instants: DEFAULT_INSTANTS,
        sessions: DEFAULT_SESSIONS,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || {
            argv.next()
                .unwrap_or_else(|| usage_error(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--out" => args.out = value(),
            "--check" => args.check = Some(value()),
            "--instants" => args.instants = number(&flag, &value()),
            "--sessions" => args.sessions = number(&flag, &value()),
            _ => usage_error(&format!("unknown argument `{flag}`")),
        }
    }
    args
}

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

/// A labelled measurement; each call returns how many instants it ran.
type Job<'a> = (String, Box<dyn FnMut() -> usize + 'a>);

fn job<'a>(label: String, f: impl FnMut() -> usize + 'a) -> Job<'a> {
    (label, Box::new(f))
}

/// Best rate of each job over [`ROUNDS`] interleaved rounds.
fn measure_all(mut jobs: Vec<Job<'_>>) -> Vec<(String, f64)> {
    let mut best = vec![0.0f64; jobs.len()];
    for _ in 0..ROUNDS {
        for (j, (_, f)) in jobs.iter_mut().enumerate() {
            let t = timed(&mut *f);
            best[j] = best[j].max(t.value as f64 / (t.ms / 1000.0));
        }
    }
    jobs.into_iter().map(|(label, _)| label).zip(best).collect()
}

/// A JSON object member, value already rendered.
type Member = (String, String);

fn member(key: impl Into<String>, value: impl ToString) -> Member {
    (key.into(), value.to_string())
}

/// `{"k": v, …}` on one line.
fn inline(members: &[Member]) -> String {
    let body: Vec<String> = members
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A JSON object with one member per line, nested `depth` levels deep.
fn object(members: &[Member], depth: usize) -> String {
    let pad = "  ".repeat(depth + 1);
    let body: Vec<String> = members
        .iter()
        .map(|(k, v)| format!("{pad}\"{k}\": {v}"))
        .collect();
    format!("{{\n{}\n{}}}", body.join(",\n"), "  ".repeat(depth))
}

/// One design configuration: the unit of the runner configs, the
/// coverage block and the profile.
struct DesignConfig<'a> {
    /// `stack/mono`, …: the prefix of its `runs` labels.
    label: &'static str,
    /// Its key in the `compile_ms`, `coverage` and `profile` blocks
    /// (`stack_mono`, …).
    key: String,
    /// Design name on the profile's telemetry run.
    design: &'static str,
    designs: Vec<Design>,
    compile_ms: f64,
    events: &'a [InstantEvents],
    specs: &'a [Arc<MonitorSpec>],
}

/// One gated `runs` entry.
struct RunRow {
    config: String,
    rate: f64,
    normalized: f64,
    /// Members rendered between the rate and the ratio.
    extra: Vec<Member>,
}

impl RunRow {
    fn render(&self) -> String {
        let mut members = vec![
            member("config", format!("\"{}\"", self.config)),
            member("instants_per_sec", format!("{:.0}", self.rate)),
        ];
        members.extend(self.extra.iter().cloned());
        members.push(member("normalized", format!("{:.3}", self.normalized)));
        inline(&members)
    }
}

fn rate_of(rows: &[RunRow], config: &str) -> f64 {
    rows.iter()
        .find(|r| r.config == config)
        .map(|r| r.rate)
        .expect("measured config")
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

/// A runner forced onto `Backend::Walker` — s-graph walk and
/// tree-walking data hooks end to end (the `monitored`/`traced`
/// configs measure the reference path every config is normalized
/// against).
fn walked(designs: Vec<Design>) -> AsyncRunner {
    let mut r = runner(designs);
    r.set_backend(Backend::Walker);
    r
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

fn run_traced(mut r: AsyncRunner, events: &[InstantEvents]) -> usize {
    r.enable_trace(256);
    r.run_events(events, |_, _| {}).expect("run succeeds");
    events.len()
}

/// Bound monitor instances on the given stepping backend (the walked
/// configs force the s-graph walker on monitors too, so they
/// reproduce the pre-fusion hot path end to end).
fn monitors_for(specs: &[Arc<MonitorSpec>], table: &SigTable, backend: Backend) -> Vec<Monitor> {
    specs
        .iter()
        .map(|s| {
            let mut m = Monitor::new(Arc::clone(s));
            m.set_backend(backend);
            m.bind(table);
            m
        })
        .collect()
}

/// The 12 runner configs: traced, monitored and compiled per design
/// configuration, measured in interleaved rounds.
fn runner_rows(configs: &[DesignConfig<'_>]) -> Vec<RunRow> {
    let mut jobs = Vec::new();
    for c in configs {
        jobs.push(job(format!("{}/traced", c.label), move || {
            run_traced(walked(c.designs.clone()), c.events)
        }));
        jobs.push(job(format!("{}/monitored", c.label), move || {
            let r = walked(c.designs.clone());
            let mut mons = monitors_for(c.specs, r.sig_table(), Backend::Walker);
            run_ids(r, c.events, &mut mons)
        }));
        jobs.push(job(format!("{}/compiled", c.label), move || {
            let r = runner(c.designs.clone());
            assert_eq!(r.backend(), Backend::Compiled);
            let mut mons = monitors_for(c.specs, r.sig_table(), Backend::Compiled);
            run_ids(r, c.events, &mut mons)
        }));
    }
    let runs = measure_all(jobs);
    // The reference path: each design's walker-forced monitored mono
    // run, so every config normalizes against its own workload.
    let reference = |config: &str| {
        let design = config.split('/').next().unwrap_or_default();
        let label = format!("{design}/mono/monitored");
        runs.iter().find(|(l, _)| *l == label).expect("measured").1
    };
    runs.iter()
        .map(|(config, rate)| RunRow {
            config: config.clone(),
            rate: *rate,
            normalized: rate / reference(config),
            extra: Vec::new(),
        })
        .collect()
}

/// The two fleet rows, every session armed with `faults`.
fn fleet_rows(sessions: usize, faults: Option<FaultPlan>) -> Vec<RunRow> {
    let events = Arc::new(ecl_bench::pager_events(FLEET_ROUNDS));
    let per_session = events.len();
    let designs = ecl_bench::pager_parts();
    let shards = std::thread::available_parallelism().map_or(4, |n| n.get());

    // (label, checkpoint cadence): `nockpt` takes only the initial
    // snapshot — the capacity headline; `ckpt64` snapshots every 64
    // instants — the difference is the checkpoint overhead.
    let configs: [(&str, u64); 2] = [("pager/fleet/nockpt", 0), ("pager/fleet/ckpt64", 64)];
    let sups = configs.map(|(_, ckpt)| {
        Supervisor::new(
            designs.clone(),
            &Default::default(),
            FleetConfig {
                shards,
                queue_cap: sessions.max(1),
                checkpoint_every: ckpt,
                faults,
                ..Default::default()
            },
        )
        .expect("fleet compiles")
    });

    let mut rates = [0.0f64; 2];
    let mut solo_rate = 0.0f64;
    for _ in 0..ROUNDS {
        for (rate, sup) in rates.iter_mut().zip(&sups) {
            let specs: Vec<SessionSpec> = (1..=sessions as u64)
                .map(|id| SessionSpec {
                    id,
                    events: Arc::clone(&events),
                    specs: Vec::new(),
                    trace_capacity: None,
                })
                .collect();
            let t0 = Instant::now();
            let rep = sup.run(specs);
            let secs = t0.elapsed().as_secs_f64();
            assert!(
                rep.sessions
                    .iter()
                    .all(|s| s.status == SessionStatus::Finished),
                "fleet sessions must finish: {:?}",
                rep.health
            );
            *rate = rate.max((sessions * per_session) as f64 / secs);
        }
        // Solo reference: one bare runner (no supervisor, no queues)
        // over the same stream, repeated so fixed setup cost doesn't
        // pollute the denominator.
        const SOLO_REPEATS: usize = 20;
        let mut r =
            AsyncRunner::from_shared(sups[0].shared(), Default::default(), Default::default());
        let t0 = Instant::now();
        for _ in 0..SOLO_REPEATS {
            r.run_events(&events, |_, _| {}).expect("solo run");
        }
        let secs = t0.elapsed().as_secs_f64();
        solo_rate = solo_rate.max((per_session * SOLO_REPEATS) as f64 / secs);
    }
    let solo_rate = solo_rate.max(1.0);

    // What checkpointing costs the fleet, as a throughput ratio
    // (1.00: free). Printed only; the gate checks each row.
    println!(
        "pager/fleet: solo {solo_rate:.0} instants/sec, ckpt64/nockpt throughput ratio {:.3}",
        rates[1] / rates[0]
    );
    configs
        .iter()
        .zip(rates)
        .map(|((label, _), rate)| RunRow {
            config: label.to_string(),
            rate,
            normalized: rate / solo_rate,
            extra: vec![
                member("sessions", sessions),
                member("instants_per_session", per_session),
                member("shards", shards),
            ],
        })
        .collect()
}

/// One monitored run of `c` on `Backend::Compiled` from a zeroed
/// metric registry (telemetry must be on), rendered as its `coverage`
/// and `profile` objects.
///
/// Coverage is static: how many control ops the states lay out as, and
/// how much of the data path the bytecode VM compiles — recorded so the
/// benchmark file says what the `compiled` configs actually exercised
/// (100% fused means no walker step inside an instant).
fn profile(c: &DesignConfig<'_>) -> (String, String) {
    tm::reset_all();
    let r = runner(c.designs.clone());
    assert_eq!(r.backend(), Backend::Compiled);
    let cov = r.coverage();
    let pure: u32 = r.machines().map(|m| m.stats().pure_states).sum();
    let coverage = inline(&[
        member("states", cov.states()),
        member("fused_rows", cov.fused_rows()),
        member("pure_states", pure),
        member("vm_compiled", cov.vm_compiled()),
        member("vm_total", cov.vm_total()),
    ]);
    let mut mons = monitors_for(c.specs, r.sig_table(), Backend::Compiled);
    let run = Run::start(c.design, c.label);
    let t = timed(|| run_ids(r, c.events, &mut mons));
    // The run_end event carries the coverage breakdown, so the JSONL
    // stream says which backend actually ran.
    run.end_with_coverage(t.value as u64, Some(&cov.telemetry()));
    (coverage, render_profile(t.value, t.ms))
}

/// Render the registry: every counter and the p50/p99/max of every
/// histogram, grouped by the name's first segment (`table.steps` →
/// `"table": {"steps": …}`), plus the total of executed data ops.
fn render_profile(instants: usize, wall_ms: f64) -> String {
    let mut groups: Vec<(&str, Vec<Member>)> = Vec::new();
    let mut put = |name: &'static str, suffix: &str, value: String| {
        let (group, key) = name.split_once('.').expect("metric names are `group.key`");
        let m = (format!("{key}{suffix}"), value);
        match groups.iter_mut().find(|(g, _)| *g == group) {
            Some((_, members)) => members.push(m),
            None => groups.push((group, vec![m])),
        }
    };
    for c in tm::counters() {
        put(c.name(), "", c.get().to_string());
    }
    for h in tm::histograms() {
        put(h.name(), "_p50", h.quantile(0.5).to_string());
        put(h.name(), "_p99", h.quantile(0.99).to_string());
        put(h.name(), "_max", h.max().to_string());
    }
    let ops_total: u64 = tm::VM_OPS.iter().map(|c| c.get()).sum();
    put("vm.ops_total", "", ops_total.to_string());

    let mut members = vec![
        member("instants", instants),
        member("wall_ms", format!("{wall_ms:.2}")),
        member(
            "instants_per_sec",
            format!("{:.0}", instants as f64 / (wall_ms / 1000.0)),
        ),
    ];
    members.extend(groups.iter().map(|(g, m)| member(*g, inline(m))));
    object(&members, 2)
}

/// The pure-control skeleton of a CRC checker: the data part is what
/// keeps `checkcrc` in software; the control skeleton synthesizes.
const CRC_CTL: &str = "
    module crc_ctl(input pure reset, input pure pkt, output pure done) {
      while (1) { do { await (pkt); emit (done); } abort (reset); }
    }";

/// The fastest of [`ABLATION_REPS`] calls, in microseconds, and its
/// result.
fn best_us<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = timed(&mut f);
    for _ in 1..ABLATION_REPS {
        let t = timed(&mut f);
        if t.ms < best.ms {
            best = t;
        }
    }
    (best.ms * 1000.0, best.value)
}

/// An ablation row for a built machine: build time and machine size.
fn efsm_row(name: &str, (us, m): (f64, Efsm)) -> Member {
    let s = m.stats();
    let row = [
        member("us", format!("{us:.1}")),
        member("states", s.states),
        member("nodes", s.nodes),
        member("actions", s.actions),
    ];
    member(name, inline(&row))
}

/// The compile layers of each design configuration, each timed on its
/// own, best of [`ABLATION_REPS`] calls, in µs: EFSM construction
/// without the optimizer (`to_efsm`), the optimizer alone on those
/// machines (`optimize`) and the fused programs of the optimized ones
/// (`fused`), summed over the configuration's tasks; then per design
/// the synthesis of its observers (`synthesize_all`). Not gated.
fn construction(configs: &[DesignConfig<'_>]) -> Vec<Member> {
    let unoptimized = esterel::CompileOptions {
        optimize: false,
        ..Default::default()
    };
    let mut rows: Vec<Member> = configs
        .iter()
        .map(|c| {
            let (to_efsm, raw) = best_us(|| {
                (c.designs.iter())
                    .map(|d| d.to_efsm(&unoptimized).expect("design compiles"))
                    .collect::<Vec<Efsm>>()
            });
            let mut optimize = f64::INFINITY;
            let mut machines = Vec::new();
            for _ in 0..ABLATION_REPS {
                machines = raw.clone();
                let t = timed(|| {
                    for m in &mut machines {
                        efsm::opt::optimize(m);
                    }
                });
                optimize = optimize.min(t.ms * 1000.0);
            }
            let rts: Vec<_> = (c.designs.iter())
                .map(|d| d.new_rt().expect("runtime builds"))
                .collect();
            let (fused, _) = best_us(|| {
                (machines.iter().zip(&rts))
                    .map(|(m, rt)| ecl_core::Fused::compile(m, rt).expect("every task fuses"))
                    .collect::<Vec<_>>()
            });
            let row = [
                member("to_efsm_us", format!("{to_efsm:.1}")),
                member("optimize_us", format!("{optimize:.1}")),
                member("fused_us", format!("{fused:.1}")),
            ];
            member(&c.key, inline(&row))
        })
        .collect();
    for (design, src) in [
        ("stack", sim::designs::PROTOCOL_STACK),
        ("pager", sim::designs::VOICE_PAGER),
    ] {
        let ast = ecl_syntax::parse_str(src).expect("design parses");
        let (us, specs) = best_us(|| synthesize_all(&ast).expect("observers synthesize"));
        let row = [
            member("synthesize_all_us", format!("{us:.1}")),
            member("observers", specs.len()),
        ];
        rows.push(member(design, inline(&row)));
    }
    rows
}

/// A1–A4, one member each.
fn ablations() -> Vec<Member> {
    let efsm = |d: &Design, optimize: bool| {
        d.to_efsm(&esterel::CompileOptions {
            optimize,
            ..Default::default()
        })
        .expect("ablation design compiles")
    };
    let build = |src: &str, entry: &str, strategy| efsm(&compile_with(src, entry, strategy), true);
    let stack = sim::designs::PROTOCOL_STACK;
    let a1 = [
        ("max_esterel", SplitStrategy::MaxEsterel),
        ("min_esterel", SplitStrategy::MinEsterel),
    ]
    .map(|(name, strategy)| efsm_row(name, best_us(|| build(stack, "toplevel", strategy))));
    let split = compile_with(stack, "toplevel", SplitStrategy::MaxEsterel);
    let a2 = [("optimized", true), ("unoptimized", false)]
        .map(|(name, optimize)| efsm_row(name, best_us(|| efsm(&split, optimize))));
    let crc_ctl = build(CRC_CTL, "crc_ctl", SplitStrategy::MinEsterel);
    let (us, verilog) =
        best_us(|| codegen::verilog::emit_verilog(&crc_ctl).expect("pure control emits Verilog"));
    let a3 = [member(
        "verilog_emit",
        inline(&[
            member("us", format!("{us:.1}")),
            member("bytes", verilog.len()),
        ]),
    )];
    let a4 = [("delayed", "await"), ("immediate", "await_immediate")].map(|(name, kw)| {
        // The delta after the emission keeps the loop non-instantaneous
        // even when `a` stays present (with `await_immediate` the
        // compiler correctly rejects the loop otherwise).
        let src = format!(
            "module m(input pure a, output pure o) {{ while (1) {{ {kw} (a); emit (o); await (); }} }}"
        );
        efsm_row(name, best_us(|| build(&src, "m", SplitStrategy::MaxEsterel)))
    });
    vec![
        member("A1", inline(&a1)),
        member("A2", inline(&a2)),
        member("A3", inline(&a3)),
        member("A4", inline(&a4)),
    ]
}

/// The observers of `c` stepped over the presence sets of its compiled
/// run, recorded once up front, on each backend, best of [`ROUNDS`].
/// Fresh monitors per run; none may latch a violation, or the rows
/// would time latched no-ops.
fn monitor_stepping(c: &DesignConfig<'_>) -> Vec<Member> {
    let mut r = runner(c.designs.clone());
    let table = Arc::clone(r.sig_table());
    let mut present = Vec::with_capacity(c.events.len());
    r.run_events(c.events, |_, p| present.push(p.ids().clone()))
        .expect("run succeeds");
    let drive = |backend| {
        let mut mons = monitors_for(c.specs, &table, backend);
        for (i, p) in present.iter().enumerate() {
            for m in &mut mons {
                m.step_ids(i as u64, p, &table);
            }
        }
        assert!(
            mons.iter()
                .all(|m| !matches!(m.verdict(), Verdict::Fail(_))),
            "stepped monitors must stay live"
        );
        present.len()
    };
    let rates = measure_all(vec![
        job("fused".to_string(), || drive(Backend::Compiled)),
        job("walked".to_string(), || drive(Backend::Walker)),
    ]);
    let (fused, walked) = (rates[0].1, rates[1].1);
    let speedup = format!("{:.2}", fused / walked);
    vec![
        member("config", format!("\"{}\"", c.label)),
        member("monitors", c.specs.len()),
        member("fused_instants_per_sec", format!("{fused:.0}")),
        member("walked_instants_per_sec", format!("{walked:.0}")),
        member("speedup_fused_over_walked", speedup),
    ]
}

fn main() {
    let args = parse_args();
    let baseline = args.check.as_ref().map(|path| {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| ecl_bench::parse_baseline(&text))
            .unwrap_or_else(|e| usage_error(&format!("cannot read baseline {path}: {e}")))
    });
    ecl_telemetry::init_from_env();
    let telemetry_on = ecl_telemetry::enabled();
    // A fault plan (ECL_FAULTS) arms the fleet sessions. Injected kills
    // are caught by the supervisor, so keep their backtraces out of the
    // log; anything else still reaches the default hook.
    let faults = FaultPlan::from_env();
    if faults.is_some() {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.starts_with("ecl-faults:"));
            if !injected {
                default_hook(info);
            }
        }));
    }

    // Workloads, truncated to the same instant budget.
    let mut stack_ev = PacketTb {
        packets: args.instants / 65 + 2,
        corrupt_every: 0,
        reset_every: 0,
        seed: 1999,
    }
    .events();
    stack_ev.truncate(args.instants);
    let mut pager_ev = ecl_bench::pager_events(args.instants / 69 + 2);
    pager_ev.truncate(args.instants);
    let specs_of = |src| {
        synthesize_all(&ecl_syntax::parse_str(src).expect("design parses"))
            .expect("observers synthesize")
    };
    let stack_specs = specs_of(sim::designs::PROTOCOL_STACK);
    let pager_specs = specs_of(sim::designs::VOICE_PAGER);

    // Four design configurations, each compile timed from source text
    // through EFSM construction, control layout and fused programs:
    // best of [`ABLATION_REPS`] calls, like the ablation rows.
    let compiled = |designs: fn() -> Vec<Design>| {
        best_us(|| {
            let designs = designs();
            let program = SharedProgram::compile(designs.clone(), &Default::default());
            std::hint::black_box(program.expect("designs compile"));
            designs
        })
    };
    let config = |label: &'static str, (us, designs): (f64, Vec<Design>)| {
        let (design, events, specs) = if label.starts_with("pager") {
            ("voice_pager", &pager_ev[..], &pager_specs[..])
        } else {
            ("protocol_stack", &stack_ev[..], &stack_specs[..])
        };
        DesignConfig {
            label,
            key: label.replace('/', "_"),
            design,
            designs,
            compile_ms: us / 1000.0,
            events,
            specs,
        }
    };
    let configs = [
        config("stack/mono", compiled(|| vec![ecl_bench::stack_mono()])),
        config("stack/parts", compiled(ecl_bench::stack_parts)),
        config("pager/mono", compiled(|| vec![ecl_bench::pager_mono()])),
        config("pager/parts", compiled(ecl_bench::pager_parts)),
    ];
    let compile_ms: Vec<Member> = configs
        .iter()
        .map(|c| member(&c.key, format!("{:.2}", c.compile_ms)))
        .collect();

    let mut runs = runner_rows(&configs);
    // The fusion headline: one compiled backend vs the fully walked
    // path, same monitored workload, per design configuration.
    let speedups: Vec<Member> = configs
        .iter()
        .map(|c| {
            let compiled = rate_of(&runs, &format!("{}/compiled", c.label));
            let walked = rate_of(&runs, &format!("{}/monitored", c.label));
            member(&c.key, format!("{:.2}", compiled / walked))
        })
        .collect();
    runs.extend(fleet_rows(args.sessions, faults));
    // The profile is a count, so telemetry is on for it whatever the
    // environment says.
    ecl_telemetry::set_enabled(true);
    let (coverage, profiles): (Vec<Member>, Vec<Member>) = configs
        .iter()
        .map(|c| {
            let (coverage, profile) = profile(c);
            (member(&c.key, coverage), member(&c.key, profile))
        })
        .unzip();
    ecl_telemetry::set_enabled(telemetry_on);
    let monitors = monitor_stepping(&configs[0]);
    let construction = construction(&configs);
    let ablations = ablations();

    let rows: Vec<String> = runs.iter().map(|r| format!("    {}", r.render())).collect();
    let json = object(
        &[
            member("schema", 1),
            member("instants", args.instants),
            member("compile_ms", object(&compile_ms, 1)),
            member("construction", object(&construction, 1)),
            member("coverage", object(&coverage, 1)),
            member("runs", format!("[\n{}\n  ]", rows.join(",\n"))),
            member("speedup_compiled_over_walker", inline(&speedups)),
            member("monitor_stepping", inline(&monitors)),
            member("ablations", object(&ablations, 1)),
            member("profile", object(&profiles, 1)),
        ],
        0,
    ) + "\n";
    std::fs::write(&args.out, &json).expect("write benchmark output");
    println!("{json}");
    println!("wrote {}", args.out);

    if let (Some(path), Some(baseline)) = (&args.check, baseline) {
        let measured: Vec<(&str, f64)> = runs
            .iter()
            .map(|r| (r.config.as_str(), r.normalized))
            .collect();
        let failures = ecl_bench::check(&baseline, &measured);
        if failures.is_empty() {
            println!("check against {path}: OK");
        } else {
            eprintln!("benchmark regression against {path}:");
            for f in &failures {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
    }
}
