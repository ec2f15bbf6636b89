//! Walker-forced smoke: `set_backend(Backend::Walker)` forces the
//! s-graph walker and the tree-walking data interpreter on the whole
//! reaction path, and the run must be observationally identical to the
//! default `Backend::Compiled` run — emitted sets per instant,
//! emission counts, monitor verdicts and every kernel total (task and
//! RTOS cycles, dispatches, deliveries, losses), monolithic and as
//! three tasks. CI runs this as a dedicated `compiled-off` pass so the
//! walker (the differential reference) stays exercised and green.
//!
//! The compiled runner's quiet tick — a task with an empty mailbox in
//! a quiet state takes its precomputed outcome instead of a reaction —
//! is held to the walker here too: a node watchdog trips at the same
//! instant on both backends, and only the compiled backend counts
//! `table.quiet_steps`.
//!
//! A session may switch backends between instants. The fused loop
//! keeps promoted variables in registers across reactions, so a fused
//! task's registers go back to its frame before its first walked
//! reaction, and its next compiled reaction reloads them: a run that
//! switches to the walker and back equals a walker-only run, traced
//! values included. (Under debug assertions a walked reaction on live
//! registers also panics in the runtime's `DataHooks`.)
//!
//! A task fuses whole or runs on the walker: one whose data hook is
//! outside the bytecode subset (here, an action calling a C function)
//! has no fused backend and walks under `Backend::Compiled` too, while
//! its sibling task runs fused, and the run still matches the
//! walker-forced one.
//!
//! The suite also pins the fusion acceptance criterion: on both
//! shipped designs every task fuses (`coverage().fully_fused()`),
//! and a telemetry-counted compiled run of each — monolithic and as
//! three tasks, with the shipped observers attached — takes *zero*
//! walker steps: no tree-walked data hook and no walked observer inside
//! an instant, while the compiled reactions, the inlined hooks and the
//! observers' dense steps do run. A `Backend::Compiled` reaction that
//! reached the runtime's walker-only `DataHooks`, or an observer
//! stepped on the s-graph, would fail it. A state with 1,024 paths
//! through its s-graph compiles like any other: one control op per
//! node, walker-identical. And no shipped configuration deoptimizes
//! from the fused loop's fast stream to its exact one at the default
//! fuel: a compiled run executes no exact-stream burn.

use ecl_core::{Design, Source, SplitStrategy};
use ecl_observe::{synthesize_all, Monitor};
use efsm::{Backend, BitSet};
use rand::{Rng, SeedableRng};
use sim::designs::{PROTOCOL_STACK, VOICE_PAGER};
use sim::runner::{AsyncRunner, CoverageReport, Runner, SimErrorKind, Stimuli, WatchdogBudget};
use sim::tb::{InstantEvents, PacketTb, PagerTb};
use std::sync::{Arc, Mutex, MutexGuard};

/// The telemetry registry is process-global; tests that reset and read
/// it must not overlap.
static LOCK: Mutex<()> = Mutex::new(());

fn locked() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn runner(designs: Vec<ecl_core::Design>) -> AsyncRunner {
    AsyncRunner::new(
        designs,
        &Default::default(),
        Default::default(),
        Default::default(),
    )
    .expect("runner builds")
}

fn stack_events() -> Vec<sim::tb::InstantEvents> {
    let mut ev = PacketTb {
        packets: 40,
        corrupt_every: 0,
        reset_every: 0,
        seed: 1999,
    }
    .events();
    ev.truncate(2000);
    ev
}

fn pager_events() -> Vec<sim::tb::InstantEvents> {
    let mut ev = PagerTb {
        rounds: 30,
        frames: 4,
        seed: 7,
    }
    .events();
    ev.truncate(2000);
    ev
}

fn design_of(src: &str, entry: &str) -> Design {
    Source::new(src)
        .parse()
        .and_then(|p| p.elaborate(entry)?.split())
        .expect("design compiles")
        .to_design()
}

/// Each direct instantiation of `entry` as its own task.
fn parts_of(src: &str, entry: &str) -> Vec<Design> {
    let parts = Source::new(src)
        .parse()
        .and_then(|p| p.partition(entry))
        .expect("design partitions");
    assert_eq!(parts.len(), 3, "`{entry}` partitions into three tasks");
    parts
}

/// Run `designs` (one task each) on both backends over `events`, with
/// the observers of the first design's source attached, and require
/// identical observables; returns the compiled runner's coverage.
fn walker_matches_compiled(designs: Vec<Design>, events: &[InstantEvents]) -> CoverageReport {
    let entry = designs[0].entry.clone();
    let specs = synthesize_all(&designs[0].ast).expect("observers synthesize");

    let mut compiled = runner(designs.clone());
    assert_eq!(
        compiled.backend(),
        Backend::Compiled,
        "compiled is the default backend"
    );
    let cov = compiled.coverage();
    let mut walker = runner(designs);
    walker.set_backend(Backend::Walker);
    assert_eq!(walker.backend(), Backend::Walker);

    let bind = |r: &AsyncRunner| -> Vec<Monitor> {
        specs
            .iter()
            .map(|s| {
                let mut m = Monitor::new(Arc::clone(s));
                m.bind(r.sig_table());
                m
            })
            .collect()
    };
    let mut mons_c = bind(&compiled);
    let mut mons_w = bind(&walker);

    let (mut out_c, mut out_w) = (BitSet::new(), BitSet::new());
    let mut present = BitSet::new();
    let mut ev_bits = BitSet::new();
    for (step, ev) in events.iter().enumerate() {
        ev_bits.clear();
        for (name, v) in &ev.valued {
            let id = compiled
                .sig_table()
                .lookup(name)
                .expect("valued input known");
            compiled
                .set_input_i64_id(id, *v)
                .expect("input on compiled run");
            walker
                .set_input_i64_id(id, *v)
                .expect("input on walker run");
            ev_bits.insert(id.bit());
        }
        for name in ev.pure.iter() {
            if let Some(id) = compiled.sig_table().lookup(name) {
                ev_bits.insert(id.bit());
            }
        }
        compiled
            .instant_ids(&ev_bits, &mut out_c)
            .expect("compiled instant");
        walker
            .instant_ids(&ev_bits, &mut out_w)
            .expect("walker instant");
        assert_eq!(out_c, out_w, "emitted sets diverged at instant {step}");
        present.clear();
        present.union_with(&ev_bits);
        present.union_with(&out_c);
        for (mon_c, mon_w) in mons_c.iter_mut().zip(mons_w.iter_mut()) {
            mon_c.step_ids(step as u64, &present, compiled.sig_table());
            mon_w.step_ids(step as u64, &present, walker.sig_table());
            assert_eq!(
                mon_c.verdict(),
                mon_w.verdict(),
                "observer verdicts diverged at instant {step}"
            );
        }
    }
    assert_eq!(
        compiled.counts(),
        walker.counts(),
        "emission counts diverged"
    );
    // Kernel parity: fused programs charge the walker's exact
    // nodes-visited and fuel, and a quiet tick charges what its full
    // reaction would, so the kernels billed identical cycles and
    // counted identical dispatches, deliveries and losses.
    let totals = |r: &AsyncRunner| {
        let k = r.kernel();
        (
            k.task_cycles,
            k.rtos_cycles,
            k.dispatches,
            k.deliveries,
            k.events_lost,
        )
    };
    assert_eq!(
        totals(&compiled),
        totals(&walker),
        "`{entry}`: kernel totals diverged"
    );
    cov
}

/// The fusion acceptance criterion on a shipped design: every task of
/// `cov` fuses — every data hook compiles to bytecode, nothing is left
/// for the walker.
fn assert_fully_fused(cov: &CoverageReport) {
    assert!(
        cov.fully_fused() && cov.states() > 0 && cov.vm_total() > 0,
        "every task should fuse: {}/{} hooks",
        cov.vm_compiled(),
        cov.vm_total()
    );
}

#[test]
fn stack_walker_matches_compiled() {
    let _g = locked();
    let mono = design_of(PROTOCOL_STACK, "toplevel");
    for designs in [vec![mono], parts_of(PROTOCOL_STACK, "toplevel")] {
        assert_fully_fused(&walker_matches_compiled(designs, &stack_events()));
    }
}

#[test]
fn pager_walker_matches_compiled() {
    let _g = locked();
    let mono = design_of(VOICE_PAGER, "pager");
    for designs in [vec![mono], parts_of(VOICE_PAGER, "pager")] {
        assert_fully_fused(&walker_matches_compiled(designs, &pager_events()));
    }
}

/// Two tasks over one valued signal: `caller` computes it through a C
/// function, which is outside the bytecode subset, and every hook of
/// `summer` lowers.
const MIXED: &str = "
    int helper(int z) { return z * 3 - 1; }
    module caller(input pure go, output int v) {
      int n;
      while (1) { await (go); n = helper(n & 15); emit_v (v, n); }
    }
    module summer(input int v, output pure full) {
      int k;
      while (1) { await (v); k = k + v; if (k > 40) { emit (full); k = 0; } }
    }
    module top(input pure go, output pure full) {
      signal int v;
      par { caller(go, v); summer(v, full); }
    }";

/// A task with a hook outside the bytecode subset has no fused backend
/// and runs on the walker under `Backend::Compiled` too, while its
/// sibling runs fused; the run equals the walker-forced one on every
/// observable.
#[test]
fn a_task_that_calls_c_walks_while_its_sibling_fuses() {
    let _g = locked();
    let designs = Source::new(MIXED)
        .parse()
        .and_then(|p| p.partition("top"))
        .expect("design partitions");
    let events: Vec<InstantEvents> = (0..300)
        .map(|i| InstantEvents {
            pure: if i % 3 == 2 {
                vec![]
            } else {
                vec!["go".into()]
            },
            valued: Vec::new(),
        })
        .collect();
    let cov = runner(designs.clone()).coverage();
    let [caller, summer] = &cov.tasks[..] else {
        panic!("two tasks: {cov:?}")
    };
    assert_eq!((caller.task.as_str(), caller.fused_rows), ("caller", 0));
    assert!(caller.vm_compiled < caller.vm_total, "{cov:?}");
    assert_eq!(summer.task, "summer");
    assert!(summer.fused_rows > 0, "{cov:?}");
    assert_eq!(summer.vm_compiled, summer.vm_total);
    assert!(!cov.fully_fused());

    let was = ecl_telemetry::enabled();
    ecl_telemetry::set_enabled(true);
    ecl_telemetry::metrics::reset_all();
    let mut r = runner(designs.clone());
    r.run_events(&events, |_, _| {}).expect("run succeeds");
    let (walked, steps) = (counter("vm.walker_hooks"), counter("table.steps"));
    ecl_telemetry::set_enabled(was);
    assert!(walked > 0, "the caller's hooks were not walked");
    assert!(steps > 0, "the summer took no fused step");
    assert!(r.count_of("full") > 0, "the summer never filled");

    walker_matches_compiled(designs, &events);
}

/// Registers are session state: a runner that switches from
/// `Backend::Compiled` to `Backend::Walker` at one instant and back at
/// a later one matches a walker-only runner on the trace (every event,
/// values included), the emission counts and every kernel total — on
/// the monolithic stack and the 3-task pager. The walker steps a fused
/// task only after its live registers are written back to the frame,
/// and the next compiled reaction reloads them; a walked reaction that
/// read a stale frame, or a compiled one that kept stale registers,
/// would diverge.
#[test]
fn a_backend_switch_mid_session_matches_the_walker() {
    let _g = locked();
    for (designs, events, [off, on]) in [
        (
            vec![design_of(PROTOCOL_STACK, "toplevel")],
            stack_events(),
            [617, 1234],
        ),
        (parts_of(VOICE_PAGER, "pager"), pager_events(), [401, 977]),
    ] {
        let entry = designs[0].entry.clone();
        let run = |switch: bool| {
            let mut r = runner(designs.clone());
            r.enable_trace(0);
            if !switch {
                r.set_backend(Backend::Walker);
            }
            let mut stimuli = Stimuli::new(r.sig_table());
            let mut out = BitSet::new();
            for (i, ev) in events.iter().enumerate() {
                if switch && i == off {
                    r.set_backend(Backend::Walker);
                } else if switch && i == on {
                    r.set_backend(Backend::Compiled);
                }
                let bits = stimuli.post(&mut r, ev).expect("stimuli post");
                r.instant_ids(bits, &mut out).expect("instant");
            }
            let trace = r.take_trace().expect("trace recorded");
            let records: Vec<_> = (trace.records())
                .map(|rec| (rec.instant, rec.events.to_vec()))
                .collect();
            let k = r.kernel();
            let totals = (
                k.task_cycles,
                k.rtos_cycles,
                k.dispatches,
                k.deliveries,
                k.events_lost,
            );
            (records, r.counts(), totals)
        };
        let (switched, walked) = (run(true), run(false));
        assert_eq!(switched.0.len(), events.len(), "`{entry}`: trace length");
        assert_eq!(switched.0, walked.0, "`{entry}`: traces diverged");
        assert_eq!(switched.1, walked.1, "`{entry}`: counts diverged");
        assert_eq!(switched.2, walked.2, "`{entry}`: kernel totals diverged");
    }
}

/// A `max_nodes` watchdog budget on the 3-task pager trips at the
/// same instant, with the same node total, on both backends, over a
/// sweep of budgets. Most of the pager's reactions are quiet ticks, so
/// the compiled run would trip later, or not at all, if their nodes
/// went uncounted.
#[test]
fn node_budget_trips_at_the_same_instant_on_both_backends() {
    let _g = locked();
    let designs = parts_of(VOICE_PAGER, "pager");
    let events = pager_events();
    let mut trips = Vec::new();
    for max_nodes in [1, 3, 4, 7, 8, 9, 10, 12, 14] {
        let trip = |backend| {
            let mut r = runner(designs.clone());
            r.set_backend(backend);
            r.set_watchdog(Some(WatchdogBudget {
                max_nodes: Some(max_nodes),
                max_fuel: None,
                max_wall_ns: None,
            }));
            let e = r.run_events(&events, |_, _| {}).err();
            assert!(e.as_ref().is_none_or(|e| e.kind == SimErrorKind::Watchdog));
            (r.now(), e.map(|e| e.to_string()))
        };
        let walked = trip(Backend::Walker);
        assert_eq!(trip(Backend::Compiled), walked, "budget {max_nodes}");
        trips.push(walked.0);
    }
    trips.dedup();
    // Trips after instants 0, 1, 2 and 5, and a budget that holds.
    assert_eq!(trips, [1, 2, 3, 6, events.len() as u64]);
}

/// A `par` of ten `present (ai) { emit (oi); }` branches: one state
/// whose s-graph has 2^10 paths.
fn ten_branches() -> String {
    let ports: Vec<String> = (0..10)
        .map(|i| format!("input pure a{i}, output pure o{i}"))
        .collect();
    let branches: String = (0..10)
        .map(|i| format!("{{ present (a{i}) {{ emit (o{i}); }} }} "))
        .collect();
    format!(
        "module fan({}) {{ while (1) {{ par {{ {branches}}} await (); }} }}",
        ports.join(", ")
    )
}

#[test]
fn a_state_with_1024_paths_compiles_and_matches_the_walker() {
    let _g = locked();
    let src = ten_branches();
    let machine = design_of(&src, "fan")
        .to_efsm(&Default::default())
        .expect("the module compiles");
    assert_eq!(machine.states.len(), 1);
    assert_eq!(
        machine.paths_of(machine.init, 2048).map(|p| p.len()),
        Some(1024)
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(1024);
    let events: Vec<InstantEvents> = (0..2000)
        .map(|_| InstantEvents {
            pure: (0..10)
                .filter(|_| rng.gen_bool(0.5))
                .map(|i| format!("a{i}"))
                .collect(),
            valued: Vec::new(),
        })
        .collect();
    let cov = walker_matches_compiled(vec![design_of(&src, "fan")], &events);
    assert!(cov.fully_fused());
    // One control op per live s-graph node, however many paths.
    assert_eq!(cov.fused_rows(), machine.stats().nodes);
}

/// Under `Backend::Compiled`, no reaction and no observer ever
/// reaches a walker: the telemetry-counted run takes zero
/// `vm.walker_hooks` and zero `mon.walker_steps` on both shipped
/// designs, monolithic and as three tasks, while running every step in
/// the fused backend (`table.steps`), its data as inlined bytecode
/// (`vm.hook_runs`) and stepping the shipped observers by their dense
/// tables (`mon.steps`).
#[test]
fn compiled_run_takes_zero_walker_steps() {
    let _g = locked();
    let was = ecl_telemetry::enabled();
    ecl_telemetry::set_enabled(true);
    for (src, entry, events) in [
        (PROTOCOL_STACK, "toplevel", stack_events()),
        (VOICE_PAGER, "pager", pager_events()),
    ] {
        let mono = design_of(src, entry);
        let specs = synthesize_all(&mono.ast).expect("observers synthesize");
        for designs in [vec![mono], parts_of(src, entry)] {
            let tasks = designs.len();
            ecl_telemetry::metrics::reset_all();
            let mut r = runner(designs);
            let mut mons: Vec<Monitor> =
                specs.iter().map(|s| Monitor::new(Arc::clone(s))).collect();
            r.run_events(&events, |i, p| {
                for m in &mut mons {
                    m.step_present(i, p);
                }
            })
            .expect("run succeeds");
            check_compiled_counts(&format!("{entry} ({tasks} tasks)"));
        }
    }
    ecl_telemetry::set_enabled(was);
}

/// No shipped configuration deoptimizes at the default fuel: on all 8
/// ({stack, pager} × {one task, 3-task partition} × {`MaxEsterel`,
/// `MinEsterel`}), a telemetry-counted compiled run charges fuel only
/// per block (`vm.op.charge`) and never runs an exact-stream burn
/// (`vm.op.burn`), which only a reaction that fell back to the exact
/// stream executes.
#[test]
fn shipped_configurations_never_deoptimize() {
    let _g = locked();
    let was = ecl_telemetry::enabled();
    ecl_telemetry::set_enabled(true);
    for (src, entry, events) in [
        (PROTOCOL_STACK, "toplevel", stack_events()),
        (VOICE_PAGER, "pager", pager_events()),
    ] {
        let parsed = Source::new(src).parse().expect("design parses");
        for strategy in [SplitStrategy::MaxEsterel, SplitStrategy::MinEsterel] {
            let split =
                |e: ecl_core::pipeline::Elaborated| e.split_with(strategy).unwrap().to_design();
            let mono = vec![split(parsed.elaborate(entry).unwrap())];
            let parts: Vec<Design> = (parsed.instantiations(entry).into_iter())
                .map(|i| split(parsed.elaborate_bound(&i.module, Some(&i.actuals)).unwrap()))
                .collect();
            for designs in [mono, parts] {
                let what = format!("{entry} ({} tasks, {strategy:?})", designs.len());
                ecl_telemetry::metrics::reset_all();
                let mut r = runner(designs);
                assert!(r.coverage().fully_fused(), "{what}");
                r.run_events(&events, |_, _| {}).expect("run succeeds");
                assert!(counter("vm.op.charge") > 0, "{what} charged no block");
                assert_eq!(counter("vm.op.burn"), 0, "{what} deoptimized");
            }
        }
    }
    ecl_telemetry::set_enabled(was);
}

/// `Backend::Walker` runs the full reaction for every task every
/// instant: a telemetry-counted walker run of the pager, monolithic and
/// as three tasks, takes no quiet tick (and no compiled step), while
/// the compiled run of the same workload takes quiet ticks, a subset
/// of its compiled steps.
#[test]
fn only_the_compiled_backend_takes_quiet_ticks() {
    let _g = locked();
    let was = ecl_telemetry::enabled();
    ecl_telemetry::set_enabled(true);
    let mono = design_of(VOICE_PAGER, "pager");
    for designs in [vec![mono], parts_of(VOICE_PAGER, "pager")] {
        let tasks = designs.len();
        for backend in [Backend::Walker, Backend::Compiled] {
            ecl_telemetry::metrics::reset_all();
            let mut r = runner(designs.clone());
            r.set_backend(backend);
            r.run_events(&pager_events(), |_, _| {})
                .expect("run succeeds");
            let (quiet, steps) = (counter("table.quiet_steps"), counter("table.steps"));
            let what = format!("pager ({tasks} tasks) on {backend:?}");
            match backend {
                Backend::Walker => assert_eq!((quiet, steps), (0, 0), "{what}"),
                Backend::Compiled => {
                    assert!(0 < quiet && quiet <= steps, "{what}: {quiet}/{steps}")
                }
            }
        }
    }
    ecl_telemetry::set_enabled(was);
}

/// The value of the registered counter `name`.
fn counter(name: &str) -> u64 {
    ecl_telemetry::metrics::counters()
        .into_iter()
        .find(|c| c.name() == name)
        .map_or(0, |c| c.get())
}

/// The registry after a compiled run of `what`: compiled reactions, data
/// hooks run as bytecode, observers stepped, and no walker anywhere.
fn check_compiled_counts(what: &str) {
    assert!(counter("table.steps") > 0, "`{what}` took no table steps");
    assert!(counter("vm.hook_runs") > 0, "`{what}` ran no inlined hook");
    assert_eq!(
        counter("vm.walker_hooks"),
        0,
        "`{what}` walked a data hook under Backend::Compiled"
    );
    assert!(counter("mon.steps") > 0, "`{what}` stepped no observer");
    assert_eq!(
        counter("mon.walker_steps"),
        0,
        "`{what}` walked an observer under Backend::Compiled"
    );
}
