//! Chaos differential suite: deterministic fault injection must be
//! *reproducible* (same seed ⇒ bit-identical traces, emissions and
//! monitor verdicts across `Backend::Walker` and `Backend::Compiled`),
//! *inert when off* (an all-zero plan changes nothing), and
//! *contained* (an injected panic poisons one session, never the
//! process; watchdog trips conclude `Inconclusive`, not `Err`).
//!
//! The fault plan is process-global, so every test takes the same
//! lock — libtest's concurrent threads must not overlap two plans.

use ecl_core::{Design, Source};
use ecl_faults::FaultPlan;
use ecl_observe::{run_sessions, Monitor, MonitorReport, SessionOutcome, Verdict};
use efsm::{Backend, BitSet};
use sim::designs::PROTOCOL_STACK;
use sim::runner::{AsyncRunner, InterpRunner, Runner, SimErrorKind, WatchdogBudget};
use sim::tb::{InstantEvents, PacketTb};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};

static LOCK: Mutex<()> = Mutex::new(());

fn locked() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn mono() -> Design {
    Source::new(PROTOCOL_STACK)
        .parse()
        .and_then(|p| p.elaborate("toplevel")?.split())
        .expect("protocol stack compiles")
        .to_design()
}

fn partitioned() -> Vec<Design> {
    Source::new(PROTOCOL_STACK)
        .parse()
        .and_then(|p| p.partition("toplevel"))
        .expect("protocol stack partitions")
}

fn specs() -> Vec<Arc<ecl_observe::MonitorSpec>> {
    ecl_observe::synthesize_all(&ecl_syntax::parse_str(PROTOCOL_STACK).unwrap()).unwrap()
}

fn events() -> Vec<InstantEvents> {
    PacketTb {
        packets: 5,
        corrupt_every: 0,
        reset_every: 0,
        seed: 7,
    }
    .events()
}

/// Everything a chaos run must reproduce bit-for-bit.
#[derive(Debug, PartialEq)]
struct RunOut {
    vcd: String,
    counts: HashMap<String, u64>,
    verdicts: Vec<(String, Verdict)>,
    events_lost: u64,
    lost_by_task: Vec<(rtk::TaskId, u64)>,
}

/// One monitored async run on the chosen backend, trace recorded.
/// Installs nothing — callers install the plan (or not) first.
fn run_async(
    designs: Vec<Design>,
    specs: &[Arc<ecl_observe::MonitorSpec>],
    events: &[InstantEvents],
    backend: Backend,
) -> RunOut {
    let mut r = AsyncRunner::new(
        designs,
        &Default::default(),
        Default::default(),
        Default::default(),
    )
    .expect("runner builds");
    r.set_backend(backend);
    r.enable_trace(0);
    let mut monitors: Vec<Monitor> = specs
        .iter()
        .map(|s| {
            let mut m = Monitor::new(Arc::clone(s));
            m.bind(r.sig_table());
            m
        })
        .collect();
    r.run_events(events, |i, p| {
        for m in &mut monitors {
            m.step_present(i, p);
        }
    })
    .expect("chaos plans here never make the run fail hard");
    RunOut {
        vcd: r.take_trace().expect("trace recorded").to_vcd("chaos"),
        counts: r.counts(),
        verdicts: MonitorReport::conclude(monitors).verdicts,
        events_lost: r.kernel().events_lost,
        lost_by_task: r.kernel().events_lost_by_task(),
    }
}

/// Fixed seed ⇒ byte-identical injected traces, emission counts, loss
/// accounting and monitor verdicts across walker ≡ compiled. The
/// plan exercises every cross-backend site class at once: keyed
/// external drop/delay and fuel squeezes, stream internal drop/delay
/// and input corruption.
#[test]
fn same_seed_is_bit_identical_across_backends() {
    let _g = locked();
    let plan = FaultPlan {
        drop_external: 0.15,
        delay_external: 0.10,
        max_delay: 3,
        drop_internal: 0.10,
        delay_internal: 0.10,
        corrupt_input: 0.20,
        fuel_starve: 0.10,
        starved_fuel: 100_000,
        ..FaultPlan::seeded(2027)
    };
    let (sp, ev) = (specs(), events());
    let mut outs = Vec::new();
    let mut stats = Vec::new();
    for backend in [Backend::Walker, Backend::Compiled] {
        ecl_faults::install(plan.clone());
        outs.push(run_async(partitioned(), &sp, &ev, backend));
        stats.push(ecl_faults::uninstall().expect("plan installed"));
    }
    assert!(
        stats[0].total() > 0,
        "the chaos plan injected nothing: {:?}",
        stats[0]
    );
    assert_eq!(
        outs[0], outs[1],
        "walker and compiled diverged under faults"
    );
    // The injection *decisions* replay identically too: every site's
    // count matches across backends.
    assert_eq!(stats[0], stats[1]);
}

/// The kernel-free fault sites (external drop/delay, corruption, fuel)
/// replay identically on the constructive interpreter and the
/// RTOS-backed runner: same per-instant present sets, same emission
/// counts, same verdicts.
#[test]
fn interp_and_async_agree_under_injected_faults() {
    let _g = locked();
    let plan = FaultPlan {
        drop_external: 0.20,
        delay_external: 0.10,
        max_delay: 2,
        corrupt_input: 0.25,
        fuel_starve: 0.10,
        starved_fuel: 100_000,
        ..FaultPlan::seeded(4242)
    };
    let (design, sp, ev) = (mono(), specs(), events());
    let mut presents: Vec<Vec<Vec<String>>> = Vec::new();
    let mut verdicts = Vec::new();
    let mut counts = Vec::new();
    // Interp run.
    ecl_faults::install(plan.clone());
    {
        let mut r = InterpRunner::new(&design).expect("interp builds");
        let mut monitors: Vec<Monitor> = sp
            .iter()
            .map(|s| {
                let mut m = Monitor::new(Arc::clone(s));
                m.bind(r.sig_table());
                m
            })
            .collect();
        let mut log = Vec::new();
        r.run_events(&ev, |i, p| {
            let mut names = p.to_names();
            names.sort_unstable();
            log.push(names);
            for m in &mut monitors {
                m.step_present(i, p);
            }
        })
        .expect("interp run");
        presents.push(log);
        verdicts.push(MonitorReport::conclude(monitors).verdicts);
        counts.push(r.counts());
    }
    let s1 = ecl_faults::uninstall().unwrap();
    // Async run on the same (monolithic) design.
    ecl_faults::install(plan);
    {
        let mut r = AsyncRunner::new(
            vec![design.clone()],
            &Default::default(),
            Default::default(),
            Default::default(),
        )
        .expect("async builds");
        let mut monitors: Vec<Monitor> = sp
            .iter()
            .map(|s| {
                let mut m = Monitor::new(Arc::clone(s));
                m.bind(r.sig_table());
                m
            })
            .collect();
        let mut log = Vec::new();
        r.run_events(&ev, |i, p| {
            let mut names = p.to_names();
            names.sort_unstable();
            log.push(names);
            for m in &mut monitors {
                m.step_present(i, p);
            }
        })
        .expect("async run");
        presents.push(log);
        verdicts.push(MonitorReport::conclude(monitors).verdicts);
        counts.push(r.counts());
    }
    let s2 = ecl_faults::uninstall().unwrap();
    assert!(s1.total() > 0, "plan injected nothing: {s1:?}");
    assert_eq!(s1, s2, "injection decisions diverged between runners");
    assert_eq!(presents[0], presents[1], "present sets diverged");
    assert_eq!(counts[0], counts[1], "emission counts diverged");
    assert_eq!(verdicts[0], verdicts[1], "verdicts diverged");
}

/// An installed-but-all-zero plan injects nothing and perturbs
/// nothing: byte-identical to a run with the switch off entirely.
#[test]
fn switched_off_and_zero_rate_plans_are_inert() {
    let _g = locked();
    let (sp, ev) = (specs(), events());
    assert!(!ecl_faults::enabled(), "no plan should be active");
    let off = run_async(partitioned(), &sp, &ev, Backend::Compiled);
    ecl_faults::install(FaultPlan::seeded(99));
    let zero = run_async(partitioned(), &sp, &ev, Backend::Compiled);
    let stats = ecl_faults::uninstall().unwrap();
    assert_eq!(stats.total(), 0, "a zero-rate plan injected: {stats:?}");
    assert_eq!(off, zero, "an inert plan changed the run");
    let off2 = run_async(partitioned(), &sp, &ev, Backend::Compiled);
    assert_eq!(off, off2, "faults-off runs are not reproducible");
}

/// Mailbox-pressure losses are kernel-semantic: they add up exactly
/// (total = Σ per-task) and are attributed to the rejecting task,
/// while injected internal drops never touch `events_lost` (they are
/// tracked by the injection stats instead).
#[test]
fn loss_accounting_stays_exact_under_pressure() {
    let _g = locked();
    let (sp, ev) = (specs(), events());
    ecl_faults::install(FaultPlan {
        mailbox_cap: Some(1),
        drop_internal: 0.25,
        ..FaultPlan::seeded(7)
    });
    let out = run_async(partitioned(), &sp, &ev, Backend::Compiled);
    let stats = ecl_faults::uninstall().unwrap();
    let per_task: u64 = out.lost_by_task.iter().map(|(_, n)| n).sum();
    assert_eq!(
        out.events_lost, per_task,
        "kernel total and per-task attribution disagree"
    );
    // Injected drops are accounted as injections, not mailbox losses:
    // a second identical run with the cap but without internal drops
    // loses at least as many events to the mailbox (drops only remove
    // deliveries that could have overflowed it).
    assert!(
        stats.dropped_internal > 0,
        "drop site never fired: {stats:?}"
    );
    ecl_faults::install(FaultPlan {
        mailbox_cap: Some(1),
        ..FaultPlan::seeded(7)
    });
    let cap_only = run_async(partitioned(), &sp, &ev, Backend::Compiled);
    ecl_faults::uninstall();
    assert!(
        cap_only.events_lost >= out.events_lost,
        "dropping deliveries cannot increase mailbox losses \
         (cap-only {} < cap+drops {})",
        cap_only.events_lost,
        out.events_lost
    );
}

/// A watchdog budget trip ends the run as `Inconclusive` — an
/// `Ok(MonitoredRun)` whose still-running monitors did *not* pass —
/// on both runners.
#[test]
fn watchdog_trips_conclude_inconclusive() {
    let _g = locked();
    let (design, sp, ev) = (mono(), specs(), events());
    let wd = Some(WatchdogBudget {
        max_nodes: Some(0),
        max_fuel: None,
        max_wall_ns: None,
    });
    let run = ecl_observe::check_interp_with(&design, &ev, &sp, 0, wd).expect("inconclusive is Ok");
    assert!(run.report.any_inconclusive(), "{}", run.report);
    assert!(!run.report.all_pass(), "inconclusive must not pass");
    let run = ecl_observe::check_async_with(vec![design.clone()], &ev, &sp, 0, wd)
        .expect("inconclusive is Ok");
    assert!(run.report.any_inconclusive(), "{}", run.report);
    // A generous budget changes nothing: the clean run still passes.
    let wd = Some(WatchdogBudget {
        max_nodes: Some(u64::MAX),
        max_fuel: Some(u64::MAX),
        max_wall_ns: None,
    });
    let run = ecl_observe::check_interp_with(&design, &ev, &sp, 0, wd).expect("clean run");
    assert!(run.report.all_pass(), "{}", run.report);
}

/// An injected panic is contained at the session boundary: the
/// poisoned session reports `Poisoned`, its siblings in the same
/// batch complete normally, and the process never aborts.
#[test]
fn injected_panic_poisons_one_session_not_the_batch() {
    let _g = locked();
    let (design, sp, ev) = (mono(), specs(), events());
    assert!(ev.len() > 4, "testbench long enough to reach the panic");
    ecl_faults::install(FaultPlan {
        panic_at: Some(3),
        ..FaultPlan::seeded(3)
    });
    let mk = |d: Design, sp: Vec<Arc<ecl_observe::MonitorSpec>>, ev: Vec<InstantEvents>| {
        move || ecl_observe::check_interp_with(&d, &ev, &sp, 0, None)
    };
    let outcomes = run_sessions(vec![
        (
            "victim".to_string(),
            mk(design.clone(), sp.clone(), ev.clone()),
        ),
        (
            "sibling-1".to_string(),
            mk(design.clone(), sp.clone(), ev.clone()),
        ),
        (
            "sibling-2".to_string(),
            mk(design.clone(), sp.clone(), ev.clone()),
        ),
    ]);
    let stats = ecl_faults::uninstall().unwrap();
    assert_eq!(stats.panics, 1, "the panic site fires exactly once");
    assert!(
        matches!(&outcomes[0], SessionOutcome::Poisoned { msg } if msg.contains("injected panic")),
        "victim outcome: {:?}",
        outcomes[0]
    );
    for (i, o) in outcomes.iter().enumerate().skip(1) {
        let run = o.run().unwrap_or_else(|| panic!("sibling {i} died: {o:?}"));
        assert!(run.report.all_pass(), "sibling {i}: {}", run.report);
    }
}

/// A panic that unwinds through an instant leaves the runner poisoned:
/// the next instant is refused with a `Poisoned`-kind error instead of
/// continuing from torn state.
#[test]
fn poisoned_runner_refuses_further_instants() {
    let _g = locked();
    let design = mono();
    ecl_faults::install(FaultPlan {
        panic_at: Some(0),
        ..FaultPlan::seeded(0)
    });
    let mut r = InterpRunner::new(&design).expect("runner builds");
    let (ev, mut out) = (BitSet::new(), BitSet::new());
    let panicked = catch_unwind(AssertUnwindSafe(|| r.instant_ids(&ev, &mut out)));
    ecl_faults::uninstall();
    assert!(panicked.is_err(), "the injected panic must fire");
    assert!(r.is_poisoned(), "unwinding must latch the poison flag");
    let e = r
        .instant_ids(&ev, &mut out)
        .expect_err("poisoned runner must refuse");
    assert_eq!(e.kind, SimErrorKind::Poisoned);
}
