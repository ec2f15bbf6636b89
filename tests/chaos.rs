//! Chaos differential suite: deterministic fault injection must be
//! *reproducible* (same seed ⇒ bit-identical traces, emissions and
//! monitor verdicts across `Backend::Walker` and `Backend::Compiled`),
//! *inert when off* (an all-zero plan changes nothing), and
//! *contained* (an injected panic poisons one session, never the
//! process; watchdog trips conclude `Inconclusive`, not `Err`).
//!
//! Every test arms its own runners, so the tests share nothing and
//! run in any order, on any number of threads.

use ecl_core::{Design, Source};
use ecl_faults::{FaultPlan, InjectionStats};
use ecl_fleet::{FleetConfig, RestartPolicy, SessionSpec, SessionStatus, Supervisor};
use ecl_observe::{Monitor, MonitorReport, Verdict};
use efsm::{Backend, BitSet};
use sim::designs::PROTOCOL_STACK;
use sim::runner::{AsyncRunner, InterpRunner, Runner, SimErrorKind, WatchdogBudget};
use sim::tb::{InstantEvents, PacketTb};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

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
    /// Task and RTOS cycles, dispatches and deliveries.
    kernel: (u64, u64, u64, u64),
    events_lost: u64,
    lost_by_task: Vec<(rtk::TaskId, u64)>,
    injected: InjectionStats,
}

/// Drive `events` through `r` with `specs` attached: the sorted
/// present names of every instant, and the final verdicts.
fn monitored<R: Runner>(
    r: &mut R,
    specs: &[Arc<ecl_observe::MonitorSpec>],
    events: &[InstantEvents],
) -> (Vec<Vec<String>>, Vec<(String, Verdict)>) {
    let mut monitors: Vec<Monitor> = specs
        .iter()
        .map(|s| {
            let mut m = Monitor::new(Arc::clone(s));
            m.bind(r.sig_table());
            m
        })
        .collect();
    let mut log = Vec::new();
    r.run_events(events, |i, p| {
        let mut names = p.to_names();
        names.sort_unstable();
        log.push(names);
        for m in &mut monitors {
            m.step_present(i, p);
        }
    })
    .expect("chaos plans here never make the run fail hard");
    (log, MonitorReport::conclude(monitors).verdicts)
}

/// One monitored async run on the chosen backend, trace recorded,
/// armed with `plan` when one is given.
fn run_async(
    designs: Vec<Design>,
    specs: &[Arc<ecl_observe::MonitorSpec>],
    events: &[InstantEvents],
    backend: Backend,
    plan: Option<FaultPlan>,
) -> RunOut {
    let mut r = AsyncRunner::new(
        designs,
        &Default::default(),
        Default::default(),
        Default::default(),
    )
    .expect("runner builds");
    r.set_backend(backend);
    r.set_faults(plan);
    r.enable_trace(0);
    let (_, verdicts) = monitored(&mut r, specs, events);
    let k = r.kernel();
    RunOut {
        kernel: (k.task_cycles, k.rtos_cycles, k.dispatches, k.deliveries),
        events_lost: k.events_lost,
        lost_by_task: k.events_lost_by_task(),
        injected: r.injection_stats(),
        vcd: r.take_trace().expect("trace recorded").to_vcd("chaos"),
        counts: r.counts(),
        verdicts,
    }
}

/// Fixed seed ⇒ byte-identical injected traces, emission counts, kernel
/// totals, loss accounting and monitor verdicts across walker ≡
/// compiled. The plan exercises every cross-backend site at once —
/// external and internal drop/delay, fuel squeezes and input
/// corruption — and every site's count matches too; the compiled
/// run's quiet ticks are billed as the walker's full reactions.
#[test]
fn same_seed_is_bit_identical_across_backends() {
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
    let walker = run_async(partitioned(), &sp, &ev, Backend::Walker, Some(plan));
    let compiled = run_async(partitioned(), &sp, &ev, Backend::Compiled, Some(plan));
    assert!(
        walker.injected.total() > 0,
        "the chaos plan injected nothing: {:?}",
        walker.injected
    );
    assert_eq!(
        walker, compiled,
        "walker and compiled diverged under faults"
    );
}

/// The kernel-free fault sites (external drop/delay, corruption, fuel)
/// replay identically on the constructive interpreter and the
/// RTOS-backed runner: same per-instant present sets, same emission
/// counts, same verdicts.
#[test]
fn interp_and_async_agree_under_injected_faults() {
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
    let mut interp = InterpRunner::new(&design).expect("interp builds");
    interp.set_faults(Some(plan));
    let mut rtos = AsyncRunner::new(
        vec![design.clone()],
        &Default::default(),
        Default::default(),
        Default::default(),
    )
    .expect("async builds");
    rtos.set_faults(Some(plan));
    let by_interp = monitored(&mut interp, &sp, &ev);
    let by_rtos = monitored(&mut rtos, &sp, &ev);
    let stats = interp.injection_stats();
    assert!(stats.total() > 0, "plan injected nothing: {stats:?}");
    assert_eq!(
        stats,
        rtos.injection_stats(),
        "injection decisions diverged between runners"
    );
    assert_eq!(by_interp, by_rtos, "present sets or verdicts diverged");
    assert_eq!(interp.counts(), rtos.counts(), "emission counts diverged");
}

/// An armed-but-all-zero plan injects nothing and perturbs nothing:
/// byte-identical to an unarmed run.
#[test]
fn switched_off_and_zero_rate_plans_are_inert() {
    let (sp, ev) = (specs(), events());
    let off = run_async(partitioned(), &sp, &ev, Backend::Compiled, None);
    let zero = run_async(
        partitioned(),
        &sp,
        &ev,
        Backend::Compiled,
        Some(FaultPlan::seeded(99)),
    );
    assert_eq!(off, zero, "an inert plan changed the run or injected");
    let off2 = run_async(partitioned(), &sp, &ev, Backend::Compiled, None);
    assert_eq!(off, off2, "faults-off runs are not reproducible");
    // Squeezing every instant to a cap no single instant reaches
    // changes nothing either, though the run burns several caps'
    // worth: the withheld fuel is handed back after each instant.
    let squeeze = FaultPlan {
        fuel_starve: 1.0,
        starved_fuel: 2_000,
        ..FaultPlan::seeded(99)
    };
    let squeezed = run_async(partitioned(), &sp, &ev, Backend::Compiled, Some(squeeze));
    assert!(squeezed.injected.starved_instants > 0);
    let injected = off.injected;
    assert_eq!(
        RunOut {
            injected,
            ..squeezed
        },
        off,
        "a non-binding squeeze changed the run"
    );
}

/// A squeeze that binds runs a reaction out of fuel mid-way, and both
/// backends fail the run at the same instant with the same error, after
/// the same emissions and trace. On `Backend::Compiled` the exhaustion
/// is reached by deoptimization: the fast stream charges a block's fuel
/// at its head and, when the cap cannot cover the block, finishes the
/// reaction on the exact stream, whose burns raise the error. (The
/// other fuel plans here never bind: their caps, 100,000 and 2,000,
/// exceed what any one reaction of the stack burns, so they never
/// deoptimize.)
#[test]
fn a_binding_fuel_squeeze_fails_alike_on_both_backends() {
    let plan = FaultPlan {
        fuel_starve: 0.5,
        starved_fuel: 400,
        ..FaultPlan::seeded(31)
    };
    let run = |backend| {
        let mut r = AsyncRunner::new(
            partitioned(),
            &Default::default(),
            Default::default(),
            Default::default(),
        )
        .expect("runner builds");
        r.set_backend(backend);
        r.set_faults(Some(plan));
        r.enable_trace(0);
        let mut instants = 0;
        let e = (r.run_events(&events(), |_, _| instants += 1)).expect_err("the squeeze binds");
        // The span of an exhaustion may sit a few nodes apart (the
        // coalesced burns), so the message is compared without it.
        let msg = e.to_string();
        let msg = msg.split(" (at ").next().unwrap_or_default().to_string();
        let vcd = r.take_trace().expect("trace recorded").to_vcd("squeeze");
        (msg, instants, r.counts(), r.injection_stats(), vcd)
    };
    let compiled = run(Backend::Compiled);
    assert!(compiled.0.contains("fuel exhausted"), "{}", compiled.0);
    assert_eq!(compiled, run(Backend::Walker));
}

/// A delayed stimulus arrives exactly when due: with every stimulus
/// held back one instant (`max_delay` 1), a relay answers one instant
/// later than on time.
#[test]
fn delayed_stimuli_arrive_when_due() {
    let relay =
        Source::new("module r(input pure i, output pure o) { while (1) { await (i); emit (o); } }")
            .parse()
            .and_then(|p| p.elaborate("r")?.split())
            .expect("relay compiles")
            .to_design();
    let ev: Vec<InstantEvents> = [0, 1, 0, 0, 1, 1, 0, 0]
        .map(|on| InstantEvents {
            pure: vec!["i".into(); on],
            valued: vec![],
        })
        .into();
    let answers = |plan| {
        let mut r = InterpRunner::new(&relay).expect("runner builds");
        r.set_faults(plan);
        let mut o = Vec::new();
        r.run_events(&ev, |_, p| o.push(p.contains("o")))
            .expect("relay run");
        o
    };
    let on_time = answers(None);
    let late = answers(Some(FaultPlan {
        delay_external: 1.0,
        ..FaultPlan::seeded(1)
    }));
    assert!(on_time.contains(&true));
    assert_eq!(late[1..], on_time[..on_time.len() - 1]);
}

/// Mailbox-pressure losses are kernel-semantic: they add up exactly
/// (total = Σ per-task) and are attributed to the rejecting task,
/// while injected internal drops never touch `events_lost` (they are
/// tracked by the injection stats instead).
#[test]
fn loss_accounting_stays_exact_under_pressure() {
    let (sp, ev) = (specs(), events());
    let cap_only = FaultPlan {
        mailbox_cap: Some(1),
        ..FaultPlan::seeded(7)
    };
    let plan = FaultPlan {
        drop_internal: 0.25,
        ..cap_only
    };
    let out = run_async(partitioned(), &sp, &ev, Backend::Compiled, Some(plan));
    let stats = out.injected;
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
    let cap_only = run_async(partitioned(), &sp, &ev, Backend::Compiled, Some(cap_only));
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
    let (design, sp, ev) = (mono(), specs(), events());
    let wd = Some(WatchdogBudget {
        max_nodes: Some(0),
        max_fuel: None,
        max_wall_ns: None,
    });
    let run =
        ecl_observe::check_interp_with(&design, &ev, &sp, 0, wd, None).expect("inconclusive is Ok");
    assert!(run.report.any_inconclusive(), "{}", run.report);
    assert!(!run.report.all_pass(), "inconclusive must not pass");
    let run = ecl_observe::check_async_with(vec![design.clone()], &ev, &sp, 0, wd, None)
        .expect("inconclusive is Ok");
    assert!(run.report.any_inconclusive(), "{}", run.report);
    // A generous budget changes nothing: the clean run still passes.
    let wd = Some(WatchdogBudget {
        max_nodes: Some(u64::MAX),
        max_fuel: Some(u64::MAX),
        max_wall_ns: None,
    });
    let run = ecl_observe::check_interp_with(&design, &ev, &sp, 0, wd, None).expect("clean run");
    assert!(run.report.all_pass(), "{}", run.report);
}

/// An injected panic is contained at the session boundary: with no
/// retries left the fleet supervisor fails the poisoned session, its
/// siblings in the same batch complete normally, and the process never
/// aborts. The plan arms every session; the keyed kill site picks the
/// one victim.
#[test]
fn injected_panic_poisons_one_session_not_the_batch() {
    let (sp, ev) = (specs(), Arc::new(events()));
    let plan = FaultPlan {
        kill_session: 0.5,
        kill_within: 4,
        ..FaultPlan::seeded(3)
    };
    let kills: Vec<Option<u64>> = (1..=3).map(|id| plan.kill_instant(id)).collect();
    assert_eq!(kills, [Some(3), None, None], "seed 3 kills session 1 alone");
    assert!(ev.len() > 4, "testbench long enough to reach the kill");
    let sup = Supervisor::new(
        partitioned(),
        &Default::default(),
        FleetConfig {
            restart: RestartPolicy {
                max_retries: 0,
                ..Default::default()
            },
            faults: Some(plan),
            ..Default::default()
        },
    )
    .expect("fleet compiles");
    let rep = sup.run(
        (1..=3)
            .map(|id| SessionSpec {
                id,
                events: Arc::clone(&ev),
                specs: sp.clone(),
                trace_capacity: None,
            })
            .collect(),
    );
    let victim = &rep.sessions[0];
    assert_eq!(victim.status, SessionStatus::Failed, "{victim:?}");
    assert_eq!(victim.injected.session_kills, 1, "{:?}", victim.injected);
    assert!(
        victim
            .error
            .as_deref()
            .is_some_and(|e| e.contains("session 1 killed at instant 3")),
        "victim error: {:?}",
        victim.error
    );
    for s in &rep.sessions[1..] {
        assert_eq!(
            s.status,
            SessionStatus::Finished,
            "sibling {}: {:?}",
            s.id,
            s.error
        );
        assert_eq!(s.injected.total(), 0, "sibling {}: {:?}", s.id, s.injected);
        let report = s.report.as_ref().expect("verdicts concluded");
        assert!(report.all_pass(), "sibling {}: {report}", s.id);
    }
}

/// A panic that unwinds through an instant leaves the runner poisoned:
/// the next instant is refused with a `Poisoned`-kind error instead of
/// continuing from torn state.
#[test]
fn poisoned_runner_refuses_further_instants() {
    let design = mono();
    let mut r = InterpRunner::new(&design).expect("runner builds");
    r.set_faults(Some(FaultPlan {
        panic_at: Some(0),
        ..FaultPlan::seeded(0)
    }));
    let (ev, mut out) = (BitSet::new(), BitSet::new());
    let panicked = catch_unwind(AssertUnwindSafe(|| r.instant_ids(&ev, &mut out)));
    assert!(panicked.is_err(), "the injected panic must fire");
    assert!(r.is_poisoned(), "unwinding must latch the poison flag");
    let e = r
        .instant_ids(&ev, &mut out)
        .expect_err("poisoned runner must refuse");
    assert_eq!(e.kind, SimErrorKind::Poisoned);
}
