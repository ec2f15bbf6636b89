//! Checkpoint/restore determinism: a session snapshotted at a random
//! instant boundary and restored — even into a *fresh* runner built
//! from the same [`sim::SharedProgram`] — must finish its event
//! stream bit-identical to an uninterrupted run: same VCD bytes, same
//! monitor verdicts, same emission counts, same loss accounting.
//!
//! The interrupted runner keeps executing *past* the snapshot before
//! the restore happens, so the test also proves a snapshot is a real
//! value (immutable; what it shares with the live runner is never
//! written in place) rather than a view of live state.
//!
//! Each case draws the trace ring's capacity (unbounded, or 1–64
//! instants against streams of about 200), so eviction and ring
//! compaction happen both before and after the cut.
//!
//! The property holds with a fault plan armed, too: every fault site
//! is a pure function of `(seed, site, coordinates)`, the coordinates
//! are state at an instant boundary, and the delayed-stimulus queue
//! rides in the snapshot, so a restored runner replays every
//! decision. Each test arms its own runners; nothing is shared.

use ecl_core::{Design, Source};
use ecl_faults::FaultPlan;
use ecl_observe::{Monitor, MonitorReport, Verdict};
use efsm::{Backend, BitSet};
use proptest::prelude::*;
use sim::runner::{AsyncRunner, Runner, SharedProgram, Snapshot, Stimuli};
use sim::tb::{InstantEvents, PacketTb};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

fn designs() -> Vec<Design> {
    Source::new(sim::designs::PROTOCOL_STACK)
        .parse()
        .and_then(|p| p.partition("toplevel"))
        .expect("protocol stack partitions")
}

fn shared() -> &'static SharedProgram {
    static SHARED: OnceLock<SharedProgram> = OnceLock::new();
    SHARED.get_or_init(|| SharedProgram::compile(designs(), &Default::default()).unwrap())
}

fn specs() -> &'static Vec<Arc<ecl_observe::MonitorSpec>> {
    static SPECS: OnceLock<Vec<Arc<ecl_observe::MonitorSpec>>> = OnceLock::new();
    SPECS.get_or_init(|| {
        ecl_observe::synthesize_all(&ecl_syntax::parse_str(sim::designs::PROTOCOL_STACK).unwrap())
            .unwrap()
    })
}

/// A short packet stream; `seed` varies the payloads so cases differ.
fn events(seed: u64) -> Vec<InstantEvents> {
    PacketTb {
        packets: 3,
        corrupt_every: 0,
        reset_every: 2,
        seed,
    }
    .events()
}

fn fresh(backend: Backend, faults: Option<FaultPlan>, ring: usize) -> (AsyncRunner, Vec<Monitor>) {
    let mut r = AsyncRunner::from_shared(shared(), Default::default(), Default::default());
    r.set_backend(backend);
    r.set_faults(faults);
    r.enable_trace(ring);
    let monitors = specs()
        .iter()
        .map(|s| {
            let mut m = Monitor::new(Arc::clone(s));
            m.bind(r.sig_table());
            m
        })
        .collect();
    (r, monitors)
}

/// Drive `events` on the id fast path, stepping monitors in lockstep
/// (the loop `Runner::run_events` runs, through the same `Stimuli`).
fn drive(runner: &mut AsyncRunner, monitors: &mut [Monitor], events: &[InstantEvents]) {
    let mut stimuli = Stimuli::new(runner.sig_table());
    let mut present = BitSet::new();
    for ev in events {
        let ev_bits = stimuli.post(runner, ev).unwrap();
        let instant = runner.now();
        runner.instant_ids(ev_bits, &mut present).unwrap();
        present.union_with(ev_bits);
        for m in monitors.iter_mut() {
            m.step_ids(instant, &present, runner.sig_table());
        }
    }
}

/// Everything a restored run must reproduce bit-for-bit.
#[derive(Debug, PartialEq)]
struct RunOut {
    vcd: String,
    dropped: u64,
    counts: HashMap<String, u64>,
    verdicts: Vec<(String, Verdict)>,
    events_lost: u64,
    instants: u64,
}

fn finish(mut runner: AsyncRunner, monitors: Vec<Monitor>) -> RunOut {
    let trace = runner.take_trace().expect("trace recorded");
    RunOut {
        vcd: trace.to_vcd("ckpt"),
        dropped: trace.dropped,
        counts: runner.counts(),
        verdicts: MonitorReport::conclude(monitors).verdicts,
        events_lost: runner.kernel().events_lost,
        instants: runner.now(),
    }
}

/// The property: snapshot at `cut`, keep running `overrun` instants
/// on the original runner, then restore the snapshot into a fresh
/// runner and finish the stream there — outputs equal the
/// uninterrupted run's. Every runner is armed with `faults` and
/// records into a `ring`-instant trace (0: unbounded).
fn check_restore(
    seed: u64,
    cut_frac: usize,
    overrun: usize,
    backend: Backend,
    faults: Option<FaultPlan>,
    ring: usize,
) -> Result<(), TestCaseError> {
    let ev = events(seed);
    let cut = cut_frac % ev.len();

    // Uninterrupted reference.
    let (mut base, mut base_mon) = fresh(backend, faults, ring);
    drive(&mut base, &mut base_mon, &ev);
    if faults.is_some() {
        prop_assert!(
            base.injection_stats().total() > 0,
            "the plan injected nothing"
        );
    }
    let want = finish(base, base_mon);

    // Interrupted: run to `cut`, checkpoint, dirty the original
    // runner past the cut, restore elsewhere, finish there.
    let (mut orig, mut orig_mon) = fresh(backend, faults, ring);
    drive(&mut orig, &mut orig_mon, &ev[..cut]);
    let snap = orig.snapshot().expect("boundary snapshot");
    let mon_snap: Vec<Monitor> = orig_mon.clone();
    let over_end = (cut + overrun).min(ev.len());
    drive(&mut orig, &mut orig_mon, &ev[cut..over_end]);
    prop_assert_eq!(snap.instant(), cut as u64);

    let (mut resumed, _) = fresh(backend, faults, ring);
    resumed
        .restore(&snap)
        .expect("restore into a sibling runner");
    let mut resumed_mon = mon_snap;
    drive(&mut resumed, &mut resumed_mon, &ev[cut..]);
    let got = finish(resumed, resumed_mon);

    prop_assert_eq!(
        &got,
        &want,
        "restored run diverged (backend {:?}, ring {})",
        backend,
        ring
    );
    Ok(())
}

proptest! {
    /// Compiled backend: restore-after-checkpoint is invisible.
    #[test]
    fn restore_matches_uninterrupted_compiled(
        seed in 0u64..1000,
        cut in 0usize..4096,
        overrun in 0usize..40,
        ring in 0usize..65,
    ) {
        check_restore(seed, cut, overrun, Backend::Compiled, None, ring)?;
    }

    /// Walker backend: same property, reference execution path.
    #[test]
    fn restore_matches_uninterrupted_walker(
        seed in 0u64..1000,
        cut in 0usize..4096,
        overrun in 0usize..40,
        ring in 0usize..65,
    ) {
        check_restore(seed, cut, overrun, Backend::Walker, None, ring)?;
    }

    /// Both backends, with a plan that fires every runner and kernel
    /// site (external drop/delay, input corruption, fuel squeezes,
    /// internal drop/delay, mailbox pressure): a restored run replays
    /// every injection decision.
    #[test]
    fn restore_matches_uninterrupted_under_faults(
        seed in 0u64..1000,
        cut in 0usize..4096,
        overrun in 0usize..40,
        ring in 0usize..65,
    ) {
        let plan = FaultPlan {
            drop_external: 0.05,
            delay_external: 0.10,
            max_delay: 3,
            drop_internal: 0.10,
            delay_internal: 0.10,
            mailbox_cap: Some(2),
            corrupt_input: 0.10,
            fuel_starve: 0.10,
            starved_fuel: 100_000,
            ..FaultPlan::seeded(seed)
        };
        for backend in [Backend::Compiled, Backend::Walker] {
            check_restore(seed, cut, overrun, backend, Some(plan), ring)?;
        }
    }
}

/// A snapshot taken mid-instant must be refused, and restoring a
/// poisoned runner heals it (the fleet's recovery path).
#[test]
fn snapshot_refused_mid_instant_and_restore_heals_poison() {
    let ev = events(1999);
    // Poison the runner with an injected panic mid-instant.
    let (mut r, mut mon) = fresh(
        Backend::Compiled,
        Some(FaultPlan {
            panic_at: Some(12),
            ..FaultPlan::seeded(5)
        }),
        0,
    );
    drive(&mut r, &mut mon, &ev[..10]);
    let snap = r.snapshot().expect("boundary snapshot");

    let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        drive(&mut r, &mut mon, &ev[10..20]);
    }));
    assert!(poisoned.is_err(), "panic site must fire");
    assert!(
        r.snapshot().is_err(),
        "snapshot of a torn runner must be refused"
    );

    // Restore heals: the runner finishes the stream as if never hurt.
    r.restore(&snap).expect("restore clears the poison latch");
    let mut mon2: Vec<Monitor> = specs()
        .iter()
        .map(|s| {
            let mut m = Monitor::new(Arc::clone(s));
            m.bind(r.sig_table());
            m
        })
        .collect();
    // Monitors restart from scratch against the full replay of the
    // reference run's stream suffix.
    drive(&mut r, &mut mon2, &ev[10..]);
    assert_eq!(r.now(), ev.len() as u64);
    assert!(r.snapshot().is_ok(), "healed runner snapshots again");
    // The replay crossed instant 12 again without re-firing the spent
    // one-shot site: the restore kept the runner's own armed plan.
    assert_eq!(r.injection_stats().panics, 1);
}
