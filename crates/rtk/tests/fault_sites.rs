//! The kernel's fault sites (mailbox cap, internal drop, internal
//! delay) under an installed plan.
//!
//! The plan is process-global, so these checks live in their own test
//! binary, where every test installs a plan and holds [`serial`] while
//! it does: no test ever posts an event under another test's plan, and
//! the unit tests in `src/lib.rs` never see one.

use ecl_faults::FaultPlan;
use efsm::BitSet;
use rtk::{Kernel, TaskId};
use std::sync::{Mutex, MutexGuard};

const X: u32 = 0;
const Y: u32 = 1;

fn set(sigs: &[u32]) -> BitSet {
    sigs.iter().map(|s| *s as usize).collect()
}

/// Run one plan-installing test at a time. A failed test poisons the
/// lock; the next one installs its own plan first, so it recovers.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn mailbox_cap_rejects_and_counts_losses() {
    let _g = serial();
    ecl_faults::install(FaultPlan {
        mailbox_cap: Some(1),
        ..FaultPlan::seeded(1)
    });
    let mut k = Kernel::default();
    let a = k.add_task("a", 1, set(&[X, Y]));
    k.post_external(X); // fills the single slot
    k.post_external(Y); // rejected by the cap
    assert_eq!(k.events_lost, 1);
    assert_eq!(k.events_lost_by_task(), vec![(a, 1)]);
    let mut ev = BitSet::new();
    k.dispatch_into(a, &mut ev);
    assert!(ev.contains(X as usize) && !ev.contains(Y as usize));
    let stats = ecl_faults::uninstall().unwrap();
    assert_eq!(stats.mailbox_rejections, 1);
    // Switch off: the cap is gone.
    k.post_external(X);
    k.post_external(Y);
    assert_eq!(k.events_lost, 1, "no cap without a plan");
}

#[test]
fn internal_drops_are_seed_deterministic() {
    let _g = serial();
    let plan = FaultPlan {
        drop_internal: 0.5,
        ..FaultPlan::seeded(99)
    };
    // Only `b` watches `Y`, so a task is ready after the post exactly
    // when the event reached `b`'s mailbox.
    let run = |k: &mut Kernel, a: TaskId| -> Vec<bool> {
        (0..64)
            .map(|_| {
                let before = k.any_ready();
                k.post_internal(a, Y);
                let after = k.any_ready();
                let mut ev = BitSet::new();
                let _ = k.schedule_into(&mut ev);
                !before && !after
            })
            .collect()
    };
    ecl_faults::install(plan.clone());
    let mut k1 = Kernel::default();
    let a1 = k1.add_task("a", 1, set(&[X]));
    let _ = k1.add_task("b", 2, set(&[Y]));
    let dropped1 = run(&mut k1, a1);
    ecl_faults::install(plan);
    let mut k2 = Kernel::default();
    let a2 = k2.add_task("a", 1, set(&[X]));
    let _ = k2.add_task("b", 2, set(&[Y]));
    let dropped2 = run(&mut k2, a2);
    ecl_faults::uninstall();
    assert_eq!(dropped1, dropped2, "drop stream diverged under one seed");
    assert!(dropped1.iter().any(|d| *d), "rate 0.5 never dropped");
    assert!(!dropped1.iter().all(|d| *d), "rate 0.5 dropped everything");
}

#[test]
fn delayed_internal_events_arrive_after_flush() {
    let _g = serial();
    ecl_faults::install(FaultPlan {
        delay_internal: 1.0,
        ..FaultPlan::seeded(3)
    });
    let mut k = Kernel::default();
    let a = k.add_task("a", 1, set(&[X]));
    let b = k.add_task("b", 2, set(&[Y]));
    k.post_internal(a, Y);
    assert!(!k.any_ready(), "event must be held in the deferred queue");
    k.flush_deferred();
    assert!(k.any_ready());
    let mut ev = BitSet::new();
    assert_eq!(k.schedule_into(&mut ev), Some(b));
    assert!(ev.contains(Y as usize));
    assert_eq!(k.events_lost, 0, "a deferred event is late, not lost");
    let stats = ecl_faults::uninstall().unwrap();
    assert_eq!(stats.delayed_internal, 1);
}
