//! The kernel's fault sites (mailbox cap, internal drop, internal
//! delay) under an armed plan. Each test arms its own kernel, so
//! nothing is shared between tests.

use ecl_faults::FaultPlan;
use efsm::BitSet;
use rtk::Kernel;

const X: u32 = 0;
const Y: u32 = 1;

fn set(sigs: &[u32]) -> BitSet {
    sigs.iter().map(|s| *s as usize).collect()
}

#[test]
fn mailbox_cap_rejects_and_counts_losses() {
    let mut k = Kernel::default();
    k.set_faults(Some(FaultPlan {
        mailbox_cap: Some(1),
        ..FaultPlan::seeded(1)
    }));
    let a = k.add_task("a", 1, set(&[X, Y]));
    k.post_external(X); // fills the single slot
    k.post_external(Y); // rejected by the cap
    assert_eq!(k.events_lost, 1);
    assert_eq!(k.events_lost_by_task(), vec![(a, 1)]);
    let mut ev = BitSet::new();
    k.dispatch_into(a, &mut ev);
    assert!(ev.contains(X as usize) && !ev.contains(Y as usize));
    assert_eq!(k.injection_stats().mailbox_rejections, 1);
    // Disarmed: the cap is gone.
    k.set_faults(None);
    k.post_external(X);
    k.post_external(Y);
    assert_eq!(k.events_lost, 1, "no cap without a plan");
}

#[test]
fn internal_drops_are_seed_deterministic() {
    let plan = FaultPlan {
        drop_internal: 0.5,
        ..FaultPlan::seeded(99)
    };
    // Only `b` watches `Y`, so a task is ready after the post exactly
    // when the event reached `b`'s mailbox. One post per instant.
    let run = || -> Vec<bool> {
        let mut k = Kernel::default();
        k.set_faults(Some(plan));
        let a = k.add_task("a", 1, set(&[X]));
        let _ = k.add_task("b", 2, set(&[Y]));
        (0..64)
            .map(|i| {
                k.begin_instant(i);
                k.post_internal(a, Y);
                let dropped = !k.any_ready();
                let mut ev = BitSet::new();
                let _ = k.schedule_into(&mut ev);
                dropped
            })
            .collect()
    };
    let dropped = run();
    assert_eq!(dropped, run(), "drop decisions diverged under one seed");
    assert!(dropped.iter().any(|d| *d), "rate 0.5 never dropped");
    assert!(!dropped.iter().all(|d| *d), "rate 0.5 dropped everything");
}

#[test]
fn delayed_internal_events_arrive_after_flush() {
    let mut k = Kernel::default();
    k.set_faults(Some(FaultPlan {
        delay_internal: 1.0,
        ..FaultPlan::seeded(3)
    }));
    let a = k.add_task("a", 1, set(&[X]));
    let b = k.add_task("b", 2, set(&[Y]));
    k.post_internal(a, Y);
    assert!(!k.any_ready(), "event must be held in the deferred queue");
    k.begin_instant(1);
    assert!(k.any_ready());
    let mut ev = BitSet::new();
    assert_eq!(k.schedule_into(&mut ev), Some(b));
    assert!(ev.contains(Y as usize));
    assert_eq!(k.events_lost, 0, "a deferred event is late, not lost");
    assert_eq!(k.injection_stats().delayed_internal, 1);
}

/// `Kernel::restore` copies mailboxes, the deferred queue and the
/// counters from the snapshot but keeps the armed plan and its
/// counts; after `begin_instant` the same `(instant, ordinal)` posts
/// get the same decisions again.
#[test]
fn restore_keeps_the_armed_plan_and_its_counts() {
    let mut k = Kernel::default();
    k.set_faults(Some(FaultPlan {
        drop_internal: 0.3,
        delay_internal: 0.3,
        ..FaultPlan::seeded(17)
    }));
    let a = k.add_task("a", 1, set(&[X]));
    let b = k.add_task("b", 2, set(&[Y]));
    // 32 posts in one instant: which of them reached `b` at once?
    let burst = |k: &mut Kernel, instant: u64| -> Vec<bool> {
        k.begin_instant(instant);
        let mut ev = BitSet::new();
        (0..32)
            .map(|_| {
                k.post_internal(a, Y);
                k.dispatch_into(b, &mut ev);
                ev.contains(Y as usize)
            })
            .collect()
    };
    let _ = burst(&mut k, 0);
    assert!(
        k.injection_stats().delayed_internal > 0,
        "the cut holds deferred posts"
    );
    k.post_external(X); // pending in `a`'s mailbox at the cut
    let snap = k.clone();
    let first = (burst(&mut k, 1), k.deliveries);
    let stats = k.injection_stats();
    // Dirty what the snapshot holds: drain `a`, flush the deferred
    // queue.
    let mut ev = BitSet::new();
    k.dispatch_into(a, &mut ev);
    k.begin_instant(2);

    k.restore(&snap);
    assert_eq!(
        k.injection_stats(),
        stats,
        "restore dropped the armed counts"
    );
    // Replaying instant 1 delivers the restored deferred queue and
    // decides every post as before, on top of the restored counters.
    assert_eq!((burst(&mut k, 1), k.deliveries), first);
    k.dispatch_into(a, &mut ev);
    assert!(ev.contains(X as usize), "the mailboxes were not restored");
}
