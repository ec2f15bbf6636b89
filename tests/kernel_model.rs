//! Property test: the kernel's loss accounting, scheduling and ready
//! set against a reference model.
//!
//! The model re-implements the 1-place-mailbox delivery rules and the
//! static-priority scheduler in the most naive way possible (sets of
//! pending signals, one counter per task, a scan of every mailbox) and
//! is driven with the same random sequence of posts, dispatches,
//! scheduler picks and checkpoints as the real [`rtk::Kernel`]. After
//! every op the kernel must agree with the model on which task the
//! scheduler would pick (and the events it would hand over), on
//! `any_ready`, and on whether a dispatch found events. `events_lost`
//! must match *exactly* — totals and per-task attribution — both with
//! the overwrite rule alone and under an injected mailbox-pressure
//! cap, where every rejection must also appear in the kernel's
//! injection stats. A 70-task topology shows the ready set has no
//! word-size cap.

use ecl_faults::FaultPlan;
use efsm::BitSet;
use proptest::prelude::*;
use rtk::{Kernel, KernelParams, TaskId};
use std::collections::BTreeSet;

const NSIGS: u32 = 6;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Debug, Clone, Copy)]
enum Op {
    External(u32),
    Internal(usize, u32),
    Dispatch(usize),
    /// Run the scheduler once.
    Schedule,
    /// Clone the kernel (and the model), run on for this many ops, then
    /// restore both from the clone.
    Checkpoint(usize),
}

/// A task topology: per task, its priority and the signals it watches.
struct Topology {
    priorities: Vec<u8>,
    watches: Vec<Vec<u32>>,
}

/// Derive a topology of `ntasks` tasks and an op sequence from one
/// seed. Priorities are drawn from a small range, so ties are common.
fn scenario(seed: u64, ntasks: usize, len: usize) -> (Topology, Vec<Op>) {
    let mut s = seed;
    let priorities = (0..ntasks).map(|_| (splitmix(&mut s) % 4) as u8).collect();
    let watches: Vec<Vec<u32>> = (0..ntasks)
        .map(|_| {
            let mask = splitmix(&mut s);
            (0..NSIGS).filter(|b| mask >> b & 1 == 1).collect()
        })
        .collect();
    let sig = |s: &mut u64| (splitmix(s) % u64::from(NSIGS)) as u32;
    let ops = (0..len)
        .map(|_| match splitmix(&mut s) % 8 {
            0..=2 => Op::External(sig(&mut s)),
            3 => Op::Internal(splitmix(&mut s) as usize % ntasks, sig(&mut s)),
            4 | 5 => Op::Dispatch(splitmix(&mut s) as usize % ntasks),
            6 => Op::Schedule,
            _ => Op::Checkpoint(1 + splitmix(&mut s) as usize % 8),
        })
        .collect();
    (
        Topology {
            priorities,
            watches,
        },
        ops,
    )
}

/// The naive reference: pending = set of signals, loss on overwrite
/// (already pending) or on a full capped mailbox; the scheduler scans
/// every mailbox.
#[derive(Clone)]
struct Model {
    priorities: Vec<u8>,
    watches: Vec<Vec<u32>>,
    pending: Vec<BTreeSet<u32>>,
    lost: Vec<u64>,
    total_lost: u64,
    cap: Option<usize>,
}

impl Model {
    fn new(topology: &Topology, cap: Option<usize>) -> Model {
        let n = topology.watches.len();
        Model {
            priorities: topology.priorities.clone(),
            watches: topology.watches.clone(),
            pending: vec![BTreeSet::new(); n],
            lost: vec![0; n],
            total_lost: 0,
            cap,
        }
    }

    /// Post `sig`; returns the cap rejections it caused.
    fn post(&mut self, from: Option<usize>, sig: u32) -> u64 {
        let mut rejections = 0;
        for t in 0..self.watches.len() {
            if Some(t) == from || !self.watches[t].contains(&sig) {
                continue;
            }
            if self.pending[t].contains(&sig) {
                self.lost[t] += 1;
                self.total_lost += 1;
                continue;
            }
            if self.cap.is_some_and(|c| self.pending[t].len() >= c) {
                self.lost[t] += 1;
                self.total_lost += 1;
                rejections += 1;
                continue;
            }
            self.pending[t].insert(sig);
        }
        rejections
    }

    /// The task the scheduler picks: the highest priority among
    /// non-empty mailboxes, the lowest index on a tie.
    fn pick(&self) -> Option<usize> {
        (0..self.pending.len())
            .filter(|&t| !self.pending[t].is_empty())
            .max_by_key(|&t| (self.priorities[t], usize::MAX - t))
    }

    fn any_ready(&self) -> bool {
        self.pending.iter().any(|p| !p.is_empty())
    }

    /// Task `t`'s pending events, in increasing order.
    fn events(&self, t: usize) -> Vec<usize> {
        self.pending[t].iter().map(|&s| s as usize).collect()
    }

    /// Drain task `t`, returning its pending events.
    fn drain(&mut self, t: usize) -> Vec<usize> {
        let events = self.events(t);
        self.pending[t].clear();
        events
    }
}

/// Drive the kernel — armed with a mailbox cap when `cap` is set —
/// and the model through one scenario, checking scheduling and the
/// ready set after every op. Returns both, and the model's count of
/// cap rejections (a restore keeps the kernel's injection counts, so
/// the model's count is not rolled back either).
fn run_both(
    seed: u64,
    ntasks: usize,
    len: usize,
    cap: Option<usize>,
) -> Result<(Kernel, Model, u64), TestCaseError> {
    let (topology, ops) = scenario(seed, ntasks, len);
    let mut k = Kernel::new(KernelParams::default());
    k.set_faults(cap.map(|c| FaultPlan {
        mailbox_cap: Some(c),
        ..FaultPlan::seeded(seed)
    }));
    for (i, w) in topology.watches.iter().enumerate() {
        k.add_task(
            format!("t{i}"),
            topology.priorities[i],
            w.iter().map(|s| *s as usize).collect(),
        );
    }
    let mut model = Model::new(&topology, cap);
    let mut rejections = 0;
    // The open checkpoint: the clones, and the ops left before restore.
    let mut open: Option<(Kernel, Model, usize)> = None;
    let mut scratch = BitSet::new();
    for (i, op) in ops.into_iter().enumerate() {
        match op {
            Op::External(sig) => {
                k.post_external(sig);
                rejections += model.post(None, sig);
            }
            Op::Internal(from, sig) => {
                k.post_internal(TaskId(from), sig);
                // The kernel skips the whole post when nobody watches.
                if model.watches.iter().any(|w| w.contains(&sig)) {
                    rejections += model.post(Some(from), sig);
                }
            }
            Op::Dispatch(t) => {
                let had = k.dispatch_into(TaskId(t), &mut scratch);
                prop_assert_eq!(had, !model.pending[t].is_empty(), "op {}: dispatch", i);
                prop_assert_eq!(
                    members(&scratch),
                    model.drain(t),
                    "op {}: dispatched events",
                    i
                );
            }
            Op::Schedule => {
                let picked = k.schedule_into(&mut scratch).map(|id| id.0);
                prop_assert_eq!(picked, model.pick(), "op {}: schedule", i);
                if let Some(t) = picked {
                    prop_assert_eq!(
                        members(&scratch),
                        model.drain(t),
                        "op {}: scheduled events",
                        i
                    );
                }
            }
            Op::Checkpoint(span) => open = Some((k.clone(), model.clone(), span)),
        }
        if let Some((_, _, left)) = &mut open {
            if *left == 0 {
                let (snap, saved, _) = open.take().expect("checkpoint open");
                k.restore(&snap);
                model = saved;
            } else {
                *left -= 1;
            }
        }
        prop_assert_eq!(k.any_ready(), model.any_ready(), "op {}: any_ready", i);
        // What the scheduler would pick now, on a copy.
        let mut probe = k.clone();
        let picked = probe.schedule_into(&mut scratch).map(|id| id.0);
        prop_assert_eq!(picked, model.pick(), "op {}: the scheduler's pick", i);
        if let Some(t) = picked {
            prop_assert_eq!(
                members(&scratch),
                model.events(t),
                "op {}: the pick's events",
                i
            );
        }
    }
    Ok((k, model, rejections))
}

fn members(set: &BitSet) -> Vec<usize> {
    set.iter().collect()
}

fn check(k: &Kernel, model: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(k.events_lost, model.total_lost, "total events_lost");
    let by_task = k.events_lost_by_task();
    prop_assert_eq!(by_task.len(), model.lost.len());
    for (id, lost) in by_task {
        prop_assert_eq!(lost, model.lost[id.0], "losses of task {}", id.0);
    }
    let sum: u64 = model.lost.iter().sum();
    prop_assert_eq!(k.events_lost, sum, "total is the sum of per-task losses");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Faults off: overwrite is the only loss rule, and the kernel
    /// agrees with the model event for event.
    fn overwrite_accounting_matches_model(
        seed in 0u64..1_000_000_000,
        len in 1usize..160,
    ) {
        let (k, model, _) = run_both(seed, 3, len, None)?;
        check(&k, &model)?;
    }

    /// Mailbox pressure: with a capacity cap injected, rejected
    /// deliveries are lost exactly like overwrites (total and
    /// attribution still match the model) and every rejection is
    /// visible in the injection stats.
    fn mailbox_cap_accounting_matches_model(
        seed in 0u64..1_000_000_000,
        len in 1usize..160,
        cap in 1usize..4,
    ) {
        let (k, model, rejections) = run_both(seed, 3, len, Some(cap))?;
        check(&k, &model)?;
        prop_assert_eq!(
            k.injection_stats().mailbox_rejections,
            rejections,
            "every cap rejection is accounted as an injection"
        );
    }

    /// Seventy tasks, past one 64-bit word of ready set: scheduling,
    /// dispatch and losses still match the model, faults off and on.
    fn seventy_tasks_match_model(
        seed in 0u64..1_000_000_000,
        len in 1usize..160,
        cap in 0usize..4,
    ) {
        let cap = (cap > 0).then_some(cap);
        let (k, model, rejections) = run_both(seed, 70, len, cap)?;
        check(&k, &model)?;
        prop_assert_eq!(k.injection_stats().mailbox_rejections, rejections);
    }
}
