//! Property test: the kernel's loss accounting against a reference
//! model.
//!
//! The model re-implements the 1-place-mailbox delivery rules in the
//! most naive way possible (sets of pending signals, one counter per
//! task) and is driven with the same random post/dispatch sequence as
//! the real [`rtk::Kernel`]. `events_lost` must match the model
//! *exactly* — totals and per-task attribution — both with the
//! overwrite rule alone and under an injected mailbox-pressure cap,
//! where every rejection must also appear in the kernel's injection
//! stats.

use ecl_faults::FaultPlan;
use efsm::BitSet;
use proptest::prelude::*;
use rtk::{Kernel, KernelParams, TaskId};
use std::collections::BTreeSet;

const NTASKS: usize = 3;
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
}

/// Derive a watch topology and an op sequence from one seed.
fn scenario(seed: u64, len: usize) -> (Vec<Vec<u32>>, Vec<Op>) {
    let mut s = seed;
    let watches: Vec<Vec<u32>> = (0..NTASKS)
        .map(|_| {
            let mask = splitmix(&mut s);
            (0..NSIGS).filter(|b| mask >> b & 1 == 1).collect()
        })
        .collect();
    let ops = (0..len)
        .map(|_| match splitmix(&mut s) % 4 {
            0 | 1 => Op::External((splitmix(&mut s) % u64::from(NSIGS)) as u32),
            2 => Op::Internal(
                splitmix(&mut s) as usize % NTASKS,
                (splitmix(&mut s) % u64::from(NSIGS)) as u32,
            ),
            _ => Op::Dispatch(splitmix(&mut s) as usize % NTASKS),
        })
        .collect();
    (watches, ops)
}

/// The naive reference: pending = set of signals, loss on overwrite
/// (already pending) or on a full capped mailbox.
struct Model {
    watches: Vec<Vec<u32>>,
    pending: Vec<BTreeSet<u32>>,
    lost: Vec<u64>,
    total_lost: u64,
    cap_rejections: u64,
    cap: Option<usize>,
}

impl Model {
    fn new(watches: Vec<Vec<u32>>, cap: Option<usize>) -> Model {
        Model {
            watches,
            pending: vec![BTreeSet::new(); NTASKS],
            lost: vec![0; NTASKS],
            total_lost: 0,
            cap_rejections: 0,
            cap,
        }
    }

    fn post(&mut self, from: Option<usize>, sig: u32) {
        for t in 0..NTASKS {
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
                self.cap_rejections += 1;
                continue;
            }
            self.pending[t].insert(sig);
        }
    }

    fn step(&mut self, op: Op) {
        match op {
            Op::External(sig) => self.post(None, sig),
            Op::Internal(from, sig) => {
                // The kernel skips the whole post when nobody watches.
                if self.watches.iter().any(|w| w.contains(&sig)) {
                    self.post(Some(from), sig);
                }
            }
            Op::Dispatch(t) => self.pending[t].clear(),
        }
    }
}

/// Drive the kernel — armed with a mailbox cap when `cap` is set —
/// and the model through one scenario.
fn run_both(seed: u64, len: usize, cap: Option<usize>) -> (Kernel, Model) {
    let (watches, ops) = scenario(seed, len);
    let mut k = Kernel::new(KernelParams::default());
    k.set_faults(cap.map(|c| FaultPlan {
        mailbox_cap: Some(c),
        ..FaultPlan::seeded(seed)
    }));
    for (i, w) in watches.iter().enumerate() {
        k.add_task(
            format!("t{i}"),
            (NTASKS - i) as u8,
            w.iter().map(|s| *s as usize).collect(),
        );
    }
    let mut model = Model::new(watches, cap);
    let mut scratch = BitSet::new();
    for op in ops {
        match op {
            Op::External(sig) => k.post_external(sig),
            Op::Internal(from, sig) => k.post_internal(TaskId(from), sig),
            Op::Dispatch(t) => k.dispatch_into(TaskId(t), &mut scratch),
        }
        model.step(op);
    }
    (k, model)
}

fn check(k: &Kernel, model: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(k.events_lost, model.total_lost, "total events_lost");
    let by_task = k.events_lost_by_task();
    prop_assert_eq!(by_task.len(), NTASKS);
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
        let (k, model) = run_both(seed, len, None);
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
        let (k, model) = run_both(seed, len, Some(cap));
        check(&k, &model)?;
        prop_assert_eq!(
            k.injection_stats().mailbox_rejections,
            model.cap_rejections,
            "every cap rejection is accounted as an injection"
        );
    }
}
