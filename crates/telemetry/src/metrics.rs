//! The well-known metric registry: every instrumented subsystem bumps
//! a static handle defined here, and profiling harnesses snapshot the
//! whole set by enumeration.
//!
//! Handles live in this crate (not in the crates that bump them) so
//! the registry is closed and enumerable without link-time tricks:
//! [`counters`] and [`histograms`] return every handle, and
//! [`Snapshot`] captures/diffs them for per-config profiling
//! (`gen_bench` resets between configs to attribute counts to one
//! design).

use crate::{Counter, Histogram};

// ---- rtk: the POLIS-style kernel ----------------------------------------

/// Task dispatches (scheduler picks + periodic ticks).
pub static RTK_DISPATCHES: Counter = Counter::new("rtk.dispatches");
/// Events delivered into task mailboxes (external + internal).
pub static RTK_DELIVERIES: Counter = Counter::new("rtk.deliveries");
/// Events overwritten in a 1-place mailbox before consumption.
pub static RTK_EVENTS_LOST: Counter = Counter::new("rtk.events_lost");
/// Cycles charged to application reactions.
pub static RTK_TASK_CYCLES: Counter = Counter::new("rtk.task_cycles");
/// Cycles charged to kernel services.
pub static RTK_RTOS_CYCLES: Counter = Counter::new("rtk.rtos_cycles");
/// Mailbox occupancy (pending events) observed at each dispatch.
pub static RTK_MAILBOX_OCCUPANCY: Histogram = Histogram::new("rtk.mailbox_occupancy");

// ---- sim: the runners ---------------------------------------------------

/// Environment instants driven through `run_events`.
pub static SIM_INSTANTS: Counter = Counter::new("sim.instants");
/// Reaction failures surfaced by `run_events`.
pub static SIM_ERRORS: Counter = Counter::new("sim.errors");
/// Wall time of one environment instant, nanoseconds.
pub static SIM_INSTANT_NS: Histogram = Histogram::new("sim.instant_ns");
/// Instants recorded into a trace ring.
pub static SIM_TRACE_INSTANTS: Counter = Counter::new("sim.trace_instants");
/// Instants evicted from a trace ring (recorded then dropped).
pub static SIM_TRACE_DROPPED: Counter = Counter::new("sim.trace_dropped");
/// Trace-ring occupancy (retained instants) sampled per recorded
/// instant.
pub static SIM_TRACE_OCCUPANCY: Histogram = Histogram::new("sim.trace_occupancy");

// ---- efsm: the compiled control layout ----------------------------------

/// Reactions run by the fused compiled backend (counted at their end).
pub static TABLE_STEPS: Counter = Counter::new("table.steps");
/// The subset of [`TABLE_STEPS`] taken on the quiet tick: a task with
/// an empty mailbox in a quiet state, moved to its precomputed next
/// state without running the dispatch loop.
pub static TABLE_QUIET_STEPS: Counter = Counter::new("table.quiet_steps");
/// Control ops executed by compiled reactions: one per s-graph node
/// visited (presence tests, predicates, actions, emits, ends).
pub static TABLE_FUSED_OPS: Counter = Counter::new("table.fused_ops");

// ---- ecl-types: the data-path bytecode ----------------------------------

/// Inlined hook runs (one per predicate/action/valued-emit hook a
/// fused reaction executes as bytecode).
pub static VM_HOOK_RUNS: Counter = Counter::new("vm.hook_runs");
/// Hooks evaluated on the tree-walker (the hooks of a task without a
/// fused backend — one with a hook outside the bytecode subset — or
/// `Backend::Walker` forced).
pub static VM_WALKER_HOOKS: Counter = Counter::new("vm.walker_hooks");

/// Data-opcode mnemonics, in the declaration order of `ecl_types::vm::Op`.
/// `ecl_types::vm::Op::telemetry_index` indexes [`VM_OPS`] with this
/// ordering; a unit test over there keeps the two in sync. Reaction
/// control ops are not data ops and have no counter here.
pub const VM_OP_NAMES: [&str; 22] = [
    "burn",
    "charge",
    "const",
    "conv",
    "load_var",
    "store_var",
    "load_var_off",
    "store_var_off",
    "load_var_idx",
    "store_var_idx",
    "load_sig",
    "load_sig_off",
    "load_sig_idx",
    "store_sig",
    "emit_copy",
    "bin",
    "bin_imm",
    "un",
    "jmp",
    "jmp_if",
    "jmp_cmp",
    "jmp_cmp_imm",
];

/// Per-opcode execution counters, indexed by
/// `Op::telemetry_index` (same order as [`VM_OP_NAMES`]).
pub static VM_OPS: [Counter; 22] = [
    Counter::new("vm.op.burn"),
    Counter::new("vm.op.charge"),
    Counter::new("vm.op.const"),
    Counter::new("vm.op.conv"),
    Counter::new("vm.op.load_var"),
    Counter::new("vm.op.store_var"),
    Counter::new("vm.op.load_var_off"),
    Counter::new("vm.op.store_var_off"),
    Counter::new("vm.op.load_var_idx"),
    Counter::new("vm.op.store_var_idx"),
    Counter::new("vm.op.load_sig"),
    Counter::new("vm.op.load_sig_off"),
    Counter::new("vm.op.load_sig_idx"),
    Counter::new("vm.op.store_sig"),
    Counter::new("vm.op.emit_copy"),
    Counter::new("vm.op.bin"),
    Counter::new("vm.op.bin_imm"),
    Counter::new("vm.op.un"),
    Counter::new("vm.op.jmp"),
    Counter::new("vm.op.jmp_if"),
    Counter::new("vm.op.jmp_cmp"),
    Counter::new("vm.op.jmp_cmp_imm"),
];

// ---- ecl-observe: monitors ----------------------------------------------

/// Monitor instants stepped (per monitor per environment instant).
pub static MON_STEPS: Counter = Counter::new("mon.steps");
/// Monitor instants stepped on the s-graph walker (`Backend::Walker`
/// forced, or an observer too wide for a dense table).
pub static MON_WALKER_STEPS: Counter = Counter::new("mon.walker_steps");
/// Violations latched (first failure per monitor).
pub static MON_VIOLATIONS: Counter = Counter::new("mon.violations");

// ---- ecl-faults: injection & recovery -----------------------------------

/// Faults injected (all sites: drops, delays, corruption, squeezes,
/// panics, kills, stalls).
pub static FAULTS_INJECTED: Counter = Counter::new("faults.injected");
/// Runs ended by a per-instant watchdog budget (nodes/fuel/wall).
pub static SIM_WATCHDOG_TRIPS: Counter = Counter::new("sim.watchdog_trips");
/// Sessions whose panic was contained at the batch boundary.
pub static SIM_POISONED_SESSIONS: Counter = Counter::new("sim.poisoned_sessions");

// ---- ecl-fleet: session supervision -------------------------------------

/// Checkpoints taken at instant boundaries (initial + periodic).
pub static FLEET_CHECKPOINTS: Counter = Counter::new("fleet.checkpoints");
/// Sessions restored from a checkpoint and replayed after a
/// poisoned/inconclusive outcome.
pub static FLEET_RESTARTS: Counter = Counter::new("fleet.restarts");
/// Sessions refused admission by a full shard queue (the top rung of
/// the pressure ladder).
pub static FLEET_REJECTED: Counter = Counter::new("fleet.rejected");
/// Sessions admitted in a degraded mode (trace/spans shed, monitors
/// sampled).
pub static FLEET_SHED: Counter = Counter::new("fleet.shed");
/// Sessions that exhausted their restart budget and escalated to
/// `Failed`.
pub static FLEET_FAILED: Counter = Counter::new("fleet.failed_sessions");

/// Every registered counter.
pub fn counters() -> Vec<&'static Counter> {
    let mut all: Vec<&'static Counter> = vec![
        &RTK_DISPATCHES,
        &RTK_DELIVERIES,
        &RTK_EVENTS_LOST,
        &RTK_TASK_CYCLES,
        &RTK_RTOS_CYCLES,
        &SIM_INSTANTS,
        &SIM_ERRORS,
        &SIM_TRACE_INSTANTS,
        &SIM_TRACE_DROPPED,
        &TABLE_STEPS,
        &TABLE_QUIET_STEPS,
        &TABLE_FUSED_OPS,
        &VM_HOOK_RUNS,
        &VM_WALKER_HOOKS,
        &MON_STEPS,
        &MON_WALKER_STEPS,
        &MON_VIOLATIONS,
        &FAULTS_INJECTED,
        &SIM_WATCHDOG_TRIPS,
        &SIM_POISONED_SESSIONS,
        &FLEET_CHECKPOINTS,
        &FLEET_RESTARTS,
        &FLEET_REJECTED,
        &FLEET_SHED,
        &FLEET_FAILED,
    ];
    all.extend(VM_OPS.iter());
    all
}

/// Every registered histogram.
pub fn histograms() -> Vec<&'static Histogram> {
    vec![
        &RTK_MAILBOX_OCCUPANCY,
        &SIM_INSTANT_NS,
        &SIM_TRACE_OCCUPANCY,
    ]
}

/// Zero the whole registry (profiling harnesses call this between
/// configs so counts attribute to exactly one run).
pub fn reset_all() {
    for c in counters() {
        c.reset();
    }
    for h in histograms() {
        h.reset();
    }
}

/// A point-in-time capture of every counter (histograms are read live
/// via their handles; only counters need delta arithmetic).
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// `(name, value)` for every registered counter.
    pub counters: Vec<(&'static str, u64)>,
}

/// Capture every counter.
pub fn snapshot() -> Snapshot {
    Snapshot {
        counters: counters().iter().map(|c| (c.name(), c.get())).collect(),
    }
}

impl Snapshot {
    /// Value of a named counter (0 when unknown).
    pub fn get(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Per-counter difference `self - earlier` (saturating).
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .iter()
                .map(|(n, v)| (*n, v.saturating_sub(earlier.get(n))))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique() {
        let mut names: Vec<&str> = counters().iter().map(|c| c.name()).collect();
        names.extend(histograms().iter().map(|h| h.name()));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(n, names.len(), "duplicate metric name in registry");
    }

    #[test]
    fn vm_op_counters_follow_the_name_table() {
        for (i, name) in VM_OP_NAMES.iter().enumerate() {
            assert_eq!(VM_OPS[i].name(), format!("vm.op.{name}"));
        }
    }

    #[test]
    fn snapshot_diff_isolates_a_window() {
        let _g = crate::tests::locked();
        crate::set_enabled(true);
        reset_all();
        RTK_DISPATCHES.add(3);
        let base = snapshot();
        RTK_DISPATCHES.add(4);
        SIM_INSTANTS.add(2);
        let delta = snapshot().since(&base);
        assert_eq!(delta.get("rtk.dispatches"), 4);
        assert_eq!(delta.get("sim.instants"), 2);
        assert_eq!(delta.get("vm.hook_runs"), 0);
        crate::set_enabled(false);
        reset_all();
    }
}
