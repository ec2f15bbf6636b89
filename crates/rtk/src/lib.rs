//! A POLIS-style real-time kernel simulator.
//!
//! The paper's asynchronous implementation runs each ECL module "as
//! separate tasks under control of a simple real-time kernel" \[1\]. This
//! crate models that kernel the way POLIS generates it:
//!
//! * static-priority, run-to-completion scheduling (a task's reaction is
//!   never preempted — CFSM reactions are atomic);
//! * one-place mailboxes per (task, signal): a new event *overwrites* an
//!   unconsumed one (CFSM semantics — "events can be lost"), counted in
//!   [`Kernel::events_lost`];
//! * explicit cycle accounting split into **task** cycles (reaction
//!   bodies, charged by the caller) and **RTOS** cycles (dispatch,
//!   event delivery, input buffering) — the two "Execution time"
//!   columns of the paper's Table 1.
//!
//! Signals are dense interned ids (`u32`, see `efsm::SigTable`) and
//! mailboxes are [`BitSet`] presence sets, so posting, scheduling and
//! draining are branch-light word operations with no per-event heap
//! traffic. The kernel is deliberately independent of what a "task"
//! computes: the simulator in the `sim` crate runs compiled EFSMs
//! inside tasks and owns the id ↔ name mapping.

use ecl_telemetry::metrics as tm;
use efsm::BitSet;

/// Handle of a registered task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub usize);

/// Cycle costs of kernel services (defaults roughly R3000-sized).
#[derive(Debug, Clone, Copy)]
pub struct KernelParams {
    /// Cycles to pick and dispatch the next ready task.
    pub dispatch_cycles: u64,
    /// Cycles to deliver one inter-task event (post + wakeup).
    pub send_cycles: u64,
    /// Cycles to buffer one external input event.
    pub input_cycles: u64,
}

impl Default for KernelParams {
    fn default() -> Self {
        KernelParams {
            dispatch_cycles: 60,
            send_cycles: 45,
            input_cycles: 25,
        }
    }
}

#[derive(Debug, Clone)]
struct TaskCb {
    name: String,
    priority: u8,
    /// Signal ids this task consumes.
    watches: BitSet,
    /// Pending events (1-place per signal: a presence set).
    pending: BitSet,
    /// Events overwritten in this task's mailboxes before consumption.
    lost: u64,
}

/// The kernel: tasks, mailboxes, scheduler and cycle accounting.
#[derive(Debug, Clone)]
pub struct Kernel {
    params: KernelParams,
    tasks: Vec<TaskCb>,
    /// Reverse index: signal id → watching tasks.
    watchers: Vec<Vec<TaskId>>,
    /// Internal events held back by the delay-internal fault site,
    /// delivered by [`Kernel::flush_deferred`] (empty with faults
    /// off).
    deferred: Vec<(TaskId, u32)>,
    /// Total cycles charged to application reactions.
    pub task_cycles: u64,
    /// Total cycles charged to kernel services.
    pub rtos_cycles: u64,
    /// Events overwritten in a 1-place mailbox before being consumed.
    pub events_lost: u64,
    /// Dispatches performed.
    pub dispatches: u64,
    /// Events delivered (external + internal).
    pub deliveries: u64,
}

impl Default for Kernel {
    fn default() -> Self {
        Kernel::new(KernelParams::default())
    }
}

impl Kernel {
    /// Create a kernel with the given service costs.
    pub fn new(params: KernelParams) -> Self {
        Kernel {
            params,
            tasks: Vec::new(),
            watchers: Vec::new(),
            deferred: Vec::new(),
            task_cycles: 0,
            rtos_cycles: 0,
            events_lost: 0,
            dispatches: 0,
            deliveries: 0,
        }
    }

    /// Register a task with a static priority (higher runs first) and
    /// the presence set of signal ids it consumes.
    pub fn add_task(&mut self, name: impl Into<String>, priority: u8, watches: BitSet) -> TaskId {
        let id = TaskId(self.tasks.len());
        for sig in watches.iter() {
            if self.watchers.len() <= sig {
                self.watchers.resize(sig + 1, Vec::new());
            }
            self.watchers[sig].push(id);
        }
        self.tasks.push(TaskCb {
            name: name.into(),
            priority,
            watches,
            pending: BitSet::new(),
            lost: 0,
        });
        id
    }

    /// Number of registered tasks.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Task name.
    pub fn task_name(&self, id: TaskId) -> &str {
        &self.tasks[id.0].name
    }

    /// Post an *external* event (environment input). Charged as input
    /// buffering per watching task.
    pub fn post_external(&mut self, sig: u32) {
        let cap = ecl_faults::mailbox_cap();
        let Some(watchers) = self.watchers.get(sig as usize) else {
            return;
        };
        for t in watchers {
            self.rtos_cycles += self.params.input_cycles;
            self.deliveries += 1;
            tm::RTK_DELIVERIES.incr();
            tm::RTK_RTOS_CYCLES.add(self.params.input_cycles);
            let cb = &mut self.tasks[t.0];
            if cb.pending.contains(sig as usize) {
                self.events_lost += 1;
                cb.lost += 1;
                tm::RTK_EVENTS_LOST.incr();
                continue;
            }
            if let Some(cap) = cap {
                if cb.pending.len() >= cap {
                    // Mailbox pressure: no free slot, the event is
                    // lost before it ever lands — the same loss
                    // accounting as an overwrite.
                    self.events_lost += 1;
                    cb.lost += 1;
                    tm::RTK_EVENTS_LOST.incr();
                    ecl_faults::note_mailbox_rejection(t.0 as u64, sig);
                    continue;
                }
            }
            cb.pending.insert(sig as usize);
        }
    }

    /// Post an *internal* event (emitted by `from`). Charged as an
    /// inter-task send per receiving task. The emitting task never
    /// receives its own emission.
    pub fn post_internal(&mut self, from: TaskId, sig: u32) {
        if self.watchers.get(sig as usize).is_none_or(Vec::is_empty) {
            return;
        }
        if ecl_faults::enabled() {
            // Stream-drawn decisions: posting order is emission
            // order, identical on every backend.
            if ecl_faults::drop_internal(sig) {
                return;
            }
            if ecl_faults::delay_internal(sig) {
                self.deferred.push((from, sig));
                return;
            }
        }
        self.deliver_internal(from, sig);
    }

    fn deliver_internal(&mut self, from: TaskId, sig: u32) {
        let cap = ecl_faults::mailbox_cap();
        let Some(watchers) = self.watchers.get(sig as usize) else {
            return;
        };
        for t in watchers {
            if *t == from {
                continue;
            }
            self.rtos_cycles += self.params.send_cycles;
            self.deliveries += 1;
            tm::RTK_DELIVERIES.incr();
            tm::RTK_RTOS_CYCLES.add(self.params.send_cycles);
            let cb = &mut self.tasks[t.0];
            if cb.pending.contains(sig as usize) {
                self.events_lost += 1;
                cb.lost += 1;
                tm::RTK_EVENTS_LOST.incr();
                continue;
            }
            if let Some(cap) = cap {
                if cb.pending.len() >= cap {
                    self.events_lost += 1;
                    cb.lost += 1;
                    tm::RTK_EVENTS_LOST.incr();
                    ecl_faults::note_mailbox_rejection(t.0 as u64, sig);
                    continue;
                }
            }
            cb.pending.insert(sig as usize);
        }
    }

    /// Deliver events held back by the delay-internal fault site.
    /// Runners call this at the start of each instant; with faults
    /// off the queue is always empty and this is one branch.
    pub fn flush_deferred(&mut self) {
        if self.deferred.is_empty() {
            return;
        }
        let mut deferred = std::mem::take(&mut self.deferred);
        for &(from, sig) in &deferred {
            self.deliver_internal(from, sig);
        }
        deferred.clear();
        self.deferred = deferred;
    }

    /// Per-task loss counters: `(task, events lost)` in registration
    /// order. Sums to [`Kernel::events_lost`]. Names are resolved
    /// only at the telemetry/report boundary (see
    /// [`Kernel::task_name`]).
    pub fn events_lost_by_task(&self) -> Vec<(TaskId, u64)> {
        self.tasks
            .iter()
            .enumerate()
            .map(|(i, t)| (TaskId(i), t.lost))
            .collect()
    }

    /// Is any task ready (has pending events)?
    pub fn any_ready(&self) -> bool {
        self.tasks.iter().any(|t| !t.pending.is_empty())
    }

    /// Pick the highest-priority ready task, copy its pending events
    /// into `events` (cleared first) and drain its mailbox
    /// (run-to-completion: the caller executes one reaction with all
    /// pending events as the input snapshot). Charges a dispatch.
    pub fn schedule_into(&mut self, events: &mut BitSet) -> Option<TaskId> {
        let best = self
            .tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.pending.is_empty())
            .max_by_key(|(i, t)| (t.priority, usize::MAX - i))?;
        let id = TaskId(best.0);
        self.rtos_cycles += self.params.dispatch_cycles;
        self.dispatches += 1;
        if ecl_telemetry::enabled() {
            tm::RTK_DISPATCHES.raw_add(1);
            tm::RTK_RTOS_CYCLES.raw_add(self.params.dispatch_cycles);
            tm::RTK_MAILBOX_OCCUPANCY.raw_record(self.tasks[id.0].pending.len() as u64);
        }
        events.clear();
        events.union_with(&self.tasks[id.0].pending);
        self.tasks[id.0].pending.clear();
        Some(id)
    }

    /// Dispatch a *specific* task (the periodic tick of the paper's
    /// footnote: modules with pending `await ()` deltas must be
    /// rescheduled even without events). Copies the mailbox into
    /// `events` (cleared first), drains it, and charges a dispatch.
    pub fn dispatch_into(&mut self, id: TaskId, events: &mut BitSet) {
        self.rtos_cycles += self.params.dispatch_cycles;
        self.dispatches += 1;
        if ecl_telemetry::enabled() {
            tm::RTK_DISPATCHES.raw_add(1);
            tm::RTK_RTOS_CYCLES.raw_add(self.params.dispatch_cycles);
            tm::RTK_MAILBOX_OCCUPANCY.raw_record(self.tasks[id.0].pending.len() as u64);
        }
        events.clear();
        events.union_with(&self.tasks[id.0].pending);
        self.tasks[id.0].pending.clear();
    }

    /// Charge application cycles (the caller measured a reaction).
    pub fn charge_task(&mut self, cycles: u64) {
        self.task_cycles += cycles;
        tm::RTK_TASK_CYCLES.add(cycles);
    }

    /// Emit the per-task loss totals as an `events_lost` telemetry
    /// warning (no-op when nothing was lost or telemetry is off). Run
    /// harnesses call this once at the end of a simulation so mailbox
    /// overwrites are visible in the event stream, not just in Table 1.
    pub fn emit_events_lost_event(&self) {
        if self.events_lost == 0 {
            return;
        }
        if let Some(e) = ecl_telemetry::event("events_lost") {
            e.u64("total", self.events_lost)
                .obj_u64(
                    "by_task",
                    self.tasks
                        .iter()
                        .filter(|t| t.lost > 0)
                        .map(|t| (t.name.as_str(), t.lost)),
                )
                .emit();
        }
    }

    /// Does `task` watch `sig`?
    pub fn watches(&self, task: TaskId, sig: u32) -> bool {
        self.tasks[task.0].watches.contains(sig as usize)
    }

    /// Tasks watching a signal.
    pub fn watchers_of(&self, sig: u32) -> &[TaskId] {
        self.watchers
            .get(sig as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const X: u32 = 0;
    const Y: u32 = 1;

    fn set(sigs: &[u32]) -> BitSet {
        sigs.iter().map(|s| *s as usize).collect()
    }

    fn schedule(k: &mut Kernel) -> Option<(TaskId, BitSet)> {
        let mut ev = BitSet::new();
        k.schedule_into(&mut ev).map(|id| (id, ev))
    }

    #[test]
    fn external_events_wake_watchers() {
        let mut k = Kernel::default();
        let a = k.add_task("a", 1, set(&[X]));
        let _b = k.add_task("b", 2, set(&[Y]));
        k.post_external(X);
        assert!(k.any_ready());
        let (t, ev) = schedule(&mut k).unwrap();
        assert_eq!(t, a);
        assert!(ev.contains(X as usize));
        assert!(!k.any_ready());
    }

    #[test]
    fn priority_order() {
        let mut k = Kernel::default();
        let _lo = k.add_task("lo", 1, set(&[X]));
        let hi = k.add_task("hi", 9, set(&[X]));
        k.post_external(X);
        let (t, _) = schedule(&mut k).unwrap();
        assert_eq!(t, hi, "higher priority runs first");
    }

    #[test]
    fn one_place_mailbox_loses_events() {
        let mut k = Kernel::default();
        let _a = k.add_task("a", 1, set(&[X]));
        k.post_external(X);
        k.post_external(X); // overwrites
        assert_eq!(k.events_lost, 1);
        let (_, ev) = schedule(&mut k).unwrap();
        assert_eq!(ev.len(), 1);
    }

    #[test]
    fn losses_are_attributed_per_task() {
        let mut k = Kernel::default();
        let a = k.add_task("a", 1, set(&[X]));
        let b = k.add_task("b", 2, set(&[X, Y]));
        k.post_external(X);
        k.post_external(X); // lost in both mailboxes
        k.post_internal(a, Y);
        k.post_internal(a, Y); // lost in b only
        assert_eq!(k.events_lost, 3);
        assert_eq!(k.events_lost_by_task(), vec![(a, 1), (b, 2)]);
        // Names resolve at the report boundary, not in the counters.
        let names: Vec<&str> = k
            .events_lost_by_task()
            .iter()
            .map(|(t, _)| k.task_name(*t))
            .collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn internal_send_skips_sender() {
        let mut k = Kernel::default();
        let a = k.add_task("a", 1, set(&[X]));
        let b = k.add_task("b", 1, set(&[X]));
        k.post_internal(a, X);
        let (t, _) = schedule(&mut k).unwrap();
        assert_eq!(t, b, "emitter must not receive its own event");
        assert!(!k.any_ready());
    }

    #[test]
    fn cycle_accounting_separates_task_and_rtos() {
        let p = KernelParams::default();
        let mut k = Kernel::new(p);
        let a = k.add_task("a", 1, set(&[X]));
        k.post_external(X);
        let _ = schedule(&mut k).unwrap();
        k.charge_task(123);
        k.post_internal(a, Y); // no watchers: free
        assert_eq!(k.task_cycles, 123);
        assert_eq!(k.rtos_cycles, p.input_cycles + p.dispatch_cycles);
    }

    #[test]
    fn equal_priority_ties_break_by_index() {
        let mut k = Kernel::default();
        let a = k.add_task("a", 1, set(&[X]));
        let b = k.add_task("b", 1, set(&[X]));
        k.post_external(X);
        let (t1, _) = schedule(&mut k).unwrap();
        assert_eq!(t1, a);
        let (t2, _) = schedule(&mut k).unwrap();
        assert_eq!(t2, b);
    }

    #[test]
    fn dispatch_into_drains_a_specific_task() {
        let mut k = Kernel::default();
        let a = k.add_task("a", 1, set(&[X]));
        k.post_external(X);
        let mut ev = BitSet::new();
        k.dispatch_into(a, &mut ev);
        assert!(ev.contains(X as usize));
        assert!(!k.any_ready());
        // A drained mailbox dispatches again as empty.
        k.dispatch_into(a, &mut ev);
        assert!(ev.is_empty());
    }

    #[test]
    fn watchers_index() {
        let mut k = Kernel::default();
        let a = k.add_task("a", 1, set(&[X, Y]));
        assert!(k.watches(a, X));
        assert!(!k.watches(a, 7));
        assert_eq!(k.watchers_of(Y), &[a]);
        assert!(k.watchers_of(9).is_empty());
        assert_eq!(k.task_count(), 1);
        assert_eq!(k.task_name(a), "a");
    }
}
