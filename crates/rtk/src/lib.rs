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
//! traffic. A second [`BitSet`], the ready set, holds the tasks whose
//! mailbox is non-empty: the scheduler reads it instead of scanning
//! every mailbox, and dispatching an empty mailbox copies nothing. The
//! kernel is deliberately independent of what a "task" computes: the
//! simulator in the `sim` crate runs compiled EFSMs inside tasks and
//! owns the id ↔ name mapping.

use ecl_faults::{FaultPlan, Faults, InjectionStats};
use ecl_telemetry::metrics as tm;
use efsm::BitSet;
use std::sync::Arc;

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

/// The fixed half of a kernel: every registered task's name, static
/// priority and watch set, plus the reverse watcher index. Nothing an
/// instant does changes it, so one table is built per program set and
/// `Arc`-shared by every kernel over it ([`Kernel::with_tasks`]).
#[derive(Debug, Clone, Default)]
pub struct TaskTable {
    names: Vec<String>,
    priorities: Vec<u8>,
    /// Per task: the signal ids it consumes.
    watches: Vec<BitSet>,
    /// Reverse index: signal id → watching tasks.
    watchers: Vec<Vec<TaskId>>,
}

impl TaskTable {
    /// An empty table.
    pub fn new() -> TaskTable {
        TaskTable::default()
    }

    /// Register a task with a static priority (higher runs first) and
    /// the presence set of signal ids it consumes.
    pub fn add_task(&mut self, name: impl Into<String>, priority: u8, watches: BitSet) -> TaskId {
        let id = TaskId(self.names.len());
        for sig in watches.iter() {
            if self.watchers.len() <= sig {
                self.watchers.resize(sig + 1, Vec::new());
            }
            self.watchers[sig].push(id);
        }
        self.names.push(name.into());
        self.priorities.push(priority);
        self.watches.push(watches);
        id
    }

    fn len(&self) -> usize {
        self.names.len()
    }
}

/// One task's mailbox: the session half of a task.
#[derive(Debug, Default)]
struct Mailbox {
    /// Pending events (1-place per signal: a presence set).
    pending: BitSet,
    /// Events overwritten in this mailbox before consumption.
    lost: u64,
}

impl Clone for Mailbox {
    fn clone(&self) -> Self {
        Mailbox {
            pending: self.pending.clone(),
            lost: self.lost,
        }
    }

    /// Copy into this mailbox's own presence set, so that
    /// [`Kernel::restore`] allocates nothing.
    fn clone_from(&mut self, source: &Self) {
        self.pending.clone_from(&source.pending);
        self.lost = source.lost;
    }
}

/// The kernel: tasks, mailboxes, scheduler and cycle accounting. The
/// task table is shared ([`TaskTable`]); a clone copies only the
/// mailboxes, queues and counters.
#[derive(Debug, Clone)]
pub struct Kernel {
    params: KernelParams,
    tasks: Arc<TaskTable>,
    /// Per task, in registration order.
    mailboxes: Vec<Mailbox>,
    /// The ready set: task `i` is a member iff `mailboxes[i]` holds
    /// events. Delivery inserts, dispatch removes.
    ready: BitSet,
    /// Internal events held back by the delay-internal fault site,
    /// delivered by [`Kernel::begin_instant`] (empty when unarmed).
    deferred: Vec<(TaskId, u32)>,
    /// The armed fault plan, if any — one pointer, so an unarmed
    /// kernel pays one check per post.
    faults: Option<Box<Faults>>,
    /// The current instant and the number of internal posts made in
    /// it: with the poster and the signal, the internal drop/delay
    /// key. Both restart at every instant boundary.
    instant: u64,
    posts: u64,
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
    /// Create a kernel with the given service costs and no tasks.
    pub fn new(params: KernelParams) -> Self {
        Kernel::with_tasks(params, Arc::default())
    }

    /// Create a kernel over an already-built task table, with empty
    /// mailboxes — the per-session path: the table is shared, not
    /// rebuilt.
    pub fn with_tasks(params: KernelParams, tasks: Arc<TaskTable>) -> Self {
        Kernel {
            params,
            mailboxes: vec![Mailbox::default(); tasks.len()],
            ready: BitSet::with_capacity(tasks.len()),
            tasks,
            deferred: Vec::new(),
            faults: None,
            instant: 0,
            posts: 0,
            task_cycles: 0,
            rtos_cycles: 0,
            events_lost: 0,
            dispatches: 0,
            deliveries: 0,
        }
    }

    /// Register a task with a static priority (higher runs first) and
    /// the presence set of signal ids it consumes (copies the task
    /// table first if another kernel shares it).
    pub fn add_task(&mut self, name: impl Into<String>, priority: u8, watches: BitSet) -> TaskId {
        self.mailboxes.push(Mailbox::default());
        Arc::make_mut(&mut self.tasks).add_task(name, priority, watches)
    }

    /// Number of registered tasks.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Task name.
    pub fn task_name(&self, id: TaskId) -> &str {
        &self.tasks.names[id.0]
    }

    /// Post an *external* event (environment input). Charged as input
    /// buffering per watching task.
    pub fn post_external(&mut self, sig: u32) {
        self.deliver(None, sig, self.params.input_cycles);
    }

    /// Post an *internal* event (emitted by `from`). Charged as an
    /// inter-task send per receiving task. The emitting task never
    /// receives its own emission.
    pub fn post_internal(&mut self, from: TaskId, sig: u32) {
        if self
            .tasks
            .watchers
            .get(sig as usize)
            .is_none_or(Vec::is_empty)
        {
            return;
        }
        if let Some(f) = self.faults.as_deref_mut() {
            // Keyed by (instant, poster, signal, post ordinal):
            // emission order is identical on every backend and the
            // ordinal restarts each instant, so a restored kernel
            // replays every decision.
            let (task, ordinal) = (from.0 as u64, self.posts);
            self.posts += 1;
            if f.drop_internal(self.instant, task, sig, ordinal) {
                return;
            }
            if f.delay_internal(self.instant, task, sig, ordinal) {
                self.deferred.push((from, sig));
                return;
            }
        }
        self.deliver(Some(from), sig, self.params.send_cycles);
    }

    /// Deliver `sig` to every watching task but `skip`, charging
    /// `cycles` per delivery. A mailbox already holding `sig` loses
    /// the new event; so does one at the armed plan's shrunk capacity
    /// (mailbox pressure: no free slot, the event is lost before it
    /// ever lands — the same loss accounting as an overwrite).
    fn deliver(&mut self, skip: Option<TaskId>, sig: u32, cycles: u64) {
        let Some(watchers) = self.tasks.watchers.get(sig as usize) else {
            return;
        };
        for &t in watchers {
            if Some(t) == skip {
                continue;
            }
            self.rtos_cycles += cycles;
            self.deliveries += 1;
            tm::RTK_DELIVERIES.incr();
            tm::RTK_RTOS_CYCLES.add(cycles);
            let mb = &mut self.mailboxes[t.0];
            let lost = mb.pending.contains(sig as usize)
                || self
                    .faults
                    .as_deref_mut()
                    .is_some_and(|f| f.mailbox_full(t.0 as u64, sig, mb.pending.len()));
            if lost {
                self.events_lost += 1;
                mb.lost += 1;
                tm::RTK_EVENTS_LOST.incr();
            } else {
                mb.pending.insert(sig as usize);
                self.ready.insert(t.0);
            }
        }
    }

    /// Start environment instant `instant`: restart the post ordinal
    /// and deliver the events the delay-internal fault site held
    /// back. Armed runners call this at the start of each instant.
    pub fn begin_instant(&mut self, instant: u64) {
        self.instant = instant;
        self.posts = 0;
        if self.deferred.is_empty() {
            return;
        }
        let mut deferred = std::mem::take(&mut self.deferred);
        for &(from, sig) in &deferred {
            self.deliver(Some(from), sig, self.params.send_cycles);
        }
        deferred.clear();
        self.deferred = deferred;
    }

    /// Arm the kernel's fault sites (mailbox cap, internal drop and
    /// delay) with `plan`, with zeroed counts; `None` disarms.
    pub fn set_faults(&mut self, plan: Option<FaultPlan>) {
        self.faults = plan.map(|p| Box::new(Faults::new(p)));
    }

    /// Injections the kernel's sites performed since arming (zero
    /// when unarmed).
    pub fn injection_stats(&self) -> InjectionStats {
        self.faults.as_ref().map(|f| f.stats()).unwrap_or_default()
    }

    /// Restore the mailboxes, deferred queue and counters of `snap`
    /// (a clone taken at an instant boundary) into this kernel's own
    /// buffers, keeping its armed plan and its counts: a restore loses
    /// no counts and never re-fires a one-shot site. `snap`'s plan, if
    /// any, is ignored.
    pub fn restore(&mut self, snap: &Kernel) {
        let Kernel {
            params,
            tasks,
            mailboxes,
            ready,
            deferred,
            faults: _,
            instant,
            posts,
            task_cycles,
            rtos_cycles,
            events_lost,
            dispatches,
            deliveries,
        } = snap;
        self.params = *params;
        self.tasks.clone_from(tasks);
        self.mailboxes.clone_from(mailboxes);
        self.ready.clone_from(ready);
        self.deferred.clone_from(deferred);
        self.instant = *instant;
        self.posts = *posts;
        self.task_cycles = *task_cycles;
        self.rtos_cycles = *rtos_cycles;
        self.events_lost = *events_lost;
        self.dispatches = *dispatches;
        self.deliveries = *deliveries;
    }

    /// Per-task loss counters: `(task, events lost)` in registration
    /// order. Sums to [`Kernel::events_lost`]. Names are resolved
    /// only at the telemetry/report boundary (see
    /// [`Kernel::task_name`]).
    pub fn events_lost_by_task(&self) -> Vec<(TaskId, u64)> {
        self.mailboxes
            .iter()
            .enumerate()
            .map(|(i, m)| (TaskId(i), m.lost))
            .collect()
    }

    /// Is any task ready (has pending events)?
    pub fn any_ready(&self) -> bool {
        !self.ready.is_empty()
    }

    /// Pick the highest-priority ready task (the lowest index among
    /// equals), copy its pending events into `events` (cleared first)
    /// and drain its mailbox (run-to-completion: the caller executes
    /// one reaction with all pending events as the input snapshot).
    /// Charges a dispatch.
    pub fn schedule_into(&mut self, events: &mut BitSet) -> Option<TaskId> {
        let prio = &self.tasks.priorities;
        let mut best: Option<usize> = None;
        for i in self.ready.iter() {
            if best.is_none_or(|b| prio[i] > prio[b]) {
                best = Some(i);
            }
        }
        let id = TaskId(best?);
        self.dispatch_into(id, events);
        Some(id)
    }

    /// Dispatch a *specific* task (the periodic tick of the paper's
    /// footnote: modules with pending `await ()` deltas must be
    /// rescheduled even without events). Copies the mailbox into
    /// `events` (cleared first), drains it, and charges a dispatch —
    /// an empty mailbox is charged alike. Returns whether the mailbox
    /// held events.
    pub fn dispatch_into(&mut self, id: TaskId, events: &mut BitSet) -> bool {
        self.rtos_cycles += self.params.dispatch_cycles;
        self.dispatches += 1;
        if ecl_telemetry::enabled() {
            tm::RTK_DISPATCHES.raw_add(1);
            tm::RTK_RTOS_CYCLES.raw_add(self.params.dispatch_cycles);
            tm::RTK_MAILBOX_OCCUPANCY.raw_record(self.mailboxes[id.0].pending.len() as u64);
        }
        events.clear();
        if !self.ready.remove(id.0) {
            return false;
        }
        let mb = &mut self.mailboxes[id.0].pending;
        events.union_with(mb);
        mb.clear();
        true
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
                        .names
                        .iter()
                        .zip(&self.mailboxes)
                        .filter(|(_, m)| m.lost > 0)
                        .map(|(name, m)| (name.as_str(), m.lost)),
                )
                .emit();
        }
    }

    /// Does `task` watch `sig`?
    pub fn watches(&self, task: TaskId, sig: u32) -> bool {
        self.tasks.watches[task.0].contains(sig as usize)
    }

    /// Tasks watching a signal.
    pub fn watchers_of(&self, sig: u32) -> &[TaskId] {
        self.tasks
            .watchers
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
        assert!(k.dispatch_into(a, &mut ev));
        assert!(ev.contains(X as usize));
        assert!(!k.any_ready());
        // A drained mailbox dispatches again as empty, and is charged.
        assert!(!k.dispatch_into(a, &mut ev));
        assert!(ev.is_empty());
        assert_eq!(k.dispatches, 2);
    }

    #[test]
    fn kernels_over_one_task_table_keep_their_own_mailboxes() {
        let mut table = TaskTable::new();
        let a = table.add_task("a", 1, set(&[X]));
        let table = Arc::new(table);
        let mut k1 = Kernel::with_tasks(KernelParams::default(), Arc::clone(&table));
        let mut k2 = Kernel::with_tasks(KernelParams::default(), Arc::clone(&table));
        k1.post_external(X);
        k1.post_external(X);
        assert!(k1.any_ready() && !k2.any_ready());
        assert_eq!((k1.events_lost, k2.events_lost), (1, 0));
        // Registering a task on one kernel copies the table first.
        let b = k2.add_task("b", 2, set(&[Y]));
        assert_eq!((k1.task_count(), k2.task_count(), table.len()), (1, 2, 1));
        k2.post_external(Y);
        assert_eq!(schedule(&mut k2).map(|(t, _)| t), Some(b));
        // A restore copies session state only.
        k2.restore(&k1);
        assert_eq!(k2.events_lost_by_task(), vec![(a, 1)]);
        assert_eq!(schedule(&mut k2).map(|(t, _)| t), Some(a));
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
