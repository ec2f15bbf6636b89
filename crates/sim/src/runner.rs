//! Task runners: compiled EFSMs on the RTOS, and an interpreter-backed
//! reference runner for differential testing.
//!
//! Both runners intern every global signal name into a shared
//! [`SigTable`] at construction and then run the whole reaction hot
//! path on dense [`SigId`]s and [`BitSet`] presence sets: kernel
//! mailboxes, task dispatch, emission fan-out and trace recording never
//! touch a string. The [`Runner`] trait exposes that path as
//! [`Runner::instant_ids`] (zero heap allocations per instant in steady
//! state); names are resolved once, at the testbench boundary
//! ([`Stimuli`], the stimulus path of [`Runner::run_events`] and of
//! the fleet).
//!
//! Both runners can record a [`Trace`] of every signal occurrence
//! (enable with `enable_trace`), and both implement the [`Runner`]
//! trait, whose `run_events` testbench hook drives a whole
//! [`InstantEvents`] stream and hands the per-instant [`Present`] set
//! to a callback — the attachment point for online monitors
//! (`ecl-observe`).

use crate::tb::InstantEvents;
use crate::trace::{Recorder, Trace};
use codegen::cost::CostParams;
use ecl_core::{Design, Fused, Rt};
use ecl_faults::Faults;
use ecl_telemetry::metrics as tm;
use efsm::{Backend, BitSet, DataHooks, Efsm, SigId, SigTable, Signal, StateId};
use esterel::compile::CompileOptions;
use rtk::{Kernel, KernelParams, TaskId, TaskTable};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

pub use ecl_faults::{FaultPlan, InjectionStats};

/// What class of failure ended a simulation — recovery layers map
/// these onto verdicts: [`SimErrorKind::is_inconclusive`] kinds end a
/// monitored run as `Inconclusive` (the run was cut short, nothing
/// was proven), the rest stay definite errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimErrorKind {
    /// A reaction or data-path evaluation failure — definite.
    Eval,
    /// The phase-2 cascade budget ran out (tasks kept waking each
    /// other).
    Livelock,
    /// A per-instant [`WatchdogBudget`] was exceeded.
    Watchdog,
    /// The runner state was torn by a panic in an earlier instant —
    /// the session must not be driven further.
    Poisoned,
}

impl SimErrorKind {
    /// Stable lowercase name (telemetry `error` lines carry it).
    pub fn as_str(self) -> &'static str {
        match self {
            SimErrorKind::Eval => "eval",
            SimErrorKind::Livelock => "livelock",
            SimErrorKind::Watchdog => "watchdog",
            SimErrorKind::Poisoned => "poisoned",
        }
    }

    /// Should a monitored run conclude `Inconclusive` rather than
    /// propagate an error? True for budget trips: the run was ended
    /// deliberately, not because the design misbehaved.
    pub fn is_inconclusive(self) -> bool {
        matches!(self, SimErrorKind::Livelock | SimErrorKind::Watchdog)
    }
}

/// Simulation failure.
#[derive(Debug)]
pub struct SimError {
    /// Explanation.
    pub msg: String,
    /// Failure class (see [`SimErrorKind`]).
    pub kind: SimErrorKind,
}

impl SimError {
    /// A definite evaluation failure.
    pub fn eval(msg: impl Into<String>) -> SimError {
        SimError {
            msg: msg.into(),
            kind: SimErrorKind::Eval,
        }
    }

    /// A cascade-budget (livelock) failure.
    pub fn livelock(msg: impl Into<String>) -> SimError {
        SimError {
            msg: msg.into(),
            kind: SimErrorKind::Livelock,
        }
    }

    /// A watchdog-budget trip.
    pub fn watchdog(msg: impl Into<String>) -> SimError {
        SimError {
            msg: msg.into(),
            kind: SimErrorKind::Watchdog,
        }
    }

    /// A poisoned-runner rejection.
    pub fn poisoned(msg: impl Into<String>) -> SimError {
        SimError {
            msg: msg.into(),
            kind: SimErrorKind::Poisoned,
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "simulation error: {}", self.msg)
    }
}

impl std::error::Error for SimError {}

fn err<T>(msg: impl Into<String>) -> Result<T, SimError> {
    Err(SimError::eval(msg))
}

/// Per-instant resource budgets — the watchdog that turns a hung or
/// runaway run into a definite [`SimErrorKind::Watchdog`] stop (which
/// monitored runs report as an `Inconclusive` verdict) instead of an
/// endless sit. All limits apply to a *single* environment instant;
/// `None` means unlimited.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WatchdogBudget {
    /// Max s-graph nodes visited per instant (on the interpreter
    /// runner: constructive passes — its reaction reports no node
    /// counts). Deterministic across backends.
    pub max_nodes: Option<u64>,
    /// Max data-path fuel burned per instant. Deterministic across
    /// backends (fuel charges are bit-identical by the bytecode
    /// contract).
    pub max_fuel: Option<u64>,
    /// Max wall-clock nanoseconds per instant. Inherently
    /// nondeterministic — use for hang protection, not for
    /// reproducible chaos plans.
    pub max_wall_ns: Option<u64>,
}

/// One instant's present set: interned ids plus the table to resolve
/// them — what [`Runner::run_events`] hands its callback. Names are
/// materialized only on demand (the lazy name iterator), so monitors
/// that work on ids never pay for strings.
#[derive(Debug, Clone, Copy)]
pub struct Present<'a> {
    table: &'a SigTable,
    set: &'a BitSet,
}

impl<'a> Present<'a> {
    /// Wrap a presence set.
    pub fn new(table: &'a SigTable, set: &'a BitSet) -> Present<'a> {
        Present { table, set }
    }

    /// The signal table the ids resolve against.
    pub fn table(&self) -> &'a SigTable {
        self.table
    }

    /// The present ids.
    pub fn ids(&self) -> &'a BitSet {
        self.set
    }

    /// Is `sig` present?
    pub fn contains_id(&self, sig: SigId) -> bool {
        self.set.contains(sig.bit())
    }

    /// Is the (exact) global name present?
    pub fn contains(&self, name: &str) -> bool {
        self.table
            .lookup(name)
            .is_some_and(|id| self.set.contains(id.bit()))
    }

    /// Lazy iterator over the present names, in id order.
    pub fn names(&self) -> impl Iterator<Item = &'a str> + 'a {
        self.table.names_of(self.set)
    }

    /// Materialize the present names (compatibility helper).
    pub fn to_names(&self) -> Vec<String> {
        self.names().map(str::to_string).collect()
    }
}

/// The one stimulus path from a testbench to a runner, shared by
/// [`Runner::run_events`] and the fleet's quanta: for each
/// [`InstantEvents`] it writes the valued inputs, in order, through
/// [`Runner::set_input_i64_id`] and builds the instant's presence set
/// of stimulus ids.
///
/// Each position of an instant's valued and pure lists remembers the
/// last name seen there and its id, and a name that repeats at its
/// position reuses that id: a stream that sends the same names
/// instant after instant (the paper's testbenches send one valued
/// name on most instants) hashes each name once, not once per
/// instant. A valued name no task reads fails the instant with ``no
/// task reads signal `name` ``; an unknown pure name is ignored.
pub struct Stimuli<'e> {
    /// The table of the runner the stimuli are posted to.
    table: Arc<SigTable>,
    /// The current instant's stimulus ids.
    bits: BitSet,
    /// The last name seen at each valued position, and its id.
    valued: Vec<(&'e str, Option<SigId>)>,
    /// The last name seen at each pure position, and its id.
    pure: Vec<(&'e str, Option<SigId>)>,
}

impl<'e> Stimuli<'e> {
    /// Stimuli for the runner whose signal table is `table`.
    pub fn new(table: &Arc<SigTable>) -> Stimuli<'e> {
        Stimuli {
            table: Arc::clone(table),
            bits: BitSet::with_capacity(table.len()),
            valued: Vec::new(),
            pure: Vec::new(),
        }
    }

    /// Write `ev`'s values into `r` and return the instant's stimulus
    /// ids (`r` must be the runner of the table the stimuli were made
    /// for).
    ///
    /// # Errors
    ///
    /// A valued name no task reads, and input failures.
    pub fn post<R: Runner + ?Sized>(
        &mut self,
        r: &mut R,
        ev: &'e InstantEvents,
    ) -> Result<&BitSet, SimError> {
        debug_assert!(Arc::ptr_eq(&self.table, r.sig_table()));
        self.bits.clear();
        for (k, (name, v)) in ev.valued.iter().enumerate() {
            let Some(id) = resolve(&self.table, &mut self.valued, k, name) else {
                return err(format!("no task reads signal `{name}`"));
            };
            r.set_input_i64_id(id, *v)?;
            self.bits.insert(id.bit());
        }
        for (k, name) in ev.pure.iter().enumerate() {
            if let Some(id) = resolve(&self.table, &mut self.pure, k, name) {
                self.bits.insert(id.bit());
            }
        }
        Ok(&self.bits)
    }
}

/// The id of `name`, the `k`-th name of its kind in an instant:
/// `memo`'s entry when the last name seen at `k` was the same,
/// otherwise a table lookup that replaces the entry.
fn resolve<'e>(
    table: &SigTable,
    memo: &mut Vec<(&'e str, Option<SigId>)>,
    k: usize,
    name: &'e str,
) -> Option<SigId> {
    match memo.get_mut(k) {
        Some((seen, id)) if *seen == name => *id,
        slot => {
            let id = table.lookup(name);
            match slot {
                Some(entry) => *entry = (name, id),
                None => memo.push((name, id)),
            }
            id
        }
    }
}

/// Compiled-backend coverage of one task: how much of its control
/// and data path executes fused/compiled rather than on the walker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskCoverage {
    /// Task entry-module name.
    pub task: String,
    /// Control states in the task's EFSM.
    pub states: u32,
    /// Control ops of the compiled reactions: one per live s-graph
    /// node; 0 for a task without a fused backend.
    pub fused_rows: u32,
    /// Data hooks compiled to bytecode. The task fuses only when this
    /// equals `vm_total`; otherwise it runs on the walker reference
    /// under either backend, and these programs go unused.
    pub vm_compiled: u32,
    /// Total data hooks (predicates + actions + valued emits).
    pub vm_total: u32,
}

/// Compiled-backend coverage over a whole runner, per task — the one
/// schema that replaced the `vm_coverage()`/`tabled_states()` tuple
/// pair. Consumed by `gen_bench` and (via
/// [`CoverageReport::telemetry`]) the `run_end` telemetry event.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageReport {
    /// One entry per task, in task order.
    pub tasks: Vec<TaskCoverage>,
}

impl CoverageReport {
    /// Total control states.
    pub fn states(&self) -> u32 {
        self.tasks.iter().map(|t| t.states).sum()
    }

    /// Total control ops of the compiled reactions.
    pub fn fused_rows(&self) -> u32 {
        self.tasks.iter().map(|t| t.fused_rows).sum()
    }

    /// Total bytecode-compiled data hooks.
    pub fn vm_compiled(&self) -> u32 {
        self.tasks.iter().map(|t| t.vm_compiled).sum()
    }

    /// Total data hooks.
    pub fn vm_total(&self) -> u32 {
        self.tasks.iter().map(|t| t.vm_total).sum()
    }

    /// Does every task have a fused backend — i.e. under
    /// [`Backend::Compiled`] no walker step can occur inside an instant?
    /// A task fuses exactly when every one of its data hooks compiles.
    pub fn fully_fused(&self) -> bool {
        self.vm_compiled() == self.vm_total()
    }

    /// The flat shape the telemetry `run_end` event carries.
    pub fn telemetry(&self) -> ecl_telemetry::RunCoverage {
        ecl_telemetry::RunCoverage {
            states: self.states(),
            fused_rows: self.fused_rows(),
            vm_compiled: self.vm_compiled(),
            vm_total: self.vm_total(),
        }
    }
}

/// The common driving surface of both runners.
///
/// Trace recording and emission accounting are implemented here once,
/// as default methods over the two slot accessors ([`Runner::trace_slot`]
/// / [`Runner::counts_slot`]) — runners only expose their [`Recorder`]
/// and count array.
pub trait Runner {
    /// Compiled-backend coverage, per task.
    fn coverage(&self) -> CoverageReport;

    /// The design-wide signal interner (built once at construction).
    fn sig_table(&self) -> &Arc<SigTable>;

    /// The runner's trace recorder.
    fn trace_slot(&self) -> &Recorder;

    /// The runner's trace recorder, mutably.
    fn trace_slot_mut(&mut self) -> &mut Recorder;

    /// Emission counts indexed by interned [`SigId`] bit.
    fn counts_slot(&self) -> &[u64];

    /// Start recording a signal trace retaining the last `capacity`
    /// instants (0 = unbounded).
    fn enable_trace(&mut self, capacity: usize) {
        self.trace_slot_mut().enable(capacity);
    }

    /// The recorded trace so far, if tracing is enabled.
    fn recorded_trace(&self) -> Option<&Trace> {
        self.trace_slot().current()
    }

    /// Detach and return the recorded trace (tracing stops).
    fn take_trace(&mut self) -> Option<Trace> {
        self.trace_slot_mut().take()
    }

    /// Emission count of one signal.
    fn count_of(&self, name: &str) -> u64 {
        self.sig_table()
            .lookup(name)
            .map_or(0, |id| self.counts_slot()[id.bit()])
    }

    /// Emission counts by signal name (signals emitted at least once).
    fn counts(&self) -> HashMap<String, u64> {
        let table = self.sig_table();
        self.counts_slot()
            .iter()
            .enumerate()
            .filter(|(_, n)| **n > 0)
            .map(|(i, n)| (table.name(SigId(i as u32)).to_string(), *n))
            .collect()
    }

    /// Set a valued external input by interned id (the fast path of
    /// [`Runner::set_input_i64`]).
    ///
    /// # Errors
    ///
    /// Unknown or pure signal.
    fn set_input_i64_id(&mut self, sig: SigId, v: i64) -> Result<(), SimError>;

    /// Set a valued external input (the testbench side of `emit_v`).
    ///
    /// # Errors
    ///
    /// Unknown or pure signal.
    fn set_input_i64(&mut self, name: &str, v: i64) -> Result<(), SimError> {
        let Some(id) = self.sig_table().lookup(name) else {
            return err(format!("no task reads signal `{name}`"));
        };
        self.set_input_i64_id(id, v)
    }

    /// Run one environment instant with the interned `events` present.
    /// The emitted ids are written into `out` (cleared first). In
    /// steady state neither runner touches the heap here (scratch
    /// buffers are reused across instants).
    ///
    /// # Errors
    ///
    /// Propagates reaction and data-evaluation failures.
    fn instant_ids(&mut self, events: &BitSet, out: &mut BitSet) -> Result<(), SimError>;

    /// The next environment instant number.
    fn now(&self) -> u64;

    /// The fleet session id telemetry `error` lines carry (0 for
    /// runners outside a fleet — see [`AsyncRunner::set_session`]).
    fn session_id(&self) -> u64 {
        0
    }

    /// Flush loss accounting to telemetry (an `events_lost` event per
    /// task with a non-zero count). A no-op for runners without a
    /// kernel; [`AsyncRunner`] reports mailbox-overwrite losses.
    /// Called from the `run_events` brackets on both the success and
    /// the error path so losses never silently vanish from a stream.
    fn emit_losses(&self) {}

    /// Testbench hook: drive a whole event stream, calling
    /// `on_instant` with the instant number and the [`Present`] set
    /// (stimuli plus emissions) after each instant — the attachment
    /// point for online monitors. Stimuli go through [`Stimuli`]: a
    /// name that repeats at its position resolves to its id once; the
    /// only per-instant heap traffic is whatever the callback does.
    /// Unknown pure event names are ignored.
    ///
    /// # Errors
    ///
    /// Propagates input and reaction failures. Both end the run
    /// through one bracket: a telemetry `error` line, a `sim.errors`
    /// count and [`Runner::emit_losses`].
    fn run_events<F>(&mut self, events: &[InstantEvents], mut on_instant: F) -> Result<(), SimError>
    where
        Self: Sized,
        F: FnMut(u64, Present<'_>),
    {
        let mut stimuli = Stimuli::new(self.sig_table());
        let mut present = BitSet::new();
        // Telemetry state, hoisted once per call: the clock is read
        // only when collection is on, and span bookkeeping is all
        // locals (no allocation until a span line is rendered).
        let tel = ecl_telemetry::enabled();
        let span_every = if tel { ecl_telemetry::span_every() } else { 0 };
        let mut span_from = self.now();
        let mut span_t0 = (span_every > 0).then(std::time::Instant::now);
        let mut in_window = 0u64;
        for ev in events {
            let instant = self.now();
            // Stimulus and reaction failures leave through one error
            // bracket.
            let r = stimuli.post(self, ev).and_then(|ev_bits| {
                let r = if tel {
                    let t0 = std::time::Instant::now();
                    let r = self.instant_ids(ev_bits, &mut present);
                    tm::SIM_INSTANT_NS.raw_record(t0.elapsed().as_nanos() as u64);
                    tm::SIM_INSTANTS.raw_add(1);
                    r
                } else {
                    self.instant_ids(ev_bits, &mut present)
                };
                r.map(|()| ev_bits)
            });
            let ev_bits = match r {
                Ok(ev_bits) => ev_bits,
                Err(e) => {
                    tm::SIM_ERRORS.add(1);
                    if let Some(ev) = ecl_telemetry::event("error") {
                        ev.u64("instant", instant)
                            .u64("session", self.session_id())
                            .str("kind", e.kind.as_str())
                            .str("msg", &e.msg)
                            .emit();
                    }
                    self.emit_losses();
                    return Err(e);
                }
            };
            present.union_with(ev_bits);
            on_instant(instant, Present::new(self.sig_table(), &present));
            if span_every > 0 {
                in_window += 1;
                if in_window >= span_every {
                    let window_ns = span_t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
                    if let Some(e) = ecl_telemetry::event("span") {
                        e.u64("from", span_from)
                            .u64("to", instant + 1)
                            .u64("window_ns", window_ns)
                            .u64("p50_ns", tm::SIM_INSTANT_NS.quantile(0.5))
                            .u64("p99_ns", tm::SIM_INSTANT_NS.quantile(0.99))
                            .emit();
                    }
                    span_from = instant + 1;
                    span_t0 = Some(std::time::Instant::now());
                    in_window = 0;
                }
            }
        }
        self.emit_losses();
        Ok(())
    }
}

/// Trace-friendly scalar view of a signal value: integers read as
/// `i64`, aggregates (packets, frames) trace as presence only.
fn trace_value(rt: &Rt, v: &ecl_types::Value) -> Option<i64> {
    let table = rt.machine().table();
    table.get(v.ty).is_integer().then(|| v.as_i64(table))
}

/// Shared watchdog verdict for an instant that just completed: trips
/// the first exceeded budget as a [`SimErrorKind::Watchdog`] error
/// (bumping `sim.watchdog_trips`), otherwise `Ok(())`.
fn check_watchdog(
    wd: Option<WatchdogBudget>,
    instant: u64,
    nodes: u64,
    fuel: u64,
    wall_t0: Option<std::time::Instant>,
) -> Result<(), SimError> {
    let Some(w) = wd else { return Ok(()) };
    let trip = |what: &str, spent: u64, max: u64| {
        tm::SIM_WATCHDOG_TRIPS.incr();
        Err(SimError::watchdog(format!(
            "instant {instant} exceeded the {what} budget ({spent} > {max})"
        )))
    };
    if let Some(max) = w.max_nodes {
        if nodes > max {
            return trip("node", nodes, max);
        }
    }
    if let Some(max) = w.max_fuel {
        if fuel > max {
            return trip("fuel", fuel, max);
        }
    }
    if let (Some(max), Some(t0)) = (w.max_wall_ns, wall_t0) {
        let elapsed = t0.elapsed().as_nanos() as u64;
        if elapsed > max {
            return trip("wall-time", elapsed, max);
        }
    }
    Ok(())
}

/// The stimuli an armed runner presents at instant `now`, built in
/// `out`: the delayed events that fall due, plus `events` minus what
/// the external drop and delay sites hold back (keyed by
/// `(instant, signal)`, so both runners compute the identical set).
/// Delayed events join `delayed`.
fn faulted_stimuli<'a>(
    faults: &mut Faults,
    delayed: &mut Vec<(u64, usize)>,
    now: u64,
    events: &BitSet,
    out: &'a mut BitSet,
) -> &'a BitSet {
    out.clear();
    delayed.retain(|&(due, bit)| {
        if due <= now {
            out.insert(bit);
        }
        due > now
    });
    for bit in events.iter() {
        if faults.drop_external(now, bit as u32) {
            continue;
        }
        if let Some(d) = faults.delay_external(now, bit as u32) {
            delayed.push((now + d, bit));
            continue;
        }
        out.insert(bit);
    }
    out
}

/// The immutable compilation product of one task: the design, its
/// EFSM, the fused compiled backend, the local ↔ global signal wiring
/// and a prototype runtime. Built once by [`SharedProgram::compile`]
/// and `Arc`-shared by every runner instantiated from it — a fleet of
/// N sessions pays for compilation exactly once.
pub struct TaskProgram {
    design: Design,
    efsm: Efsm,
    /// Fused compiled backend of `efsm`: every state's s-graph laid out
    /// as one op stream, with the prototype runtime's data bytecode
    /// inlined. `None` when a data hook is outside the bytecode subset:
    /// the task then runs on the walker under either backend.
    fused: Option<Fused>,
    /// Prototype runtime, cloned per session (its compiled data
    /// programs are themselves `Arc`-shared inside [`Rt`]).
    proto_rt: Rt,
    /// Local signal index → interned global id.
    to_global: Vec<SigId>,
    /// Global id → local signal (None when this task doesn't know it).
    from_global: Vec<Option<Signal>>,
    /// Local signal index → carries a value?
    valued: Vec<bool>,
}

/// One design set compiled once, instantiable many times: the shared,
/// immutable half of a session fleet. [`AsyncRunner::from_shared`]
/// stamps out an independent runner (own kernel, runtimes, trace,
/// counters) over these `Arc`'d programs without recompiling.
#[derive(Clone)]
pub struct SharedProgram {
    tasks: Vec<Arc<TaskProgram>>,
    /// The kernel's task table: one task per program, in order, each
    /// watching its external inputs at program-order priority (earlier
    /// designs run higher).
    kernel_tasks: Arc<TaskTable>,
    sig_table: Arc<SigTable>,
}

impl SharedProgram {
    /// Compile `designs` (one task each) into a shareable program set.
    ///
    /// # Errors
    ///
    /// Propagates EFSM compilation and runtime construction failures.
    pub fn compile(
        designs: Vec<Design>,
        compile_opts: &CompileOptions,
    ) -> Result<SharedProgram, SimError> {
        // Pass 1: compile everything and intern the global namespace.
        let mut table = SigTable::new();
        let mut compiled = Vec::new();
        for design in designs {
            let efsm = design
                .to_efsm(compile_opts)
                .map_err(|e| SimError::eval(e.to_string()))?;
            for info in &efsm.signals {
                table.intern(&info.name);
            }
            let rt = design.new_rt().map_err(|e| SimError::eval(e.to_string()))?;
            compiled.push((design, efsm, rt));
        }
        // Pass 2: wire each task through the now-complete table.
        let mut tasks = Vec::new();
        let mut kernel_tasks = TaskTable::new();
        for (i, (design, efsm, proto_rt)) in compiled.into_iter().enumerate() {
            let to_global: Vec<SigId> = efsm
                .signals
                .iter()
                .map(|info| table.lookup(&info.name).expect("interned in pass 1"))
                .collect();
            let mut from_global: Vec<Option<Signal>> = vec![None; table.len()];
            for (local, gid) in to_global.iter().enumerate() {
                from_global[gid.bit()] = Some(Signal(local as u32));
            }
            let valued: Vec<bool> = efsm.signals.iter().map(|info| info.valued).collect();
            let watches: BitSet = efsm
                .inputs()
                .map(|(s, _)| to_global[s.0 as usize].bit())
                .collect();
            kernel_tasks.add_task(design.entry.clone(), (10 - i.min(9)) as u8, watches);
            let fused = Fused::compile(&efsm, &proto_rt);
            tasks.push(Arc::new(TaskProgram {
                design,
                efsm,
                fused,
                proto_rt,
                to_global,
                from_global,
                valued,
            }));
        }
        Ok(SharedProgram {
            tasks,
            kernel_tasks: Arc::new(kernel_tasks),
            sig_table: Arc::new(table),
        })
    }

    /// The design-wide signal interner.
    pub fn sig_table(&self) -> &Arc<SigTable> {
        &self.sig_table
    }

    /// Number of tasks in the program set.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// The designs, in task order.
    pub fn designs(&self) -> impl Iterator<Item = &Design> {
        self.tasks.iter().map(|t| &t.design)
    }
}

/// One RTOS task: an `Arc`-shared compiled program plus this
/// session's private mutable state (runtime, control state, fuel
/// credit). Task `i` is the kernel's `TaskId(i)`.
struct Task {
    prog: Arc<TaskProgram>,
    rt: Rt,
    state: StateId,
    /// Fuel withheld from this task by the current instant's
    /// starvation squeeze, restored when the instant ends.
    fuel_credit: u64,
}

/// N compiled designs running as RTOS tasks (N = 1 models the paper's
/// synchronous single-task implementation: the whole design is one EFSM
/// and only external I/O passes through the kernel).
pub struct AsyncRunner {
    tasks: Vec<Task>,
    kernel: Kernel,
    cost: CostParams,
    table: Arc<SigTable>,
    /// Execution backend: [`Backend::Compiled`] (default) drives every
    /// state of a fused task through its fused program (the s-graph's
    /// control ops and the inlined data bytecode in one dispatch loop)
    /// and any other task on the walker;
    /// [`Backend::Walker`] forces the s-graph walker and the
    /// tree-walking data interpreter everywhere — the two are
    /// observationally identical (differential-tested), the toggle
    /// exists for benchmarking and bisection.
    backend: Backend,
    /// Current environment instant number.
    pub instant: u64,
    /// Emission counts by interned id.
    counts: Vec<u64>,
    /// Optional full-trace recorder (see [`AsyncRunner::enable_trace`]).
    recorder: Recorder,
    /// Per-instant resource budgets (None = no watchdog).
    watchdog: Option<WatchdogBudget>,
    /// An instant is currently executing. Left latched when a panic
    /// unwinds through `instant_ids` — the poisoned-state detector:
    /// further instants are refused with [`SimErrorKind::Poisoned`].
    in_instant: bool,
    /// Fleet session id carried on telemetry `error` lines (0 outside
    /// a fleet).
    session: u64,
    /// The armed fault plan of the runner's own sites (the kernel
    /// holds its own), if any — see [`AsyncRunner::set_faults`].
    faults: Option<Box<Faults>>,
    /// Externally-delayed events: `(due instant, signal bit)`. Empty
    /// unless a fault plan delays stimuli.
    delayed: Vec<(u64, usize)>,
    // Reusable per-instant scratch (what makes `instant_ids`
    // allocation-free in steady state).
    evset_scratch: BitSet,
    local_scratch: BitSet,
    emit_scratch: Vec<Signal>,
    /// Effective-stimulus scratch for fault-adjusted instants.
    fault_scratch: BitSet,
}

impl AsyncRunner {
    /// Build a runner from compiled designs (one task each). Compiles
    /// a private [`SharedProgram`] — fleets that stamp out many
    /// sessions over one design set should compile once and use
    /// [`AsyncRunner::from_shared`] instead.
    ///
    /// # Errors
    ///
    /// Propagates EFSM compilation and runtime construction failures.
    pub fn new(
        designs: Vec<Design>,
        compile_opts: &CompileOptions,
        cost: CostParams,
        kernel_params: KernelParams,
    ) -> Result<AsyncRunner, SimError> {
        let shared = SharedProgram::compile(designs, compile_opts)?;
        Ok(AsyncRunner::from_shared(&shared, cost, kernel_params))
    }

    /// Instantiate an independent session over an already-compiled
    /// program set: empty mailboxes over the shared kernel task table,
    /// cloned prototype runtimes, zeroed counters — no recompilation,
    /// and no copy of anything fixed (compiled tables, bytecode, data
    /// ASTs, type tables and task tables all stay behind shared
    /// `Arc`s): only session state is built.
    pub fn from_shared(
        shared: &SharedProgram,
        cost: CostParams,
        kernel_params: KernelParams,
    ) -> AsyncRunner {
        let kernel = Kernel::with_tasks(kernel_params, Arc::clone(&shared.kernel_tasks));
        let tasks = shared
            .tasks
            .iter()
            .map(|prog| Task {
                rt: prog.proto_rt.clone(),
                state: prog.efsm.init,
                prog: Arc::clone(prog),
                fuel_credit: 0,
            })
            .collect();
        let table = Arc::clone(&shared.sig_table);
        let counts = vec![0; table.len()];
        AsyncRunner {
            tasks,
            kernel,
            cost,
            recorder: Recorder::new(Arc::clone(&table)),
            table,
            backend: Backend::default(),
            instant: 0,
            counts,
            watchdog: None,
            in_instant: false,
            session: 0,
            faults: None,
            delayed: Vec::new(),
            evset_scratch: BitSet::new(),
            local_scratch: BitSet::new(),
            emit_scratch: Vec::new(),
            fault_scratch: BitSet::new(),
        }
    }

    /// Tag this runner with a fleet session id — carried on its
    /// telemetry `error` lines (and by the supervisor's `run_*`
    /// events) so fleet JSONL streams are attributable per session.
    pub fn set_session(&mut self, session: u64) {
        self.session = session;
    }

    /// The session id this runner is tagged with (0 outside a fleet).
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Arm this runner and its kernel with `plan` (zeroed counts,
    /// open one-shot latches); `None` disarms. Every site is keyed
    /// by its coordinates, so runners armed with one plan replay the
    /// same faults on every backend, and a restore replays them too.
    pub fn set_faults(&mut self, plan: Option<FaultPlan>) {
        self.faults = plan.map(|p| Box::new(Faults::new(p)));
        self.kernel.set_faults(plan);
    }

    /// The runner's armed sites, if any — the fleet supervisor fires
    /// its kill and stall sites for this session through them.
    pub fn faults_mut(&mut self) -> Option<&mut Faults> {
        self.faults.as_deref_mut()
    }

    /// Injections performed since arming by the runner and its
    /// kernel, including work a restore rolled back.
    pub fn injection_stats(&self) -> InjectionStats {
        self.faults.as_ref().map(|f| f.stats()).unwrap_or_default() + self.kernel.injection_stats()
    }

    /// Access the kernel (cycle counters, loss statistics).
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// The design-wide signal interner.
    pub fn sig_table(&self) -> &Arc<SigTable> {
        &self.table
    }

    /// The designs running in the tasks.
    pub fn designs(&self) -> impl Iterator<Item = &Design> {
        self.tasks.iter().map(|t| &t.prog.design)
    }

    /// The compiled machines.
    pub fn machines(&self) -> impl Iterator<Item = &Efsm> {
        self.tasks.iter().map(|t| &t.prog.efsm)
    }

    /// Choose the execution backend for every task — control dispatch
    /// and data switch together: [`Backend::Compiled`] (the default)
    /// runs each reaction of a task with a fused backend as one fused
    /// dispatch loop (a task with a data hook outside the bytecode
    /// subset has none and walks),
    /// [`Backend::Walker`] forces the reference s-graph walker and
    /// tree-walking data hooks. The two are observationally identical
    /// (differential-tested); the switch exists for measurement,
    /// bisection and differential gating. It may change between any
    /// two instants of a session: a fused task's registers go back to
    /// its frame before its first walked reaction.
    pub fn set_backend(&mut self, backend: Backend) {
        self.backend = backend;
    }

    /// The active execution backend.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Compiled-backend coverage, one [`TaskCoverage`] per task.
    pub fn coverage(&self) -> CoverageReport {
        CoverageReport {
            tasks: self
                .tasks
                .iter()
                .map(|t| {
                    let (vm_compiled, vm_total) = t.rt.vm_coverage();
                    TaskCoverage {
                        task: t.prog.design.entry.clone(),
                        states: t.prog.efsm.states.len() as u32,
                        fused_rows: t.prog.fused.as_ref().map_or(0, Fused::control_ops),
                        vm_compiled,
                        vm_total,
                    }
                })
                .collect(),
        }
    }

    /// Install (or clear) the per-instant watchdog budgets.
    pub fn set_watchdog(&mut self, wd: Option<WatchdogBudget>) {
        self.watchdog = wd;
    }

    /// The active watchdog budgets, if any.
    pub fn watchdog(&self) -> Option<WatchdogBudget> {
        self.watchdog
    }

    /// Did a panic unwind through an instant, leaving the runner
    /// state torn? A poisoned runner refuses further instants.
    pub fn is_poisoned(&self) -> bool {
        self.in_instant
    }

    /// Set the value of a valued *external* input on every task that
    /// reads it (the testbench side of `emit_v`).
    ///
    /// # Errors
    ///
    /// Fails when no task knows the signal.
    pub fn set_input_i64(&mut self, name: &str, v: i64) -> Result<(), SimError> {
        let Some(id) = self.table.lookup(name) else {
            return err(format!("no task reads signal `{name}`"));
        };
        self.set_input_i64_id(id, v)
    }

    /// [`AsyncRunner::set_input_i64`] by interned id.
    ///
    /// # Errors
    ///
    /// Fails when no task knows the signal, or the signal is pure.
    pub fn set_input_i64_id(&mut self, sig: SigId, v: i64) -> Result<(), SimError> {
        // Fault site: a corrupted sensor/bus flips bits before any
        // task sees the value, so every reader sees the same one.
        let v = (self.faults.as_deref_mut())
            .and_then(|f| f.corrupt_i64(self.instant, sig.0, v))
            .unwrap_or(v);
        let mut hit = false;
        let entry_err = |t: &Task, e: ecl_core::rt::RtError| {
            SimError::eval(format!("task `{}`: {e}", t.prog.design.entry))
        };
        for ti in 0..self.tasks.len() {
            let Some(Some(local)) = self.tasks[ti].prog.from_global.get(sig.bit()).copied() else {
                continue;
            };
            let t = &mut self.tasks[ti];
            t.rt.set_input_i64_idx(local.0 as usize, v)
                .map_err(|e| entry_err(t, e))?;
            hit = true;
        }
        if !hit {
            return err(format!("no task reads signal `{}`", self.table.name(sig)));
        }
        self.recorder.note_input(sig, v);
        Ok(())
    }

    /// Run one environment instant entirely on interned ids: post the
    /// external `events`, tick every task once (the paper's footnote:
    /// tasks with pending `await ()` deltas must be rescheduled even
    /// without events), then run event cascades to quiescence. The
    /// emitted ids land in `out` (cleared first). Allocation-free in
    /// steady state.
    ///
    /// When armed, the external drop/delay sites are applied here
    /// (keyed by `(instant, signal)`, identically on the interpreter
    /// runner). A panic that unwinds through the instant latches the
    /// poisoned flag: further instants are refused with
    /// [`SimErrorKind::Poisoned`] instead of running on torn state.
    ///
    /// # Errors
    ///
    /// Propagates data-evaluation errors from any task; trips the
    /// watchdog budgets, if set.
    pub fn instant_ids(&mut self, events: &BitSet, out: &mut BitSet) -> Result<(), SimError> {
        if self.in_instant {
            return Err(SimError::poisoned(
                "runner state torn by a panic in an earlier instant",
            ));
        }
        let mut scratch = std::mem::take(&mut self.fault_scratch);
        let events = match self.faults.as_deref_mut() {
            Some(f) => faulted_stimuli(f, &mut self.delayed, self.instant, events, &mut scratch),
            None => events,
        };
        self.in_instant = true;
        let r = self.instant_ids_inner(events, out);
        self.in_instant = false;
        self.fault_scratch = scratch;
        r
    }

    fn instant_ids_inner(&mut self, events: &BitSet, out: &mut BitSet) -> Result<(), SimError> {
        if let Some(f) = self.faults.as_deref_mut() {
            if f.panic_due(self.instant) {
                panic!("ecl-faults: injected panic at instant {}", self.instant);
            }
            self.kernel.begin_instant(self.instant);
            if let Some(cap) = f.fuel_cap(self.instant) {
                for t in &mut self.tasks {
                    let fuel = t.rt.machine().fuel();
                    if fuel > cap {
                        t.rt.machine_mut().set_fuel(cap);
                        t.fuel_credit = fuel - cap;
                    }
                }
            }
        }
        let wall_t0 = self
            .watchdog
            .and_then(|w| w.max_wall_ns.map(|_| std::time::Instant::now()));
        let mut nodes_spent = 0u64;
        let mut fuel_spent = 0u64;
        out.clear();
        self.recorder.begin(self.instant, events);
        for e in events.iter() {
            self.kernel.post_external(e as u32);
        }
        // Phase 1: periodic tick — every task is dispatched and reacts
        // once. A fused task on the compiled backend with an empty
        // mailbox in a quiet state reacts by its precomputed outcome:
        // charged the cycles `react_task` bills a reaction of no ops
        // and no emissions, and moved to its next state, without
        // projecting inputs or entering the dispatch loop.
        for ti in 0..self.tasks.len() {
            let had_events = self
                .kernel
                .dispatch_into(TaskId(ti), &mut self.evset_scratch);
            if !had_events && self.backend == Backend::Compiled {
                let t = &mut self.tasks[ti];
                if let Some((next, nodes)) = t.prog.fused.as_ref().and_then(|f| f.quiet(t.state)) {
                    t.state = next;
                    self.kernel.charge_task(
                        self.cost.cyc_reaction_base + u64::from(nodes) * self.cost.cyc_test,
                    );
                    nodes_spent += u64::from(nodes);
                    if ecl_telemetry::enabled() {
                        tm::TABLE_STEPS.raw_add(1);
                        tm::TABLE_QUIET_STEPS.raw_add(1);
                        tm::TABLE_FUSED_OPS.raw_add(u64::from(nodes));
                    }
                    continue;
                }
            }
            let (nodes, ops) = self.react_task(ti, out)?;
            nodes_spent += nodes as u64;
            fuel_spent += ops;
        }
        // Phase 2: cascades from internal emissions.
        let mut budget = 100_000u32; // runaway guard
        while let Some(TaskId(ti)) = self.kernel.schedule_into(&mut self.evset_scratch) {
            budget = budget.checked_sub(1).ok_or_else(|| {
                SimError::livelock("asynchronous network livelock (tasks keep waking each other)")
            })?;
            let (nodes, ops) = self.react_task(ti, out)?;
            nodes_spent += nodes as u64;
            fuel_spent += ops;
        }
        if self.faults.is_some() {
            // Hand back the fuel the starvation squeeze withheld —
            // starvation is per instant, not permanent.
            for t in &mut self.tasks {
                if t.fuel_credit > 0 {
                    let fuel = t.rt.machine().fuel();
                    t.rt.machine_mut().set_fuel(fuel + t.fuel_credit);
                    t.fuel_credit = 0;
                }
            }
        }
        self.recorder.end();
        self.instant += 1;
        check_watchdog(
            self.watchdog,
            self.instant - 1,
            nodes_spent,
            fuel_spent,
            wall_t0,
        )
    }

    /// Run one reaction of task `ti` with `evset_scratch` as the
    /// present input snapshot (global ids), accumulating emissions
    /// into `out`. Returns `(nodes visited, fuel burned)` for the
    /// watchdog accounting.
    fn react_task(&mut self, ti: usize, out: &mut BitSet) -> Result<(u32, u64), SimError> {
        // Map the global event snapshot into the task's signal space.
        self.local_scratch.clear();
        {
            let t = &self.tasks[ti];
            for g in self.evset_scratch.iter() {
                if let Some(Some(local)) = t.prog.from_global.get(g) {
                    self.local_scratch.insert(local.0 as usize);
                }
            }
        }
        let fuel_before = self.tasks[ti].rt.machine().fuel();
        let emit_base = self.emit_scratch.len();
        debug_assert_eq!(emit_base, 0);
        let r = {
            let t = &mut self.tasks[ti];
            let r = match &t.prog.fused {
                Some(fused) if self.backend == Backend::Compiled => fused.step(
                    t.state,
                    &self.local_scratch,
                    &mut t.rt,
                    &mut self.emit_scratch,
                ),
                fused => {
                    // The walker reads the frame: a fused task's
                    // registers go back to it first.
                    if let Some(fused) = fused {
                        fused.sync_frame(&mut t.rt);
                    }
                    t.prog.efsm.step_bits(
                        t.state,
                        &self.local_scratch,
                        &mut t.rt,
                        &mut self.emit_scratch,
                    )
                }
            };
            t.state = r.next;
            if let Some(e) = t.rt.take_error() {
                self.emit_scratch.clear();
                return err(format!("task `{}`: {e}", t.prog.design.entry));
            }
            r
        };
        // Cycle charges for the reaction.
        let fuel_after = self.tasks[ti].rt.machine().fuel();
        let ops = fuel_before.saturating_sub(fuel_after);
        let cycles = self.cost.cyc_reaction_base
            + r.nodes_visited as u64 * self.cost.cyc_test
            + ops * self.cost.cyc_per_op
            + self.emit_scratch.len() as u64 * self.cost.cyc_emit;
        self.kernel.charge_task(cycles);
        // Deliver emissions: values first, then events.
        let tid = TaskId(ti);
        for k in 0..self.emit_scratch.len() {
            let local = self.emit_scratch[k];
            let gid = self.tasks[ti].prog.to_global[local.0 as usize];
            if self.recorder.is_enabled() {
                let t = &self.tasks[ti];
                let traced =
                    t.rt.signal_value(local.0 as usize)
                        .and_then(|v| trace_value(&t.rt, v));
                self.recorder.emit(gid, traced);
            }
            // Copy the value into every *other* task that reads it, in
            // place: the borrow of the emitter is split from the reader,
            // so nothing is cloned.
            if self.tasks.len() > 1 && self.tasks[ti].prog.valued[local.0 as usize] {
                for rj in 0..self.tasks.len() {
                    if rj == ti {
                        continue;
                    }
                    let Some(Some(lj)) = self.tasks[rj].prog.from_global.get(gid.bit()).copied()
                    else {
                        continue;
                    };
                    let (from, to) = if ti < rj {
                        let (lo, hi) = self.tasks.split_at_mut(rj);
                        (&lo[ti], &mut hi[0])
                    } else {
                        let (lo, hi) = self.tasks.split_at_mut(ti);
                        (&hi[0], &mut lo[rj])
                    };
                    let Some(v) = from.rt.signal_value(local.0 as usize) else {
                        break;
                    };
                    let _ = to.rt.set_input_value_idx(lj.0 as usize, v);
                    self.kernel
                        .charge_task(v.bytes.len() as u64 * self.cost.cyc_per_value_byte);
                }
            }
            self.kernel.post_internal(tid, gid.0);
            self.counts[gid.bit()] += 1;
            out.insert(gid.bit());
        }
        self.emit_scratch.clear();
        Ok((r.nodes_visited, ops))
    }
}

/// One task's private mutable state inside a [`RunnerSnapshot`].
#[derive(Clone)]
struct TaskSnapshot {
    state: StateId,
    rt: Rt,
    fuel_credit: u64,
}

/// The full mutable reaction state of an [`AsyncRunner`] captured at
/// an instant boundary: kernel mailboxes and deferred queues, every
/// task's EFSM control state and data runtime (slot file, signal
/// values, fuel), emission counters, the trace
/// ring, pending delayed stimuli, the backend choice and the watchdog
/// budgets. Restoring it resumes the session bit-identically — VCD
/// bytes, verdicts, `nodes_visited` and fuel all match a run that was
/// never interrupted, with or without a fault plan armed
/// (property-tested in `tests/checkpoint.rs`). The armed plan is
/// configuration, not state: a restore keeps the runner's own. Only
/// session state is copied; the fixed half of each task and of the
/// kernel stays shared with the runner (see [`AsyncRunner::from_shared`]).
#[derive(Clone)]
pub struct RunnerSnapshot {
    instant: u64,
    backend: Backend,
    kernel: Kernel,
    counts: Vec<u64>,
    recorder: Recorder,
    watchdog: Option<WatchdogBudget>,
    delayed: Vec<(u64, usize)>,
    session: u64,
    tasks: Vec<TaskSnapshot>,
}

impl RunnerSnapshot {
    /// The instant the snapshot was taken at (the next one to run).
    pub fn instant(&self) -> u64 {
        self.instant
    }
}

/// Checkpoint/restore of a runner's mutable state at instant
/// boundaries — the state-extraction surface the fleet supervisor
/// builds restart-with-backoff on.
pub trait Snapshot {
    /// Capture the full mutable reaction state. Only valid at an
    /// instant boundary.
    ///
    /// # Errors
    ///
    /// [`SimErrorKind::Poisoned`] when called mid-instant (a poisoned
    /// runner's state is torn; restore from an earlier snapshot
    /// instead).
    fn snapshot(&self) -> Result<RunnerSnapshot, SimError>;

    /// Capture the state into `snap`, an earlier snapshot of this
    /// runner, copying into its buffers instead of allocating new
    /// ones.
    ///
    /// # Errors
    ///
    /// As [`Snapshot::snapshot`]; `snap` is then left as it was.
    fn snapshot_into(&self, snap: &mut RunnerSnapshot) -> Result<(), SimError>;

    /// Restore a previously captured state, clearing any poisoning —
    /// this is what makes restart-after-panic safe: every byte of
    /// torn state is replaced by the checkpoint's copy.
    ///
    /// # Errors
    ///
    /// Fails when the snapshot was taken from a runner with a
    /// different task topology.
    fn restore(&mut self, snap: &RunnerSnapshot) -> Result<(), SimError>;
}

impl AsyncRunner {
    /// `Ok` at an instant boundary, where a snapshot cannot be torn.
    fn at_boundary(&self) -> Result<(), SimError> {
        if self.in_instant {
            return Err(SimError::poisoned(
                "cannot snapshot mid-instant (runner state is torn)",
            ));
        }
        Ok(())
    }
}

impl Snapshot for AsyncRunner {
    fn snapshot(&self) -> Result<RunnerSnapshot, SimError> {
        self.at_boundary()?;
        // The armed plan is configuration, not state: it stays out.
        let mut kernel = self.kernel.clone();
        kernel.set_faults(None);
        Ok(RunnerSnapshot {
            instant: self.instant,
            backend: self.backend,
            kernel,
            counts: self.counts.clone(),
            recorder: self.recorder.clone(),
            watchdog: self.watchdog,
            delayed: self.delayed.clone(),
            session: self.session,
            tasks: self
                .tasks
                .iter()
                .map(|t| TaskSnapshot {
                    state: t.state,
                    rt: t.rt.clone(),
                    fuel_credit: t.fuel_credit,
                })
                .collect(),
        })
    }

    /// Copies into `snap`'s kernel, counters, trace ring and task
    /// runtimes: a periodic checkpoint of the same runner allocates
    /// nothing once its buffers have grown. A snapshot of another
    /// topology is replaced whole.
    fn snapshot_into(&self, snap: &mut RunnerSnapshot) -> Result<(), SimError> {
        self.at_boundary()?;
        if snap.tasks.len() != self.tasks.len() {
            *snap = self.snapshot()?;
            return Ok(());
        }
        snap.instant = self.instant;
        snap.backend = self.backend;
        // `restore` keeps the snapshot kernel's own plan: none.
        snap.kernel.restore(&self.kernel);
        snap.counts.clone_from(&self.counts);
        snap.recorder.clone_from(&self.recorder);
        snap.watchdog = self.watchdog;
        snap.delayed.clone_from(&self.delayed);
        snap.session = self.session;
        for (s, t) in snap.tasks.iter_mut().zip(&self.tasks) {
            s.state = t.state;
            s.rt.clone_from(&t.rt);
            s.fuel_credit = t.fuel_credit;
        }
        Ok(())
    }

    fn restore(&mut self, snap: &RunnerSnapshot) -> Result<(), SimError> {
        if snap.tasks.len() != self.tasks.len() {
            return err(format!(
                "snapshot has {} tasks, runner has {}",
                snap.tasks.len(),
                self.tasks.len()
            ));
        }
        self.instant = snap.instant;
        self.backend = snap.backend;
        self.kernel.restore(&snap.kernel);
        self.counts.clone_from(&snap.counts);
        self.recorder.clone_from(&snap.recorder);
        self.watchdog = snap.watchdog;
        self.delayed.clone_from(&snap.delayed);
        self.session = snap.session;
        for (t, s) in self.tasks.iter_mut().zip(&snap.tasks) {
            t.state = s.state;
            t.rt.clone_from(&s.rt);
            t.fuel_credit = s.fuel_credit;
        }
        // A restore heals a poisoned runner: the torn state (including
        // any half-filled scratch) is gone.
        self.in_instant = false;
        self.emit_scratch.clear();
        Ok(())
    }
}

/// Interpreter-backed single-design runner (reference semantics, used
/// for differential testing against [`AsyncRunner`] with one task).
pub struct InterpRunner<'d> {
    design: &'d Design,
    machine: esterel::Machine<'d>,
    rt: Rt,
    table: Arc<SigTable>,
    /// Emission counts by interned id.
    counts: Vec<u64>,
    /// Current environment instant number.
    pub instant: u64,
    recorder: Recorder,
    /// Per-instant resource budgets (None = no watchdog).
    watchdog: Option<WatchdogBudget>,
    /// Panic-poisoning latch, as on [`AsyncRunner`].
    in_instant: bool,
    /// The armed fault plan, if any — see [`InterpRunner::set_faults`].
    faults: Option<Box<Faults>>,
    /// Externally-delayed events: `(due instant, signal bit)`.
    delayed: Vec<(u64, usize)>,
    /// Effective-stimulus scratch for fault-adjusted instants.
    fault_scratch: BitSet,
}

impl<'d> InterpRunner<'d> {
    /// Build a runner over a design.
    ///
    /// # Errors
    ///
    /// Propagates runtime construction failures.
    pub fn new(design: &'d Design) -> Result<InterpRunner<'d>, SimError> {
        let rt = design.new_rt().map_err(|e| SimError::eval(e.to_string()))?;
        // Interning in program order makes SigId(i) ≡ Signal(i): the
        // global and local signal spaces coincide for a single design.
        let mut table = SigTable::new();
        for info in design.program().signals() {
            table.intern(&info.name);
        }
        let table = Arc::new(table);
        let counts = vec![0; table.len()];
        Ok(InterpRunner {
            design,
            machine: esterel::Machine::new(design.program()),
            rt,
            recorder: Recorder::new(Arc::clone(&table)),
            table,
            counts,
            instant: 0,
            watchdog: None,
            in_instant: false,
            faults: None,
            delayed: Vec::new(),
            fault_scratch: BitSet::new(),
        })
    }

    /// The design-wide signal interner.
    pub fn sig_table(&self) -> &Arc<SigTable> {
        &self.table
    }

    /// Set a valued input.
    ///
    /// # Errors
    ///
    /// Unknown/pure signal.
    pub fn set_input_i64(&mut self, name: &str, v: i64) -> Result<(), SimError> {
        let Some(id) = self.table.lookup(name) else {
            return err(format!("unknown signal `{name}`"));
        };
        self.set_input_i64_id(id, v)
    }

    /// [`InterpRunner::set_input_i64`] by interned id.
    ///
    /// # Errors
    ///
    /// Unknown/pure signal.
    pub fn set_input_i64_id(&mut self, sig: SigId, v: i64) -> Result<(), SimError> {
        let v = (self.faults.as_deref_mut())
            .and_then(|f| f.corrupt_i64(self.instant, sig.0, v))
            .unwrap_or(v);
        self.rt
            .set_input_i64_idx(sig.bit(), v)
            .map_err(|e| SimError::eval(e.to_string()))?;
        self.recorder.note_input(sig, v);
        Ok(())
    }

    /// Run one instant on interned ids; emitted ids land in `out`
    /// (cleared first). For this runner global ids coincide with the
    /// program's signal indices, so `events` feeds the interpreter
    /// directly.
    ///
    /// When armed, the external drop/delay sites are applied with the
    /// same `(instant, signal)` keys as on [`AsyncRunner`], so a
    /// kernel-free plan replays identically on both runners.
    ///
    /// # Errors
    ///
    /// Non-constructive programs and data errors; watchdog trips.
    pub fn instant_ids(&mut self, events: &BitSet, out: &mut BitSet) -> Result<(), SimError> {
        if self.in_instant {
            return Err(SimError::poisoned(
                "runner state torn by a panic in an earlier instant",
            ));
        }
        let mut scratch = std::mem::take(&mut self.fault_scratch);
        let events = match self.faults.as_deref_mut() {
            Some(f) => faulted_stimuli(f, &mut self.delayed, self.instant, events, &mut scratch),
            None => events,
        };
        self.in_instant = true;
        let r = self.instant_ids_inner(events, out);
        self.in_instant = false;
        self.fault_scratch = scratch;
        r
    }

    fn instant_ids_inner(&mut self, events: &BitSet, out: &mut BitSet) -> Result<(), SimError> {
        let mut fuel_credit = 0u64;
        if let Some(f) = self.faults.as_deref_mut() {
            if f.panic_due(self.instant) {
                panic!("ecl-faults: injected panic at instant {}", self.instant);
            }
            if let Some(cap) = f.fuel_cap(self.instant) {
                let fuel = self.rt.machine().fuel();
                if fuel > cap {
                    self.rt.machine_mut().set_fuel(cap);
                    fuel_credit = fuel - cap;
                }
            }
        }
        let wall_t0 = self
            .watchdog
            .and_then(|w| w.max_wall_ns.map(|_| std::time::Instant::now()));
        let fuel_before = self.rt.machine().fuel();
        let passes_before = self.machine.passes;
        out.clear();
        self.recorder.begin(self.instant, events);
        let r = self
            .machine
            .react_set(events, &mut self.rt as &mut dyn DataHooks)
            .map_err(|e| SimError::eval(e.to_string()))?;
        if let Some(e) = self.rt.take_error() {
            return err(e.to_string());
        }
        for s in &r.emitted {
            let gid = SigId(s.0);
            if self.recorder.is_enabled() {
                let traced = self
                    .rt
                    .signal_value(s.0 as usize)
                    .and_then(|v| trace_value(&self.rt, v));
                self.recorder.emit(gid, traced);
            }
            self.counts[gid.bit()] += 1;
            out.insert(gid.bit());
        }
        let fuel_spent = fuel_before.saturating_sub(self.rt.machine().fuel());
        if fuel_credit > 0 {
            let fuel = self.rt.machine().fuel();
            self.rt.machine_mut().set_fuel(fuel + fuel_credit);
        }
        self.recorder.end();
        self.instant += 1;
        let passes = self.machine.passes - passes_before;
        check_watchdog(self.watchdog, self.instant - 1, passes, fuel_spent, wall_t0)
    }

    /// Compiled-backend coverage of the single design: none. Control
    /// runs on the constructive interpreter and data on the
    /// tree-walker, so the report only counts the data hooks
    /// (`states == fused_rows == vm_compiled == 0`).
    pub fn coverage(&self) -> CoverageReport {
        let (_, vm_total) = self.rt.vm_coverage();
        CoverageReport {
            tasks: vec![TaskCoverage {
                task: self.design.entry.clone(),
                states: 0,
                fused_rows: 0,
                vm_compiled: 0,
                vm_total,
            }],
        }
    }

    /// Access the runtime (inspect signal values).
    pub fn rt(&self) -> &Rt {
        &self.rt
    }

    /// Install (or clear) the per-instant watchdog budgets.
    pub fn set_watchdog(&mut self, wd: Option<WatchdogBudget>) {
        self.watchdog = wd;
    }

    /// The active watchdog budgets, if any.
    pub fn watchdog(&self) -> Option<WatchdogBudget> {
        self.watchdog
    }

    /// Did a panic unwind through an instant, leaving the runner
    /// state torn? A poisoned runner refuses further instants.
    pub fn is_poisoned(&self) -> bool {
        self.in_instant
    }

    /// Arm this runner with `plan` (zeroed counts, open one-shot
    /// latches); `None` disarms. The kernel sites do not exist here;
    /// the others use the same keys as on [`AsyncRunner`].
    pub fn set_faults(&mut self, plan: Option<FaultPlan>) {
        self.faults = plan.map(|p| Box::new(Faults::new(p)));
    }

    /// Injections performed since arming.
    pub fn injection_stats(&self) -> InjectionStats {
        self.faults.as_ref().map(|f| f.stats()).unwrap_or_default()
    }

    /// The design this runner executes.
    pub fn design(&self) -> &'d Design {
        self.design
    }
}

impl Runner for AsyncRunner {
    fn coverage(&self) -> CoverageReport {
        AsyncRunner::coverage(self)
    }

    fn sig_table(&self) -> &Arc<SigTable> {
        AsyncRunner::sig_table(self)
    }

    fn trace_slot(&self) -> &Recorder {
        &self.recorder
    }

    fn trace_slot_mut(&mut self) -> &mut Recorder {
        &mut self.recorder
    }

    fn counts_slot(&self) -> &[u64] {
        &self.counts
    }

    fn set_input_i64_id(&mut self, sig: SigId, v: i64) -> Result<(), SimError> {
        AsyncRunner::set_input_i64_id(self, sig, v)
    }

    fn set_input_i64(&mut self, name: &str, v: i64) -> Result<(), SimError> {
        AsyncRunner::set_input_i64(self, name, v)
    }

    fn instant_ids(&mut self, events: &BitSet, out: &mut BitSet) -> Result<(), SimError> {
        AsyncRunner::instant_ids(self, events, out)
    }

    fn now(&self) -> u64 {
        self.instant
    }

    fn session_id(&self) -> u64 {
        self.session
    }

    fn emit_losses(&self) {
        self.kernel.emit_events_lost_event();
    }
}

impl<'d> Runner for InterpRunner<'d> {
    fn coverage(&self) -> CoverageReport {
        InterpRunner::coverage(self)
    }

    fn sig_table(&self) -> &Arc<SigTable> {
        InterpRunner::sig_table(self)
    }

    fn trace_slot(&self) -> &Recorder {
        &self.recorder
    }

    fn trace_slot_mut(&mut self) -> &mut Recorder {
        &mut self.recorder
    }

    fn counts_slot(&self) -> &[u64] {
        &self.counts
    }

    fn set_input_i64_id(&mut self, sig: SigId, v: i64) -> Result<(), SimError> {
        InterpRunner::set_input_i64_id(self, sig, v)
    }

    fn set_input_i64(&mut self, name: &str, v: i64) -> Result<(), SimError> {
        InterpRunner::set_input_i64(self, name, v)
    }

    fn instant_ids(&mut self, events: &BitSet, out: &mut BitSet) -> Result<(), SimError> {
        InterpRunner::instant_ids(self, events, out)
    }

    fn now(&self) -> u64 {
        self.instant
    }
}
impl From<SimError> for ecl_syntax::EclError {
    fn from(e: SimError) -> Self {
        ecl_syntax::EclError::msg(
            ecl_syntax::Stage::Sim,
            e.msg.clone(),
            ecl_syntax::Span::dummy(),
        )
    }
}

impl From<ecl_syntax::EclError> for SimError {
    fn from(e: ecl_syntax::EclError) -> Self {
        SimError::eval(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecl_core::Source;

    const RELAY: &str = "
        module a(input pure i, output pure m) { while (1) { await (i); emit (m); } }
        module b(input pure m, output pure o) { while (1) { await (m); emit (o); } }
        module top(input pure i, output pure o) {
          signal pure mid;
          par { a(i, mid); b(mid, o); }
        }";

    fn relay() -> Design {
        Source::new(RELAY)
            .parse()
            .unwrap()
            .elaborate("top")
            .unwrap()
            .split()
            .unwrap()
            .to_design()
    }

    fn runner(designs: Vec<Design>) -> AsyncRunner {
        AsyncRunner::new(
            designs,
            &Default::default(),
            CostParams::default(),
            KernelParams::default(),
        )
        .unwrap()
    }

    /// A warm-up instant (awaits start), then `n` instants with `i`.
    fn pulses(n: usize) -> Vec<InstantEvents> {
        let i = InstantEvents {
            pure: vec!["i".into()],
            ..Default::default()
        };
        std::iter::once(InstantEvents::default())
            .chain(std::iter::repeat_n(i, n))
            .collect()
    }

    #[test]
    fn single_task_runner_relays() {
        // Within one EFSM, await (mid) sees the emission only in a
        // later instant (delayed await), so drive several instants.
        let mut r = runner(vec![relay()]);
        r.run_events(&pulses(5), |_, _| {}).unwrap();
        assert!(
            r.count_of("o") > 0,
            "o should fire; counts: {:?}",
            r.counts()
        );
        assert!(r.kernel().task_cycles > 0);
        assert!(r.kernel().rtos_cycles > 0);
    }

    #[test]
    fn partitioned_runner_relays_via_mailboxes() {
        let parts = Source::new(RELAY)
            .parse()
            .unwrap()
            .partition("top")
            .unwrap();
        let mut r = runner(parts);
        r.run_events(&pulses(6), |_, _| {}).unwrap();
        assert!(r.count_of("o") > 0, "counts: {:?}", r.counts());
        // Internal deliveries happened.
        assert!(r.kernel().deliveries > 0);
    }

    #[test]
    fn interp_runner_matches_async_single_task() {
        use rand::{Rng, SeedableRng};
        let d = relay();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let events: Vec<InstantEvents> = (0..120)
            .map(|_| InstantEvents {
                pure: if rng.gen_bool(0.5) {
                    vec!["i".into()]
                } else {
                    vec![]
                },
                ..Default::default()
            })
            .collect();
        // Only compare the design output: both runners report `o`
        // by the same global name.
        let mut interp = Vec::new();
        InterpRunner::new(&d)
            .unwrap()
            .run_events(&events, |_, p| interp.push(p.contains("o")))
            .unwrap();
        let mut compiled = Vec::new();
        runner(vec![d.clone()])
            .run_events(&events, |_, p| compiled.push(p.contains("o")))
            .unwrap();
        assert_eq!(interp, compiled);
    }

    #[test]
    fn present_set_resolves_names_lazily() {
        let mut table = SigTable::new();
        let a = table.intern("a");
        let b = table.intern("b");
        let set: BitSet = [a.bit(), b.bit()].into_iter().collect();
        let p = Present::new(&table, &set);
        assert!(p.contains_id(a));
        assert!(p.contains("b"));
        assert!(!p.contains("c"));
        assert_eq!(p.names().collect::<Vec<_>>(), vec!["a", "b"]);
        assert_eq!(p.to_names(), vec!["a".to_string(), "b".to_string()]);
    }
}
