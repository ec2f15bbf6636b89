//! `ecl-fleet` — a supervised multi-tenant session fleet.
//!
//! One compiled design, many independent simulations: the supervisor
//! compiles a set of designs **once** into a [`sim::SharedProgram`]
//! (`Arc`-shared EFSMs, fused tables and lowered data programs) and
//! instantiates a cheap per-session [`sim::AsyncRunner`] clone for
//! every admitted [`SessionSpec`], sharded across worker threads with
//! bounded per-shard run queues. Three robustness pillars, all
//! deterministic under a seed:
//!
//! * **Checkpoint/restore** — at every `checkpoint_every`-instant
//!   boundary the session's full reaction state (kernel mailboxes,
//!   EFSM current states, the `Rt` slot file, monitor states, trace
//!   ring, emission counters) is captured through [`sim::Snapshot`];
//!   what never changes (task tables, data ASTs, type tables, monitor
//!   bindings) is shared, not copied. A restored session replays its
//!   buffered inputs and converges to byte-identical traces, verdicts
//!   and counters.
//! * **Restart with backoff** — a panic caught mid-instant (the
//!   runner's poisoning latch), a watchdog trip or a livelock budget
//!   restores the last checkpoint after a seeded exponential backoff
//!   with deterministic jitter ([`RestartPolicy`]); the restart budget
//!   exhausting escalates the session to [`SessionStatus::Failed`].
//!   Loss accounting survives the crash: the supervisor flushes
//!   `events_lost` from its outcome path even when the in-run bracket
//!   never ran.
//! * **Admission control & graceful degradation** — shard queues are
//!   bounded; occupancy climbs a [`Pressure`] ladder that sheds work
//!   in order of expendability (trace recording → span summaries →
//!   monitor sampling) before the fleet refuses instants outright
//!   (admission rejection, attributed per session in telemetry like
//!   `events_lost`).
//!
//! Fault hooks: [`FleetConfig::faults`] arms every session's runner,
//! plus the supervisor's two sites for that session — the kill site
//! panics a chosen session at a chosen instant (exercising the
//! restart path end to end) and the stall site delays a shard quantum
//! without changing any session's outputs. Chaos tests assert
//! byte-identical survivor behavior under both.

use codegen::cost::CostParams;
use ecl_core::Design;
use ecl_faults::{FaultPlan, InjectionStats};
use ecl_observe::{Monitor, MonitorReport, MonitorSpec};
use ecl_telemetry::metrics as tm;
use efsm::{Backend, BitSet};
use esterel::CompileOptions;
use rtk::KernelParams;
use sim::runner::{
    AsyncRunner, Runner, RunnerSnapshot, SharedProgram, SimError, SimErrorKind, Snapshot, Stimuli,
    WatchdogBudget,
};
use sim::tb::InstantEvents;
use sim::trace::Trace;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// SplitMix64 finalizer — the same mixer `ecl-faults` uses for its
/// keyed sites, so backoff jitter is a pure function of
/// `(seed, session, attempt)` and independent of thread timing.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Restart budget and backoff shape for one session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestartPolicy {
    /// Restarts allowed before the session escalates to
    /// [`SessionStatus::Failed`].
    pub max_retries: u32,
    /// Backoff of the first retry, in virtual ticks (1 tick = 1 µs of
    /// real sleep on the shard worker).
    pub base_ticks: u64,
    /// Exponential growth cap, in ticks.
    pub max_ticks: u64,
    /// Jitter seed; the jitter for attempt `a` of session `s` is
    /// `splitmix(seed, s, a) % backoff` — deterministic, but
    /// decorrelated across sessions.
    pub seed: u64,
}

impl Default for RestartPolicy {
    fn default() -> RestartPolicy {
        RestartPolicy {
            max_retries: 3,
            base_ticks: 64,
            max_ticks: 4096,
            seed: 0xEC1F,
        }
    }
}

impl RestartPolicy {
    /// Backoff before retry `attempt` (1-based) of `session`:
    /// exponential in the attempt, capped, plus deterministic jitter
    /// in `[0, backoff)`.
    pub fn backoff_ticks(&self, session: u64, attempt: u32) -> u64 {
        let exp = (self.base_ticks << attempt.saturating_sub(1).min(20))
            .min(self.max_ticks)
            .max(1);
        let jitter = splitmix(self.seed ^ splitmix(session ^ splitmix(attempt as u64))) % exp;
        exp + jitter
    }
}

/// The degradation ladder, climbed as shard-queue occupancy rises at
/// admission time. Each rung sheds the next most expendable work;
/// refusing instants outright (admission rejection) sits above the
/// top rung.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Pressure {
    /// Full observability: trace, spans, every monitor instant.
    Nominal,
    /// Trace recording shed (queue ≥ 50% full).
    ShedTrace,
    /// Span summaries also shed (queue ≥ 75% full).
    ShedSpans,
    /// Monitors stepped on a sampling stride (queue ≥ 90% full) —
    /// verdicts become best-effort, honestly so.
    SampleMonitors,
}

impl Pressure {
    /// Numeric rung for telemetry (`fleet_health.pressure`).
    pub fn level(self) -> u64 {
        match self {
            Pressure::Nominal => 0,
            Pressure::ShedTrace => 1,
            Pressure::ShedSpans => 2,
            Pressure::SampleMonitors => 3,
        }
    }

    /// The rung for an admission finding `depth` sessions already
    /// queued on a shard with capacity `cap`.
    pub fn from_occupancy(depth: usize, cap: usize) -> Pressure {
        let f = depth as f64 / cap.max(1) as f64;
        if f >= 0.9 {
            Pressure::SampleMonitors
        } else if f >= 0.75 {
            Pressure::ShedSpans
        } else if f >= 0.5 {
            Pressure::ShedTrace
        } else {
            Pressure::Nominal
        }
    }
}

/// Fleet-wide tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Worker threads; sessions are admitted round-robin.
    pub shards: usize,
    /// Bounded per-shard run-queue capacity — the admission limit the
    /// pressure ladder is computed against.
    pub queue_cap: usize,
    /// Instants per checkpoint (0 = only the initial checkpoint).
    pub checkpoint_every: u64,
    /// Restart budget and backoff shape.
    pub restart: RestartPolicy,
    /// Execution backend for every session.
    pub backend: Backend,
    /// Per-instant watchdog budgets (applied to every session).
    pub watchdog: Option<WatchdogBudget>,
    /// Monitor stride under [`Pressure::SampleMonitors`] (step
    /// monitors every n-th instant; min 1).
    pub monitor_sample: u64,
    /// Fault plan every session is armed with (its runner, kernel,
    /// kill and stall sites); `None` runs fault-free.
    pub faults: Option<FaultPlan>,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            shards: 2,
            queue_cap: 64,
            checkpoint_every: 64,
            restart: RestartPolicy::default(),
            backend: Backend::default(),
            watchdog: None,
            monitor_sample: 2,
            faults: None,
        }
    }
}

/// One tenant: a session id, its input stream and its observers.
/// Event streams and specs are `Arc`-shared — a thousand sessions
/// replaying one testbench hold one copy.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// Fleet-unique session id (keys the kill site, telemetry
    /// `session` fields and backoff jitter).
    pub id: u64,
    /// The environment instants to drive.
    pub events: Arc<Vec<InstantEvents>>,
    /// Observers attached to the run.
    pub specs: Vec<Arc<MonitorSpec>>,
    /// Trace-ring capacity (`Some(0)` = unbounded, `None` = no trace).
    /// Shed entirely at [`Pressure::ShedTrace`] and above.
    pub trace_capacity: Option<usize>,
}

/// Terminal state of one session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionStatus {
    /// Ran its whole event stream; verdicts concluded.
    Finished,
    /// Exhausted the restart budget on poisoned/inconclusive
    /// outcomes; monitors concluded `Inconclusive`.
    Failed,
    /// A definite simulation error (not restartable).
    Errored,
    /// Refused admission by a full shard queue.
    Rejected,
}

/// What one session produced.
#[derive(Debug)]
pub struct SessionReport {
    /// The session's id, as admitted.
    pub id: u64,
    /// Terminal state.
    pub status: SessionStatus,
    /// Final monitor verdicts (`None` for rejected/errored sessions).
    pub report: Option<MonitorReport>,
    /// Recorded trace, unless shed or disabled.
    pub trace: Option<Trace>,
    /// Emission counts by signal name.
    pub counts: HashMap<String, u64>,
    /// Mailbox-overwrite losses in the final (kept) execution.
    pub events_lost: u64,
    /// Instants actually retired (excluding replayed work).
    pub instants: u64,
    /// Checkpoint restores performed.
    pub restarts: u32,
    /// Total virtual backoff ticks slept across restarts.
    pub backoff_ticks: u64,
    /// Degradation rung applied at admission.
    pub pressure: Pressure,
    /// Terminal error message, if any.
    pub error: Option<String>,
    /// Faults injected into this session, including work a restore
    /// rolled back (zero when [`FleetConfig::faults`] is `None`).
    pub injected: InjectionStats,
}

/// Aggregate fleet outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetHealth {
    /// Sessions submitted.
    pub sessions: usize,
    /// Sessions admitted to a shard queue.
    pub admitted: usize,
    /// Sessions refused admission.
    pub rejected: usize,
    /// Sessions that finished their stream.
    pub finished: usize,
    /// Sessions that exhausted their restart budget.
    pub failed: usize,
    /// Sessions ended by a definite error.
    pub errored: usize,
    /// Checkpoint restores across the fleet.
    pub restarts: u64,
    /// Highest pressure rung any admission saw.
    pub max_pressure: u64,
}

/// Everything [`Supervisor::run`] returns: per-session reports in
/// submission order plus the aggregate health snapshot (also emitted
/// as a `fleet_health` telemetry event).
#[derive(Debug)]
pub struct FleetReport {
    /// One report per submitted session, in submission order.
    pub sessions: Vec<SessionReport>,
    /// The aggregate.
    pub health: FleetHealth,
}

impl FleetReport {
    /// The report of session `id`.
    pub fn session(&self, id: u64) -> Option<&SessionReport> {
        self.sessions.iter().find(|s| s.id == id)
    }
}

/// An admitted session: its queue slot plus the pressure rung frozen
/// at admission time.
struct Admitted {
    index: usize,
    spec: SessionSpec,
    pressure: Pressure,
}

/// Did one quantum end the stream or leave more instants to run?
enum Step {
    Done,
    More,
}

/// Checkpoint of one session: the runner snapshot plus the pieces the
/// supervisor owns (monitor states and the input cursor).
struct SessionCkpt {
    snap: RunnerSnapshot,
    monitors: Vec<Monitor>,
    cursor: usize,
}

/// The fleet supervisor: compile once, run many.
pub struct Supervisor {
    shared: SharedProgram,
    cfg: FleetConfig,
}

impl Supervisor {
    /// Compile `designs` once into the shared program every session
    /// runs against.
    ///
    /// # Errors
    ///
    /// Propagates compilation failures.
    pub fn new(
        designs: Vec<Design>,
        opts: &CompileOptions,
        cfg: FleetConfig,
    ) -> Result<Supervisor, SimError> {
        Ok(Supervisor {
            shared: SharedProgram::compile(designs, opts)?,
            cfg,
        })
    }

    /// The shared compilation product (one solo runner can be
    /// instantiated from it for differential comparison).
    pub fn shared(&self) -> &SharedProgram {
        &self.shared
    }

    /// The active configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// Admit and run `sessions` to completion across the configured
    /// shards. Blocking; returns per-session reports in submission
    /// order and emits one `fleet_health` telemetry event.
    pub fn run(&self, sessions: Vec<SessionSpec>) -> FleetReport {
        let n = sessions.len();
        let shards = self.cfg.shards.max(1);
        let cap = self.cfg.queue_cap.max(1);
        let mut queues: Vec<Vec<Admitted>> = (0..shards).map(|_| Vec::new()).collect();
        let mut reports: Vec<Option<SessionReport>> = (0..n).map(|_| None).collect();
        let mut health = FleetHealth {
            sessions: n,
            ..FleetHealth::default()
        };

        // Admission: round-robin over shards against the bounded
        // queues. The pressure rung is frozen per session at admission
        // so a session's degradation level is a deterministic function
        // of the submission order, not of worker timing.
        for (index, spec) in sessions.into_iter().enumerate() {
            let shard = index % shards;
            let depth = queues[shard].len();
            if depth >= cap {
                // Refusing instants: the rung above the ladder.
                // Attribute the shed work to the session exactly like
                // mailbox losses are attributed to tasks.
                tm::FLEET_REJECTED.incr();
                if let Some(e) = ecl_telemetry::event("events_lost") {
                    e.u64("total", spec.events.len() as u64)
                        .u64("session", spec.id)
                        .str("reason", "admission_refused")
                        .emit();
                }
                health.rejected += 1;
                health.max_pressure = health
                    .max_pressure
                    .max(Pressure::SampleMonitors.level() + 1);
                reports[index] = Some(SessionReport {
                    id: spec.id,
                    status: SessionStatus::Rejected,
                    report: None,
                    trace: None,
                    counts: HashMap::new(),
                    events_lost: 0,
                    instants: 0,
                    restarts: 0,
                    backoff_ticks: 0,
                    pressure: Pressure::SampleMonitors,
                    error: Some("admission refused: shard queue full".into()),
                    injected: InjectionStats::default(),
                });
                continue;
            }
            let pressure = Pressure::from_occupancy(depth, cap);
            if pressure > Pressure::Nominal {
                tm::FLEET_SHED.incr();
            }
            health.admitted += 1;
            health.max_pressure = health.max_pressure.max(pressure.level());
            queues[shard].push(Admitted {
                index,
                spec,
                pressure,
            });
        }

        // Shard workers: each drains its own queue sequentially, so
        // per-shard quantum numbering (the stall site's key) is
        // deterministic.
        let done: Mutex<Vec<(usize, SessionReport)>> = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for (shard_id, queue) in queues.into_iter().enumerate() {
                let done = &done;
                let shared = &self.shared;
                let cfg = &self.cfg;
                s.spawn(move || {
                    let mut quantum_seq = 0u64;
                    for adm in queue {
                        let index = adm.index;
                        let rep =
                            drive_session(shared, cfg, adm, shard_id as u64, &mut quantum_seq);
                        done.lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .push((index, rep));
                    }
                });
            }
        });
        for (index, rep) in done.into_inner().unwrap_or_else(|e| e.into_inner()) {
            match rep.status {
                SessionStatus::Finished => health.finished += 1,
                SessionStatus::Failed => health.failed += 1,
                SessionStatus::Errored => health.errored += 1,
                SessionStatus::Rejected => health.rejected += 1,
            }
            health.restarts += rep.restarts as u64;
            reports[index] = Some(rep);
        }

        if let Some(e) = ecl_telemetry::event("fleet_health") {
            e.u64("sessions", health.sessions as u64)
                .u64("pressure", health.max_pressure)
                .u64("admitted", health.admitted as u64)
                .u64("rejected", health.rejected as u64)
                .u64("finished", health.finished as u64)
                .u64("failed", health.failed as u64)
                .u64("errored", health.errored as u64)
                .u64("restarts", health.restarts)
                .emit();
        }

        FleetReport {
            sessions: reports
                .into_iter()
                .map(|r| r.expect("every session reported"))
                .collect(),
            health,
        }
    }
}

/// Extract a printable message from a caught panic payload.
fn panic_msg(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic (non-string payload)".to_string()
    }
}

/// Run one session to a terminal state on its shard worker.
fn drive_session(
    shared: &SharedProgram,
    cfg: &FleetConfig,
    adm: Admitted,
    shard: u64,
    quantum_seq: &mut u64,
) -> SessionReport {
    let Admitted { spec, pressure, .. } = adm;
    let config_label = format!(
        "fleet/{}",
        match cfg.backend {
            Backend::Compiled => "compiled",
            Backend::Walker => "walker",
        }
    );
    let run = ecl_telemetry::Run::start_session(
        shared.designs().next().map_or("", |d| &d.entry),
        &config_label,
        spec.id,
    );

    let mut runner =
        AsyncRunner::from_shared(shared, CostParams::default(), KernelParams::default());
    runner.set_session(spec.id);
    runner.set_backend(cfg.backend);
    runner.set_watchdog(cfg.watchdog);
    runner.set_faults(cfg.faults);
    if pressure < Pressure::ShedTrace {
        if let Some(cap) = spec.trace_capacity {
            runner.enable_trace(cap);
        }
    }
    let mut monitors: Vec<Monitor> = spec
        .specs
        .iter()
        .map(|s| {
            let mut m = Monitor::new(Arc::clone(s));
            m.bind(runner.sig_table());
            m
        })
        .collect();
    let mut cursor = 0usize;
    // The stimulus path lives as long as the session: `post` clears
    // its set first and its memo holds only (name, id) pairs from the
    // table, so neither carries state across a caught panic.
    let mut stimuli = Stimuli::new(runner.sig_table());
    let mut present = BitSet::new();

    // The initial checkpoint: a kill before the first periodic
    // boundary restores to instant 0.
    let mut ckpt = SessionCkpt {
        snap: runner.snapshot().expect("fresh runner snapshots"),
        monitors: monitors.clone(),
        cursor,
    };
    tm::FLEET_CHECKPOINTS.incr();

    let mut restarts = 0u32;
    let mut attempt = 0u32;
    let mut backoff_total = 0u64;

    // One iteration = one quantum (`checkpoint_every` instants) under
    // a panic guard. The runner lives *outside* the guard so the
    // outcome path can still flush loss accounting and restore state
    // after a caught panic.
    loop {
        if let Some(ms) = runner
            .faults_mut()
            .and_then(|f| f.shard_stall(shard, *quantum_seq))
        {
            std::thread::sleep(Duration::from_millis(ms));
        }
        *quantum_seq += 1;
        let res = catch_unwind(AssertUnwindSafe(|| {
            run_quantum(
                &mut runner,
                &mut stimuli,
                &mut present,
                &mut monitors,
                &spec,
                cfg,
                &mut cursor,
                pressure,
            )
        }));
        match res {
            Ok(Ok(Step::Done)) => {
                runner.emit_losses();
                let report = MonitorReport::conclude(monitors);
                let instants = runner.now();
                run.end(instants);
                return SessionReport {
                    id: spec.id,
                    status: SessionStatus::Finished,
                    report: Some(report),
                    trace: runner.take_trace(),
                    counts: runner.counts(),
                    events_lost: runner.kernel().events_lost,
                    instants,
                    restarts,
                    backoff_ticks: backoff_total,
                    pressure,
                    error: None,
                    injected: runner.injection_stats(),
                };
            }
            Ok(Ok(Step::More)) => {
                // Quantum boundary: the runner is quiescent, so the
                // snapshot cannot be torn. The checkpoint is refreshed
                // in place, into the buffers it already holds.
                if runner.snapshot_into(&mut ckpt.snap).is_ok() {
                    ckpt.monitors.clone_from(&monitors);
                    ckpt.cursor = cursor;
                    tm::FLEET_CHECKPOINTS.incr();
                }
            }
            Ok(Err(e)) if e.kind.is_inconclusive() || e.kind == SimErrorKind::Poisoned => {
                runner.emit_losses();
                attempt += 1;
                if attempt > cfg.restart.max_retries {
                    return escalate(
                        runner,
                        monitors,
                        run,
                        &spec,
                        &e.msg,
                        restarts,
                        backoff_total,
                        pressure,
                    );
                }
                restart(
                    &mut runner,
                    &mut monitors,
                    &mut cursor,
                    &ckpt,
                    &cfg.restart,
                    spec.id,
                    attempt,
                    &mut restarts,
                    &mut backoff_total,
                );
            }
            Ok(Err(e)) => {
                // Definite error: not restartable (replaying the same
                // inputs re-derives the same failure).
                runner.emit_losses();
                let instants = runner.now();
                run.end(instants);
                return SessionReport {
                    id: spec.id,
                    status: SessionStatus::Errored,
                    report: None,
                    trace: runner.take_trace(),
                    counts: runner.counts(),
                    events_lost: runner.kernel().events_lost,
                    instants,
                    restarts,
                    backoff_ticks: backoff_total,
                    pressure,
                    error: Some(e.msg),
                    injected: runner.injection_stats(),
                };
            }
            Err(p) => {
                // A panic mid-quantum: the runner may be torn
                // (poisoning latch set). Flush losses from the
                // supervisor side — the in-run bracket never got to —
                // then restore or escalate.
                let msg = panic_msg(p);
                tm::SIM_POISONED_SESSIONS.incr();
                if let Some(e) = ecl_telemetry::event("error") {
                    e.u64("instant", runner.now())
                        .u64("session", spec.id)
                        .str("kind", "panic")
                        .str("msg", &msg)
                        .emit();
                }
                runner.emit_losses();
                attempt += 1;
                if attempt > cfg.restart.max_retries {
                    return escalate(
                        runner,
                        monitors,
                        run,
                        &spec,
                        &msg,
                        restarts,
                        backoff_total,
                        pressure,
                    );
                }
                restart(
                    &mut runner,
                    &mut monitors,
                    &mut cursor,
                    &ckpt,
                    &cfg.restart,
                    spec.id,
                    attempt,
                    &mut restarts,
                    &mut backoff_total,
                );
            }
        }
    }
}

/// Restore the last checkpoint after a seeded backoff sleep.
#[allow(clippy::too_many_arguments)]
fn restart(
    runner: &mut AsyncRunner,
    monitors: &mut Vec<Monitor>,
    cursor: &mut usize,
    ckpt: &SessionCkpt,
    policy: &RestartPolicy,
    session: u64,
    attempt: u32,
    restarts: &mut u32,
    backoff_total: &mut u64,
) {
    let ticks = policy.backoff_ticks(session, attempt);
    *backoff_total += ticks;
    std::thread::sleep(Duration::from_micros(ticks));
    runner
        .restore(&ckpt.snap)
        .expect("restore into the runner the snapshot came from");
    monitors.clone_from(&ckpt.monitors);
    *cursor = ckpt.cursor;
    *restarts += 1;
    tm::FLEET_RESTARTS.incr();
}

/// The restart budget is spent: conclude what the monitors can still
/// say (`Inconclusive`, never `Pass`) and mark the session `Failed`.
#[allow(clippy::too_many_arguments)]
fn escalate(
    mut runner: AsyncRunner,
    monitors: Vec<Monitor>,
    run: ecl_telemetry::Run,
    spec: &SessionSpec,
    msg: &str,
    restarts: u32,
    backoff_ticks: u64,
    pressure: Pressure,
) -> SessionReport {
    tm::FLEET_FAILED.incr();
    let instants = runner.now();
    let report = MonitorReport::conclude_inconclusive(monitors, instants, msg);
    run.end(instants);
    SessionReport {
        id: spec.id,
        status: SessionStatus::Failed,
        report: Some(report),
        trace: runner.take_trace(),
        counts: runner.counts(),
        events_lost: runner.kernel().events_lost,
        instants,
        restarts,
        backoff_ticks,
        pressure,
        error: Some(msg.to_string()),
        injected: runner.injection_stats(),
    }
}

/// Drive up to `checkpoint_every` instants (the whole remaining
/// stream when 0), posting stimuli through the session's [`Stimuli`]
/// and collecting each instant's ids in its `present` set, with the
/// fleet's degradation hooks: the kill fault site panics at its
/// chosen instant boundary, span summaries are shed at
/// [`Pressure::ShedSpans`], and monitors run on a stride at
/// [`Pressure::SampleMonitors`].
#[allow(clippy::too_many_arguments)]
fn run_quantum<'e>(
    runner: &mut AsyncRunner,
    stimuli: &mut Stimuli<'e>,
    present: &mut BitSet,
    monitors: &mut [Monitor],
    spec: &'e SessionSpec,
    cfg: &FleetConfig,
    cursor: &mut usize,
    pressure: Pressure,
) -> Result<Step, SimError> {
    let quantum = if cfg.checkpoint_every == 0 {
        usize::MAX
    } else {
        cfg.checkpoint_every as usize
    };
    let stride = if pressure >= Pressure::SampleMonitors {
        cfg.monitor_sample.max(1)
    } else {
        1
    };
    let spans = ecl_telemetry::enabled() && pressure < Pressure::ShedSpans;
    let span_from = runner.now();
    let span_t0 = spans.then(std::time::Instant::now);

    let mut in_quantum = 0usize;
    while *cursor < spec.events.len() && in_quantum < quantum {
        let instant = runner.now();
        if runner
            .faults_mut()
            .is_some_and(|f| f.kill_due(spec.id, instant))
        {
            panic!(
                "ecl-faults: session {} killed at instant {instant}",
                spec.id
            );
        }
        let ev_bits = stimuli.post(runner, &spec.events[*cursor])?;
        runner.instant_ids(ev_bits, present)?;
        present.union_with(ev_bits);
        if instant.is_multiple_of(stride) {
            for m in monitors.iter_mut() {
                m.step_ids(instant, present, runner.sig_table());
            }
        }
        *cursor += 1;
        in_quantum += 1;
    }

    // One span summary per quantum (sub-cadence of the solo runners'
    // `span_every`; shed under pressure).
    if spans {
        if let Some(e) = ecl_telemetry::event("span") {
            let window_ns = span_t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
            e.u64("from", span_from)
                .u64("to", runner.now())
                .u64("window_ns", window_ns)
                .u64("session", runner.session())
                .emit();
        }
    }

    Ok(if *cursor >= spec.events.len() {
        Step::Done
    } else {
        Step::More
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecl_core::Source;
    use ecl_observe::synthesize_all;

    const SRC: &str = "
        module a(input pure i, output pure m) { while (1) { await (i); emit (m); } }
        module b(input pure m, output pure o) { while (1) { await (m); emit (o); } }
        module top(input pure i, output pure o) {
          signal pure mid;
          par { a(i, mid); b(mid, o); }
        }
        observer relay_latency(input pure i, input pure o) {
          whenever (i) expect (o) within 2;
        }";

    fn design() -> Design {
        Source::new(SRC)
            .parse()
            .unwrap()
            .elaborate("top")
            .unwrap()
            .split()
            .unwrap()
            .to_design()
    }

    fn specs() -> Vec<Arc<MonitorSpec>> {
        let prog = ecl_syntax::parse_str(SRC).unwrap();
        synthesize_all(&prog).unwrap()
    }

    fn events(n: usize) -> Arc<Vec<InstantEvents>> {
        Arc::new(
            (0..n)
                .map(|k| InstantEvents {
                    pure: if k % 3 == 1 { vec!["i".into()] } else { vec![] },
                    valued: vec![],
                })
                .collect(),
        )
    }

    fn spec_for(id: u64, n: usize) -> SessionSpec {
        SessionSpec {
            id,
            events: events(n),
            specs: specs(),
            trace_capacity: Some(0),
        }
    }

    #[test]
    fn fleet_finishes_all_sessions_and_matches_solo_run() {
        let sup = Supervisor::new(
            vec![design()],
            &Default::default(),
            FleetConfig {
                shards: 2,
                checkpoint_every: 4,
                ..Default::default()
            },
        )
        .unwrap();
        let rep = sup.run((0..4).map(|id| spec_for(id + 1, 30)).collect());
        assert_eq!(rep.health.finished, 4);
        assert_eq!(rep.health.restarts, 0);
        let solo = ecl_observe::check_async(vec![design()], &events(30), &specs(), 0).unwrap();
        for s in &rep.sessions {
            assert_eq!(s.status, SessionStatus::Finished);
            let r = s.report.as_ref().unwrap();
            assert!(r.all_pass(), "{r:?}");
            assert_eq!(
                s.trace.as_ref().unwrap().to_vcd("t"),
                solo.trace.to_vcd("t"),
                "session {} trace diverged from the solo run",
                s.id
            );
        }
    }

    #[test]
    fn admission_refusal_and_pressure_ladder() {
        let sup = Supervisor::new(
            vec![design()],
            &Default::default(),
            FleetConfig {
                shards: 1,
                queue_cap: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let rep = sup.run((0..4).map(|id| spec_for(id + 1, 12)).collect());
        assert_eq!(rep.health.admitted, 2);
        assert_eq!(rep.health.rejected, 2);
        // Session 1 admitted at occupancy 0/2 (nominal); session 2 at
        // 1/2 — the first rung sheds its trace.
        assert_eq!(rep.sessions[0].pressure, Pressure::Nominal);
        assert!(rep.sessions[0].trace.is_some());
        assert_eq!(rep.sessions[1].pressure, Pressure::ShedTrace);
        assert!(rep.sessions[1].trace.is_none());
        assert_eq!(rep.sessions[2].status, SessionStatus::Rejected);
        assert_eq!(rep.sessions[3].status, SessionStatus::Rejected);
        // Degraded sessions still conclude real verdicts.
        assert!(rep.sessions[1].report.as_ref().unwrap().all_pass());
    }

    #[test]
    fn killed_session_restarts_and_converges() {
        let sup = Supervisor::new(
            vec![design()],
            &Default::default(),
            FleetConfig {
                shards: 1,
                checkpoint_every: 4,
                faults: Some(FaultPlan {
                    seed: 11,
                    kill_session: 1.0,
                    kill_within: 20,
                    ..Default::default()
                }),
                ..Default::default()
            },
        )
        .unwrap();
        let rep = sup.run(vec![spec_for(7, 30)]);
        let s = &rep.sessions[0];
        assert_eq!(s.status, SessionStatus::Finished, "{:?}", s.error);
        assert_eq!(s.restarts, 1, "exactly one kill, one restore");
        assert_eq!(s.injected.session_kills, 1);
        assert!(s.backoff_ticks > 0);
        // Convergence: the restarted run ends byte-identical to an
        // unfaulted solo run.
        let solo = ecl_observe::check_async(vec![design()], &events(30), &specs(), 0).unwrap();
        assert_eq!(
            s.trace.as_ref().unwrap().to_vcd("t"),
            solo.trace.to_vcd("t")
        );
        assert!(s.report.as_ref().unwrap().all_pass());
        assert_eq!(s.counts, solo_counts(&events(30)));
    }

    /// Emission counts of an unfaulted solo run.
    fn solo_counts(ev: &[InstantEvents]) -> HashMap<String, u64> {
        let mut r = AsyncRunner::new(
            vec![design()],
            &Default::default(),
            CostParams::default(),
            KernelParams::default(),
        )
        .unwrap();
        r.run_events(ev, |_, _| {}).unwrap();
        r.counts()
    }

    #[test]
    fn unknown_stimulus_fails_valued_and_ignores_pure_on_both_paths() {
        // `ghost` is a name no task reads: pure on every instant, and
        // valued on instant 5 of the failing stream.
        let ghostly = |valued_at: Option<usize>| {
            let mut ev = events(12).to_vec();
            for e in &mut ev {
                e.pure.push("ghost".into());
            }
            if let Some(k) = valued_at {
                ev[k].valued.push(("ghost".into(), 1));
            }
            Arc::new(ev)
        };
        let msg = "no task reads signal `ghost`";
        let clean = solo_counts(&events(12));
        assert_eq!(solo_counts(&ghostly(None)), clean);
        let mut r = AsyncRunner::new(
            vec![design()],
            &Default::default(),
            CostParams::default(),
            KernelParams::default(),
        )
        .unwrap();
        let mut seen = Vec::new();
        let e = r
            .run_events(&ghostly(Some(5)), |i, _| seen.push(i))
            .unwrap_err();
        assert_eq!(e.msg, msg);
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        assert_eq!(r.now(), 5);

        let sup = Supervisor::new(
            vec![design()],
            &Default::default(),
            FleetConfig {
                shards: 1,
                checkpoint_every: 4,
                ..Default::default()
            },
        )
        .unwrap();
        let with = |id, events| SessionSpec {
            events,
            ..spec_for(id, 12)
        };
        let rep = sup.run(vec![
            spec_for(1, 12),
            with(2, ghostly(Some(5))),
            with(3, ghostly(None)),
        ]);
        let bad = rep.session(2).unwrap();
        assert_eq!(bad.status, SessionStatus::Errored);
        assert_eq!(bad.error.as_deref(), Some(msg));
        assert_eq!(bad.instants, 5);
        for id in [1, 3] {
            let s = rep.session(id).unwrap();
            assert_eq!(s.status, SessionStatus::Finished, "{:?}", s.error);
            assert_eq!(s.instants, 12);
            assert_eq!(s.counts, clean);
        }
    }

    #[test]
    fn deterministic_failure_escalates_after_retry_budget() {
        let sup = Supervisor::new(
            vec![design()],
            &Default::default(),
            FleetConfig {
                shards: 1,
                restart: RestartPolicy {
                    max_retries: 2,
                    base_ticks: 1,
                    max_ticks: 4,
                    seed: 3,
                },
                // Trips on the first instant, every attempt.
                watchdog: Some(WatchdogBudget {
                    max_nodes: Some(0),
                    ..Default::default()
                }),
                ..Default::default()
            },
        )
        .unwrap();
        let rep = sup.run(vec![spec_for(9, 10)]);
        let s = &rep.sessions[0];
        assert_eq!(s.status, SessionStatus::Failed);
        assert_eq!(s.restarts, 2, "budget of 2 retries spent");
        assert!(rep.health.failed == 1);
        let r = s.report.as_ref().unwrap();
        assert!(r.any_inconclusive(), "{r:?}");
    }

    #[test]
    fn backoff_is_seeded_exponential_with_jitter() {
        let p = RestartPolicy {
            max_retries: 5,
            base_ticks: 8,
            max_ticks: 64,
            seed: 42,
        };
        let a1 = p.backoff_ticks(1, 1);
        let a2 = p.backoff_ticks(1, 2);
        let a4 = p.backoff_ticks(1, 4);
        assert!((8..16).contains(&a1), "{a1}");
        assert!((16..32).contains(&a2), "{a2}");
        assert!((64..128).contains(&a4), "capped at max_ticks: {a4}");
        // Deterministic, and decorrelated across sessions.
        assert_eq!(a1, p.backoff_ticks(1, 1));
        assert_ne!(a1, p.backoff_ticks(2, 1));
    }
}
