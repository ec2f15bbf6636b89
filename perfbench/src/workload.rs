//! What the three workloads share: the compile pipeline they drive,
//! the timed phase, output checks and the counting pass.

use crate::metrics::Values;
use crate::spans::Tracer;
use crate::stats::{block_percentile, fnv1a, percentile};
use codegen::cost::{rtos_cost, CostParams};
use codegen::{emit_monitor_c, Artifacts};
use ecl_core::pipeline::{Parsed, Source};
use ecl_core::{Design, EclError, SplitStrategy};
use ecl_observe::{name_matches, synthesize_all, Monitor, MonitorSpec};
use ecl_telemetry::metrics as tm;
use efsm::{Backend, BitSet, CompiledEfsm, SigKind, SigTable};
use sim::runner::{AsyncRunner, Present, Runner, SharedProgram, SimError};
use sim::tb::InstantEvents;
use sim::trace::Trace;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;
/// Jobs every timed phase runs at least, whatever `--seconds` says:
/// the replay sample is drawn from the first jobs.
pub const MIN_JOBS: u64 = 2;

/// One ECL design source the workloads compile.
#[derive(Debug, Clone, Copy)]
pub struct Src {
    /// Diagnostic file name.
    pub name: &'static str,
    /// ECL text.
    pub text: &'static str,
    /// Top-level module.
    pub entry: &'static str,
}

/// The protocol stack of the paper's Figures 1–4.
pub const STACK: Src = Src {
    name: "protocol_stack.ecl",
    text: sim::designs::PROTOCOL_STACK,
    entry: "toplevel",
};

/// The voice pager.
pub const PAGER: Src = Src {
    name: "voice_pager.ecl",
    text: sim::designs::VOICE_PAGER,
    entry: "pager",
};

/// A compiled design set with its monitors.
pub struct Compiled<P> {
    /// One design per task.
    pub designs: Vec<Design>,
    /// What the designs were built into: the shared program runners
    /// are stamped from, or the fleet supervisor that holds one.
    pub program: P,
    /// The source's observers, synthesized.
    pub specs: Vec<Arc<MonitorSpec>>,
}

/// Source text to runnable program and monitors, one span per stage:
/// parse, elaborate and split, `build` (which compiles the shared
/// program), `synthesize_all`. `partition` compiles each direct
/// instantiation of the entry as its own task.
pub fn compile<P>(
    src: Src,
    partition: bool,
    strategy: SplitStrategy,
    tr: &mut Tracer,
    build: impl FnOnce(Vec<Design>) -> Result<P, SimError>,
) -> Result<Compiled<P>, String> {
    let parsed = tr
        .span("ecl-syntax.parse", || {
            Source::named(src.name, src.text).parse()
        })
        .map_err(|e| e.to_string())?;
    let designs = tr
        .span("core.elab_split", || {
            split_designs(&parsed, src.entry, partition, strategy)
        })
        .map_err(|e| e.to_string())?;
    let program = tr
        .span("sim.program", || build(designs.clone()))
        .map_err(|e| e.to_string())?;
    let specs = tr
        .span("observe.synth", || synthesize_all(parsed.ast()))
        .map_err(|e| e.to_string())?;
    Ok(Compiled {
        designs,
        program,
        specs,
    })
}

/// [`compile`] into a bare shared program.
pub fn shared_program(designs: Vec<Design>) -> Result<SharedProgram, SimError> {
    SharedProgram::compile(designs, &Default::default())
}

/// A fresh session over a shared program, with the default cost model.
pub fn session(shared: &SharedProgram) -> AsyncRunner {
    AsyncRunner::from_shared(shared, CostParams::default(), Default::default())
}

fn split_designs(
    parsed: &Parsed,
    entry: &str,
    partition: bool,
    strategy: SplitStrategy,
) -> Result<Vec<Design>, EclError> {
    if !partition {
        return Ok(vec![parsed
            .elaborate(entry)?
            .split_with(strategy)?
            .to_design()]);
    }
    parsed
        .instantiations(entry)
        .into_iter()
        .map(|inst| {
            Ok(parsed
                .elaborate_bound(&inst.module, Some(&inst.actuals))?
                .split_with(strategy)?
                .to_design())
        })
        .collect()
}

/// One traced set-up of a simulation workload: the compile stages and
/// code generation under a `setup` root, then [`probe_stages`].
pub fn traced_setup(src: Src, partition: bool, tr: &mut Tracer) -> Result<(), String> {
    tr.open("setup");
    let c = compile(
        src,
        partition,
        SplitStrategy::MaxEsterel,
        tr,
        shared_program,
    );
    let emitted = match &c {
        Ok(c) => {
            let r = session(&c.program);
            tr.span("codegen.emit", || emit(&r, &c.specs)).map(drop)
        }
        Err(e) => Err(e.clone()),
    };
    tr.close();
    emitted?;
    probe_stages(&c?.designs, tr)
}

/// Time, one call each, the stages `SharedProgram::compile` runs inside
/// itself: `Design::to_efsm`, `CompiledEfsm::compile` and
/// `Design::new_rt`. Traced runs only, under a root span of its own so
/// the work stays out of the job it follows.
pub fn probe_stages(designs: &[Design], tr: &mut Tracer) -> Result<(), String> {
    tr.open("probe");
    let mut out = Ok(());
    for d in designs {
        let efsm = match tr.span("esterel.efsm", || d.to_efsm(&Default::default())) {
            Ok(m) => m,
            Err(e) => {
                out = Err(e.to_string());
                break;
            }
        };
        black_box(tr.span("efsm.table", || CompiledEfsm::compile(&efsm)));
        if let Err(e) = tr.span("core.rt", || d.new_rt()) {
            out = Err(e.to_string());
            break;
        }
    }
    tr.close();
    out
}

/// What code generation hands a designer, digested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Emitted {
    /// FNV-1a over every task's C and every monitor's C, in order.
    pub c_digest: u64,
    /// Bytes of that C.
    pub c_bytes: u64,
    /// Table 1 task + RTOS code and data bytes of the cost model.
    pub model_bytes: u64,
}

/// C, Verilog and cost artifacts per task (`Artifacts::from_parts`)
/// and C per monitor (`emit_monitor_c`).
pub fn emit(runner: &AsyncRunner, specs: &[Arc<MonitorSpec>]) -> Result<Emitted, String> {
    let params = CostParams::default();
    let mut c = Vec::new();
    let mut model_bytes = 0u64;
    for (design, efsm) in runner.designs().zip(runner.machines()) {
        let a = Artifacts::from_parts(design, efsm, &params).map_err(|e| e.to_string())?;
        c.extend_from_slice(a.c().as_bytes());
        black_box(a.verilog());
        model_bytes += u64::from(a.cost().code_bytes + a.cost().data_bytes);
    }
    for spec in specs {
        c.extend_from_slice(emit_monitor_c(&spec.efsm).as_bytes());
    }
    let rtos = rtos_sizing(runner, &params);
    Ok(Emitted {
        c_digest: fnv1a(&c),
        c_bytes: c.len() as u64,
        model_bytes: model_bytes + u64::from(rtos.code_bytes + rtos.data_bytes),
    })
}

/// The RTOS footprint the way `sim::measure` sizes Table 1: one
/// mailbox per task input, with a 64-byte buffer when it carries a
/// value.
fn rtos_sizing(runner: &AsyncRunner, params: &CostParams) -> codegen::RtosCost {
    let (mut mailboxes, mut buffer_bytes) = (0u32, 0u32);
    for d in runner.designs() {
        for s in d.program().signals() {
            if s.kind == SigKind::Input {
                mailboxes += 1;
                if s.valued {
                    buffer_bytes += 64;
                }
            }
        }
    }
    let tasks = runner.designs().count() as u32;
    rtos_cost(tasks, mailboxes, buffer_bytes, params)
}

/// Fresh monitors over `specs`, bound to a runner's signal table.
pub fn monitors(specs: &[Arc<MonitorSpec>], table: &SigTable, backend: Backend) -> Vec<Monitor> {
    specs
        .iter()
        .map(|s| {
            let mut m = Monitor::new(Arc::clone(s));
            m.set_backend(backend);
            m.bind(table);
            m
        })
        .collect()
}

/// The `Runner::run_events` callback that steps every monitor.
pub fn step_all(mons: &mut [Monitor]) -> impl FnMut(u64, Present<'_>) + '_ {
    move |i, p| {
        for m in mons.iter_mut() {
            m.step_present(i, p);
        }
    }
}

/// Drive a session instant by instant, as `Runner::run_events` does,
/// with a span around the input write, the instant and the monitor
/// step of every instant.
pub fn drive(
    r: &mut AsyncRunner,
    ev: &[InstantEvents],
    mons: &mut [Monitor],
    tr: &mut Tracer,
) -> Result<(), SimError> {
    let table = Arc::clone(r.sig_table());
    let (mut ev_bits, mut present) = (BitSet::new(), BitSet::new());
    for e in ev {
        let t0 = tr.now();
        ev_bits.clear();
        for (name, v) in &e.valued {
            let id = table
                .lookup(name)
                .ok_or_else(|| SimError::eval(format!("no task reads signal `{name}`")))?;
            r.set_input_i64_id(id, *v)?;
            ev_bits.insert(id.bit());
        }
        for name in &e.pure {
            if let Some(id) = table.lookup(name) {
                ev_bits.insert(id.bit());
            }
        }
        let t1 = tr.now();
        let instant = r.now();
        r.instant_ids(&ev_bits, &mut present)?;
        let t2 = tr.now();
        present.union_with(&ev_bits);
        for m in mons.iter_mut() {
            m.step_ids(instant, &present, &table);
        }
        let t3 = tr.now();
        tr.leaf("core.input", t0, t1);
        tr.leaf("sim.instant", t1, t2);
        tr.leaf("observe.step", t2, t3);
    }
    Ok(())
}

/// What a finished runner is compared on.
pub fn observed(r: &AsyncRunner) -> Observed {
    Observed {
        counts: sorted_counts(&r.counts()),
        cycles: r.kernel().task_cycles + r.kernel().rtos_cycles,
        events_lost: r.kernel().events_lost,
        trace: trace_digest(r.recorded_trace()),
    }
}

/// Emissions of every signal whose (possibly mangled) name denotes
/// `name`.
pub fn emitted(counts: &HashMap<String, u64>, name: &str) -> u64 {
    counts
        .iter()
        .filter(|(full, _)| name_matches(full, name))
        .map(|(_, n)| n)
        .sum()
}

/// Emission counts in name order, for comparison.
pub fn sorted_counts(counts: &HashMap<String, u64>) -> Vec<(String, u64)> {
    let mut v: Vec<(String, u64)> = counts.iter().map(|(k, n)| (k.clone(), *n)).collect();
    v.sort_unstable();
    v
}

/// Digest of a recorded trace's VCD text (0 without a trace).
pub fn trace_digest(trace: Option<&Trace>) -> u64 {
    trace.map_or(0, |t| fnv1a(t.to_vcd("perfbench").as_bytes()))
}

/// What a replayed session is compared on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observed {
    /// Emission counts by name.
    pub counts: Vec<(String, u64)>,
    /// Kernel task + RTOS cycles (0 where the runner is not visible).
    pub cycles: u64,
    /// Mailbox-overwrite losses.
    pub events_lost: u64,
    /// Trace digest (0 without a trace).
    pub trace: u64,
}

/// Compare a session against its replay on the reference path; the
/// cycle total is compared only where both sides saw the kernel.
pub fn compare(what: &str, got: &Observed, reference: &Observed) -> Option<String> {
    let cycles_differ = got.cycles != 0 && reference.cycles != 0 && got.cycles != reference.cycles;
    if got.counts != reference.counts
        || cycles_differ
        || got.events_lost != reference.events_lost
        || got.trace != reference.trace
    {
        Some(format!(
            "{what}: differs from the walker replay: {got:?} vs {reference:?}"
        ))
    } else {
        None
    }
}

/// The outcome of one job.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Host time of the job, ns.
    pub ns: u64,
    /// Simulated instants the job retired (0 for compile jobs).
    pub instants: u64,
    /// Why the job failed, if it did.
    pub failure: Option<String>,
}

/// The jobs of one timed phase.
#[derive(Debug, Default)]
pub struct Phase {
    /// Host time per job scaled to the reference machine speed, ns.
    pub job_ns: Vec<f64>,
    /// Host time per job as measured, ns.
    pub raw_ns: Vec<u64>,
    /// Instants retired.
    pub instants: u64,
    /// `(job, reason)` per failed job.
    pub failures: Vec<(u64, String)>,
}

impl Phase {
    /// Jobs attempted.
    pub fn attempted(&self) -> u64 {
        self.job_ns.len() as u64
    }

    /// Summed job time, scaled, s.
    pub fn busy_s(&self) -> f64 {
        self.job_ns.iter().sum::<f64>() / 1e9
    }

    /// Median factor the job times were scaled by.
    pub fn median_factor(&self) -> f64 {
        let f: Vec<f64> = self
            .job_ns
            .iter()
            .zip(&self.raw_ns)
            .map(|(s, r)| s / *r as f64)
            .collect();
        crate::stats::median(&f)
    }

    /// Instants per busy second, or jobs per busy second for a phase
    /// that retires no instants.
    pub fn rate(&self) -> f64 {
        let work = if self.instants > 0 {
            self.instants
        } else {
            self.attempted()
        };
        work as f64 / self.busy_s()
    }

    /// Percentile of scaled job time, ms: the median of the percentile
    /// in each of [`BLOCKS`] consecutive blocks of jobs, so a slow
    /// spell on a shared machine moves one block, not the result.
    pub fn job_ms(&self, p: f64) -> f64 {
        let v: Vec<f64> = self.job_ns.iter().map(|ns| ns / 1e6).collect();
        block_percentile(&v, p, BLOCKS)
    }

    /// Percentile of measured job time, ms.
    pub fn raw_job_ms(&self, p: f64) -> f64 {
        let mut v: Vec<f64> = self.raw_ns.iter().map(|ns| *ns as f64 / 1e6).collect();
        v.sort_by(f64::total_cmp);
        percentile(&v, p)
    }
}

/// Blocks of consecutive jobs a phase's job-time percentiles are
/// taken in.
pub const BLOCKS: usize = 5;
/// Length of the sort kernel's array.
const CALIBRATION_LEN: u64 = 16_384;
/// Keys the hash kernel inserts, and distinct keys among them.
const HASH_KEYS: u64 = 8_192;
const HASH_DISTINCT: u64 = 6_000;
/// A job is scaled by the median factor of the last this many
/// calibrations, the two around it included: contention regimes last
/// seconds, one calibration's jitter does not.
const FACTOR_WINDOW: usize = 5;
/// What the sort kernel takes on an uncontended core of the machine
/// the bounds were set on (a 2-vCPU Xeon at 2.1 GHz), ns.
pub const SORT_REF_NS: f64 = 250_000.0;
/// What the hash kernel takes there, ns.
pub const HASH_REF_NS: f64 = 375_000.0;

/// The machine's speed right now relative to the reference machine:
/// the geometric mean, over two fixed kernels that share no code with
/// the program, of reference time over measured time. On a shared
/// machine, neighbours slow every core by up to 2x for seconds at a
/// time; scaling each job by the factors measured around it cancels
/// most of that. The kernels are a sort of 16,384 SplitMix64 values in
/// a buffer kept warm, and a fresh hash map filled and read back with
/// small boxes allocated beside it: a slow spell slows allocation and
/// fresh memory more than it slows a sort, and the program does both.
/// The fleet's worker thread sees the same core as this one because
/// `run.py` keeps the process on one CPU.
pub fn speed_factor() -> f64 {
    // The sort's buffer is allocated before the clock starts: page
    // faults are the noisiest thing a shared machine does, and the
    // hash kernel already has its share of fresh memory.
    let sort = CALIBRATION_BUF.with(|b| {
        let buf = &mut *b.borrow_mut();
        let t0 = Instant::now();
        buf.clear();
        buf.extend((0..CALIBRATION_LEN).map(crate::stats::splitmix));
        buf.sort_unstable();
        black_box(&buf);
        t0.elapsed().as_nanos()
    });
    let mut map: HashMap<u64, u64> = HashMap::with_capacity(HASH_KEYS as usize);
    let t0 = Instant::now();
    for i in 0..HASH_KEYS {
        let k = crate::stats::splitmix(i);
        map.insert(k % HASH_DISTINCT, k);
    }
    let boxes: Vec<Box<[u64; 6]>> = (0..HASH_KEYS / 4).map(|i| Box::new([i; 6])).collect();
    black_box(&boxes);
    let sum = (0..HASH_KEYS).fold(0u64, |s, i| {
        s.wrapping_add(map.get(&(i % HASH_DISTINCT)).copied().unwrap_or(0))
    });
    black_box(sum);
    drop(boxes);
    let hash = t0.elapsed().as_nanos();
    (SORT_REF_NS / sort.max(1) as f64 * HASH_REF_NS / hash.max(1) as f64).sqrt()
}

thread_local! {
    static CALIBRATION_BUF: std::cell::RefCell<Vec<u64>> =
        std::cell::RefCell::new(Vec::with_capacity(CALIBRATION_LEN as usize));
}

/// Closed loop, one client: run job `j` (which makes its inputs and
/// times itself) and submit the next when it completes, until
/// `seconds` have passed and at least [`MIN_JOBS`] ran. The speed is
/// calibrated before the first job and after every job, and each job's
/// time is scaled by the median of the last [`FACTOR_WINDOW`]
/// calibrations, the two around it included.
pub fn timed_phase(seconds: f64, mut job: impl FnMut(u64) -> JobOutcome) -> Phase {
    let start = Instant::now();
    let mut phase = Phase::default();
    let mut j = 0u64;
    let mut recent = std::collections::VecDeque::with_capacity(FACTOR_WINDOW);
    recent.push_back(speed_factor());
    while j < MIN_JOBS || start.elapsed().as_secs_f64() < seconds {
        let out = job(j);
        if recent.len() == FACTOR_WINDOW {
            recent.pop_front();
        }
        recent.push_back(speed_factor());
        let factor = crate::stats::median(recent.make_contiguous());
        phase.raw_ns.push(out.ns);
        phase.job_ns.push(out.ns as f64 * factor);
        phase.instants += out.instants;
        if let Some(f) = out.failure {
            phase.failures.push((j, f));
        }
        j += 1;
    }
    phase
}

/// Kernel work summed over the runners of a counting pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct KernelTotals {
    /// Instants retired.
    pub instants: u64,
    /// Scheduler dispatches.
    pub dispatches: u64,
    /// Mailbox deliveries.
    pub deliveries: u64,
    /// Mailbox-overwrite losses.
    pub events_lost: u64,
    /// Modelled task + RTOS cycles.
    pub cycles: u64,
}

impl KernelTotals {
    /// Add one finished runner.
    pub fn add(&mut self, r: &AsyncRunner) {
        let k = r.kernel();
        self.instants += r.now();
        self.dispatches += k.dispatches;
        self.deliveries += k.deliveries;
        self.events_lost += k.events_lost;
        self.cycles += k.task_cycles + k.rtos_cycles;
    }

    /// Modelled cycles per instant.
    pub fn cycles_per_instant(&self) -> f64 {
        self.cycles as f64 / self.instants as f64
    }
}

/// Run `f` with the telemetry registry switched on and zeroed, and
/// return its result with the counters it left.
pub fn with_telemetry<T>(f: impl FnOnce() -> T) -> (T, tm::Snapshot) {
    ecl_telemetry::set_enabled(true);
    tm::reset_all();
    let out = f();
    let snap = tm::snapshot();
    ecl_telemetry::set_enabled(false);
    tm::reset_all();
    (out, snap)
}

/// Set the per-instant work counts of a counting pass. Counters are
/// read by name; one the registry no longer has reads as 0 and is
/// returned in the list of absent names.
pub fn set_work_counts(v: &mut Values, k: &KernelTotals, snap: &tm::Snapshot) -> Vec<String> {
    let mut absent = Vec::new();
    let mut counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, c)| *c as f64)
            .unwrap_or_else(|| {
                absent.push(name.to_string());
                0.0
            })
    };
    let per_instant = |x: f64| x / k.instants as f64;
    let steps = counter("table.steps");
    let hits = steps - counter("table.walk_fallbacks");
    v.set("efsm.rows_per_hit", counter("table.rows_scanned") / hits);
    v.set(
        "efsm.fused_ops_per_instant",
        per_instant(counter("table.fused_ops")),
    );
    v.set("efsm.walk_fallbacks", counter("table.walk_fallbacks"));
    v.set(
        "ecl-types.hook_runs_per_instant",
        per_instant(counter("vm.hook_runs")),
    );
    v.set("ecl-types.fallback_stmts", counter("vm.fallback_stmts"));
    let vm_ops: f64 = snap
        .counters
        .iter()
        .filter(|(n, _)| n.starts_with("vm.op."))
        .map(|(_, c)| *c as f64)
        .sum();
    v.set("ecl-types.vm_ops_per_instant", per_instant(vm_ops));
    v.set(
        "rtk.dispatches_per_instant",
        per_instant(k.dispatches as f64),
    );
    v.set(
        "rtk.deliveries_per_instant",
        per_instant(k.deliveries as f64),
    );
    v.set("rtk.events_lost", k.events_lost as f64);
    v.set("model_cycles_per_instant", k.cycles_per_instant());
    absent
}

/// Static control-structure counts of a runner, from its
/// `CoverageReport`.
pub fn add_structure(v: &mut Values, runner: &AsyncRunner) {
    let cov = runner.coverage();
    v.set(
        "efsm.states",
        v.get("efsm.states") + f64::from(cov.states()),
    );
    v.set(
        "efsm.fused_rows",
        v.get("efsm.fused_rows") + f64::from(cov.fused_rows()),
    );
}

/// Peak resident set of this process (`VmHWM`), MB; 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
