//! Zero-allocation guarantee of the `instant_ids` fast path.
//!
//! A counting global allocator wraps `System`; after a warm-up phase
//! (scratch buffers grown to their steady-state capacity), driving
//! further instants through `AsyncRunner::instant_ids` must perform
//! **zero** heap allocations — the acceptance bar of the interned-id
//! hot path. Two tiers:
//!
//! * the pure-control relay covers the control path — kernel
//!   mailboxes, dispatch, EFSM stepping, emission fan-out;
//! * the full protocol stack (valued signals, packet aggregates, CRC
//!   loops, monitored), monolithic and as three tasks, covers the
//!   *data* path of the fused reactions: bytecode compiles once at
//!   construction, then predicates, actions and valued emits run
//!   register-to-slot, and valued signals cross tasks into the readers'
//!   existing buffers, with zero heap traffic — unlike the tree-walker,
//!   which clones a `Value` per signal read.
//! * the same relay with telemetry *enabled* pins the instrumentation
//!   down: counters and histograms are preallocated atomics, so the
//!   steady state stays at zero allocations — heap traffic happens
//!   only when a span line renders into the sink, which the test
//!   keeps out of the measured window (`set_span_every(0)`).
//!
//!
//! A checkpoint copies only session state: on the fleet's shape — a
//! three-task pager runner from one `SharedProgram`, both observers
//! bound, a trace ring — a snapshot, a restore and the instants after
//! a snapshot stay within a small fixed allocation budget on both
//! backends, whatever the ring's capacity, and traced instants are
//! allocation-free in steady state. The kernel's share of a restore
//! allocates nothing: it copies into the mailboxes it already has.
//!
//! The telemetry master switch is process-global, so the tests
//! serialize on a mutex and each pins the switch to the state it
//! measures.

use codegen::cost::CostParams;
use ecl_core::{Design, Source};
use efsm::{Backend, BitSet};
use rtk::KernelParams;
use sim::runner::{AsyncRunner, Runner, SharedProgram, Snapshot};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Serializes the tests (they toggle the process-global telemetry
/// switch); a panicking holder must not wedge the others.
static TELEMETRY_STATE: Mutex<()> = Mutex::new(());

fn locked() -> MutexGuard<'static, ()> {
    TELEMETRY_STATE.lock().unwrap_or_else(|e| e.into_inner())
}

struct CountingAlloc;

// Per-thread counter: the libtest harness allocates concurrently on
// other threads (channels, progress bookkeeping); a process-global
// counter would race those allocations into the measured window and
// flake. `try_with` tolerates the TLS teardown window.
thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn my_allocs() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Pure-control relay: two modules wired by an internal signal, all
/// signals presence-only.
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

#[test]
fn instant_ids_is_allocation_free_in_steady_state() {
    let _g = locked();
    ecl_telemetry::set_enabled(false);
    let mut runner = AsyncRunner::new(
        vec![relay()],
        &Default::default(),
        CostParams::default(),
        KernelParams::default(),
    )
    .unwrap();
    let i = runner.sig_table().lookup("i").unwrap();
    let on: BitSet = [i.bit()].into_iter().collect();
    let off = BitSet::new();
    let mut out = BitSet::new();
    // Warm-up: grow every scratch buffer to steady-state capacity,
    // covering both stimulus shapes.
    for k in 0..100u32 {
        let ev = if k % 3 == 0 { &off } else { &on };
        runner.instant_ids(ev, &mut out).unwrap();
    }
    // Steady state: not a single heap allocation over 1000 instants
    // (on this thread — the driving thread is the only one touching
    // the runner).
    let before = my_allocs();
    for k in 0..1000u32 {
        let ev = if k % 3 == 0 { &off } else { &on };
        runner.instant_ids(ev, &mut out).unwrap();
    }
    let after = my_allocs();
    assert_eq!(
        after - before,
        0,
        "instant_ids allocated {} times over 1000 steady-state instants",
        after - before
    );
    // The run did something: emissions reached `out` at least once.
    assert!(runner.count_of("o") > 0, "relay never fired");
}

#[test]
fn vm_data_path_is_allocation_free_in_steady_state() {
    use ecl_observe::{synthesize_all, Monitor};
    use sim::designs::PROTOCOL_STACK;
    use sim::tb::PacketTb;

    let _g = locked();
    ecl_telemetry::set_enabled(false);
    let parsed = Source::new(PROTOCOL_STACK).parse().unwrap();
    let mono = parsed
        .elaborate("toplevel")
        .unwrap()
        .split()
        .unwrap()
        .to_design();
    let specs = synthesize_all(parsed.ast()).expect("observers synthesize");
    // The monolithic stack, and its 3-task partition, whose packet and
    // CRC verdict cross tasks as valued signals every packet.
    let parts = parsed.partition("toplevel").unwrap();
    for designs in [vec![mono], parts] {
        let tasks = designs.len();
        let mut runner = AsyncRunner::new(
            designs,
            &Default::default(),
            CostParams::default(),
            KernelParams::default(),
        )
        .unwrap();
        // The whole reaction must be on the compiled backend — a task
        // on the walker would clone `Value`s per signal read and void
        // the guarantee.
        let cov = runner.coverage();
        assert!(
            cov.fully_fused() && cov.vm_total() > 0,
            "{tasks}-task stack should fuse completely ({}/{} hooks)",
            cov.vm_compiled(),
            cov.vm_total()
        );
        let mut monitors: Vec<Monitor> = specs
            .iter()
            .map(|s| {
                let mut m = Monitor::new(Arc::clone(s));
                m.bind(runner.sig_table());
                m
            })
            .collect();
        let events = PacketTb {
            packets: 40,
            corrupt_every: 0,
            reset_every: 0,
            seed: 1999,
        }
        .events();
        // One driving pass: the first `WARM` instants grow every scratch
        // buffer (register file, kernel mailboxes, driver bitsets,
        // cross-task value buffers) to steady state; the next 1000
        // monitored instants of packet assembly, CRC accumulation and
        // valued emission must then be allocation-free — the fused
        // loop's fast stream included, which loads the stack's scalar
        // variables into registers at every reaction's entry and writes
        // them back at its end. Boundaries are
        // sampled inside the callback so the whole window runs through
        // a single `run_events` call.
        const WARM: u64 = 300;
        let mut before = 0u64;
        let mut after = 0u64;
        assert!(events.len() as u64 >= WARM + 1000, "testbench long enough");
        runner
            .run_events(&events[..(WARM + 1000) as usize], |instant, present| {
                for m in monitors.iter_mut() {
                    m.step_present(instant, present);
                }
                if instant + 1 == WARM {
                    before = my_allocs();
                } else if instant + 1 == WARM + 1000 {
                    after = my_allocs();
                }
            })
            .unwrap();
        assert!(after > 0 || before == my_allocs(), "boundaries sampled");
        assert_eq!(
            after - before,
            0,
            "{tasks}-task data path allocated {} times over 1000 steady-state instants",
            after - before
        );
        assert!(
            runner.counts().keys().any(|k| k.ends_with("packet")),
            "packets were assembled"
        );
    }
}

#[test]
fn telemetry_enabled_steady_state_is_allocation_free() {
    let _g = locked();
    // Full instrumentation: master switch on, a sink installed —
    // but span summaries off, so nothing renders a line inside the
    // measured window. Counters and histograms are static atomics;
    // bumping them must not touch the heap.
    ecl_telemetry::set_enabled(true);
    ecl_telemetry::set_span_every(0);
    let sink = ecl_telemetry::MemorySink::new();
    ecl_telemetry::install_sink(Box::new(sink.clone()));
    ecl_telemetry::metrics::reset_all();

    let mut runner = AsyncRunner::new(
        vec![relay()],
        &Default::default(),
        CostParams::default(),
        KernelParams::default(),
    )
    .unwrap();
    let i = runner.sig_table().lookup("i").unwrap();
    let on: BitSet = [i.bit()].into_iter().collect();
    let off = BitSet::new();
    let mut out = BitSet::new();
    for k in 0..100u32 {
        let ev = if k % 3 == 0 { &off } else { &on };
        runner.instant_ids(ev, &mut out).unwrap();
    }
    let before = my_allocs();
    for k in 0..1000u32 {
        let ev = if k % 3 == 0 { &off } else { &on };
        runner.instant_ids(ev, &mut out).unwrap();
    }
    let after = my_allocs();

    // Restore the global default before asserting, so a failure here
    // cannot leak an enabled switch into an unrelated test.
    ecl_telemetry::uninstall_sink();
    ecl_telemetry::set_enabled(false);
    ecl_telemetry::set_span_every(1024);

    assert_eq!(
        after - before,
        0,
        "enabled telemetry allocated {} times over 1000 steady-state instants",
        after - before
    );
    // The instrumentation really ran: the kernel counted dispatches.
    assert!(
        ecl_telemetry::metrics::RTK_DISPATCHES.get() >= 1000,
        "dispatch counter did not advance"
    );
    assert!(runner.count_of("o") > 0, "relay never fired");
}

/// One pager session on the fleet's shape, with its stimuli resolved
/// to ids up front so driving it allocates nothing of its own.
struct PagerSession {
    runner: AsyncRunner,
    monitors: Vec<ecl_observe::Monitor>,
    stimuli: Vec<(Vec<(efsm::SigId, i64)>, BitSet)>,
    next: usize,
    present: BitSet,
}

/// The pager compiled as three tasks, and its observers.
fn pager() -> &'static (SharedProgram, Vec<Arc<ecl_observe::MonitorSpec>>) {
    static PAGER: OnceLock<(SharedProgram, Vec<Arc<ecl_observe::MonitorSpec>>)> = OnceLock::new();
    PAGER.get_or_init(|| {
        let parsed = Source::new(sim::designs::VOICE_PAGER).parse().unwrap();
        let designs: Vec<Design> = parsed
            .instantiations("pager")
            .into_iter()
            .map(|inst| {
                parsed
                    .elaborate_bound(&inst.module, Some(&inst.actuals))
                    .unwrap()
                    .split()
                    .unwrap()
                    .to_design()
            })
            .collect();
        assert_eq!(designs.len(), 3, "the pager partitions into three tasks");
        let shared = SharedProgram::compile(designs, &Default::default()).unwrap();
        let specs = ecl_observe::synthesize_all(parsed.ast()).unwrap();
        assert_eq!(specs.len(), 2, "both pager observers");
        (shared, specs)
    })
}

impl PagerSession {
    fn new(backend: Backend, ring: usize) -> PagerSession {
        let (shared, specs) = pager();
        let mut runner =
            AsyncRunner::from_shared(shared, CostParams::default(), Default::default());
        runner.set_backend(backend);
        runner.enable_trace(ring);
        let table = Arc::clone(runner.sig_table());
        let monitors = specs
            .iter()
            .map(|s| {
                let mut m = ecl_observe::Monitor::new(Arc::clone(s));
                m.set_backend(backend);
                m.bind(&table);
                m
            })
            .collect();
        let events = sim::tb::PagerTb {
            rounds: 50,
            frames: 4,
            seed: 12,
        }
        .events();
        let stimuli = events
            .iter()
            .map(|ev| {
                let valued: Vec<_> = (ev.valued.iter())
                    .map(|(n, v)| (table.lookup(n).unwrap(), *v))
                    .collect();
                let mut bits: BitSet = valued.iter().map(|(id, _)| id.bit()).collect();
                for n in &ev.pure {
                    bits.insert(table.lookup(n).unwrap().bit());
                }
                (valued, bits)
            })
            .collect();
        PagerSession {
            runner,
            monitors,
            stimuli,
            next: 0,
            present: BitSet::with_capacity(table.len()),
        }
    }

    /// Run the next `n` instants, stepping both observers.
    fn run(&mut self, n: usize) {
        for (valued, bits) in &self.stimuli[self.next..self.next + n] {
            for &(id, v) in valued {
                self.runner.set_input_i64_id(id, v).unwrap();
            }
            let instant = self.runner.now();
            self.runner.instant_ids(bits, &mut self.present).unwrap();
            self.present.union_with(bits);
            for m in &mut self.monitors {
                m.step_ids(instant, &self.present, self.runner.sig_table());
            }
        }
        self.next += n;
    }
}

/// Allocations of `f` on this thread.
fn allocs_of(f: impl FnOnce()) -> u64 {
    let before = my_allocs();
    f();
    my_allocs() - before
}

/// After 1,000 instants: (allocations of `snapshot()` plus the next
/// 64 instants, allocations of `restore()`).
fn checkpoint_allocs(backend: Backend, ring: usize) -> (u64, u64) {
    let mut s = PagerSession::new(backend, ring);
    s.run(1000);
    let mut snap = None;
    let snapshot = allocs_of(|| {
        snap = Some(s.runner.snapshot().unwrap());
        s.run(64);
    });
    let snap = snap.unwrap();
    let restore = allocs_of(|| s.runner.restore(&snap).unwrap());
    assert_eq!(s.runner.now(), 1000, "restored to the checkpoint");
    (snapshot, restore)
}

#[test]
fn checkpoints_copy_only_session_state() {
    let _g = locked();
    ecl_telemetry::set_enabled(false);
    for backend in [Backend::Compiled, Backend::Walker] {
        let (snapshot, restore) = checkpoint_allocs(backend, 256);
        assert!(
            snapshot <= 32,
            "{backend:?}: snapshot plus 64 instants allocated {snapshot} times"
        );
        assert_eq!(restore, 0, "{backend:?}: restore allocated {restore} times");
        // The ring is two buffers, whatever its capacity.
        assert_eq!(
            checkpoint_allocs(backend, 4096),
            (snapshot, restore),
            "{backend:?}: a 4,096-instant ring changes the counts"
        );
    }
}

/// The fleet's periodic checkpoint refreshes in place: the runner's
/// `snapshot_into` the previous snapshot and the monitors' `clone_from`
/// copy into buffers the checkpoint already holds. Over 16 quanta of
/// 64 instants, only a trace buffer that must grow past its earlier
/// length allocates.
#[test]
fn checkpoints_refresh_in_place() {
    let _g = locked();
    ecl_telemetry::set_enabled(false);
    for backend in [Backend::Compiled, Backend::Walker] {
        let mut s = PagerSession::new(backend, 256);
        s.run(1000);
        let mut snap = s.runner.snapshot().unwrap();
        let mut monitors = s.monitors.clone();
        let mut n = 0;
        for _ in 0..16 {
            s.run(64);
            n += allocs_of(|| {
                s.runner.snapshot_into(&mut snap).unwrap();
                monitors.clone_from(&s.monitors);
            });
        }
        assert!(n <= 4, "{backend:?}: 16 checkpoints allocated {n} times");
        s.runner.restore(&snap).unwrap();
        assert_eq!(
            s.runner.now(),
            1000 + 16 * 64,
            "restored to the last refresh"
        );
    }
}

/// Restoring a kernel snapshot into a kernel over the same task table
/// copies into the kernel's own buffers — every mailbox's presence set
/// and the ready set — so it allocates nothing, and the restored
/// kernel schedules as the snapshot does.
#[test]
fn kernel_restore_allocates_nothing() {
    let _g = locked();
    ecl_telemetry::set_enabled(false);
    let mut table = rtk::TaskTable::new();
    for (i, watches) in [[0, 1], [1, 2], [2, 3]].into_iter().enumerate() {
        table.add_task(format!("t{i}"), 3 - i as u8, watches.into_iter().collect());
    }
    let mut kernel = rtk::Kernel::with_tasks(KernelParams::default(), Arc::new(table));
    for sig in 0..4 {
        kernel.post_external(sig);
    }
    let snap = kernel.clone();
    let drain = |k: &mut rtk::Kernel| {
        let mut events = BitSet::new();
        std::iter::from_fn(|| k.schedule_into(&mut events).map(|t| (t, events.clone())))
            .collect::<Vec<_>>()
    };
    drain(&mut kernel);
    kernel.post_external(3);
    let n = allocs_of(|| kernel.restore(&snap));
    assert_eq!(n, 0, "restoring a kernel allocated {n} times");
    assert_eq!(drain(&mut kernel), drain(&mut snap.clone()));
}

#[test]
fn monitor_checkpoints_share_their_bindings() {
    let _g = locked();
    ecl_telemetry::set_enabled(false);
    let mut s = PagerSession::new(Backend::Compiled, 0);
    s.run(100);
    // The fleet's per-checkpoint copy: the Vec and nothing else. The
    // bindings are shared, and a dense step touches no scratch buffer,
    // so a compiled monitor has none to copy.
    let n = allocs_of(|| drop(s.monitors.clone()));
    assert_eq!(
        n,
        1,
        "cloning {} monitors allocated {n} times",
        s.monitors.len()
    );
}

#[test]
fn traced_pager_instants_are_allocation_free_in_steady_state() {
    let _g = locked();
    ecl_telemetry::set_enabled(false);
    for backend in [Backend::Compiled, Backend::Walker] {
        let mut s = PagerSession::new(backend, 256);
        s.run(1000);
        let n = allocs_of(|| s.run(1000));
        assert_eq!(
            n, 0,
            "{backend:?}: 1,000 traced instants allocated {n} times"
        );
        assert_eq!(s.runner.recorded_trace().unwrap().len(), 256);
    }
}

/// Allocations of one EFSM construction of the monolithic pager under
/// `MaxEsterel` before symbolic runs shared one scratch: each run built
/// a fresh status vector, journal set, predicate map and event vector,
/// each `Pause` and `Par` node of each pass a fresh pause set, and the
/// optimizer walked every state twice to fill a report.
const PAGER_MONO_CONSTRUCTION_ALLOCS_BEFORE: u64 = 24_692;

/// EFSM construction allocates per state and per s-graph node, not per
/// symbolic run: compiling the monolithic pager makes fewer allocations
/// than it executes runs (996), and at most half of what it made
/// before. The count is of this thread's allocator calls (`realloc`
/// included); compilation touches no telemetry state, so the test
/// takes no lock.
#[test]
fn efsm_construction_allocates_per_state_not_per_run() {
    let design = Source::new(sim::designs::VOICE_PAGER)
        .parse()
        .unwrap()
        .elaborate("pager")
        .unwrap()
        .split_with(ecl_core::SplitStrategy::MaxEsterel)
        .unwrap()
        .to_design();
    let opts = esterel::CompileOptions::default();
    let mut out = None;
    let n = allocs_of(|| {
        out = Some(esterel::compile::compile_with_report(
            design.program(),
            &opts,
        ))
    });
    let (_, report) = out.unwrap().expect("the pager compiles");
    assert!(
        n < report.runs,
        "{n} allocations for {} symbolic runs",
        report.runs
    );
    assert!(
        n * 2 <= PAGER_MONO_CONSTRUCTION_ALLOCS_BEFORE,
        "{n} allocations, more than half of {PAGER_MONO_CONSTRUCTION_ALLOCS_BEFORE}"
    );
}

/// Laying out the control of the monolithic pager (under `MaxEsterel`)
/// allocates a fixed handful of buffers, not per state, path or node:
/// at most 16 allocator calls. Laying out touches no telemetry state,
/// so the test takes no lock.
#[test]
fn control_layout_allocates_a_fixed_handful() {
    let machine = Source::new(sim::designs::VOICE_PAGER)
        .parse()
        .unwrap()
        .elaborate("pager")
        .unwrap()
        .split_with(ecl_core::SplitStrategy::MaxEsterel)
        .unwrap()
        .to_design()
        .to_efsm(&Default::default())
        .expect("the pager compiles");
    let mut layout = None;
    let n = allocs_of(|| layout = Some(efsm::CompiledEfsm::compile(&machine)));
    let layout = layout.unwrap();
    assert_eq!(layout.entries().len(), machine.states.len());
    assert!(n <= 16, "{n} allocations to lay out the pager's control");
}

/// The unoptimized machine of an observer with one `eventually_within
/// n` property: a window of `n + 2` states.
fn unoptimized_window(n: u32) -> efsm::Efsm {
    let src = format!("observer w(input pure e) {{ eventually_within {n} (e); }}");
    let ast = ecl_syntax::parse_str(&src).expect("observer parses");
    let spec = ecl_observe::synthesize(ast.observer("w").expect("declared")).expect("synthesizes");
    let opts = esterel::CompileOptions {
        optimize: false,
        ..Default::default()
    };
    esterel::compile::compile(&spec.program, &opts).expect("observer compiles")
}

/// Allocations of `efsm::opt::optimize` on the 82-state unoptimized
/// window of an `eventually_within 80` observer (the protocol stack's
/// `liveness_watch`) before its passes shared one set of buffers: a
/// memo map, a DFS stack and a state clone per state per pass.
const WINDOW_80_OPTIMIZE_ALLOCS_BEFORE: u64 = 1_152;

/// The EFSM optimizer allocates a fixed handful of buffers, not per
/// state or node: the windows of 80 and 320 instants (82 and 322
/// states) optimize within the same bound of 64 allocator calls, a
/// twentieth of what the 82-state one took before. Optimizing touches
/// no telemetry state, so the test takes no lock.
#[test]
fn optimize_allocates_a_fixed_handful() {
    for n in [80, 320] {
        let mut m = unoptimized_window(n);
        assert_eq!(m.states.len(), n as usize + 2);
        let mut report = None;
        let calls = allocs_of(|| report = Some(efsm::opt::optimize(&mut m)));
        assert!(report.unwrap().nodes_after <= report.unwrap().nodes_before);
        assert!(
            calls <= 64,
            "{calls} allocations to optimize the {n}-instant window"
        );
        assert!(calls * 16 <= WINDOW_80_OPTIMIZE_ALLOCS_BEFORE);
    }
}

/// Allocations of `Fused::compile` of the monolithic protocol stack
/// (under `MaxEsterel`) before the fast stream was derived from the
/// exact one. The derivation, before its passes were made linear,
/// brought them to 86.
const STACK_MONO_FUSED_ALLOCS_WITHOUT_DERIVATION: u64 = 24;

/// Compiling a monolithic task's fused program allocates per pass, not
/// per block, op or promoted access: at most 40 allocator calls on both
/// designs, translation and derivation together, where the translation
/// alone took 24.
#[test]
fn fused_compile_allocates_per_pass() {
    for (src, entry) in [
        (sim::designs::PROTOCOL_STACK, "toplevel"),
        (sim::designs::VOICE_PAGER, "pager"),
    ] {
        let design = Source::new(src)
            .parse()
            .unwrap()
            .elaborate(entry)
            .unwrap()
            .split_with(ecl_core::SplitStrategy::MaxEsterel)
            .unwrap()
            .to_design();
        let machine = design.to_efsm(&Default::default()).unwrap();
        let rt = design.new_rt().unwrap();
        let mut fused = None;
        let calls = allocs_of(|| fused = ecl_core::Fused::compile(&machine, &rt));
        assert!(fused.is_some(), "{entry} fuses");
        assert!(
            calls <= STACK_MONO_FUSED_ALLOCS_WITHOUT_DERIVATION + 16,
            "{calls} allocations to compile {entry}'s fused program"
        );
    }
}
