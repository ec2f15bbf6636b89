//! Reaction-throughput microbenchmarks: whole runs through
//! `run_events` on both evaluated designs; monitor stepping through
//! fused instant programs vs the s-graph walker; and the whole
//! reaction on `Backend::Compiled`
//! (`data_compiled`: fused rows + bytecode data hooks) vs
//! `Backend::Walker` (`data_walker`: s-graph walk + tree-walking
//! interpreter).
//!
//! Run with `cargo bench -p ecl-bench --bench reaction`.

use criterion::{criterion_group, criterion_main, Criterion};
use ecl_bench::{pager_events, pager_mono, stack_events, stack_mono};
use ecl_core::Design;
use ecl_observe::Monitor;
use efsm::{Backend, BitSet};
use sim::runner::{AsyncRunner, Runner};
use sim::tb::InstantEvents;
use std::sync::Arc;

const INSTANTS: usize = 1000;

fn runner(design: &Design) -> AsyncRunner {
    AsyncRunner::new(
        vec![design.clone()],
        &Default::default(),
        Default::default(),
        Default::default(),
    )
    .expect("runner builds")
}

fn drive_ids(design: &Design, events: &[InstantEvents]) {
    let mut r = runner(design);
    r.run_events(events, |_, _| {}).expect("run succeeds");
}

/// Step every protocol-stack monitor over a fixed stimulus cycle on
/// the chosen backend (compiled tables vs s-graph walk). Synthesis
/// and binding stay outside the timed loop — only stepping is
/// measured; fresh `Monitor` instances per call reset latched state
/// (cheap clones of pre-synthesized specs).
struct MonitorBench {
    specs: Vec<Arc<ecl_observe::MonitorSpec>>,
    table: efsm::SigTable,
    pats: Vec<BitSet>,
}

impl MonitorBench {
    fn new() -> MonitorBench {
        let prog = ecl_syntax::parse_str(sim::designs::PROTOCOL_STACK).expect("stack parses");
        let specs = ecl_observe::synthesize_all(&prog).expect("observers synthesize");
        let mut table = efsm::SigTable::new();
        for s in ["byte", "packet", "crc_ok", "deliver", "reset"] {
            table.intern(s);
        }
        let pats: Vec<BitSet> = (0..4usize)
            .map(|k| (0..5).filter(|b| k != 0 && b % 4 == k - 1).collect())
            .collect();
        MonitorBench { specs, table, pats }
    }

    fn drive(&self, backend: Backend, steps: u64) {
        let mut mons: Vec<Monitor> = self
            .specs
            .iter()
            .map(|s| {
                let mut m = Monitor::new(Arc::clone(s));
                m.set_backend(backend);
                m.bind(&self.table);
                m
            })
            .collect();
        for i in 0..steps {
            let p = &self.pats[(i % 4) as usize];
            for m in mons.iter_mut() {
                m.step_ids(i, p, &self.table);
            }
        }
    }
}

/// The whole reaction on one backend knob: fused instant programs +
/// bytecode data hooks (`Backend::Compiled`) or the s-graph walker +
/// tree-walking interpreter (`Backend::Walker`).
fn drive_data(design: &Design, events: &[InstantEvents], backend: Backend) {
    let mut r = runner(design);
    r.set_backend(backend);
    r.run_events(events, |_, _| {}).expect("run succeeds");
}

fn bench_reaction(c: &mut Criterion) {
    let stack = stack_mono();
    let mut stack_ev = stack_events(INSTANTS / 65 + 1);
    stack_ev.truncate(INSTANTS);
    let pager = pager_mono();
    let mut pager_ev = pager_events(INSTANTS / 69 + 1);
    pager_ev.truncate(INSTANTS);

    let mut g = c.benchmark_group("reaction");
    g.sample_size(10);
    g.bench_function("stack_ids", |b| b.iter(|| drive_ids(&stack, &stack_ev)));
    g.bench_function("pager_ids", |b| b.iter(|| drive_ids(&pager, &pager_ev)));
    g.bench_function("data_compiled", |b| {
        b.iter(|| drive_data(&stack, &stack_ev, Backend::Compiled))
    });
    g.bench_function("data_walker", |b| {
        b.iter(|| drive_data(&stack, &stack_ev, Backend::Walker))
    });
    let mb = MonitorBench::new();
    g.bench_function("monitors_fused", |b| {
        b.iter(|| mb.drive(Backend::Compiled, 10_000))
    });
    g.bench_function("monitors_walked", |b| {
        b.iter(|| mb.drive(Backend::Walker, 10_000))
    });
    g.finish();
}

criterion_group!(benches, bench_reaction);
criterion_main!(benches);
