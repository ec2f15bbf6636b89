//! The paper's running example (Figures 1-4) on the staged pipeline:
//! compile the monolithic stack and its three asynchronous tasks from
//! one shared parse, then stream packets through both.
//!
//! Run with: `cargo run --example protocol_stack`

use ecl_repro::prelude::*;
use rtk::KernelParams;
use sim::designs::PROTOCOL_STACK;
use sim::tb::PacketTb;

fn drive(mut r: AsyncRunner, label: &str) {
    let tb = PacketTb {
        packets: 50,
        corrupt_every: 5,
        reset_every: 0,
        seed: 1999,
    };
    r.run_events(&tb.events(), |_, _| {}).unwrap();
    println!("== {label} ==");
    let by_name = r.counts();
    let mut counts: Vec<_> = by_name.iter().collect();
    counts.sort();
    for (name, n) in counts {
        println!("  {name}: {n}");
    }
    println!(
        "  task cycles: {}  RTOS cycles: {}  events lost: {}",
        r.kernel().task_cycles,
        r.kernel().rtos_cycles,
        r.kernel().events_lost
    );
}

fn main() {
    let parsed = Source::named("protocol_stack.ecl", PROTOCOL_STACK)
        .parse()
        .expect("parses");

    // Synchronous: the whole stack as one EFSM (paper: "a single task").
    let mono = parsed
        .elaborate("toplevel")
        .and_then(|e| e.split())
        .expect("compiles")
        .to_design();
    let m = mono.to_efsm(&Default::default()).expect("EFSM");
    println!("monolithic EFSM: {}", m.stats());
    drive(
        AsyncRunner::new(
            vec![mono],
            &Default::default(),
            CostParams::default(),
            KernelParams::default(),
        )
        .unwrap(),
        "1 task (synchronous)",
    );

    // Asynchronous: one task per module (paper: "three source files").
    // `partition` re-enters the same parse per submodule, elaborating
    // each instantiation with its actual wire names.
    let parts = parsed.partition("toplevel").expect("partitions");
    for p in &parts {
        let m = p.to_efsm(&Default::default()).unwrap();
        println!("task {}: {}", p.entry, m.stats());
    }
    drive(
        AsyncRunner::new(
            parts,
            &Default::default(),
            CostParams::default(),
            KernelParams::default(),
        )
        .unwrap(),
        "3 tasks (asynchronous)",
    );
}
