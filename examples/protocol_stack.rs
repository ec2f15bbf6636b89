//! The paper's running example (Figures 1-4) on the Workspace session
//! API: compile the monolithic stack and its three asynchronous tasks
//! from one shared parse, then stream packets through both.
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
    let mut ws = Workspace::new();
    ws.add_source("protocol_stack.ecl", PROTOCOL_STACK);

    // Synchronous: the whole stack as one EFSM (paper: "a single task").
    let mono = ws
        .compile("protocol_stack.ecl", "toplevel")
        .expect("compiles");
    let m = ws.machine("protocol_stack.ecl", "toplevel").expect("EFSM");
    println!("monolithic EFSM: {}", m.stats());
    drive(
        AsyncRunner::new(
            vec![(*mono).clone()],
            &Default::default(),
            CostParams::default(),
            KernelParams::default(),
        )
        .unwrap(),
        "1 task (synchronous)",
    );

    // Asynchronous: one task per module (paper: "three source files").
    // Re-enter the shared Parsed stage per submodule: the workspace's
    // parse is reused, each instantiation is elaborated with its actual
    // wire names.
    let parsed = ws.parsed("protocol_stack.ecl").expect("parsed");
    let parts: Vec<Design> = parsed
        .instantiations("toplevel")
        .into_iter()
        .map(|inst| {
            parsed
                .elaborate_bound(&inst.module, Some(&inst.actuals))
                .expect("elaborates")
                .split()
                .expect("splits")
                .to_design()
        })
        .collect();
    for p in &parts {
        let m = p.to_efsm(&Default::default()).unwrap();
        println!("task {}: {}", p.entry, m.stats());
    }
    println!(
        "cache: {:?} (the toplevel and all three tasks shared one parse)",
        ws.cache_stats()
    );
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
