//! The simulated Table 1, pinned exactly.
//!
//! `gen_table1` prints the paper's execution-time columns rounded to
//! kcycles, and its shape checks compare rows with each other; neither
//! would notice a change that moved every row a little. This test runs
//! the four Table 1 runs — the stack and the pager, as one task and as
//! three, on the paper testbenches — on both backends, and asserts the
//! kernel's totals and the emission counts to the cycle and the event.
//! The two backends must agree on every one of them.

use codegen::cost::CostParams;
use ecl_bench as b;
use ecl_core::Design;
use efsm::Backend;
use sim::runner::{AsyncRunner, Runner};
use sim::tb::InstantEvents;

/// Everything a Table 1 run counts.
#[derive(Debug, PartialEq)]
struct Totals {
    task_cycles: u64,
    rtos_cycles: u64,
    dispatches: u64,
    deliveries: u64,
    events_lost: u64,
    /// Non-zero emission counts, sorted by signal name.
    emissions: Vec<(String, u64)>,
}

/// One Table 1 run of `designs` over `events` on `backend`, with the
/// kernel's default service costs, which are the cost model's that
/// `gen_table1` charges (`check` compares the cycles with its row).
fn run(designs: Vec<Design>, events: &[InstantEvents], backend: Backend) -> Totals {
    let mut r = AsyncRunner::new(
        designs,
        &Default::default(),
        CostParams::default(),
        Default::default(),
    )
    .expect("runner builds");
    r.set_backend(backend);
    r.run_events(events, |_, _| {}).expect("run succeeds");
    let mut emissions: Vec<(String, u64)> = r.counts().into_iter().filter(|e| e.1 > 0).collect();
    emissions.sort_unstable();
    let k = r.kernel();
    Totals {
        task_cycles: k.task_cycles,
        rtos_cycles: k.rtos_cycles,
        dispatches: k.dispatches,
        deliveries: k.deliveries,
        events_lost: k.events_lost,
        emissions,
    }
}

/// Run `designs` on both backends, check them against `pinned` and
/// against the row `gen_table1` prints for them.
fn check(label: &str, designs: Vec<Design>, events: &[InstantEvents], pinned: &Totals) {
    let row = b::row(designs.clone(), events, label);
    for backend in [Backend::Walker, Backend::Compiled] {
        let got = run(designs.clone(), events, backend);
        assert_eq!(&got, pinned, "{label} on {backend:?}");
    }
    assert_eq!(
        row.task_kcycles,
        pinned.task_cycles as f64 / 1000.0,
        "{label}"
    );
    assert_eq!(
        row.rtos_kcycles,
        pinned.rtos_cycles as f64 / 1000.0,
        "{label}"
    );
    assert_eq!(row.events_lost, pinned.events_lost, "{label}");
}

fn emissions(counts: &[(&str, u64)]) -> Vec<(String, u64)> {
    counts.iter().map(|&(s, n)| (s.to_string(), n)).collect()
}

#[test]
fn stack_one_task() {
    let pinned = Totals {
        task_cycles: 3_259_551,
        rtos_cycles: 2_750_660,
        dispatches: 32_511,
        deliveries: 32_000,
        events_lost: 0,
        emissions: emissions(&[
            ("addr_match", 400),
            ("top/prochdr::kill_check", 100),
            ("top::crc_ok", 500),
            ("top::packet", 500),
        ]),
    };
    check(
        "stack, 1 task",
        vec![b::stack_mono()],
        &b::stack_events(500),
        &pinned,
    );
}

#[test]
fn stack_three_tasks() {
    let pinned = Totals {
        task_cycles: 4_489_941,
        rtos_cycles: 6_719_480,
        dispatches: 97_533,
        deliveries: 33_500,
        events_lost: 0,
        emissions: emissions(&[
            ("addr_match", 400),
            ("crc_ok", 500),
            ("packet", 500),
            ("top::kill_check", 100),
        ]),
    };
    check(
        "stack, 3 tasks",
        b::stack_parts(),
        &b::stack_events(500),
        &pinned,
    );
}

#[test]
fn pager_one_task() {
    let pinned = Totals {
        task_cycles: 87_074,
        rtos_cycles: 131_685,
        dispatches: 1_726,
        deliveries: 1_125,
        events_lost: 0,
        emissions: emissions(&[("dac", 400), ("top::frame", 100), ("top::out_sample", 400)]),
    };
    check(
        "pager, 1 task",
        vec![b::pager_mono()],
        &b::pager_events(25),
        &pinned,
    );
}

#[test]
fn pager_three_tasks() {
    let pinned = Totals {
        task_cycles: 148_804,
        rtos_cycles: 361_305,
        dispatches: 5_178,
        deliveries: 1_625,
        events_lost: 0,
        emissions: emissions(&[("dac", 400), ("frame", 100), ("out_sample", 400)]),
    };
    check(
        "pager, 3 tasks",
        b::pager_parts(),
        &b::pager_events(25),
        &pinned,
    );
}
