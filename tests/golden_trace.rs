//! Golden-trace stability: the VCD dump of the protocol-stack
//! testbench's opening window is committed and must stay
//! byte-for-byte identical. Any change to packet geometry, stimulus
//! seeding, elaboration naming, emission ordering or the VCD writer
//! shows up here first.
//!
//! Regenerate (after an *intentional* change) with:
//! `UPDATE_GOLDEN=1 cargo test --test golden_trace`.

use ecl_core::Source;
use sim::runner::{InterpRunner, Runner};
use sim::tb::PacketTb;

const GOLDEN_PATH: &str = "tests/golden/stack_head.vcd";
/// Opening window: idle + one full packet + inter-packet gap + enough
/// drain instants for the header scan to conclude (`addr_match`).
const INSTANTS: usize = 75;

fn dump_head() -> String {
    let design = Source::new(sim::designs::PROTOCOL_STACK)
        .parse()
        .and_then(|p| p.elaborate("toplevel")?.split())
        .expect("stack compiles")
        .to_design();
    let mut runner = InterpRunner::new(&design).expect("runner");
    runner.enable_trace(0);
    let events = PacketTb {
        packets: 1,
        corrupt_every: 0,
        reset_every: 0,
        seed: 1999,
    }
    .events();
    runner
        .run_events(&events[..INSTANTS.min(events.len())], |_, _| {})
        .expect("run");
    runner
        .take_trace()
        .expect("trace enabled")
        .to_vcd("protocol_stack")
}

#[test]
fn stack_opening_window_vcd_is_stable() {
    let vcd = dump_head();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all("tests/golden").unwrap();
        std::fs::write(GOLDEN_PATH, &vcd).unwrap();
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file present (regenerate with UPDATE_GOLDEN=1)");
    assert_eq!(
        vcd, golden,
        "trace drifted from {GOLDEN_PATH}; if intentional, regenerate \
         with UPDATE_GOLDEN=1"
    );
}

#[test]
fn golden_dump_is_reproducible_within_a_run() {
    assert_eq!(dump_head(), dump_head());
}
