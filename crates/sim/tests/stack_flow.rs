//! Functional test: packets flow through the stack in both partitions.

use codegen::cost::CostParams;
use ecl_core::{Design, Source};
use rtk::KernelParams;
use sim::designs::PROTOCOL_STACK;
use sim::runner::{AsyncRunner, Runner};
use sim::tb::PacketTb;

fn run(designs: Vec<Design>, packets: usize) -> AsyncRunner {
    let tb = PacketTb {
        packets,
        corrupt_every: 4,
        reset_every: 0,
        seed: 42,
    };
    let mut r = AsyncRunner::new(
        designs,
        &Default::default(),
        CostParams::default(),
        KernelParams::default(),
    )
    .unwrap();
    r.run_events(&tb.events(), |_, _| {}).unwrap();
    r
}

#[test]
fn single_task_stack_emits_packets_and_crc() {
    let d = Source::new(PROTOCOL_STACK)
        .parse()
        .unwrap()
        .elaborate("toplevel")
        .unwrap()
        .split()
        .unwrap()
        .to_design();
    let r = run(vec![d], 12);
    println!("counts: {:?}", r.counts());
    let pk = r.counts().get("top::packet").copied().unwrap_or(0);
    assert_eq!(pk, 12, "every packet should be assembled");
    let crc = r.counts().get("top::crc_ok").copied().unwrap_or(0);
    assert!(crc >= 11, "crc checked per packet, got {crc}");
    let am = r.counts().get("addr_match").copied().unwrap_or(0);
    assert!(
        am >= 1,
        "some packets should match, got {am}; counts {:?}",
        r.counts()
    );
}

#[test]
fn three_task_stack_emits_packets_and_crc() {
    let parts = Source::new(PROTOCOL_STACK)
        .parse()
        .unwrap()
        .partition("toplevel")
        .unwrap();
    assert_eq!(parts.len(), 3);
    let r = run(parts, 12);
    println!("counts: {:?}", r.counts());
    let pk = r.counts().get("packet").copied().unwrap_or(0);
    assert_eq!(pk, 12);
    let am = r.counts().get("addr_match").copied().unwrap_or(0);
    assert!(am >= 1, "counts: {:?}", r.counts());
    assert!(r.kernel().deliveries > 0);
}
