//! Functional test: the voice pager records and plays back audio.

use codegen::cost::CostParams;
use ecl_core::{Design, Source};
use rtk::KernelParams;
use sim::designs::VOICE_PAGER;
use sim::runner::{AsyncRunner, Runner};
use sim::tb::PagerTb;

fn run(designs: Vec<Design>) -> AsyncRunner {
    let tb = PagerTb {
        rounds: 2,
        frames: 3,
        seed: 5,
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
fn single_task_pager_plays_back() {
    let m = Source::new(VOICE_PAGER).finish("pager").unwrap();
    println!("pager monolithic: {}", m.efsm().stats());
    let r = run(vec![m.design()]);
    println!("counts: {:?}", r.counts());
    let frames = r.counts().get("top::frame").copied().unwrap_or(0);
    assert!(frames >= 4, "frames recorded: {frames}; {:?}", r.counts());
    let dac = r.counts().get("dac").copied().unwrap_or(0);
    assert!(dac >= 4, "dac samples played: {dac}; {:?}", r.counts());
}

#[test]
fn three_task_pager_plays_back() {
    let parts = Source::new(VOICE_PAGER)
        .parse()
        .unwrap()
        .partition("pager")
        .unwrap();
    assert_eq!(parts.len(), 3);
    for p in &parts {
        let m = p.to_efsm(&Default::default()).unwrap();
        println!("pager task {}: {}", p.entry, m.stats());
    }
    let r = run(parts);
    println!("counts: {:?}", r.counts());
    let dac = r.counts().get("dac").copied().unwrap_or(0);
    assert!(dac >= 4, "dac: {dac}; {:?}", r.counts());
}
