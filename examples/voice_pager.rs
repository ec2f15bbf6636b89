//! The voice-mail pager audio buffer controller (the paper's second
//! Table 1 example, reconstructed): record and play back audio frames,
//! compiled through the staged pipeline.
//!
//! Run with: `cargo run --example voice_pager`

use ecl_repro::prelude::*;
use rtk::KernelParams;
use sim::designs::VOICE_PAGER;
use sim::tb::PagerTb;

fn main() {
    let machine = Source::named("voice_pager.ecl", VOICE_PAGER)
        .finish("pager")
        .expect("compiles");
    println!("monolithic pager EFSM: {}", machine.efsm().stats());
    println!("(three modules waiting on unrelated streams multiply into a product machine —");
    println!(" the mechanism behind the paper's Buffer row, where sync code ≫ async code)\n");

    let mut r = AsyncRunner::new(
        vec![machine.design()],
        &Default::default(),
        CostParams::default(),
        KernelParams::default(),
    )
    .unwrap();
    let tb = PagerTb {
        rounds: 3,
        frames: 4,
        seed: 7,
    };
    r.run_events(&tb.events(), |_, _| {}).unwrap();
    let by_name = r.counts();
    let mut counts: Vec<_> = by_name.iter().collect();
    counts.sort();
    println!("emissions after 3 record/play rounds:");
    for (name, n) in counts {
        println!("  {name}: {n}");
    }
}
