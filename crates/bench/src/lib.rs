//! Shared helpers for the benchmark harness.
//!
//! The binaries (`gen_table1`, `gen_ablation`) and the Criterion benches
//! all go through these helpers so the measured configurations are
//! identical everywhere. See DESIGN.md for the experiment index and
//! EXPERIMENTS.md for paper-vs-measured results.

use codegen::cost::CostParams;
use ecl_core::{Design, Source, SplitStrategy};
use sim::measure::{measure, Measurement};
use sim::tb::{InstantEvents, PacketTb, PagerTb};

/// Parse `src` and split module `entry` under `strategy`.
pub fn compile_with(src: &str, entry: &str, strategy: SplitStrategy) -> Design {
    Source::new(src)
        .parse()
        .and_then(|p| p.elaborate(entry)?.split_with(strategy))
        .expect("compiles")
        .to_design()
}

/// Parse `src` and split each direct instantiation of `toplevel` as
/// its own task.
fn partition(src: &str, toplevel: &str) -> Vec<Design> {
    Source::new(src)
        .parse()
        .and_then(|p| p.partition(toplevel))
        .expect("partitions")
}

/// Compile the protocol stack (Figures 1–4) as one synchronous design.
pub fn stack_mono() -> Design {
    compile_with(
        sim::designs::PROTOCOL_STACK,
        "toplevel",
        SplitStrategy::default(),
    )
}

/// Compile the protocol stack as three asynchronous tasks.
pub fn stack_parts() -> Vec<Design> {
    partition(sim::designs::PROTOCOL_STACK, "toplevel")
}

/// Compile the voice pager as one synchronous design.
pub fn pager_mono() -> Design {
    compile_with(sim::designs::VOICE_PAGER, "pager", SplitStrategy::default())
}

/// Compile the voice pager as three asynchronous tasks.
pub fn pager_parts() -> Vec<Design> {
    partition(sim::designs::VOICE_PAGER, "pager")
}

/// The paper's packet workload (500 packets by default).
pub fn stack_events(packets: usize) -> Vec<InstantEvents> {
    PacketTb {
        packets,
        corrupt_every: 5,
        reset_every: 0,
        seed: 1999,
    }
    .events()
}

/// The pager workload.
pub fn pager_events(rounds: usize) -> Vec<InstantEvents> {
    PagerTb {
        rounds,
        frames: 4,
        seed: 7,
    }
    .events()
}

/// One Table 1 row.
pub fn row(designs: Vec<Design>, events: &[InstantEvents], label: &str) -> Measurement {
    measure(
        designs,
        events,
        label,
        &Default::default(),
        &CostParams::default(),
    )
    .expect("measurement succeeds")
}

/// Pull `"normalized": X` out of the `BENCH_reaction.json` line whose
/// config is `label` (a tiny line-oriented parser: the file is
/// `gen_bench`/`fleet_bench` output). The regression gates of both
/// binaries read their baselines through it.
pub fn extract_normalized(json: &str, label: &str) -> Option<f64> {
    let needle = format!("\"config\": \"{label}\"");
    let line = json.lines().find(|l| l.contains(&needle))?;
    let norm = line.split("\"normalized\":").nth(1)?;
    norm.trim()
        .trim_end_matches(['}', ',', ']'])
        .trim_end_matches('}')
        .trim()
        .parse()
        .ok()
}
