//! Criterion benches for Figures 1–4 (F1–F4): compile speed of each
//! paper module through the full ECL pipeline (parse → elaborate →
//! split → EFSM).

use criterion::{criterion_group, criterion_main, Criterion};
use ecl_core::Source;
use sim::designs::PROTOCOL_STACK;

fn bench_figures(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures");
    g.sample_size(20);
    for (fig, module) in [
        ("fig1_assemble", "assemble"),
        ("fig2_checkcrc", "checkcrc"),
        ("fig3_prochdr", "prochdr"),
        ("fig4_toplevel", "toplevel"),
    ] {
        g.bench_function(fig, |bench| {
            bench.iter(|| Source::new(PROTOCOL_STACK).finish(module).unwrap())
        });
    }
    g.finish();
}

criterion_group!(benches, bench_figures);
criterion_main!(benches);
