//! Shared helpers for the benchmark binaries.
//!
//! `gen_table1` and `gen_bench` compile the evaluated designs through
//! these helpers, so both measure the same configurations;
//! `gen_bench --check` gates through [`parse_baseline`] and [`check`].
//! See DESIGN.md for the experiment index and EXPERIMENTS.md for
//! paper-vs-measured results.

use codegen::cost::CostParams;
use ecl_core::{Design, Source, SplitStrategy};
use ecl_telemetry::schema::{self, Json};
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

/// Largest allowed drop of a config's normalized ratio below its
/// baseline before `gen_bench --check` fails.
pub const TOLERANCE: f64 = 0.20;

/// The `(config, normalized)` pairs of a benchmark file's `runs` array.
///
/// # Errors
///
/// `text` is not JSON, or has no `runs` array of entries that each
/// carry a string `config` and a numeric `normalized`.
pub fn parse_baseline(text: &str) -> Result<Vec<(String, f64)>, String> {
    let Some(Json::Arr(entries)) = schema::parse(text)?.get("runs").cloned() else {
        return Err("no `runs` array".to_string());
    };
    entries
        .iter()
        .map(|e| {
            let config = e.get("config").and_then(Json::as_str);
            let normalized = e.get("normalized").and_then(Json::as_f64);
            config
                .zip(normalized)
                .map(|(c, n)| (c.to_string(), n))
                .ok_or_else(|| format!("run entry without `config` and `normalized`: {e:?}"))
        })
        .collect()
}

/// Gate one run's `(config, normalized)` pairs against a baseline:
/// every baseline config must have been measured, and its ratio must
/// not fall more than [`TOLERANCE`] below the baseline's. Configs new
/// to the run pass. Returns one message per failure.
pub fn check(baseline: &[(String, f64)], measured: &[(&str, f64)]) -> Vec<String> {
    let mut failures = Vec::new();
    for (config, base) in baseline {
        match measured.iter().find(|(c, _)| c == config) {
            None => failures.push(format!("{config}: in the baseline but not measured")),
            Some(&(_, norm)) if norm < base * (1.0 - TOLERANCE) => failures.push(format!(
                "{config}: normalized {norm:.3} regressed >{:.0}% against baseline {base:.3}",
                TOLERANCE * 100.0
            )),
            Some(_) => {}
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline() -> Vec<(String, f64)> {
        vec![("a".to_string(), 1.0), ("b".to_string(), 2.0)]
    }

    #[test]
    fn a_drop_over_the_tolerance_fails() {
        let failures = check(&baseline(), &[("a", 1.0), ("b", 1.58)]);
        assert_eq!(failures.len(), 1);
        assert!(
            failures[0].starts_with("b: normalized 1.580"),
            "{failures:?}"
        );
    }

    #[test]
    fn a_drop_within_the_tolerance_passes() {
        assert!(check(&baseline(), &[("a", 0.81), ("b", 1.61)]).is_empty());
    }

    #[test]
    fn a_baseline_config_missing_from_the_run_fails() {
        let failures = check(&baseline(), &[("a", 1.0), ("b_renamed", 2.0)]);
        assert_eq!(failures, ["b: in the baseline but not measured"]);
    }

    #[test]
    fn a_config_new_to_the_run_passes() {
        assert!(check(&baseline(), &[("a", 1.0), ("b", 2.0), ("c", 0.1)]).is_empty());
    }

    #[test]
    fn the_committed_baseline_parses_and_passes_against_itself() {
        let base = parse_baseline(include_str!("../../../BENCH_reaction.json")).unwrap();
        assert_eq!(base.len(), 14);
        assert!(base.iter().any(|(c, _)| c == "pager/fleet/ckpt64"));
        let measured: Vec<(&str, f64)> = base.iter().map(|(c, n)| (c.as_str(), *n)).collect();
        assert!(check(&base, &measured).is_empty());
        assert!(parse_baseline("{\"runs\": [{\"config\": \"a\"}]}").is_err());
        assert!(parse_baseline("{\"schema\": 1}").is_err());
    }
}
