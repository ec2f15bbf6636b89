//! `gen_bench` still writes what the `--check` gate and CI read: every
//! config of the committed `BENCH_reaction.json`, the coverage and
//! speedup blocks, the ablation and monitor rows, and a construction
//! block and a profile per design configuration. A short debug-build
//! run; `--check` stays out, since a debug build's ratios differ from a
//! release build's, but the exact work count of the stack's data path
//! is bounded.

use ecl_telemetry::schema::{self, Json};
use std::process::{Command, Output};

/// `gen_bench` with telemetry and fault configuration stripped from
/// its environment.
fn gen_bench(args: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_gen_bench"));
    for (key, _) in std::env::vars_os() {
        let key = key.to_string_lossy();
        if key.starts_with("ECL_TELEMETRY") || key == "ECL_FAULTS" {
            cmd.env_remove(key.as_ref());
        }
    }
    cmd.args(args).output().expect("gen_bench runs")
}

fn members(json: &Json) -> &[(String, Json)] {
    match json {
        Json::Obj(members) => members,
        other => panic!("expected an object, got {other:?}"),
    }
}

fn num(json: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(json, |j, key| j.get(key))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("no number at {path:?}"))
}

/// `stack_mono`'s executed data ops per instant in this test's
/// 200-instant run before the fused loop held scalar variables in
/// registers and charged fuel once per block: 5,676 ops, every one of
/// its frame loads and stores and burns dispatched.
const STACK_MONO_OPS_PER_INSTANT_BEFORE: f64 = 28.38;

#[test]
fn a_short_run_writes_every_gated_config_and_block() {
    let out = format!(
        "{}/harness_BENCH_reaction.json",
        env!("CARGO_TARGET_TMPDIR")
    );
    let run = gen_bench(&["--instants", "200", "--sessions", "4", "--out", &out]);
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let json = schema::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();

    let baseline = ecl_bench::parse_baseline(include_str!("../../../BENCH_reaction.json")).unwrap();
    let Some(Json::Arr(runs)) = json.get("runs") else {
        panic!("no runs array");
    };
    for (config, _) in &baseline {
        assert!(
            runs.iter()
                .any(|r| r.get("config").and_then(Json::as_str) == Some(config)),
            "{config} missing from the run"
        );
    }

    let coverage = members(json.get("coverage").expect("coverage block"));
    assert_eq!(coverage.len(), 4);
    assert!(num(&json, &["speedup_compiled_over_walker", "stack_mono"]) > 0.0);
    for id in ["A1", "A2", "A3", "A4"] {
        let rows = members(json.get("ablations").and_then(|a| a.get(id)).expect(id));
        for (row, _) in rows {
            assert!(
                num(&json, &["ablations", id, row, "us"]) > 0.0,
                "{id}/{row}"
            );
        }
    }
    let covered: Vec<&str> = coverage.iter().map(|(k, _)| k.as_str()).collect();
    let construction = json.get("construction").expect("construction block");
    for config in &covered {
        for layer in ["to_efsm_us", "optimize_us", "fused_us"] {
            assert!(
                num(construction, &[config, layer]) > 0.0,
                "{config}/{layer}"
            );
        }
    }
    for design in ["stack", "pager"] {
        assert!(num(construction, &[design, "synthesize_all_us"]) > 0.0);
        assert!(num(construction, &[design, "observers"]) > 0.0);
    }
    assert!(num(&json, &["monitor_stepping", "fused_instants_per_sec"]) > 0.0);
    assert!(num(&json, &["monitor_stepping", "walked_instants_per_sec"]) > 0.0);

    let profile = members(json.get("profile").expect("profile block"));
    let configs: Vec<&str> = profile.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(configs, covered);
    for (config, p) in profile {
        let steps = num(p, &["table", "steps"]);
        assert!(steps > 0.0, "{config}");
        assert_eq!(num(p, &["vm", "walker_hooks"]), 0.0, "{config}");
        // Quiet ticks are a subset of the compiled steps; the
        // partitioned pager, whose tasks mostly wait, takes them.
        let quiet = num(p, &["table", "quiet_steps"]);
        assert!(quiet <= steps, "{config}: {quiet} quiet of {steps} steps");
        if config == "pager_parts" {
            assert!(quiet > 0.0, "{config} took no quiet tick");
        }
    }
    // A work count that code placement cannot move: the stack's data
    // path runs at most two thirds of the ops it ran before.
    let stack = json
        .get("profile")
        .and_then(|p| p.get("stack_mono"))
        .unwrap();
    let per_instant = num(stack, &["vm", "ops_total"]) / num(stack, &["instants"]);
    assert!(
        per_instant <= STACK_MONO_OPS_PER_INSTANT_BEFORE * 2.0 / 3.0,
        "stack_mono ran {per_instant:.2} data ops per instant"
    );
}

#[test]
fn a_flag_without_its_value_is_a_usage_error() {
    for args in [
        &["--out"][..],
        &["--check"],
        &["--instants"],
        &["--sessions"],
        &["--instants", "many"],
        &["--rounds", "10"],
    ] {
        let run = gen_bench(args);
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(stderr.contains(args[0]), "{args:?}: {stderr}");
    }
}
