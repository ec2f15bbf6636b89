//! `fleet_bench` — aggregate reaction throughput of a supervised
//! session fleet.
//!
//! Runs ≥1k concurrent voice-pager sessions over one shared compiled
//! program (`ecl_fleet::Supervisor`, one shard per hardware thread)
//! and records *aggregate* instants/second — the fleet's capacity
//! number — plus the same fleet under periodic checkpointing, so the
//! snapshot overhead is measured honestly rather than claimed.
//!
//! Results merge into the `runs` array of the existing
//! `BENCH_reaction.json` (same line format, labels under
//! `pager/fleet/…`), normalized against a single-session solo run
//! measured in the same process — the normalized ratio is the fleet's
//! parallel scaling factor, which is what the 20% regression gate
//! compares across machines. Labels absent from a baseline are
//! skipped by the gate, so the first run on a fresh baseline passes.
//!
//! Usage: `fleet_bench [--out PATH] [--check BASELINE] [--sessions N] [--rounds N]`

use ecl_bench::extract_normalized;
use ecl_faults::FaultPlan;
use ecl_fleet::{FleetConfig, SessionSpec, SessionStatus, Supervisor};
use sim::runner::{AsyncRunner, Runner};
use sim::tb::{InstantEvents, PagerTb};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Fleet size the ISSUE's capacity claim is stated for.
const DEFAULT_SESSIONS: usize = 1000;
/// Pager testbench rounds per session (~69 instants each).
const DEFAULT_ROUNDS: usize = 10;
/// Allowed normalized-throughput regression against the baseline
/// (the same tolerance `gen_bench` gates with).
const TOLERANCE: f64 = 0.20;
/// Interleaved measurement rounds; each config keeps its best rate.
const MEASURE_ROUNDS: usize = 3;

fn main() {
    ecl_telemetry::init_from_env();
    // A fault plan (ECL_FAULTS) arms every fleet session and turns
    // this into the fleet chaos smoke: killed sessions must restart
    // from checkpoints and the finished-count assertion below still
    // holds. Injected kills are caught by the supervisor, so keep
    // their backtraces out of the log; anything else still reaches
    // the default hook.
    let faults = FaultPlan::from_env();
    if faults.is_some() {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.starts_with("ecl-faults:"));
            if !injected {
                default_hook(info);
            }
        }));
    }
    let args: Vec<String> = std::env::args().collect();
    let mut out_path = "BENCH_reaction.json".to_string();
    let mut check_path: Option<String> = None;
    let mut sessions = DEFAULT_SESSIONS;
    let mut rounds = DEFAULT_ROUNDS;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                out_path = args[i + 1].clone();
                i += 2;
            }
            "--check" => {
                check_path = Some(args[i + 1].clone());
                i += 2;
            }
            "--sessions" => {
                sessions = args[i + 1].parse().expect("--sessions takes a number");
                i += 2;
            }
            "--rounds" => {
                rounds = args[i + 1].parse().expect("--rounds takes a number");
                i += 2;
            }
            other => panic!("unknown argument `{other}`"),
        }
    }

    let events: Arc<Vec<InstantEvents>> = Arc::new(
        PagerTb {
            rounds,
            frames: 4,
            seed: 7,
        }
        .events(),
    );
    let per_session = events.len();
    let designs = ecl_bench::pager_parts();
    let shards = std::thread::available_parallelism().map_or(4, |n| n.get());

    // (label, checkpoint cadence): `nockpt` takes only the initial
    // snapshot — the capacity headline; `ckpt64` snapshots every 64
    // instants — the difference is the honest checkpoint overhead.
    let configs: [(&str, u64); 2] = [("pager/fleet/nockpt", 0), ("pager/fleet/ckpt64", 64)];

    let sups: Vec<Supervisor> = configs
        .iter()
        .map(|(_, ckpt)| {
            Supervisor::new(
                designs.clone(),
                &Default::default(),
                FleetConfig {
                    shards,
                    queue_cap: sessions.max(1),
                    checkpoint_every: *ckpt,
                    faults,
                    ..Default::default()
                },
            )
            .expect("fleet compiles")
        })
        .collect();

    let mut rates: Vec<(String, f64)> = configs
        .iter()
        .map(|(label, _)| (label.to_string(), 0.0f64))
        .collect();
    let mut solo_rate = 0.0f64;
    for _ in 0..MEASURE_ROUNDS {
        for (c, sup) in sups.iter().enumerate() {
            let specs: Vec<SessionSpec> = (1..=sessions as u64)
                .map(|id| SessionSpec {
                    id,
                    events: Arc::clone(&events),
                    specs: Vec::new(),
                    trace_capacity: None,
                })
                .collect();
            let t0 = Instant::now();
            let rep = sup.run(specs);
            let secs = t0.elapsed().as_secs_f64();
            assert!(
                rep.sessions
                    .iter()
                    .all(|s| s.status == SessionStatus::Finished),
                "fleet bench sessions must finish: {:?}",
                rep.health
            );
            let total = (sessions * per_session) as f64;
            rates[c].1 = rates[c].1.max(total / secs);
        }
        // Solo reference: one bare runner (no supervisor, no queues)
        // over the same stream, repeated so fixed setup cost doesn't
        // pollute the denominator. The normalized ratio is therefore
        // "supervised fleet throughput over an unsupervised single
        // session" — supervision overhead shows up as ratio < shards.
        const SOLO_REPEATS: usize = 20;
        let mut r =
            AsyncRunner::from_shared(sups[0].shared(), Default::default(), Default::default());
        let t0 = Instant::now();
        for _ in 0..SOLO_REPEATS {
            r.run_events(&events, |_, _| {}).expect("solo run");
        }
        let secs = t0.elapsed().as_secs_f64();
        solo_rate = solo_rate.max((per_session * SOLO_REPEATS) as f64 / secs);
    }

    // Render the new run lines (same shape as gen_bench's entries;
    // `normalized` is the scaling factor over the solo session).
    let mut new_lines = String::new();
    for (label, rate) in &rates {
        let _ = writeln!(
            new_lines,
            "    {{\"config\": \"{label}\", \"instants_per_sec\": {:.0}, \"sessions\": {sessions}, \"instants_per_session\": {per_session}, \"shards\": {shards}, \"normalized\": {:.3}}},",
            rate,
            rate / solo_rate.max(1.0),
        );
    }

    let merged = merge_runs(&out_path, &new_lines, sessions, per_session);
    std::fs::write(&out_path, &merged).expect("write benchmark output");
    for (label, rate) in &rates {
        println!(
            "{label}: {rate:.0} aggregate instants/sec ({sessions} sessions x {per_session} instants, {shards} shards, x{:.2} over solo {solo_rate:.0})",
            rate / solo_rate.max(1.0)
        );
    }
    // What checkpointing costs the fleet, as a throughput ratio
    // (1.00: free). Printed only; the gate below checks each config.
    if let [(_, nockpt), (_, ckpt64)] = &rates[..] {
        println!(
            "pager/fleet: ckpt64/nockpt throughput ratio {:.3}",
            ckpt64 / nockpt
        );
    }
    println!("wrote {out_path}");

    if let Some(baseline) = check_path {
        let base = std::fs::read_to_string(&baseline)
            .unwrap_or_else(|e| panic!("cannot read baseline {baseline}: {e}"));
        let mut failures = Vec::new();
        for (label, rate) in &rates {
            let Some(base_norm) = extract_normalized(&base, label) else {
                continue; // new config: no baseline yet
            };
            let norm = rate / solo_rate.max(1.0);
            if norm < base_norm * (1.0 - TOLERANCE) {
                failures.push(format!(
                    "{label}: normalized {norm:.3} regressed >{:.0}% against baseline {base_norm:.3}",
                    TOLERANCE * 100.0
                ));
            }
        }
        if failures.is_empty() {
            println!("check against {baseline}: OK");
        } else {
            eprintln!("fleet benchmark regression against {baseline}:");
            for f in &failures {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
    }
}

/// Merge the fleet lines into `path`'s `runs` array (replacing any
/// previous `pager/fleet/…` entries), or start a minimal file when no
/// benchmark output exists yet.
fn merge_runs(path: &str, new_lines: &str, sessions: usize, per_session: usize) -> String {
    match std::fs::read_to_string(path) {
        Ok(existing) if existing.contains("\"runs\": [") => {
            let mut out = String::new();
            for line in existing.lines() {
                if line.contains("\"config\": \"pager/fleet/") {
                    continue;
                }
                out.push_str(line);
                out.push('\n');
                if line.trim_start().starts_with("\"runs\": [") {
                    out.push_str(new_lines);
                }
            }
            out
        }
        _ => {
            // No gen_bench output to merge into: emit a minimal file
            // of the same shape. The last entry must not carry a
            // trailing comma.
            let trimmed = new_lines.trim_end().trim_end_matches(',');
            format!(
                "{{\n  \"schema\": 1,\n  \"instants\": {},\n  \"runs\": [\n{trimmed}\n  ]\n}}\n",
                sessions * per_session
            )
        }
    }
}
