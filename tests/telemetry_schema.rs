//! Golden test for the telemetry JSONL stream: everything the stack
//! emits through a sink must parse as one JSON object per line, carry
//! the versioned preamble (`schema`/`ts`/`run_id`/`event`), and
//! satisfy the per-kind required fields of
//! [`ecl_telemetry::schema::REQUIRED_FIELDS`].
//!
//! One test function on purpose: telemetry state (master switch, span
//! cadence, installed sink) is process-global, and libtest runs test
//! functions on concurrent threads — a second function toggling the
//! switch would race the captured stream.

use ecl_observe::{check_interp, check_interp_with};
use ecl_telemetry::schema::{parse, validate_line};
use ecl_telemetry::{install_sink, uninstall_sink, MemorySink, Run};
use efsm::BitSet;
use rtk::{Kernel, KernelParams};
use sim::designs::PROTOCOL_STACK;
use sim::runner::{AsyncRunner, Runner};
use sim::tb::{InstantEvents, PacketTb};
use std::collections::BTreeSet;

#[test]
fn every_emitted_line_is_schema_valid_and_all_kinds_appear() {
    ecl_telemetry::set_enabled(true);
    // Short spans so a ~200-instant run emits several summaries.
    ecl_telemetry::set_span_every(50);
    let sink = MemorySink::new();
    install_sink(Box::new(sink.clone()));

    let parsed = ecl_core::Source::new(PROTOCOL_STACK).parse().unwrap();
    let specs = ecl_observe::synthesize_all(parsed.ast()).unwrap();
    let design = parsed
        .elaborate("toplevel")
        .unwrap()
        .split()
        .unwrap()
        .to_design();

    // Clean monitored run: run_start/run_end bracket, spans, passing
    // final verdicts.
    let clean = PacketTb {
        packets: 3,
        corrupt_every: 0,
        reset_every: 0,
        seed: 1999,
    }
    .events();
    let run = Run::start("protocol_stack", "schema-test/clean");
    let n = clean.len() as u64;
    let r = check_interp(&design, &clean, &specs, 0).expect("clean run");
    run.end(n);
    assert!(r.report.all_pass(), "clean run must pass: {}", r.report);

    // Corrupted run: a CRC byte is flipped, so a monitor latches a
    // violation — the `verdict` kind with `"verdict": "fail"`.
    let corrupted = PacketTb {
        packets: 2,
        corrupt_every: 2,
        reset_every: 0,
        seed: 1999,
    }
    .events();
    let run = Run::start("protocol_stack", "schema-test/corrupted");
    let n = corrupted.len() as u64;
    let r = check_interp(&design, &corrupted, &specs, 0).expect("corrupted run");
    run.end(n);
    assert!(!r.report.all_pass(), "corruption must be caught");

    // Mailbox overwrite: post the same signal twice without a
    // dispatch in between — the 1-place mailbox drops the first one,
    // and `emit_events_lost_event` surfaces the loss.
    let mut k = Kernel::new(KernelParams::default());
    let t = k.add_task("rx", 0, [7usize].into_iter().collect());
    k.post_external(7);
    k.post_external(7);
    let mut ev = BitSet::new();
    k.schedule_into(&mut ev);
    k.dispatch_into(t, &mut ev);
    assert!(k.events_lost > 0, "double post must overwrite");
    k.emit_events_lost_event();

    // A stimulus failure: a valued name no task reads fails the first
    // instant, and the run leaves through the same error bracket as a
    // reaction failure (error lines attribute a session — 0 outside a
    // fleet).
    let mut r = AsyncRunner::new(
        vec![design.clone()],
        &Default::default(),
        Default::default(),
        Default::default(),
    )
    .expect("runner builds");
    let ghost = [InstantEvents {
        pure: vec![],
        valued: vec![("ghost".into(), 1)],
    }];
    let e = r
        .run_events(&ghost, |_, _| {})
        .expect_err("a valued name no task reads fails the run");
    assert!(e.msg.contains("no task reads signal"), "{e:?}");

    // Fault-injected run: every external event is dropped, so the
    // stream carries `fault_injected` lines too.
    let plan = ecl_faults::FaultPlan {
        drop_external: 1.0,
        ..ecl_faults::FaultPlan::seeded(42)
    };
    let injected = PacketTb {
        packets: 1,
        corrupt_every: 0,
        reset_every: 0,
        seed: 1999,
    }
    .events();
    let run = Run::start("protocol_stack", "schema-test/injected");
    let n = injected.len() as u64;
    let stats = check_interp_with(&design, &injected, &specs, 0, None, Some(plan))
        .expect("injected run")
        .injected;
    run.end(n);
    assert!(stats.dropped_external > 0, "drops must fire: {stats:?}");

    // A two-session fleet: session-id-keyed run brackets plus the
    // aggregate `fleet_health` snapshot line.
    let fleet_events = std::sync::Arc::new(
        PacketTb {
            packets: 2,
            corrupt_every: 0,
            reset_every: 0,
            seed: 1999,
        }
        .events(),
    );
    let sup = ecl_fleet::Supervisor::new(
        vec![design.clone()],
        &Default::default(),
        ecl_fleet::FleetConfig {
            shards: 1,
            ..Default::default()
        },
    )
    .expect("fleet compiles");
    let fleet = sup.run(
        (1..=2)
            .map(|id| ecl_fleet::SessionSpec {
                id,
                events: std::sync::Arc::clone(&fleet_events),
                specs: specs.clone(),
                trace_capacity: None,
            })
            .collect(),
    );
    assert_eq!(fleet.health.finished, 2, "{:?}", fleet.health);

    ecl_telemetry::sink::flush();
    let lines = sink.lines();
    uninstall_sink();
    ecl_telemetry::set_enabled(false);
    ecl_telemetry::set_span_every(1024);

    // Every line: schema-valid, and the preamble keys really are
    // there with sensible values.
    let mut kinds = BTreeSet::new();
    let mut run_ids = BTreeSet::new();
    for line in &lines {
        validate_line(line).unwrap_or_else(|e| panic!("invalid line: {e}\n  {line}"));
        let j = parse(line).unwrap();
        assert_eq!(
            j.get("schema").and_then(|v| v.as_u64()),
            Some(ecl_telemetry::schema::SCHEMA_VERSION)
        );
        assert!(j.get("ts").and_then(|v| v.as_f64()).unwrap() > 0.0);
        run_ids.insert(j.get("run_id").unwrap().as_str().unwrap().to_string());
        kinds.insert(j.get("event").unwrap().as_str().unwrap().to_string());
    }
    for kind in [
        "run_start",
        "run_end",
        "span",
        "verdict",
        "error",
        "events_lost",
        "fault_injected",
        "fleet_health",
    ] {
        assert!(kinds.contains(kind), "stream carries no `{kind}` line");
    }
    // The stimulus failure's line names its kind and the message.
    let stimulus_error = lines.iter().map(|l| parse(l).unwrap()).find(|j| {
        j.get("event").and_then(|v| v.as_str()) == Some("error")
            && j.get("msg")
                .and_then(|v| v.as_str())
                .is_some_and(|m| m.contains("no task reads signal `ghost`"))
    });
    let stimulus_error = stimulus_error.expect("the stimulus failure emits an `error` line");
    assert_eq!(
        stimulus_error.get("kind").and_then(|v| v.as_str()),
        Some("eval")
    );
    assert_eq!(
        stimulus_error.get("session").and_then(|v| v.as_u64()),
        Some(0)
    );

    // Five bracketed runs → at least two distinct correlation ids
    // (the kernel/error lines outside any bracket get the idle id).
    assert!(run_ids.len() >= 2, "run ids: {run_ids:?}");

    // The brackets pair up: every run_start has a run_end with the
    // same run_id and a positive instant count; the fleet's two
    // brackets carry non-zero session ids.
    let mut starts = BTreeSet::new();
    let mut ends = BTreeSet::new();
    let mut fleet_sessions = BTreeSet::new();
    for line in &lines {
        let j = parse(line).unwrap();
        let id = j.get("run_id").unwrap().as_str().unwrap().to_string();
        match j.get("event").unwrap().as_str().unwrap() {
            "run_start" => {
                let session = j.get("session").and_then(|v| v.as_u64()).unwrap();
                if session > 0 {
                    fleet_sessions.insert(session);
                }
                starts.insert(id);
            }
            "run_end" => {
                assert!(j.get("instants").and_then(|v| v.as_u64()).unwrap() > 0);
                ends.insert(id);
            }
            _ => {}
        }
    }
    assert_eq!(starts, ends, "unbalanced run brackets");
    assert_eq!(starts.len(), 5, "3 solo runs + 2 fleet sessions");
    assert_eq!(fleet_sessions, [1, 2].into_iter().collect());
}
