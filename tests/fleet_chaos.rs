//! Fleet chaos: killing or stalling some sessions must never touch
//! their neighbors. With a kill plan armed, the supervisor restores
//! victims from their last checkpoint and replays — and *every*
//! session (victim or survivor) must end byte-identical to an unarmed
//! solo run: same VCD bytes, same verdicts, same emission counts,
//! same loss accounting. Shard stalls are purely temporal and must
//! change nothing at all.
//!
//! Each fleet carries its own plan in its `FleetConfig`, so the
//! tests share no fault state and need no lock.

use ecl_faults::{FaultPlan, InjectionStats};
use ecl_fleet::{FleetConfig, FleetReport, SessionSpec, SessionStatus, Supervisor};
use ecl_observe::{Monitor, MonitorReport, Verdict};
use sim::runner::{AsyncRunner, Runner};
use sim::tb::{InstantEvents, PacketTb};
use std::collections::HashMap;
use std::sync::Arc;

fn supervisor(cfg: FleetConfig) -> Supervisor {
    let designs = ecl_core::Source::new(sim::designs::PROTOCOL_STACK)
        .parse()
        .and_then(|p| p.partition("toplevel"))
        .expect("protocol stack partitions");
    Supervisor::new(designs, &Default::default(), cfg).expect("fleet compiles")
}

fn specs() -> Vec<Arc<ecl_observe::MonitorSpec>> {
    ecl_observe::synthesize_all(&ecl_syntax::parse_str(sim::designs::PROTOCOL_STACK).unwrap())
        .unwrap()
}

fn events() -> Arc<Vec<InstantEvents>> {
    Arc::new(
        PacketTb {
            packets: 3,
            corrupt_every: 0,
            reset_every: 0,
            seed: 7,
        }
        .events(),
    )
}

fn session(
    id: u64,
    ev: &Arc<Vec<InstantEvents>>,
    specs: &[Arc<ecl_observe::MonitorSpec>],
) -> SessionSpec {
    SessionSpec {
        id,
        events: Arc::clone(ev),
        specs: specs.to_vec(),
        trace_capacity: Some(0),
    }
}

/// Everything a session must reproduce bit-for-bit.
#[derive(Debug, PartialEq)]
struct RunOut {
    vcd: String,
    counts: HashMap<String, u64>,
    verdicts: Vec<(String, Verdict)>,
    events_lost: u64,
}

/// The no-plan reference: one solo runner over the supervisor's own
/// shared program.
fn baseline(
    sup: &Supervisor,
    ev: &[InstantEvents],
    specs: &[Arc<ecl_observe::MonitorSpec>],
) -> RunOut {
    let mut r = AsyncRunner::from_shared(sup.shared(), Default::default(), Default::default());
    r.enable_trace(0);
    let mut monitors: Vec<Monitor> = specs
        .iter()
        .map(|s| {
            let mut m = Monitor::new(Arc::clone(s));
            m.bind(r.sig_table());
            m
        })
        .collect();
    r.run_events(ev, |i, p| {
        for m in &mut monitors {
            m.step_present(i, p);
        }
    })
    .expect("clean run");
    RunOut {
        vcd: r.take_trace().expect("trace recorded").to_vcd("fleet"),
        counts: r.counts(),
        verdicts: MonitorReport::conclude(monitors).verdicts,
        events_lost: r.kernel().events_lost,
    }
}

/// Injections summed over every session of a fleet run.
fn injected(rep: &FleetReport) -> InjectionStats {
    rep.sessions
        .iter()
        .fold(InjectionStats::default(), |acc, s| acc + s.injected)
}

fn out_of(s: &ecl_fleet::SessionReport) -> RunOut {
    RunOut {
        vcd: s.trace.as_ref().expect("trace kept").to_vcd("fleet"),
        counts: s.counts.clone(),
        verdicts: s
            .report
            .as_ref()
            .expect("verdicts concluded")
            .verdicts
            .clone(),
        events_lost: s.events_lost,
    }
}

/// k of N sessions killed at seeded instants: victims restart from
/// their checkpoints and converge; survivors never notice. Everyone
/// ends byte-identical to the unfaulted solo run.
#[test]
fn kills_are_contained_and_victims_converge() {
    let (ev, sp) = (events(), specs());
    let plan = FaultPlan {
        kill_session: 0.5,
        kill_within: 40,
        ..FaultPlan::seeded(11)
    };
    let sup = supervisor(FleetConfig {
        shards: 2,
        checkpoint_every: 8,
        faults: Some(plan),
        ..Default::default()
    });
    let want = baseline(&sup, &ev, &sp);

    // The kill schedule is a pure function of (seed, session) —
    // predict the victims before running.
    let victims: Vec<u64> = (1..=6)
        .filter(|id| plan.kill_instant(*id).is_some())
        .collect();
    let rep = sup.run((1..=6).map(|id| session(id, &ev, &sp)).collect());
    let stats = injected(&rep);

    assert!(
        !victims.is_empty() && victims.len() < 6,
        "seed must kill some but not all: {victims:?}"
    );
    assert_eq!(stats.session_kills, victims.len() as u64, "{stats:?}");
    assert_eq!(rep.health.finished, 6, "{:?}", rep.health);
    assert_eq!(rep.health.restarts, victims.len() as u64);
    for s in &rep.sessions {
        assert_eq!(s.status, SessionStatus::Finished, "session {}", s.id);
        if victims.contains(&s.id) {
            assert_eq!(s.restarts, 1, "one kill, one restore (session {})", s.id);
            assert!(s.backoff_ticks > 0);
        } else {
            assert_eq!(s.restarts, 0, "survivor restarted (session {})", s.id);
        }
        assert_eq!(
            out_of(s),
            want,
            "session {} diverged from the solo baseline",
            s.id
        );
    }
}

/// Shard stalls delay quanta but are invisible in every output byte.
#[test]
fn shard_stalls_are_purely_temporal() {
    let (ev, sp) = (events(), specs());
    let sup = supervisor(FleetConfig {
        shards: 2,
        checkpoint_every: 8,
        faults: Some(FaultPlan {
            shard_stall: 0.5,
            stall_ms: 1,
            ..FaultPlan::seeded(21)
        }),
        ..Default::default()
    });
    let want = baseline(&sup, &ev, &sp);

    let rep = sup.run((1..=4).map(|id| session(id, &ev, &sp)).collect());
    let stats = injected(&rep);

    assert!(stats.shard_stalls > 0, "stalls must fire: {stats:?}");
    assert_eq!(rep.health.finished, 4);
    assert_eq!(rep.health.restarts, 0, "stalls are not failures");
    for s in &rep.sessions {
        assert_eq!(out_of(s), want, "session {} diverged under stalls", s.id);
    }
}

/// A panic *mid-instant* (the `panic_at` site tears the runner inside
/// phase 1) poisons every armed session once; the supervisor restores
/// each one's checkpoint, replays past the spent one-shot site, and
/// converges.
#[test]
fn mid_instant_panic_recovers_from_checkpoint() {
    let (ev, sp) = (events(), specs());
    let sup = supervisor(FleetConfig {
        shards: 2,
        checkpoint_every: 8,
        faults: Some(FaultPlan {
            panic_at: Some(13),
            ..FaultPlan::seeded(5)
        }),
        ..Default::default()
    });
    let want = baseline(&sup, &ev, &sp);

    let rep = sup.run((1..=2).map(|id| session(id, &ev, &sp)).collect());

    assert_eq!(rep.health.finished, 2, "{:?}", rep.health);
    for s in &rep.sessions {
        assert_eq!(s.injected.panics, 1, "session {}: {:?}", s.id, s.injected);
        assert_eq!(s.restarts, 1, "session {} eats one panic", s.id);
        assert_eq!(out_of(s), want, "session {} diverged after the panic", s.id);
    }
}

/// Admission rejections are attributed per session in the telemetry
/// stream (mirroring `events_lost`), and the fleet emits its
/// aggregate `fleet_health` snapshot.
#[test]
fn rejections_and_health_reach_the_telemetry_stream() {
    let (ev, sp) = (events(), specs());
    let sup = supervisor(FleetConfig {
        shards: 1,
        queue_cap: 2,
        ..Default::default()
    });

    ecl_telemetry::set_enabled(true);
    let sink = ecl_telemetry::MemorySink::new();
    ecl_telemetry::install_sink(Box::new(sink.clone()));
    let rep = sup.run((1..=3).map(|id| session(id, &ev, &sp)).collect());
    ecl_telemetry::sink::flush();
    ecl_telemetry::uninstall_sink();
    ecl_telemetry::set_enabled(false);

    assert_eq!(rep.health.rejected, 1);
    let lines = sink.lines();
    let rejection = lines.iter().any(|l| {
        let Ok(j) = ecl_telemetry::schema::parse(l) else {
            return false;
        };
        j.get("event").and_then(|v| v.as_str()) == Some("events_lost")
            && j.get("reason").and_then(|v| v.as_str()) == Some("admission_refused")
            && j.get("session").and_then(|v| v.as_u64()) == Some(3)
            && j.get("total").and_then(|v| v.as_u64()) == Some(ev.len() as u64)
    });
    assert!(rejection, "no admission-refused events_lost line");
    let health = lines.iter().any(|l| {
        let Ok(j) = ecl_telemetry::schema::parse(l) else {
            return false;
        };
        j.get("event").and_then(|v| v.as_str()) == Some("fleet_health")
            && j.get("sessions").and_then(|v| v.as_u64()) == Some(3)
            && j.get("rejected").and_then(|v| v.as_u64()) == Some(1)
    });
    assert!(health, "no fleet_health line");
    for l in &lines {
        ecl_telemetry::schema::validate_line(l)
            .unwrap_or_else(|e| panic!("invalid line: {e}\n  {l}"));
    }
}
