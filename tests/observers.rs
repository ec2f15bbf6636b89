//! Acceptance tests for `ecl-observe`: the observers shipped with the
//! two evaluated designs pass on clean runs and catch deliberately
//! seeded violations — with the *same failing instant* on the
//! interpreter-backed and the RTOS-backed runners, monolithic and
//! partitioned alike.

use ecl_core::{Design, Source};
use ecl_observe::{check_async, check_interp, synthesize_all, MonitorSpec, Verdict};
use sim::designs::{PROTOCOL_STACK, VOICE_PAGER};
use sim::tb::{InstantEvents, PacketTb, PagerTb};
use std::sync::Arc;

/// `entry` of `src`, split into one design.
fn design_of(src: &str, entry: &str) -> Design {
    Source::new(src)
        .parse()
        .unwrap()
        .elaborate(entry)
        .unwrap()
        .split()
        .unwrap()
        .to_design()
}

/// One design per direct instantiation of `toplevel` in `src`.
fn parts_of(src: &str, toplevel: &str) -> Vec<Design> {
    Source::new(src)
        .parse()
        .unwrap()
        .partition(toplevel)
        .unwrap()
}

fn specs_of(src: &str) -> Vec<Arc<MonitorSpec>> {
    synthesize_all(&ecl_syntax::parse_str(src).expect("design parses")).expect("observers compile")
}

fn fail_instant(v: &Verdict) -> Option<u64> {
    match v {
        Verdict::Fail(f) => Some(f.instant),
        _ => None,
    }
}

#[test]
fn stack_ships_at_least_two_observers() {
    let specs = specs_of(PROTOCOL_STACK);
    assert!(specs.len() >= 2, "got {}", specs.len());
    let names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
    assert!(names.contains(&"crc_watch"), "{names:?}");
    assert!(names.contains(&"forward_watch"), "{names:?}");
}

#[test]
fn pager_ships_at_least_two_observers() {
    let specs = specs_of(VOICE_PAGER);
    assert!(specs.len() >= 2, "got {}", specs.len());
}

#[test]
fn stack_clean_run_passes_on_all_runners() {
    let specs = specs_of(PROTOCOL_STACK);
    let ev = PacketTb {
        packets: 3,
        corrupt_every: 0,
        reset_every: 0,
        seed: 1999,
    }
    .events();
    let mono = design_of(PROTOCOL_STACK, "toplevel");
    let r = check_interp(&mono, &ev, &specs, 0).unwrap();
    assert!(r.report.all_pass(), "interp:\n{}", r.report);
    let r = check_async(vec![mono.clone()], &ev, &specs, 0).unwrap();
    assert!(r.report.all_pass(), "async mono:\n{}", r.report);
    let parts = parts_of(PROTOCOL_STACK, "toplevel");
    let r = check_async(parts, &ev, &specs, 0).unwrap();
    assert!(r.report.all_pass(), "async 3-task:\n{}", r.report);
}

/// The seeded violation: the second packet carries a corrupted CRC
/// byte. `checkcrc` reports the failure, `prochdr`'s scan is killed,
/// and `forward_watch` ("every packet forwarded within 8 instants")
/// must fail — at the same instant everywhere.
#[test]
fn stack_seeded_crc_corruption_is_caught_on_all_runners() {
    let specs = specs_of(PROTOCOL_STACK);
    let ev = PacketTb {
        packets: 2,
        corrupt_every: 2, // corrupts packet #2 only
        reset_every: 0,
        seed: 1999,
    }
    .events();
    // Packet 2's last byte arrives at instant 129 (1 idle + 64 bytes +
    // 1 gap + 64 bytes); the 8-instant forwarding window closes at 137.
    const EXPECTED_FAIL: u64 = 137;

    let mono = design_of(PROTOCOL_STACK, "toplevel");
    let parts = parts_of(PROTOCOL_STACK, "toplevel");
    let runs = [
        ("interp", check_interp(&mono, &ev, &specs, 0).unwrap()),
        (
            "async mono",
            check_async(vec![mono.clone()], &ev, &specs, 0).unwrap(),
        ),
        ("async 3-task", check_async(parts, &ev, &specs, 0).unwrap()),
    ];
    for (label, run) in &runs {
        let fw = run.report.verdict("forward_watch").unwrap();
        assert_eq!(
            fail_instant(fw),
            Some(EXPECTED_FAIL),
            "{label}: forward_watch = {fw}"
        );
        // The CRC-verdict plumbing itself stays sound: a corrupted
        // packet still gets its (negative) verdict in time.
        assert_eq!(
            run.report.verdict("crc_watch"),
            Some(&Verdict::Pass),
            "{label}"
        );
        assert_eq!(
            run.report.verdict("liveness_watch"),
            Some(&Verdict::Pass),
            "{label}"
        );
    }
}

#[test]
fn pager_clean_run_passes_on_all_runners() {
    let specs = specs_of(VOICE_PAGER);
    let ev = PagerTb {
        rounds: 1,
        frames: 2,
        seed: 7,
    }
    .events();
    let mono = design_of(VOICE_PAGER, "pager");
    let r = check_interp(&mono, &ev, &specs, 0).unwrap();
    assert!(r.report.all_pass(), "interp:\n{}", r.report);
    let r = check_async(vec![mono.clone()], &ev, &specs, 0).unwrap();
    assert!(r.report.all_pass(), "async mono:\n{}", r.report);
    let parts = parts_of(VOICE_PAGER, "pager");
    let r = check_async(parts, &ev, &specs, 0).unwrap();
    assert!(r.report.all_pass(), "async 3-task:\n{}", r.report);
}

/// The pager's seeded violation: recording starts but the sample
/// stream is cut after two samples, so no full frame is ever framed —
/// `record_watch` must fail when its 6-instant window closes.
#[test]
fn pager_truncated_recording_is_caught_on_all_runners() {
    let specs = specs_of(VOICE_PAGER);
    let mut ev = vec![InstantEvents::default()];
    ev.push(InstantEvents {
        pure: vec!["rec_on".into()],
        valued: vec![],
    });
    for v in [10, 20] {
        ev.push(InstantEvents {
            pure: vec![],
            valued: vec![("sample".into(), v)],
        });
    }
    for _ in 0..8 {
        ev.push(InstantEvents::default());
    }
    // rec_on at instant 1; window of 6 closes at instant 7.
    const EXPECTED_FAIL: u64 = 7;

    let mono = design_of(VOICE_PAGER, "pager");
    let parts = parts_of(VOICE_PAGER, "pager");
    let runs = [
        ("interp", check_interp(&mono, &ev, &specs, 0).unwrap()),
        (
            "async mono",
            check_async(vec![mono.clone()], &ev, &specs, 0).unwrap(),
        ),
        ("async 3-task", check_async(parts, &ev, &specs, 0).unwrap()),
    ];
    for (label, run) in &runs {
        let rw = run.report.verdict("record_watch").unwrap();
        assert_eq!(
            fail_instant(rw),
            Some(EXPECTED_FAIL),
            "{label}: record_watch = {rw}"
        );
        assert_eq!(
            run.report.verdict("playback_watch"),
            Some(&Verdict::Pass),
            "{label}"
        );
    }
}

/// The recorded trace replays to the same verdicts the online run
/// produced — for the violating workload, across monitors.
#[test]
fn stack_violation_verdicts_survive_trace_replay() {
    let specs = specs_of(PROTOCOL_STACK);
    let ev = PacketTb {
        packets: 2,
        corrupt_every: 2,
        reset_every: 0,
        seed: 1999,
    }
    .events();
    let mono = design_of(PROTOCOL_STACK, "toplevel");
    let run = check_interp(&mono, &ev, &specs, 0).unwrap();
    for spec in &specs {
        let mut offline = ecl_observe::Monitor::new(Arc::clone(spec));
        let off = offline.replay(&run.trace);
        assert_eq!(run.report.verdict(&spec.name), Some(&off), "{}", spec.name);
    }
}
