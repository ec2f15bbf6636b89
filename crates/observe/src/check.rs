//! Online checking: drive a testbench through a simulator runner with
//! monitors attached, recording a signal trace on the side.
//!
//! Both entry points use the runners' `run_events` testbench hook: the
//! per-instant present set (stimuli plus emissions, as interned ids)
//! feeds every monitor lockstep with the design, and the runner's
//! built-in recorder captures the same instants into a [`Trace`] — so
//! an online verdict can always be re-derived offline with
//! [`crate::Monitor::replay`]. Monitors are bound to the runner's
//! signal table once, before the run: per instant they do pure bitset
//! work, no name matching.

use crate::monitor::{Monitor, MonitorReport};
use crate::synth::MonitorSpec;
use codegen::cost::CostParams;
use ecl_core::Design;
use ecl_syntax::diag::EclError;
use rtk::KernelParams;
use sim::runner::{
    AsyncRunner, FaultPlan, InjectionStats, InterpRunner, Runner, SimError, WatchdogBudget,
};
use sim::tb::InstantEvents;
use sim::trace::Trace;
use std::sync::Arc;

/// The outcome of a monitored run: final verdicts plus the recorded
/// trace window.
#[derive(Debug, Clone)]
pub struct MonitoredRun {
    /// Final verdict per monitor.
    pub report: MonitorReport,
    /// The recorded trace (ring of the last `trace_capacity` instants).
    pub trace: Trace,
    /// Faults the run's armed plan injected (zero when unarmed).
    pub injected: InjectionStats,
}

fn instances(specs: &[Arc<MonitorSpec>], table: &efsm::SigTable) -> Vec<Monitor> {
    specs
        .iter()
        .map(|s| {
            let mut m = Monitor::new(Arc::clone(s));
            m.bind(table);
            m
        })
        .collect()
}

/// Conclude a monitored run whose simulation loop returned `result`:
/// a clean run concludes normally; a run cut short by an
/// *inconclusive* error kind (watchdog trip, livelock budget) yields
/// `Inconclusive` verdicts rather than an `Err` — the run is a valid,
/// reportable outcome, just not a conclusive one. Hard errors
/// propagate.
fn conclude_run<R: Runner>(
    mut runner: R,
    monitors: Vec<Monitor>,
    result: Result<(), SimError>,
    injected: InjectionStats,
) -> Result<MonitoredRun, EclError> {
    let report = match result {
        Ok(()) => MonitorReport::conclude(monitors),
        Err(e) if e.kind.is_inconclusive() => {
            MonitorReport::conclude_inconclusive(monitors, runner.now(), &e.msg)
        }
        Err(e) => return Err(e.into()),
    };
    Ok(MonitoredRun {
        report,
        trace: runner.take_trace().unwrap_or_default(),
        injected,
    })
}

/// Run `events` through the constructive interpreter with `specs`
/// attached as online monitors.
///
/// # Errors
///
/// Propagates simulation failures as [`EclError`] (stage `sim`).
pub fn check_interp(
    design: &Design,
    events: &[InstantEvents],
    specs: &[Arc<MonitorSpec>],
    trace_capacity: usize,
) -> Result<MonitoredRun, EclError> {
    check_interp_with(design, events, specs, trace_capacity, None, None)
}

/// [`check_interp`] with per-instant watchdog budgets and an optional
/// fault plan the runner is armed with. A watchdog trip (or livelock
/// budget) does not abort the check: monitors that were still running
/// conclude [`crate::Verdict::Inconclusive`] and the partial trace is
/// returned.
///
/// # Errors
///
/// Propagates non-recoverable simulation failures as [`EclError`].
pub fn check_interp_with(
    design: &Design,
    events: &[InstantEvents],
    specs: &[Arc<MonitorSpec>],
    trace_capacity: usize,
    watchdog: Option<WatchdogBudget>,
    faults: Option<FaultPlan>,
) -> Result<MonitoredRun, EclError> {
    let mut runner = InterpRunner::new(design)?;
    runner.set_watchdog(watchdog);
    runner.set_faults(faults);
    runner.enable_trace(trace_capacity);
    let mut monitors = instances(specs, runner.sig_table());
    let r = runner.run_events(events, |instant, present| {
        for m in &mut monitors {
            m.step_present(instant, present);
        }
    });
    let injected = runner.injection_stats();
    conclude_run(runner, monitors, r, injected)
}

/// Run `events` through the RTOS-backed runner (one design =
/// synchronous single task, several = asynchronous tasks) with `specs`
/// attached as online monitors.
///
/// # Errors
///
/// Propagates compilation and simulation failures as [`EclError`].
pub fn check_async(
    designs: Vec<Design>,
    events: &[InstantEvents],
    specs: &[Arc<MonitorSpec>],
    trace_capacity: usize,
) -> Result<MonitoredRun, EclError> {
    check_async_with(designs, events, specs, trace_capacity, None, None)
}

/// [`check_async`] with per-instant watchdog budgets and an optional
/// fault plan the runner and its kernel are armed with; trips conclude
/// as [`crate::Verdict::Inconclusive`], like [`check_interp_with`].
/// Mailbox-overwrite losses surface in the telemetry stream via the
/// runner's `run_events` loss bracket (on the error path too).
///
/// # Errors
///
/// Propagates non-recoverable compilation and simulation failures.
pub fn check_async_with(
    designs: Vec<Design>,
    events: &[InstantEvents],
    specs: &[Arc<MonitorSpec>],
    trace_capacity: usize,
    watchdog: Option<WatchdogBudget>,
    faults: Option<FaultPlan>,
) -> Result<MonitoredRun, EclError> {
    let mut runner = AsyncRunner::new(
        designs,
        &Default::default(),
        CostParams::default(),
        KernelParams::default(),
    )?;
    runner.set_watchdog(watchdog);
    runner.set_faults(faults);
    runner.enable_trace(trace_capacity);
    let mut monitors = instances(specs, runner.sig_table());
    let r = runner.run_events(events, |instant, present| {
        for m in &mut monitors {
            m.step_present(instant, present);
        }
    });
    let injected = runner.injection_stats();
    conclude_run(runner, monitors, r, injected)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::synth::synthesize_all;
    use ecl_core::pipeline::{Design, Parsed, Source};

    /// Relay with a monitor: `o` must answer `i` within 2 instants.
    pub(crate) const SRC: &str = "
        module a(input pure i, output pure m) { while (1) { await (i); emit (m); } }
        module b(input pure m, output pure o) { while (1) { await (m); emit (o); } }
        module top(input pure i, output pure o) {
          signal pure mid;
          par { a(i, mid); b(mid, o); }
        }
        observer relay_latency(input pure i, input pure o) {
          whenever (i) expect (o) within 2;
        }
        observer no_spurious(input pure o, input pure mid) {
          never (o & ~mid);
        }";

    fn parsed() -> Parsed {
        Source::new(SRC).parse().unwrap()
    }

    fn mono(parsed: &Parsed) -> Design {
        parsed
            .elaborate("top")
            .unwrap()
            .split()
            .unwrap()
            .to_design()
    }

    fn events(pattern: &[bool]) -> Vec<InstantEvents> {
        pattern
            .iter()
            .map(|on| InstantEvents {
                pure: if *on { vec!["i".into()] } else { vec![] },
                valued: vec![],
            })
            .collect()
    }

    #[test]
    fn interp_and_async_agree_on_clean_run() {
        let parsed = parsed();
        let specs = synthesize_all(parsed.ast()).unwrap();
        assert_eq!(specs.len(), 2);
        let d = mono(&parsed);
        // i every other instant: o answers 2 instants later (mid is a
        // delayed hop), inside the window.
        let ev = events(&[false, true, false, true, false, true, false, false, false]);
        let r1 = check_interp(&d, &ev, &specs, 0).unwrap();
        assert!(r1.report.all_pass(), "{}", r1.report);
        let r2 = check_async(vec![d.clone()], &ev, &specs, 0).unwrap();
        assert!(r2.report.all_pass(), "{}", r2.report);
        // The partitioned implementation satisfies the same observers.
        let parts = parsed.partition("top").unwrap();
        let r3 = check_async(parts, &ev, &specs, 0).unwrap();
        assert!(r3.report.all_pass(), "{}", r3.report);
        // Traces were recorded on all runs.
        assert_eq!(r1.trace.len(), ev.len());
        assert_eq!(r2.trace.len(), ev.len());
    }

    #[test]
    fn online_verdict_matches_offline_replay() {
        let parsed = parsed();
        let specs = synthesize_all(parsed.ast()).unwrap();
        let d = mono(&parsed);
        // A final lone i never gets its o: the run must fail.
        let ev = events(&[false, true, false, false, false, false, true]);
        let run = check_interp(&d, &ev, &specs, 0).unwrap();
        for spec in &specs {
            let mut offline = Monitor::new(Arc::clone(spec));
            let off = offline.replay(&run.trace);
            let on = run.report.verdict(&spec.name).unwrap();
            assert_eq!(*on, off, "monitor {}", spec.name);
        }
    }
}
