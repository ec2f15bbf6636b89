//! Monitor execution: step a synthesized machine lockstep with a
//! design run (or a recorded trace) and report verdicts.
//!
//! A monitor watches *names*, not handles: its watched interface is
//! resolved against the run's global signal namespace tolerating
//! elaboration mangling — watched name `packet` matches both the
//! partitioned run's wire `packet` and the monolithic run's local
//! `top::packet` — so one observer checks every implementation of the
//! same design.
//!
//! Resolution happens **once**, not per instant: [`Monitor::bind`]
//! precomputes, for every input of the monitor machine, the
//! [`BitSet`] of global [`efsm::SigId`]s that denote it. From then on
//! [`Monitor::step_ids`] turns a present-id set into machine inputs
//! with a handful of word intersections and steps the machine through
//! its *compiled transition tables* (monitors are pure control, so
//! states table fully up to the row cap — normally one masked row
//! scan per instant; a state wide enough to blow
//! [`efsm::table::ROW_CAP`] keeps the identical-semantics s-graph
//! walk). [`Monitor::replay`] steps a recorded trace through the same
//! id path, so offline verdicts are identical to online ones.

use crate::synth::MonitorSpec;
use efsm::{Backend, BitSet, NoHooks, SigTable, Signal, StateId};
use sim::runner::Present;
use sim::trace::Trace;
use std::fmt;
use std::sync::Arc;

/// A property violation: the paper-style `Fail{instant, witness}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Environment instant at which the violation was detected.
    pub instant: u64,
    /// Index of the violated property (source order).
    pub property: usize,
    /// The violated property as source text.
    pub describe: String,
    /// The present signal names at the failing instant.
    pub witness: Vec<String>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FAIL at instant {}: {} (witness: {:?})",
            self.instant, self.describe, self.witness
        )
    }
}

/// The state of a monitor relative to a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Still checking (no violation so far).
    Running,
    /// The run ended with no violation.
    Pass,
    /// A property was violated (first violation is latched).
    Fail(Violation),
    /// The run was cut short (watchdog trip, livelock budget) before
    /// the monitor could conclude: not a pass, not a violation.
    Inconclusive {
        /// Instant at which the run was cut short.
        instant: u64,
        /// Why the run could not conclude (e.g. the watchdog message).
        reason: String,
    },
}

impl Verdict {
    /// Is this a (final or provisional) pass? An inconclusive run is
    /// *not* a pass: the property was never checked to completion.
    pub fn is_pass(&self) -> bool {
        matches!(self, Verdict::Running | Verdict::Pass)
    }

    /// Was the run cut short before this monitor could conclude?
    pub fn is_inconclusive(&self) -> bool {
        matches!(self, Verdict::Inconclusive { .. })
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Running => write!(f, "RUNNING"),
            Verdict::Pass => write!(f, "PASS"),
            Verdict::Fail(v) => write!(f, "{v}"),
            Verdict::Inconclusive { instant, reason } => {
                write!(f, "INCONCLUSIVE at instant {instant}: {reason}")
            }
        }
    }
}

/// Does the full (possibly mangled) signal name `full` denote the
/// watched interface name `watched`? Exact match, or a `::`-mangled
/// suffix (`top/sub::name` ⊇ `name`).
pub fn name_matches(full: &str, watched: &str) -> bool {
    if full == watched {
        return true;
    }
    full.len() > watched.len() + 2
        && full.ends_with(watched)
        && full[..full.len() - watched.len()].ends_with("::")
}

/// A running instance of a [`MonitorSpec`].
#[derive(Debug, Clone)]
pub struct Monitor {
    spec: Arc<MonitorSpec>,
    state: StateId,
    verdict: Verdict,
    /// Per machine input: the mask of global ids that denote it
    /// (computed by [`Monitor::bind`]; empty until then).
    binding: Vec<(Signal, BitSet)>,
    bound: bool,
    /// Step through the spec's fused transition rows
    /// ([`Backend::Compiled`], the default) or force the s-graph
    /// walker (identical verdicts; the switch exists for measurement
    /// and differential testing).
    backend: Backend,
    input_scratch: BitSet,
    emit_scratch: Vec<Signal>,
}

impl Monitor {
    /// Fresh instance at the monitor machine's initial state.
    pub fn new(spec: Arc<MonitorSpec>) -> Monitor {
        let state = spec.efsm.init;
        Monitor {
            spec,
            state,
            verdict: Verdict::Running,
            binding: Vec::new(),
            bound: false,
            backend: Backend::default(),
            input_scratch: BitSet::new(),
            emit_scratch: Vec::new(),
        }
    }

    /// Choose the stepping backend: [`Backend::Compiled`] (the
    /// default) scans the spec's fused transition rows,
    /// [`Backend::Walker`] walks the s-graph. Verdicts are identical
    /// either way.
    pub fn set_backend(&mut self, backend: Backend) {
        self.backend = backend;
    }

    /// The active stepping backend.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// One machine instant over the chosen backend, with
    /// `input_scratch` as the monitor-local present set. Kept out of
    /// line: inlined into its one caller, [`Monitor::step_ids`], it
    /// made `stack_solo` and `pager_fleet` jobs 3–7% slower
    /// (EXPERIMENTS.md item 15).
    #[inline(never)]
    fn machine_step(&mut self) {
        ecl_telemetry::metrics::MON_STEPS.incr();
        self.emit_scratch.clear();
        let r = if self.backend == Backend::Compiled {
            self.spec.table.step_table(
                &self.spec.efsm,
                self.state,
                &self.input_scratch,
                &mut NoHooks,
                &mut self.emit_scratch,
            )
        } else {
            self.spec.efsm.step_bits(
                self.state,
                &self.input_scratch,
                &mut NoHooks,
                &mut self.emit_scratch,
            )
        };
        self.state = r.next;
    }

    /// The underlying spec.
    pub fn spec(&self) -> &MonitorSpec {
        &self.spec
    }

    /// The verdict so far.
    pub fn verdict(&self) -> &Verdict {
        &self.verdict
    }

    /// Pre-bind the watched interface against a run's signal table:
    /// for each input of the monitor machine, compute the mask of
    /// global ids whose (possibly mangled) name denotes it. Stepping
    /// by ids after this is pure bitset work. Idempotent per table;
    /// call again to re-bind against a different run.
    pub fn bind(&mut self, table: &SigTable) {
        self.binding.clear();
        for (s, info) in self.spec.efsm.inputs() {
            let mask: BitSet = table
                .iter()
                .filter(|(_, name)| name_matches(name, &info.name))
                .map(|(id, _)| id.bit())
                .collect();
            self.binding.push((s, mask));
        }
        self.bound = true;
    }

    /// Step one environment instant with `present` as the set of
    /// present global ids (resolved against `table`, which the monitor
    /// lazily binds to on first use). After the first violation the
    /// monitor latches its verdict and ignores further instants.
    /// Returns the violation detected *this* instant, if any.
    /// Allocation-free in steady state (until a violation is latched).
    pub fn step_ids(
        &mut self,
        instant: u64,
        present: &BitSet,
        table: &SigTable,
    ) -> Option<&Violation> {
        if matches!(self.verdict, Verdict::Fail(_)) {
            return None;
        }
        if !self.bound {
            self.bind(table);
        }
        self.input_scratch.clear();
        for (s, mask) in &self.binding {
            if mask.intersects(present) {
                self.input_scratch.insert(s.0 as usize);
            }
        }
        self.machine_step();
        if let Some(p) = first_failed(&self.spec, &self.emit_scratch) {
            let (index, describe) = (p.index, p.describe.clone());
            let mut witness: Vec<String> = table.names_of(present).map(str::to_string).collect();
            witness.sort_unstable();
            self.note_violation(instant, index);
            self.verdict = Verdict::Fail(Violation {
                instant,
                property: index,
                describe,
                witness,
            });
            if let Verdict::Fail(v) = &self.verdict {
                return Some(v);
            }
        }
        None
    }

    /// Telemetry on a freshly latched violation: bump the counter and
    /// emit a `verdict` event (slow path — runs at most once per
    /// monitor per run).
    #[cold]
    fn note_violation(&self, instant: u64, property: usize) {
        ecl_telemetry::metrics::MON_VIOLATIONS.incr();
        if let Some(e) = ecl_telemetry::event("verdict") {
            e.str("monitor", &self.spec.name)
                .str("verdict", "fail")
                .u64("instant", instant)
                .u64("property", property as u64)
                .emit();
        }
    }

    /// [`Monitor::step_ids`] on a runner's [`Present`] set — the
    /// `run_events` callback shape.
    pub fn step_present(&mut self, instant: u64, present: Present<'_>) -> Option<&Violation> {
        self.step_ids(instant, present.ids(), present.table())
    }

    /// Replay a recorded [`Trace`] from its first retained instant.
    /// Binds to the trace's own signal table first: [`Monitor::step_ids`]
    /// binds only once, so a monitor bound to another run's table would
    /// misread the recorded ids. Returns the final verdict.
    pub fn replay(&mut self, trace: &Trace) -> Verdict {
        self.bind(trace.table());
        let mut present = BitSet::new();
        for rec in trace.records() {
            present.clear();
            rec.present_into(&mut present);
            self.step_ids(rec.instant, &present, trace.table());
        }
        self.finish()
    }

    /// Conclude the run: a monitor still `Running` passes.
    pub fn finish(&mut self) -> Verdict {
        if self.verdict == Verdict::Running {
            self.verdict = Verdict::Pass;
        }
        self.verdict.clone()
    }
}

/// The first property whose `fail_i` output is in `emitted`.
fn first_failed<'s>(spec: &'s MonitorSpec, emitted: &[Signal]) -> Option<&'s crate::PropInfo> {
    spec.props.iter().find(|p| emitted.contains(&p.fail))
}

/// The verdicts of a set of monitors over one run.
#[derive(Debug, Clone)]
pub struct MonitorReport {
    /// `(observer name, final verdict)` in attachment order.
    pub verdicts: Vec<(String, Verdict)>,
}

impl MonitorReport {
    /// Conclude a set of monitors into a report, emitting one final
    /// `verdict` telemetry event per monitor.
    pub fn conclude(monitors: Vec<Monitor>) -> MonitorReport {
        MonitorReport {
            verdicts: monitors
                .into_iter()
                .map(|mut m| {
                    let v = m.finish();
                    if let Some(e) = ecl_telemetry::event("verdict") {
                        let e = e.str("monitor", &m.spec.name).bool("final", true);
                        match &v {
                            Verdict::Fail(viol) => e
                                .str("verdict", "fail")
                                .u64("instant", viol.instant)
                                .u64("property", viol.property as u64)
                                .emit(),
                            _ => e.str("verdict", "pass").emit(),
                        }
                    }
                    (m.spec.name.clone(), v)
                })
                .collect(),
        }
    }

    /// Conclude a run that was cut short at `instant` (watchdog trip,
    /// livelock budget): monitors still `Running` become
    /// [`Verdict::Inconclusive`] — never `Pass` — while already-latched
    /// violations are kept. One final `verdict` telemetry event per
    /// monitor, as in [`MonitorReport::conclude`].
    pub fn conclude_inconclusive(
        monitors: Vec<Monitor>,
        instant: u64,
        reason: &str,
    ) -> MonitorReport {
        MonitorReport {
            verdicts: monitors
                .into_iter()
                .map(|mut m| {
                    let v = match m.finish() {
                        Verdict::Fail(viol) => Verdict::Fail(viol),
                        _ => Verdict::Inconclusive {
                            instant,
                            reason: reason.to_string(),
                        },
                    };
                    if let Some(e) = ecl_telemetry::event("verdict") {
                        let e = e.str("monitor", &m.spec.name).bool("final", true);
                        match &v {
                            Verdict::Fail(viol) => e
                                .str("verdict", "fail")
                                .u64("instant", viol.instant)
                                .u64("property", viol.property as u64)
                                .emit(),
                            _ => e
                                .str("verdict", "inconclusive")
                                .u64("instant", instant)
                                .emit(),
                        }
                    }
                    (m.spec.name.clone(), v)
                })
                .collect(),
        }
    }

    /// Did every monitor pass?
    pub fn all_pass(&self) -> bool {
        self.verdicts.iter().all(|(_, v)| *v == Verdict::Pass)
    }

    /// Was any monitor's run cut short before it could conclude?
    pub fn any_inconclusive(&self) -> bool {
        self.verdicts.iter().any(|(_, v)| v.is_inconclusive())
    }

    /// The first violation, if any.
    pub fn first_fail(&self) -> Option<(&str, &Violation)> {
        self.verdicts.iter().find_map(|(n, v)| match v {
            Verdict::Fail(viol) => Some((n.as_str(), viol)),
            _ => None,
        })
    }

    /// Verdict for a named monitor.
    pub fn verdict(&self, name: &str) -> Option<&Verdict> {
        self.verdicts
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    }
}

impl fmt::Display for MonitorReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, v) in &self.verdicts {
            writeln!(f, "  {name}: {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::synthesize;

    fn monitor(src: &str, name: &str) -> Monitor {
        let prog = ecl_syntax::parse_str(src).unwrap();
        Monitor::new(Arc::new(synthesize(prog.observer(name).unwrap()).unwrap()))
    }

    /// The tests' one name-to-id helper: step `m` with the named
    /// signals present. Every call resolves against the same table, in
    /// which `b` precedes `a`, so id order differs from name order and
    /// the witness sort is observable.
    fn step<'m>(m: &'m mut Monitor, instant: u64, present: &[&str]) -> Option<&'m Violation> {
        let mut table = SigTable::new();
        for name in ["t", "r", "e", "b", "a"] {
            table.intern(name);
        }
        let ids: BitSet = present
            .iter()
            .map(|name| table.lookup(name).expect("known name").bit())
            .collect();
        m.step_ids(instant, &ids, &table)
    }

    #[test]
    fn name_matching_tolerates_mangling() {
        assert!(name_matches("packet", "packet"));
        assert!(name_matches("top::packet", "packet"));
        assert!(name_matches("top/sub::out_sample", "out_sample"));
        assert!(!name_matches("top::packets", "packet"));
        assert!(!name_matches("mypacket", "packet"));
        assert!(!name_matches("my_packet", "packet"));
        assert!(!name_matches("packet", "top::packet"));
    }

    #[test]
    fn never_fails_at_the_offending_instant() {
        // Both properties fail at instant 2; the first one is reported.
        let mut m = monitor(
            "observer w(input pure a, input pure b) { never (a & b); never (b); }",
            "w",
        );
        step(&mut m, 0, &[]);
        step(&mut m, 1, &["a"]);
        assert!(m.verdict().is_pass());
        let v = step(&mut m, 2, &["a", "b"]).cloned().unwrap();
        assert_eq!(v.instant, 2);
        assert_eq!(v.property, 0);
        assert_eq!(v.witness, ["a", "b"]);
        // Latched: later instants do not change the verdict.
        step(&mut m, 3, &[]);
        assert!(matches!(m.verdict(), Verdict::Fail(f) if f.instant == 2));
    }

    #[test]
    fn always_fails_when_the_invariant_lapses() {
        let mut m = monitor("observer w(input pure a) { always (a); }", "w");
        step(&mut m, 0, &["a"]);
        assert!(m.verdict().is_pass());
        let v = step(&mut m, 1, &[]).cloned().unwrap();
        assert_eq!(v.instant, 1);
        // Latched: a second lapse neither reports nor moves the verdict.
        assert!(step(&mut m, 2, &[]).is_none());
        assert!(matches!(m.verdict(), Verdict::Fail(f) if f.instant == 1));
    }

    #[test]
    fn response_window_passes_and_fails_at_the_bound() {
        let src = "observer w(input pure t, input pure r) { whenever (t) expect (r) within 2; }";
        // Response inside the window: pass.
        let mut m = monitor(src, "w");
        step(&mut m, 0, &["t"]);
        step(&mut m, 1, &[]);
        step(&mut m, 2, &["r"]);
        assert_eq!(m.finish(), Verdict::Pass);
        // No response: fail exactly when the window closes (t at 3 → fail at 5).
        let mut m = monitor(src, "w");
        step(&mut m, 0, &[]);
        step(&mut m, 1, &[]);
        step(&mut m, 2, &[]);
        step(&mut m, 3, &["t"]);
        assert!(step(&mut m, 4, &[]).is_none());
        let v = step(&mut m, 5, &[]).cloned().unwrap();
        assert_eq!(v.instant, 5);
    }

    #[test]
    fn same_instant_response_satisfies_window_zero() {
        let mut m = monitor(
            "observer w(input pure t, input pure r) { whenever (t) expect (r); }",
            "w",
        );
        step(&mut m, 0, &["t", "r"]);
        assert_eq!(m.finish(), Verdict::Pass);
    }

    #[test]
    fn eventually_within_passes_and_fails() {
        let src = "observer w(input pure e) { eventually_within 3 (e); }";
        let mut m = monitor(src, "w");
        step(&mut m, 0, &[]);
        step(&mut m, 1, &["e"]);
        assert_eq!(m.finish(), Verdict::Pass);
        let mut m = monitor(src, "w");
        for i in 0..3 {
            assert!(step(&mut m, i, &[]).is_none(), "instant {i}");
        }
        let v = step(&mut m, 3, &[]).cloned().unwrap();
        assert_eq!(v.instant, 3);
        // After the deadline the monitor halts; a late `e` cannot help.
        step(&mut m, 4, &["e"]);
        assert!(matches!(m.verdict(), Verdict::Fail(_)));
    }

    #[test]
    fn replay_over_trace_matches_online_stepping() {
        let src = "observer w(input pure t, input pure r) { whenever (t) expect (r) within 1; }";
        let mut online = monitor(src, "w");
        let mut trace = Trace::new(0);
        // The trigger sits in the first recorded instant.
        let steps: Vec<Vec<&str>> = vec![vec!["t"], vec![], vec![], vec![]];
        for (i, ev) in steps.iter().enumerate() {
            trace.begin_instant(i as u64);
            for n in ev {
                trace.record(n, None, true);
            }
            trace.end_instant();
            step(&mut online, i as u64, ev);
        }
        let mut offline = monitor(src, "w");
        let off = offline.replay(&trace);
        assert_eq!(online.finish(), off);
        assert!(matches!(off, Verdict::Fail(v) if v.instant == 1));
    }

    #[test]
    fn report_summarizes_verdicts() {
        let pass = monitor("observer p(input pure a) { never (a); }", "p");
        let mut fail = monitor("observer f(input pure a) { always (a); }", "f");
        step(&mut fail, 0, &[]);
        let report = MonitorReport::conclude(vec![pass, fail]);
        assert!(!report.all_pass());
        let (name, v) = report.first_fail().unwrap();
        assert_eq!(name, "f");
        assert_eq!(v.instant, 0);
        assert_eq!(report.verdict("p"), Some(&Verdict::Pass));
    }
}
