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
//! turns, for every input of the monitor machine, the global
//! [`efsm::SigId`]s that denote it into `(word, mask)` pairs. From then
//! on [`Monitor::step_ids`] projects a present-id set onto the inputs
//! with one masked word test per pair and steps the machine by one
//! load from the spec's dense table (cell `state << k | inputs`, built
//! at synthesis from the s-graph walker). An observer with more than
//! 6 inputs has no table and walks the s-graph, as does every monitor
//! under [`Backend::Walker`].
//! [`Monitor::replay`] steps a recorded trace through the same id
//! path, so offline verdicts are identical to online ones.

use crate::synth::{first_failed, MonitorSpec};
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

/// One word of one monitor input's binding: the input is present
/// when `present.word(word) & mask != 0`.
#[derive(Debug, Clone, Copy)]
struct Lane {
    word: usize,
    mask: u64,
    /// The input's position among the machine's inputs: its bit in a
    /// dense-table index.
    slot: u32,
    /// The input's signal in the monitor machine.
    sig: Signal,
}

/// A running instance of a [`MonitorSpec`].
#[derive(Debug)]
pub struct Monitor {
    spec: Arc<MonitorSpec>,
    state: StateId,
    verdict: Verdict,
    /// The global ids that denote each machine input, as word masks
    /// (computed by [`Monitor::bind`]; `None` until then). Fixed once
    /// bound, so clones (fleet checkpoints) share it.
    binding: Option<Arc<[Lane]>>,
    /// Step by the spec's dense table ([`Backend::Compiled`], the
    /// default) or force the s-graph walker (identical verdicts; the
    /// switch exists for measurement and differential testing).
    backend: Backend,
    /// The walker's present set and emissions. A dense step touches
    /// neither, so they stay unallocated on [`Backend::Compiled`].
    input_scratch: BitSet,
    emit_scratch: Vec<Signal>,
}

impl Clone for Monitor {
    fn clone(&self) -> Monitor {
        Monitor {
            spec: Arc::clone(&self.spec),
            state: self.state,
            verdict: self.verdict.clone(),
            binding: self.binding.clone(),
            backend: self.backend,
            input_scratch: self.input_scratch.clone(),
            emit_scratch: self.emit_scratch.clone(),
        }
    }

    /// Copies into this monitor's own scratch; the spec and the binding
    /// are re-pointed only when they differ.
    fn clone_from(&mut self, source: &Monitor) {
        if !Arc::ptr_eq(&self.spec, &source.spec) {
            self.spec = Arc::clone(&source.spec);
        }
        self.state = source.state;
        self.verdict.clone_from(&source.verdict);
        let same = match (&self.binding, &source.binding) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        };
        if !same {
            self.binding.clone_from(&source.binding);
        }
        self.backend = source.backend;
        self.input_scratch.clone_from(&source.input_scratch);
        self.emit_scratch.clone_from(&source.emit_scratch);
    }
}

impl Monitor {
    /// Fresh instance at the monitor machine's initial state.
    pub fn new(spec: Arc<MonitorSpec>) -> Monitor {
        let state = spec.efsm.init;
        Monitor {
            spec,
            state,
            verdict: Verdict::Running,
            binding: None,
            backend: Backend::default(),
            input_scratch: BitSet::new(),
            emit_scratch: Vec::new(),
        }
    }

    /// Choose the stepping backend: [`Backend::Compiled`] (the
    /// default) loads the spec's dense table, [`Backend::Walker`] walks
    /// the s-graph. Verdicts are identical either way.
    pub fn set_backend(&mut self, backend: Backend) {
        self.backend = backend;
    }

    /// The active stepping backend.
    pub fn backend(&self) -> Backend {
        self.backend
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
    /// for each input of the monitor machine, find the global ids whose
    /// (possibly mangled) name denotes it and keep them as one
    /// `(word, mask)` pair per occupied word. Stepping by ids after
    /// this is a masked word test per pair. Idempotent per table; call
    /// again to re-bind against a different run.
    pub fn bind(&mut self, table: &SigTable) {
        let mut lanes: Vec<Lane> = Vec::new();
        for (slot, (sig, info)) in self.spec.efsm.inputs().enumerate() {
            let slot = slot as u32;
            for (id, name) in table.iter() {
                if !name_matches(name, &info.name) {
                    continue;
                }
                let (word, bit) = (id.bit() / 64, 1u64 << (id.bit() % 64));
                match lanes.iter_mut().find(|l| l.slot == slot && l.word == word) {
                    Some(l) => l.mask |= bit,
                    None => lanes.push(Lane {
                        word,
                        mask: bit,
                        slot,
                        sig,
                    }),
                }
            }
        }
        self.binding = Some(lanes.into());
    }

    /// Step one environment instant with `present` as the set of
    /// present global ids (resolved against `table`, which the monitor
    /// lazily binds to on first use). After the first violation the
    /// monitor latches its verdict and ignores further instants.
    /// Returns the violation detected *this* instant, if any.
    /// Allocation-free in steady state (until a violation is latched).
    #[inline]
    pub fn step_ids(
        &mut self,
        instant: u64,
        present: &BitSet,
        table: &SigTable,
    ) -> Option<&Violation> {
        if matches!(self.verdict, Verdict::Fail(_)) {
            return None;
        }
        if self.binding.is_none() {
            self.bind(table);
        }
        ecl_telemetry::metrics::MON_STEPS.incr();
        let failed = match &self.spec.dense {
            Some(dense) if self.backend == Backend::Compiled => {
                let mut index = 0;
                for l in self.binding.as_deref().unwrap_or_default() {
                    index |= usize::from(present.word(l.word) & l.mask != 0) << l.slot;
                }
                let cell = dense.cell(self.state, index);
                self.state = cell.next;
                cell.failed()
            }
            _ => self.walk(present),
        };
        match failed {
            Some(prop) => self.latch(instant, prop, present, table),
            None => None,
        }
    }

    /// One machine instant on the s-graph walker, with the inputs
    /// `present` hits as the monitor-local present set; returns the
    /// position of the first failed property. Out of line: the dense
    /// step is the hot path.
    #[inline(never)]
    fn walk(&mut self, present: &BitSet) -> Option<usize> {
        ecl_telemetry::metrics::MON_WALKER_STEPS.incr();
        self.input_scratch.clear();
        for l in self.binding.as_deref().unwrap_or_default() {
            if present.word(l.word) & l.mask != 0 {
                self.input_scratch.insert(l.sig.0 as usize);
            }
        }
        self.emit_scratch.clear();
        self.state = self
            .spec
            .efsm
            .step_bits(
                self.state,
                &self.input_scratch,
                &mut NoHooks,
                &mut self.emit_scratch,
            )
            .next;
        first_failed(&self.spec.props, &self.emit_scratch)
    }

    /// Latch the violation of property `prop` (its position in the
    /// spec) at `instant`, with the sorted present names as witness:
    /// bump the counter, emit a `verdict` event and return the
    /// violation (slow path — runs at most once per monitor per run).
    #[cold]
    fn latch(
        &mut self,
        instant: u64,
        prop: usize,
        present: &BitSet,
        table: &SigTable,
    ) -> Option<&Violation> {
        let p = &self.spec.props[prop];
        let mut witness: Vec<String> = table.names_of(present).map(str::to_string).collect();
        witness.sort_unstable();
        ecl_telemetry::metrics::MON_VIOLATIONS.incr();
        if let Some(e) = ecl_telemetry::event("verdict") {
            e.str("monitor", &self.spec.name)
                .str("verdict", "fail")
                .u64("instant", instant)
                .u64("property", p.index as u64)
                .emit();
        }
        self.verdict = Verdict::Fail(Violation {
            instant,
            property: p.index,
            describe: p.describe.clone(),
            witness,
        });
        match &self.verdict {
            Verdict::Fail(v) => Some(v),
            _ => None,
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
    use crate::synth::{synthesize, synthesize_all, DENSE_INPUT_CAP};

    // The observers these tests step.
    const NEVER_BOTH: &str = "observer w(input pure a, input pure b) { never (a & b); never (b); }";
    const ALWAYS: &str = "observer w(input pure a) { always (a); }";
    const WITHIN_2: &str =
        "observer w(input pure t, input pure r) { whenever (t) expect (r) within 2; }";
    const SAME_INSTANT: &str =
        "observer w(input pure t, input pure r) { whenever (t) expect (r); }";
    const EVENTUALLY_3: &str = "observer w(input pure e) { eventually_within 3 (e); }";
    const WITHIN_1: &str =
        "observer w(input pure t, input pure r) { whenever (t) expect (r) within 1; }";
    const NEVER_P: &str = "observer p(input pure a) { never (a); }";
    const ALWAYS_F: &str = "observer f(input pure a) { always (a); }";
    /// The differential suite's `pin` observer (`tests/differential.rs`).
    const PIN: &str = "
        observer pin(input pure a, input pure b, input pure x, input pure y) {
          always (~x | a | b);
          always (x | ~x);
        }";

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
        let mut m = monitor(NEVER_BOTH, "w");
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
        let mut m = monitor(ALWAYS, "w");
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
        let src = WITHIN_2;
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
        let mut m = monitor(SAME_INSTANT, "w");
        step(&mut m, 0, &["t", "r"]);
        assert_eq!(m.finish(), Verdict::Pass);
    }

    #[test]
    fn eventually_within_passes_and_fails() {
        let src = EVENTUALLY_3;
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
        let src = WITHIN_1;
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
        let pass = monitor(NEVER_P, "p");
        let mut fail = monitor(ALWAYS_F, "f");
        step(&mut fail, 0, &[]);
        let report = MonitorReport::conclude(vec![pass, fail]);
        assert!(!report.all_pass());
        let (name, v) = report.first_fail().unwrap();
        assert_eq!(name, "f");
        assert_eq!(v.instant, 0);
        assert_eq!(report.verdict("p"), Some(&Verdict::Pass));
    }

    /// Every cell of every observer the repository ships or tests is
    /// one walker step: from each state, on each combination of the
    /// inputs, a dense step reaches the walker's next state and fails
    /// the walker's first failed property.
    #[test]
    fn dense_cells_match_one_walker_step() {
        let sources = [
            sim::designs::PROTOCOL_STACK,
            sim::designs::VOICE_PAGER,
            crate::check::tests::SRC,
            NEVER_BOTH,
            ALWAYS,
            WITHIN_2,
            SAME_INSTANT,
            EVENTUALLY_3,
            WITHIN_1,
            NEVER_P,
            ALWAYS_F,
            PIN,
        ];
        let (mut observers, mut cells, mut failing) = (0, 0, 0);
        for src in sources {
            let prog = ecl_syntax::parse_str(src).expect("source parses");
            for spec in synthesize_all(&prog).expect("observers synthesize") {
                assert!(spec.dense.is_some(), "`{}` has no dense table", spec.name);
                let mut table = SigTable::new();
                let ids: Vec<usize> = spec
                    .efsm
                    .inputs()
                    .map(|(_, info)| table.intern(&info.name).bit())
                    .collect();
                for state in 0..spec.efsm.states.len() as u32 {
                    for index in 0..1usize << ids.len() {
                        let present: BitSet = (0..ids.len())
                            .filter(|j| index >> j & 1 == 1)
                            .map(|j| ids[j])
                            .collect();
                        let step = |backend| {
                            let mut m = Monitor::new(Arc::clone(&spec));
                            m.set_backend(backend);
                            m.state = StateId(state);
                            let fail = m.step_ids(0, &present, &table).map(|v| v.property);
                            (m.state, fail)
                        };
                        let dense = step(Backend::Compiled);
                        assert_eq!(
                            dense,
                            step(Backend::Walker),
                            "`{}` state {state} inputs {index:#b}",
                            spec.name
                        );
                        cells += 1;
                        failing += usize::from(dense.1.is_some());
                    }
                }
                observers += 1;
            }
        }
        assert_eq!(observers, 16, "3 stack, 2 pager, 2 check, 8 unit, 1 pin");
        assert!(
            failing > 0 && failing < cells,
            "{failing} of {cells} cells fail"
        );
    }

    /// An observer with more inputs than [`DENSE_INPUT_CAP`] gets no
    /// dense table: it steps on the walker under both backends, to the
    /// same verdicts.
    #[test]
    fn wide_observer_walks_under_both_backends() {
        let src = "observer w(input pure a, input pure b, input pure c, input pure d,
                              input pure e, input pure f, input pure g) {
                     whenever (a & ~g) expect (b | c) within 2;
                     never (d & e & f);
                   }";
        let spec = synthesize(ecl_syntax::parse_str(src).unwrap().observer("w").unwrap()).unwrap();
        assert_eq!(spec.efsm.inputs().count(), DENSE_INPUT_CAP + 1);
        assert!(
            spec.dense.is_none(),
            "a 7-input observer has no dense table"
        );
        let spec = Arc::new(spec);
        let mut table = SigTable::new();
        let ids: Vec<usize> = ["a", "b", "c", "d", "e", "f", "g"]
            .map(|n| table.intern(n).bit())
            .into();
        let mut compiled = Monitor::new(Arc::clone(&spec));
        let mut walker = Monitor::new(spec);
        walker.set_backend(Backend::Walker);
        // A fixed pseudo-random stream of input combinations.
        let mut x = 0x2545_f491u32;
        for i in 0..64u64 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let present: BitSet = (0..7).filter(|j| x >> j & 1 == 1).map(|j| ids[j]).collect();
            let c = compiled.step_ids(i, &present, &table).cloned();
            let w = walker.step_ids(i, &present, &table).cloned();
            assert_eq!(c, w, "instant {i}");
            assert_eq!(compiled.state, walker.state, "instant {i}");
        }
        assert!(
            matches!(compiled.verdict(), Verdict::Fail(_)),
            "the stream violates a property"
        );
        assert_eq!(compiled.finish(), walker.finish());
    }
}
