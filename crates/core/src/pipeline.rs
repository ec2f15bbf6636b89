//! The staged compilation pipeline — typed artifacts for every phase.
//!
//! The paper's flow is staged: parse → elaborate → reactive/data split
//! → EFSM → C/Verilog. This module exposes each stage as its own typed
//! artifact so tools (cost estimation, co-simulation, monitor
//! synthesis, HW/SW exploration) can stop at, inspect, or re-enter any
//! point without redoing earlier work:
//!
//! ```text
//! Source ──parse()──▶ Parsed ──elaborate(entry)──▶ Elaborated
//!    ──split()/split_with(strategy)──▶ Split ──ir()──▶ EsterelIr
//!    ──compile(opts)──▶ Machine ──(codegen::Artifacts)──▶ C/Verilog
//!
//! Split ──to_design()──▶ Design   (what the simulator runs)
//! Parsed ──partition(top)──▶ Vec<Design>   (one per submodule)
//! ```
//!
//! Every stage:
//!
//! * is cheaply cloneable (`Arc`-backed) and `Send + Sync`, so one
//!   stage can feed many downstream compilations on any thread;
//! * carries the [`Diagnostics`] accumulated so far (parse warnings
//!   survive to the EFSM stage);
//! * can be re-entered: one [`Parsed`] can be elaborated for several
//!   entry modules, one [`Elaborated`] split under both
//!   [`SplitStrategy`]s, without re-parsing.
//!
//! [`Source::finish`] runs every stage with default parameters.
//!
//! # Example
//!
//! ```
//! use ecl_core::pipeline::Source;
//! use ecl_core::SplitStrategy;
//!
//! let src = "module m(input pure a, output pure o) {
//!              int x;
//!              while (1) { await (a); x = x + 1; emit (o); } }";
//! let parsed = Source::new(src).parse().unwrap();
//! // Re-split the same parse under both strategies.
//! let max = parsed.elaborate("m").unwrap()
//!     .split_with(SplitStrategy::MaxEsterel).unwrap();
//! let min = parsed.elaborate("m").unwrap()
//!     .split_with(SplitStrategy::MinEsterel).unwrap();
//! assert!(min.report().actions <= max.report().actions);
//! // And carry one of them to an EFSM.
//! let machine = max.ir().compile(&Default::default()).unwrap();
//! assert!(machine.efsm().states.len() >= 2);
//! ```

use crate::elab::{self, Elab, Instantiation};
use crate::rt::Rt;
use crate::split::{self, SplitResult, SplitStrategy};
use ecl_syntax::ast::Program as Ast;
use ecl_syntax::diag::{Diagnostics, EclError, Stage};
use ecl_syntax::source::Span;
use efsm::Efsm;
use esterel::compile::CompileOptions;
use std::sync::Arc;

/// Stage 0: raw ECL source text.
#[derive(Debug, Clone)]
pub struct Source {
    name: String,
    text: Arc<str>,
}

impl Source {
    /// Wrap source text (diagnostics will cite `<input>`).
    pub fn new(text: impl Into<String>) -> Self {
        Source::named("<input>", text)
    }

    /// Wrap source text with a file name for diagnostics.
    pub fn named(name: impl Into<String>, text: impl Into<String>) -> Self {
        Source {
            name: name.into(),
            text: Arc::from(text.into()),
        }
    }

    /// The diagnostic file name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The raw text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Advance: preprocess, lex and parse.
    ///
    /// # Errors
    ///
    /// [`EclError`] with stage `parse` carrying every diagnostic the
    /// front end produced.
    pub fn parse(&self) -> Result<Parsed, EclError> {
        let (ast, sink) = ecl_syntax::parse_collect(&self.text, &self.name);
        let mut diags = Diagnostics::new();
        let failed = sink.has_errors();
        diags.absorb_sink(Stage::Parse, sink);
        if failed {
            return Err(EclError::new(Stage::Parse, diags));
        }
        Ok(Parsed {
            source: self.clone(),
            ast: Arc::new(ast),
            diags,
        })
    }

    /// Run the whole pipeline for `entry` with default parameters.
    ///
    /// # Errors
    ///
    /// First failing stage, as [`EclError`].
    pub fn finish(&self, entry: &str) -> Result<Machine, EclError> {
        self.parse()?.finish(entry)
    }
}

/// Stage 1: a parsed translation unit (typedefs, functions, modules).
///
/// One `Parsed` can seed many downstream compilations: elaborate it
/// for different entry modules, or under different actual-signal
/// bindings, without re-parsing.
#[derive(Debug, Clone)]
pub struct Parsed {
    source: Source,
    ast: Arc<Ast>,
    diags: Diagnostics,
}

impl Parsed {
    /// The source this was parsed from.
    pub fn source(&self) -> &Source {
        &self.source
    }

    /// The syntax tree.
    pub fn ast(&self) -> &Ast {
        &self.ast
    }

    /// Diagnostics accumulated so far (parse warnings/notes).
    pub fn diagnostics(&self) -> &Diagnostics {
        &self.diags
    }

    /// Names of the modules declared in this unit (candidate entries).
    pub fn module_names(&self) -> Vec<String> {
        self.ast.modules().map(|m| m.name.name.clone()).collect()
    }

    /// The direct instantiations of `module` (used to partition a top
    /// level into asynchronous tasks).
    pub fn instantiations(&self, module: &str) -> Vec<elab::Instantiation> {
        elab::instantiations(&self.ast, module)
    }

    /// Advance: inline and rename with `entry` as the design top.
    ///
    /// # Errors
    ///
    /// [`EclError`] with stage `elaborate` (unknown module, recursion,
    /// arity mismatch, multiple writers, emitted inputs…).
    pub fn elaborate(&self, entry: &str) -> Result<Elaborated, EclError> {
        self.elaborate_bound(entry, None)
    }

    /// [`Parsed::elaborate`] with the entry's parameters renamed to
    /// `actuals` (global wire names) — used when compiling one
    /// submodule of a partitioned top level.
    ///
    /// # Errors
    ///
    /// See [`Parsed::elaborate`].
    pub fn elaborate_bound(
        &self,
        entry: &str,
        actuals: Option<&[String]>,
    ) -> Result<Elaborated, EclError> {
        let elab = elab::elaborate(&self.ast, entry, actuals)
            .map_err(|e| EclError::from(e).with_context(self.diags.clone()))?;
        check_single_writer(&elab).map_err(|e| e.with_context(self.diags.clone()))?;
        Ok(Elaborated {
            parsed: self.clone(),
            entry: entry.to_string(),
            elab: Arc::new(elab),
            diags: self.diags.clone(),
        })
    }

    /// Run the remaining stages for `entry` with default parameters.
    ///
    /// # Errors
    ///
    /// First failing stage.
    pub fn finish(&self, entry: &str) -> Result<Machine, EclError> {
        self.elaborate(entry)?.finish()
    }

    /// Partition a top-level module into its direct sub-instantiations
    /// and split each as an independent design (the paper's
    /// "asynchronous implementation": one task per source file). Each
    /// submodule re-enters this parse with its actual-signal binding.
    ///
    /// # Errors
    ///
    /// Fails if `toplevel` instantiates no submodules, or any submodule
    /// fails to elaborate or split.
    pub fn partition(&self, toplevel: &str) -> Result<Vec<Design>, EclError> {
        let insts = self.instantiations(toplevel);
        if insts.is_empty() {
            return Err(EclError::msg(
                Stage::Elaborate,
                format!("module `{toplevel}` instantiates no submodules"),
                Span::dummy(),
            ));
        }
        insts
            .into_iter()
            .map(|Instantiation { module, actuals }| {
                Ok(self
                    .elaborate_bound(&module, Some(&actuals))?
                    .split()?
                    .to_design())
            })
            .collect()
    }
}

/// The single-writer checks of paper Section 4 item 8: every signal
/// has at most one emitting instance, and design inputs are never
/// emitted internally.
fn check_single_writer(elab: &Elab) -> Result<(), EclError> {
    let mut writers: std::collections::HashMap<&str, Vec<&str>> = std::collections::HashMap::new();
    for (sig, path) in &elab.emitters {
        let w = writers.entry(sig.as_str()).or_default();
        if !w.contains(&path.as_str()) {
            w.push(path.as_str());
        }
    }
    for (sig, w) in &writers {
        if w.len() > 1 {
            return Err(EclError::msg(
                Stage::Elaborate,
                format!(
                    "signal `{sig}` has multiple writers: {w:?} \
                     (ECL requires a single writer per signal)"
                ),
                Span::dummy(),
            ));
        }
        if let Some(idx) = elab.signal(sig) {
            if elab.signals[idx].kind == efsm::SigKind::Input {
                return Err(EclError::msg(
                    Stage::Elaborate,
                    format!("design input `{sig}` is emitted internally"),
                    Span::dummy(),
                ));
            }
        }
    }
    Ok(())
}

/// Stage 2: the elaborated design — one flat statement tree plus
/// signal/variable/instance tables.
#[derive(Debug, Clone)]
pub struct Elaborated {
    parsed: Parsed,
    entry: String,
    elab: Arc<Elab>,
    diags: Diagnostics,
}

impl Elaborated {
    /// The stage this was produced from (re-entry point).
    pub fn parsed(&self) -> &Parsed {
        &self.parsed
    }

    /// The entry module.
    pub fn entry(&self) -> &str {
        &self.entry
    }

    /// The elaboration tables.
    pub fn elab(&self) -> &Elab {
        &self.elab
    }

    /// Diagnostics accumulated so far.
    pub fn diagnostics(&self) -> &Diagnostics {
        &self.diags
    }

    /// Advance: split reactive from data under the default
    /// [`SplitStrategy`].
    ///
    /// # Errors
    ///
    /// [`EclError`] with stage `split` (unsupported constructs,
    /// instantaneous reactive loops…).
    pub fn split(&self) -> Result<Split, EclError> {
        self.split_with(SplitStrategy::default())
    }

    /// Advance with an explicit strategy — call twice to compare the
    /// paper's Section 3 and Section 6 schemes on one elaboration.
    ///
    /// # Errors
    ///
    /// See [`Elaborated::split`].
    pub fn split_with(&self, strategy: SplitStrategy) -> Result<Split, EclError> {
        let result = split::split(&self.elab, strategy)
            .map_err(|e| EclError::from(e).with_context(self.diags.clone()))?;
        Ok(Split {
            elaborated: self.clone(),
            strategy,
            result: Arc::new(result),
            diags: self.diags.clone(),
        })
    }

    /// Run the remaining stages with default parameters.
    ///
    /// # Errors
    ///
    /// First failing stage.
    pub fn finish(&self) -> Result<Machine, EclError> {
        self.split()?.ir().compile(&CompileOptions::default())
    }
}

/// Stage 3: the reactive/data split — a kernel-Esterel program, the
/// extracted data tables, and splitter statistics.
#[derive(Debug, Clone)]
pub struct Split {
    elaborated: Elaborated,
    strategy: SplitStrategy,
    result: Arc<SplitResult>,
    diags: Diagnostics,
}

impl Split {
    /// The stage this was produced from (re-entry point).
    pub fn elaborated(&self) -> &Elaborated {
        &self.elaborated
    }

    /// The strategy that produced this split.
    pub fn strategy(&self) -> SplitStrategy {
        self.strategy
    }

    /// The full split result (program + data + report).
    pub fn result(&self) -> &SplitResult {
        &self.result
    }

    /// Splitter statistics.
    pub fn report(&self) -> split::SplitReport {
        self.result.report
    }

    /// Diagnostics accumulated so far.
    pub fn diagnostics(&self) -> &Diagnostics {
        &self.diags
    }

    /// Advance: view the reactive part as an Esterel-IR stage.
    pub fn ir(&self) -> EsterelIr {
        EsterelIr {
            split: self.clone(),
        }
    }

    /// Bundle this split as a [`Design`] (cheap: shares the underlying
    /// `Arc`s). The `Design` is what the simulator and the back ends
    /// consume.
    pub fn to_design(&self) -> Design {
        Design {
            entry: self.elaborated.entry.clone(),
            ast: Arc::clone(&self.elaborated.parsed.ast),
            elab: Arc::clone(&self.elaborated.elab),
            split: Arc::clone(&self.result),
        }
    }
}

/// Stage 4: the reactive program as kernel Esterel, ready for EFSM
/// synthesis or direct constructive interpretation.
#[derive(Debug, Clone)]
pub struct EsterelIr {
    split: Split,
}

impl EsterelIr {
    /// The stage this was produced from (re-entry point).
    pub fn split(&self) -> &Split {
        &self.split
    }

    /// The kernel-Esterel program.
    pub fn program(&self) -> &esterel::Program {
        &self.split.result.program
    }

    /// The extracted data part.
    pub fn data(&self) -> &split::DataTable {
        &self.split.result.data
    }

    /// Diagnostics accumulated so far.
    pub fn diagnostics(&self) -> &Diagnostics {
        &self.split.diags
    }

    /// A constructive interpreter over this program (reference
    /// semantics; no EFSM compilation).
    pub fn interpreter(&self) -> esterel::Machine<'_> {
        esterel::Machine::new(self.program())
    }

    /// Advance: compile to an EFSM.
    ///
    /// # Errors
    ///
    /// [`EclError`] with stage `efsm` (state explosion, incoherent
    /// programs…).
    pub fn compile(&self, opts: &CompileOptions) -> Result<Machine, EclError> {
        let efsm = esterel::compile::compile(self.program(), opts)
            .map_err(|e| EclError::from(e).with_context(self.split.diags.clone()))?;
        Ok(Machine {
            ir: self.clone(),
            opts: *opts,
            efsm: Arc::new(efsm),
            diags: self.split.diags.clone(),
        })
    }
}

/// Stage 5: a compiled EFSM plus everything needed to run or lower it.
///
/// Terminal stage of `ecl-core`; the `codegen` crate's `Artifacts`
/// stage lowers a `Machine` to C and Verilog text.
#[derive(Debug, Clone)]
pub struct Machine {
    ir: EsterelIr,
    opts: CompileOptions,
    efsm: Arc<efsm::Efsm>,
    diags: Diagnostics,
}

impl Machine {
    /// The stage this was produced from (re-entry point).
    pub fn ir(&self) -> &EsterelIr {
        &self.ir
    }

    /// The EFSM-compilation options used.
    pub fn options(&self) -> CompileOptions {
        self.opts
    }

    /// The compiled machine.
    pub fn efsm(&self) -> &efsm::Efsm {
        &self.efsm
    }

    /// Diagnostics accumulated across all stages.
    pub fn diagnostics(&self) -> &Diagnostics {
        &self.diags
    }

    /// Bundle the underlying split as a [`Design`] (cheap).
    pub fn design(&self) -> Design {
        self.ir.split.to_design()
    }

    /// Build a fresh data runtime for this design.
    ///
    /// # Errors
    ///
    /// [`EclError`] with stage `runtime` (unresolvable types).
    pub fn new_rt(&self) -> Result<Rt, EclError> {
        let s = &self.ir.split;
        Rt::new(&s.elaborated.parsed.ast, &s.elaborated.elab, &s.result.data)
            .map_err(EclError::from)
    }

    /// Structural validation of the compiled machine.
    ///
    /// # Errors
    ///
    /// [`EclError`] with stage `efsm`.
    pub fn validate(&self) -> Result<(), EclError> {
        self.efsm.validate_ecl()
    }
}

/// A fully split design, ready for simulation or EFSM synthesis: the
/// pipeline's product for runners, which compile the EFSM themselves.
///
/// `Arc`-backed: clones share the parse, elaboration and split
/// results, which is what makes the simulator's per-task design copies
/// cheap.
#[derive(Debug, Clone)]
pub struct Design {
    /// Entry module name.
    pub entry: String,
    /// The parsed translation unit (typedefs + functions + modules).
    pub ast: Arc<Ast>,
    /// Elaboration tables.
    pub elab: Arc<Elab>,
    /// Reactive program + data tables.
    pub split: Arc<SplitResult>,
}

impl Design {
    /// The reactive (Esterel) program.
    pub fn program(&self) -> &esterel::Program {
        &self.split.program
    }

    /// Compile the reactive part to an EFSM.
    ///
    /// # Errors
    ///
    /// [`EclError`] with stage `efsm` (state explosion, incoherence…).
    pub fn to_efsm(&self, opts: &CompileOptions) -> Result<Efsm, EclError> {
        esterel::compile::compile(&self.split.program, opts).map_err(EclError::from)
    }

    /// Build a fresh data runtime for this design.
    ///
    /// # Errors
    ///
    /// [`EclError`] with stage `runtime` (unresolvable types).
    pub fn new_rt(&self) -> Result<Rt, EclError> {
        Rt::new(&self.ast, &self.elab, &self.split.data).map_err(EclError::from)
    }

    /// Signal handle by global name (valid for both the interpreter and
    /// compiled EFSMs — the tables share indices).
    pub fn signal(&self, name: &str) -> Option<efsm::Signal> {
        self.split.program.signal(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use efsm::BitSet;

    /// The presence set of `signals` (local indices).
    fn present(signals: &[efsm::Signal]) -> BitSet {
        signals.iter().map(|s| s.0 as usize).collect()
    }

    const RELAY: &str = "
        module a(input pure i, output pure m) { while (1) { await (i); emit (m); } }
        module b(input pure m, output pure o) { while (1) { await (m); emit (o); } }
        module top(input pure i, output pure o) {
          signal pure mid;
          par { a(i, mid); b(mid, o); }
        }";

    #[test]
    fn parse_once_elaborate_many() {
        let parsed = Source::new(RELAY).parse().unwrap();
        assert_eq!(parsed.module_names(), ["a", "b", "top"]);
        for entry in ["a", "b", "top"] {
            let e = parsed.elaborate(entry).unwrap();
            assert_eq!(e.entry(), entry);
        }
    }

    #[test]
    fn split_under_both_strategies_without_reparse() {
        let src = "
            module m(input pure a, output pure o) {
              int x; int y;
              while (1) { await (a); x = 1; y = x + 2; x = y * 3; emit (o); }
            }";
        let elaborated = Source::new(src).parse().unwrap().elaborate("m").unwrap();
        let max = elaborated.split_with(SplitStrategy::MaxEsterel).unwrap();
        let min = elaborated.split_with(SplitStrategy::MinEsterel).unwrap();
        assert!(min.result().data.actions.len() < max.result().data.actions.len());
        assert_eq!(max.strategy(), SplitStrategy::MaxEsterel);
        assert_eq!(min.strategy(), SplitStrategy::MinEsterel);
    }

    #[test]
    fn finish_runs_all_stages() {
        let machine = Source::new(RELAY).finish("top").unwrap();
        machine.validate().unwrap();
        assert!(machine.efsm().states.len() >= 2);
        let d = machine.design();
        assert_eq!(d.entry, "top");
    }

    #[test]
    fn parse_error_is_stage_tagged() {
        let e = Source::new("module broken(").parse().unwrap_err();
        assert_eq!(e.stage(), Stage::Parse);
        assert!(e.diagnostics().has_errors());
    }

    #[test]
    fn elaborate_error_is_stage_tagged() {
        let parsed = Source::new(RELAY).parse().unwrap();
        let e = parsed.elaborate("missing").unwrap_err();
        assert_eq!(e.stage(), Stage::Elaborate);
    }

    const TWO_WRITERS: &str = "
        module w(input pure t, output pure s) { while (1) { await(t); emit (s); } }
        module top(input pure t, output pure s) { par { w(t, s); w(t, s); } }";

    #[test]
    fn multiple_writers_detected_at_elaboration() {
        let e = Source::new(TWO_WRITERS)
            .parse()
            .unwrap()
            .elaborate("top")
            .unwrap_err();
        assert_eq!(e.stage(), Stage::Elaborate);
        assert!(
            e.first_message().unwrap().contains("multiple writers"),
            "{e}"
        );
    }

    #[test]
    fn multiple_writers_rejected() {
        // The one-call path from source stops at the same stage.
        let e = Source::new(TWO_WRITERS).finish("top").unwrap_err();
        assert_eq!(e.stage(), Stage::Elaborate);
        assert!(e.to_string().contains("multiple writers"), "{e}");
    }

    #[test]
    fn split_error_is_stage_tagged() {
        let src = "module m(input pure a, output pure o) { while (1) { emit (o); } }";
        let e = Source::new(src)
            .parse()
            .unwrap()
            .elaborate("m")
            .unwrap_err_or_split();
        assert_eq!(e.stage(), Stage::Split);
    }

    // Small helper so the test above reads naturally: elaboration
    // succeeds, splitting fails.
    trait UnwrapErrOrSplit {
        fn unwrap_err_or_split(self) -> EclError;
    }
    impl UnwrapErrOrSplit for Result<Elaborated, EclError> {
        fn unwrap_err_or_split(self) -> EclError {
            self.unwrap().split().unwrap_err()
        }
    }

    const COUNTER: &str = "
        module counter(input pure tick, input pure reset, output pure full) {
          int n;
          while (1) {
            do {
              n = 0;
              while (n < 3) { await (tick); n = n + 1; }
              emit (full);
              halt ();
            } abort (reset);
          }
        }";

    fn design(src: &str, entry: &str) -> Design {
        Source::new(src)
            .parse()
            .unwrap()
            .elaborate(entry)
            .unwrap()
            .split()
            .unwrap()
            .to_design()
    }

    #[test]
    fn counter_compiles_and_runs_interpreted() {
        let d = design(COUNTER, "counter");
        let mut rt = d.new_rt().unwrap();
        let mut m = esterel::Machine::new(d.program());
        let tick = d.signal("tick").unwrap();
        let full = d.signal("full").unwrap();
        let on = present(&[tick]);
        // Start instant (no tick).
        let r0 = m.react_set(&BitSet::new(), &mut rt).unwrap();
        assert!(!r0.has(full));
        // Three ticks fill the counter.
        for i in 0..3 {
            let r = m.react_set(&on, &mut rt).unwrap();
            assert!(rt.take_error().is_none());
            assert_eq!(r.has(full), i == 2, "tick {i}");
        }
        // Halted now.
        let r = m.react_set(&on, &mut rt).unwrap();
        assert!(!r.has(full));
    }

    #[test]
    fn counter_efsm_matches_interpreter() {
        use rand::{Rng, SeedableRng};
        let machine = Source::new(COUNTER).finish("counter").unwrap();
        let d = machine.design();
        let tick = d.signal("tick").unwrap();
        let reset = d.signal("reset").unwrap();
        let full = d.signal("full").unwrap();
        for seed in 0..10u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut rt_i = d.new_rt().unwrap();
            let mut rt_m = d.new_rt().unwrap();
            let mut interp = esterel::Machine::new(d.program());
            let mut st = machine.efsm().init;
            let mut emitted = Vec::new();
            for step in 0..60 {
                let mut on = Vec::new();
                if rng.gen_bool(0.5) {
                    on.push(tick);
                }
                if rng.gen_bool(0.15) {
                    on.push(reset);
                }
                let on = present(&on);
                let r1 = interp.react_set(&on, &mut rt_i).unwrap();
                emitted.clear();
                st = machine
                    .efsm()
                    .step_bits(st, &on, &mut rt_m, &mut emitted)
                    .next;
                assert_eq!(
                    r1.has(full),
                    emitted.contains(&full),
                    "divergence at seed {seed} step {step}"
                );
                assert!(rt_i.take_error().is_none());
                assert!(rt_m.take_error().is_none());
            }
        }
    }

    #[test]
    fn valued_signals_flow_through_rt() {
        let src = "
            typedef unsigned char byte;
            module echo(input byte inp, output byte outp) {
              while (1) { await (inp); emit_v (outp, inp + 1); }
            }";
        let d = design(src, "echo");
        let mut rt = d.new_rt().unwrap();
        let mut m = esterel::Machine::new(d.program());
        let inp = d.signal("inp").unwrap();
        // Start.
        m.react_set(&BitSet::new(), &mut rt).unwrap();
        rt.set_input_i64("inp", 41).unwrap();
        let r = m.react_set(&present(&[inp]), &mut rt).unwrap();
        assert!(rt.take_error().is_none());
        assert!(!r.emitted.is_empty());
        let v = rt.signal_value_by_name("outp").unwrap();
        assert_eq!(v.as_i64(rt.machine().table()), 42);
    }

    #[test]
    fn partition_compiles_each_submodule() {
        let parsed = Source::new(RELAY).parse().unwrap();
        let parts = parsed.partition("top").unwrap();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].entry, "a");
        // Part a's output is the *global* wire name: `mid` is the
        // local signal's source name at the instantiation site.
        let sigs: Vec<&str> = parts[0]
            .program()
            .signals()
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        assert!(sigs.contains(&"mid"), "{sigs:?}");
        // And the whole thing also compiles monolithically.
        let whole = parsed.finish("top").unwrap();
        let locals = whole
            .design()
            .program()
            .signals()
            .iter()
            .filter(|s| s.kind == efsm::SigKind::Local)
            .count();
        assert_eq!(locals, 1);
        whole.efsm().validate().unwrap();
    }

    #[test]
    fn partition_rejects_a_leaf_module() {
        let e = Source::new(RELAY)
            .parse()
            .unwrap()
            .partition("a")
            .unwrap_err();
        assert_eq!(e.stage(), Stage::Elaborate);
        assert!(
            e.first_message()
                .unwrap()
                .contains("module `a` instantiates no submodules"),
            "{e}"
        );
    }

    #[test]
    fn min_strategy_produces_fewer_actions() {
        // Each strategy on its own pass from source to `Design`: the
        // pipeline's product carries the smaller data table.
        let src = "
            module m(input pure a, output pure o) {
              int x; int y;
              while (1) { await (a); x = 1; y = x + 2; x = y * 3; emit (o); }
            }";
        let design = |strategy| {
            Source::new(src)
                .parse()
                .unwrap()
                .elaborate("m")
                .unwrap()
                .split_with(strategy)
                .unwrap()
                .to_design()
        };
        let max = design(SplitStrategy::MaxEsterel);
        let min = design(SplitStrategy::MinEsterel);
        assert!(min.split.data.actions.len() < max.split.data.actions.len());
    }

    #[test]
    fn design_clones_share_storage() {
        let d = design(COUNTER, "counter");
        let d2 = d.clone();
        assert!(Arc::ptr_eq(&d.ast, &d2.ast));
        assert!(Arc::ptr_eq(&d.split, &d2.split));
    }

    #[test]
    fn interpreter_runs_from_ir_stage() {
        let split = Source::new(RELAY)
            .parse()
            .unwrap()
            .elaborate("top")
            .unwrap()
            .split()
            .unwrap();
        let ir = split.ir();
        let mut rt = ir.compile(&Default::default()).unwrap().new_rt().unwrap();
        let mut m = ir.interpreter();
        let i = ir.program().signal("i").unwrap();
        m.react_set(&BitSet::new(), &mut rt).unwrap();
        let r = m.react_set(&present(&[i]), &mut rt).unwrap();
        // `a` relays i -> mid in the same instant.
        assert!(!r.emitted.is_empty());
    }
}
