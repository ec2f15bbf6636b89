//! Monitor synthesis: an `observer` declaration becomes a
//! deterministic monitor EFSM through the *existing* compilation
//! pipeline — each property is translated to kernel Esterel and the
//! whole observer is compiled by `esterel::compile`, exactly like a
//! design's reactive part.
//!
//! Translation per property (`fail_i` is the property's verdict
//! output):
//!
//! ```text
//! always (e)                loop { present ~e { emit fail }; pause }
//! never (e)                 loop { present  e { emit fail }; pause }
//! eventually_within N (e)   trap { [present e exit; pause;] × N
//!                                  present e exit; emit fail }; halt
//! whenever (t) expect (r)   loop { await_immediate t;
//!   within N                       trap { present r exit;
//!                                         [pause; present r exit;] × N
//!                                         emit fail };
//!                                  pause }
//! ```
//!
//! Response windows are *non-overlapping*: a trigger inside an open
//! window is absorbed by it (the monitor re-arms one instant after the
//! window closes). All properties of one observer run in parallel in
//! one machine; the `fail_i` outputs identify the violated property.
//!
//! A monitor is pure control over a handful of inputs, so synthesis
//! also tabulates it whole: a dense table holds, for every state
//! and every combination of the inputs, the next state and the first
//! failed property, each cell taken from one step of the s-graph
//! walker. Stepping a monitor is then one table load.

use ecl_syntax::ast;
use ecl_syntax::diag::{EclError, Stage};
use ecl_syntax::pretty;
use ecl_syntax::source::Span;
use efsm::{BitSet, Efsm, NoHooks, SigKind, Signal, StateId};
use esterel::compile::CompileOptions;
use esterel::ir::ProgramBuilder;
use esterel::{SigExpr, Stmt};
use std::collections::HashMap;
use std::sync::Arc;

/// One synthesized property inside a [`MonitorSpec`].
#[derive(Debug, Clone)]
pub struct PropInfo {
    /// Property index in source order.
    pub index: usize,
    /// The property as source text (for reports).
    pub describe: String,
    /// The verdict output in the monitor machine's signal table.
    pub fail: Signal,
}

/// A synthesized monitor: the observer's kernel-Esterel program, its
/// compiled EFSM, and the property/verdict table.
#[derive(Debug, Clone)]
pub struct MonitorSpec {
    /// Observer name.
    pub name: String,
    /// Watched interface names, in declaration order.
    pub watched: Vec<String>,
    /// The monitor as kernel Esterel (reference semantics).
    pub program: Arc<esterel::Program>,
    /// The compiled monitor machine (runs lockstep with the design).
    pub efsm: Arc<Efsm>,
    /// Per-property verdict signals.
    pub props: Vec<PropInfo>,
    /// The machine tabulated for [`efsm::Backend::Compiled`] stepping;
    /// `None` past [`DENSE_INPUT_CAP`] inputs, where the monitor steps
    /// on the s-graph walker under both backends.
    pub(crate) dense: Option<DenseTable>,
}

/// Inputs past which a monitor gets no dense table: a state owns a
/// cell per combination of the inputs, so 6 inputs make 64 cells per
/// state. A wider observer steps on the s-graph walker under both
/// backends.
pub(crate) const DENSE_INPUT_CAP: usize = 6;

/// Cell value of [`Cell::fail`] when no property fails.
const NO_FAIL: u32 = u32::MAX;

/// One (state, input combination) of a [`DenseTable`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cell {
    /// The state the step moves to.
    pub(crate) next: StateId,
    /// Position in [`MonitorSpec::props`] of the first property whose
    /// `fail_i` the step emits, or [`NO_FAIL`].
    fail: u32,
}

impl Cell {
    /// Position of the property this step violates, if any.
    #[inline]
    pub(crate) fn failed(self) -> Option<usize> {
        (self.fail != NO_FAIL).then_some(self.fail as usize)
    }
}

/// A monitor machine as one dense table: for a machine with `k`
/// inputs, cell `state << k | index` is the step from `state` when
/// input `j` (in [`Efsm::inputs`] order) is present exactly if bit `j`
/// of `index` is set.
#[derive(Debug, Clone)]
pub(crate) struct DenseTable {
    /// Inputs of the machine: each state owns `1 << k` cells.
    k: u32,
    /// All cells, state-major.
    cells: Box<[Cell]>,
}

impl DenseTable {
    /// Tabulate `m` by stepping the s-graph walker once per cell, or
    /// `None` when `m` has more than [`DENSE_INPUT_CAP`] inputs. The
    /// walker is the reference, so the table is exact by construction.
    fn build(m: &Efsm, props: &[PropInfo]) -> Option<DenseTable> {
        let inputs: Vec<Signal> = m.inputs().map(|(s, _)| s).collect();
        if inputs.len() > DENSE_INPUT_CAP {
            return None;
        }
        let k = inputs.len() as u32;
        let mut cells = Vec::with_capacity(m.states.len() << k);
        let (mut bits, mut emitted) = (BitSet::new(), Vec::new());
        for state in 0..m.states.len() as u32 {
            for index in 0..1usize << k {
                bits.clear();
                for (j, s) in inputs.iter().enumerate() {
                    if index >> j & 1 == 1 {
                        bits.insert(s.0 as usize);
                    }
                }
                emitted.clear();
                let next = m
                    .step_bits(StateId(state), &bits, &mut NoHooks, &mut emitted)
                    .next;
                let fail = first_failed(props, &emitted).map_or(NO_FAIL, |p| p as u32);
                cells.push(Cell { next, fail });
            }
        }
        Some(DenseTable {
            k,
            cells: cells.into(),
        })
    }

    /// The step from `state` on input combination `index`.
    #[inline]
    pub(crate) fn cell(&self, state: StateId, index: usize) -> Cell {
        self.cells[(state.0 as usize) << self.k | index]
    }
}

/// Position in `props` of the first property whose `fail_i` output is
/// in `emitted`.
pub(crate) fn first_failed(props: &[PropInfo], emitted: &[Signal]) -> Option<usize> {
    props.iter().position(|p| emitted.contains(&p.fail))
}

fn obs_err<T>(msg: impl Into<String>, span: Span) -> Result<T, EclError> {
    Err(EclError::msg(Stage::Observe, msg, span))
}

/// Synthesize one observer into a monitor machine.
///
/// # Errors
///
/// [`EclError`] with stage `observe`: properties over undeclared
/// signals, or (defensively) a property set whose machine the Esterel
/// compiler rejects.
pub fn synthesize(obs: &ast::Observer) -> Result<MonitorSpec, EclError> {
    if obs.props.is_empty() {
        return obs_err(
            format!("observer `{}` declares no properties", obs.name.name),
            obs.span,
        );
    }
    let mut b = ProgramBuilder::new(format!("monitor_{}", obs.name.name));
    let mut by_name: HashMap<&str, Signal> = HashMap::new();
    let mut watched = Vec::new();
    for p in &obs.params {
        let s = b.input(&p.name.name);
        by_name.insert(p.name.name.as_str(), s);
        watched.push(p.name.name.clone());
    }
    let mut props = Vec::new();
    let mut branches = Vec::new();
    for (index, prop) in obs.props.iter().enumerate() {
        let fail = b.add(&format!("fail_{index}"), SigKind::Output, false);
        props.push(PropInfo {
            index,
            describe: pretty::property_str(prop),
            fail,
        });
        branches.push(prop_stmt(&prop.kind, fail, &by_name)?);
    }
    let body = Stmt::par(branches);
    let program = b.finish(body).map_err(|e| {
        EclError::msg(
            Stage::Observe,
            format!("observer `{}` synthesis failed: {e}", obs.name.name),
            obs.span,
        )
    })?;
    let efsm =
        esterel::compile::compile(&program, &CompileOptions::default()).map_err(EclError::from)?;
    let dense = DenseTable::build(&efsm, &props);
    Ok(MonitorSpec {
        name: obs.name.name.clone(),
        watched,
        program: Arc::new(program),
        efsm: Arc::new(efsm),
        props,
        dense,
    })
}

/// Synthesize every observer of a translation unit, in source order.
///
/// # Errors
///
/// First failing observer.
pub fn synthesize_all(prog: &ast::Program) -> Result<Vec<Arc<MonitorSpec>>, EclError> {
    prog.observers()
        .map(|o| synthesize(o).map(Arc::new))
        .collect()
}

/// Translate one property to its monitor statement.
fn prop_stmt(
    kind: &ast::PropertyKind,
    fail: Signal,
    by_name: &HashMap<&str, Signal>,
) -> Result<Stmt, EclError> {
    // The parser enforces this too; re-check for hand-built ASTs —
    // window() unrolls 2N statements and the EFSM N states.
    if let ast::PropertyKind::EventuallyWithin(n, _)
    | ast::PropertyKind::Response { within: n, .. } = kind
    {
        if *n > ast::MAX_WINDOW {
            return obs_err(
                format!(
                    "property window {n} exceeds the {} instant limit",
                    ast::MAX_WINDOW
                ),
                Span::dummy(),
            );
        }
    }
    Ok(match kind {
        ast::PropertyKind::Always(e) => Stmt::loop_(Stmt::seq(vec![
            Stmt::present(sig_expr(e, by_name)?, Stmt::nothing(), Stmt::emit(fail)),
            Stmt::pause(),
        ])),
        ast::PropertyKind::Never(e) => Stmt::loop_(Stmt::seq(vec![
            Stmt::present(sig_expr(e, by_name)?, Stmt::emit(fail), Stmt::nothing()),
            Stmt::pause(),
        ])),
        ast::PropertyKind::EventuallyWithin(n, e) => {
            let e = sig_expr(e, by_name)?;
            Stmt::seq(vec![window(&e, *n, fail), Stmt::halt()])
        }
        ast::PropertyKind::Response {
            trigger,
            response,
            within,
        } => {
            let t = sig_expr(trigger, by_name)?;
            let r = sig_expr(response, by_name)?;
            Stmt::loop_(Stmt::seq(vec![
                Stmt::await_immediate(t),
                window(&r, *within, fail),
                Stmt::pause(),
            ]))
        }
    })
}

/// `trap { present e exit; [pause; present e exit;] × n; emit fail }`:
/// succeed silently if `e` holds within `n` instants of entry,
/// otherwise emit `fail` at instant `n` and terminate.
fn window(e: &SigExpr, n: u32, fail: Signal) -> Stmt {
    let check = |e: &SigExpr| Stmt::present(e.clone(), Stmt::exit(0), Stmt::nothing());
    let mut body = vec![check(e)];
    for _ in 0..n {
        body.push(Stmt::pause());
        body.push(check(e));
    }
    body.push(Stmt::emit(fail));
    Stmt::trap(Stmt::seq(body))
}

/// AST presence expression → IR presence expression over the
/// observer's declared inputs.
fn sig_expr(e: &ast::SigExpr, by_name: &HashMap<&str, Signal>) -> Result<SigExpr, EclError> {
    Ok(match &e.kind {
        ast::SigExprKind::Sig(id) => match by_name.get(id.name.as_str()) {
            Some(s) => SigExpr::Sig(*s),
            None => {
                return obs_err(
                    format!(
                        "property references `{}`, which is not a declared \
                         observer signal",
                        id.name
                    ),
                    id.span,
                )
            }
        },
        ast::SigExprKind::Not(inner) => sig_expr(inner, by_name)?.not_(),
        ast::SigExprKind::And(a, b) => sig_expr(a, by_name)?.and_(sig_expr(b, by_name)?),
        ast::SigExprKind::Or(a, b) => sig_expr(a, by_name)?.or_(sig_expr(b, by_name)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(src: &str, name: &str) -> MonitorSpec {
        let prog = ecl_syntax::parse_str(src).expect("parses");
        synthesize(prog.observer(name).expect("observer exists")).expect("synthesizes")
    }

    #[test]
    fn synthesizes_pure_machines_only() {
        let s = spec(
            "observer w(input pure a, input pure b) {\
               always (a | ~b); never (a & b); whenever (a) expect (b) within 2;\
             }",
            "w",
        );
        assert_eq!(s.watched, vec!["a", "b"]);
        assert_eq!(s.props.len(), 3);
        let st = s.efsm.stats();
        assert_eq!(st.pred_tests, 0, "monitors carry no data part");
        assert_eq!(st.actions, 0);
        assert_eq!(st.pure_states, st.states, "every monitor state is pure");
        assert!(s.dense.is_some(), "a 2-input monitor tabulates densely");
        s.efsm.validate().unwrap();
    }

    #[test]
    fn unknown_signal_is_an_observe_stage_error() {
        let prog = ecl_syntax::parse_str("observer w(input pure a) { never (ghost); }").unwrap();
        let e = synthesize(prog.observer("w").unwrap()).unwrap_err();
        assert_eq!(e.stage(), Stage::Observe);
        assert!(e.first_message().unwrap().contains("ghost"), "{e}");
    }

    #[test]
    fn empty_observer_is_rejected() {
        let prog = ecl_syntax::parse_str("observer w(input pure a) { }").unwrap();
        assert!(synthesize(prog.observer("w").unwrap()).is_err());
    }

    /// Windows at the parser's cap synthesize, with a monitor state per
    /// instant of the window, and fail exactly when the window closes.
    #[test]
    fn max_window_properties_synthesize_and_fail_at_the_bound() {
        use crate::monitor::{Monitor, Verdict};
        let n = ast::MAX_WINDOW;
        let eventually = spec(
            &format!("observer w(input pure e) {{ eventually_within {n} (e); }}"),
            "w",
        );
        let response = spec(
            &format!(
                "observer w(input pure t, input pure r) {{ whenever (t) expect (r) within {n}; }}"
            ),
            "w",
        );
        assert_eq!(eventually.efsm.states.len(), n as usize + 2);
        assert_eq!(response.efsm.states.len(), n as usize + 1);
        let mut table = efsm::SigTable::new();
        let [e, r, t] = ["e", "r", "t"].map(|name| table.intern(name).bit());
        let none = efsm::BitSet::new();
        let t_only: efsm::BitSet = [t].into_iter().collect();
        // `e` and `r` never present; `t` present at instant 0 only.
        for (spec, first) in [(eventually, &none), (response, &t_only)] {
            let mut m = Monitor::new(Arc::new(spec));
            for i in 0..u64::from(n) {
                let present = if i == 0 { first } else { &none };
                assert!(
                    m.step_ids(i, present, &table).is_none(),
                    "failed early, at {i}"
                );
            }
            let v = m.step_ids(u64::from(n), &none, &table).cloned();
            assert_eq!(v.map(|v| v.instant), Some(u64::from(n)));
            m.step_ids(u64::from(n) + 1, &[e, r].into_iter().collect(), &table);
            assert!(matches!(m.verdict(), Verdict::Fail(f) if f.instant == u64::from(n)));
        }
    }

    /// Every observer of a translation unit synthesizes, and its C
    /// emission names the observer's reaction function.
    #[test]
    fn monitor_c_names_each_observer() {
        let prog = ecl_syntax::parse_str(
            "module m(input pure a, output pure o) { while (1) { await (a); emit (o); } }
             observer w(input pure a, input pure o) { whenever (a) expect (o) within 1; }",
        )
        .unwrap();
        let specs = synthesize_all(&prog).unwrap();
        assert_eq!(specs.len(), 1);
        let c = codegen::emit_monitor_c(&specs[0].efsm);
        assert!(c.contains("monitor_w_react"), "{c}");
    }

    /// A source without observers synthesizes an empty (but valid)
    /// monitor set.
    #[test]
    fn source_without_observers_synthesizes_no_monitors() {
        let prog = ecl_syntax::parse_str(
            "module p(input pure a, output pure o) { while (1) { await (a); emit (o); } }",
        )
        .unwrap();
        assert!(synthesize_all(&prog).unwrap().is_empty());
    }

    #[test]
    fn fail_signals_are_outputs() {
        let s = spec("observer w(input pure a) { never (a); always (a); }", "w");
        for p in &s.props {
            assert_eq!(s.efsm.signal_info(p.fail).kind, SigKind::Output);
        }
    }
}
