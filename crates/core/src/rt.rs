//! The glue runtime: data state + [`efsm::DataHooks`] implementation.
//!
//! The paper's "glue logic part ... allows Esterel statements to access
//! fields of ECL non-scalar data types". In this reproduction the glue
//! is a runtime object ([`Rt`]) that owns:
//!
//! * the design's flat variable frame (every module instance's locals,
//!   mangled to unique names by elaboration);
//! * the current value of every valued signal;
//! * the C interpreter ([`ecl_types::Machine`]) used to run extracted
//!   actions, evaluate EFSM predicates and compute `emit_v` values;
//! * the compiled data path: at construction every predicate, action
//!   and emit expression is lowered to folded register bytecode
//!   ([`ecl_types::vm`]) over the frame's dense slots and the signal
//!   indices, which [`crate::Fused`] inlines into the task's reaction
//!   loop when every hook has a program.
//!
//! The [`efsm::DataHooks`] impl is the tree-walking reference: the
//! s-graph walker and the constructive interpreter call it, and fused
//! reactions are differential-tested equal to it, including error
//! instants, fuel-derived cycle charges and the
//! `pred_evals`/`action_runs` counters. A runtime with a hook outside
//! the bytecode subset has no fused reaction, so its task runs on this
//! reference whole.

use crate::elab::Elab;
use crate::split::DataTable;
use ecl_syntax::ast::Program;
use ecl_syntax::diag::DiagSink;
use ecl_types::{
    EvalError, FxHashMap, Lowering, Machine, SignalLayout, TypeId, TypeTable, Value, ValuesReader,
};
use efsm::{ActionId, DataHooks, ExprId, PredId, Signal};
use std::fmt;
use std::sync::Arc;

/// Runtime construction/evaluation failure.
#[derive(Debug, Clone)]
pub struct RtError {
    /// Explanation.
    pub msg: String,
}

impl fmt::Display for RtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "runtime error: {}", self.msg)
    }
}

impl std::error::Error for RtError {}

/// The compiled data hooks of one runtime: the bytecode program of
/// each predicate / action / emit expression, `None` for a hook outside
/// the bytecode subset.
#[derive(Debug)]
pub(crate) struct DataProgs {
    pub(crate) preds: Vec<Option<ecl_types::Program>>,
    pub(crate) actions: Vec<Option<ecl_types::Program>>,
    pub(crate) emits: Vec<Option<ecl_types::Program>>,
}

/// The fixed half of a runtime: what construction builds and no
/// instant changes. The machine's type table, functions and frame
/// layout are shared copy-on-write inside [`Machine`] itself.
#[derive(Debug)]
pub(crate) struct Fixed {
    data: DataTable,
    /// Signal index → resolved value type.
    sig_types: Vec<Option<TypeId>>,
    /// Signal name → index.
    by_name: FxHashMap<String, usize>,
    /// Bytecode programs compiled from the data table.
    pub(crate) progs: DataProgs,
}

/// The data-side runtime for one design instance.
///
/// A clone is a new session over the same design: the fixed half sits
/// behind one `Arc`, so cloning (fleet sessions, checkpoints) copies
/// only the session half — the frame's values, the signal values and
/// the counters.
#[derive(Debug)]
pub struct Rt {
    pub(crate) fixed: Arc<Fixed>,
    pub(crate) machine: Machine,
    /// Signal index → current value (valued signals only).
    pub(crate) values: Vec<Option<Value>>,
    /// First evaluation error encountered (subsequent actions are
    /// skipped until it is taken).
    pub(crate) error: Option<EvalError>,
    /// Register file of the fused reaction loop, reused across
    /// reactions (no steady-state allocation).
    pub(crate) vm_regs: Vec<i64>,
    /// Whether the promoted registers of the task's fused program are
    /// live in `vm_regs`: then they, not the frame, hold those
    /// variables (see [`crate::Fused::sync_frame`]).
    pub(crate) regs_live: bool,
    /// Count of executed actions/predicates/emissions (cost metrics).
    pub action_runs: u64,
    /// Count of predicate evaluations.
    pub pred_evals: u64,
}

impl Clone for Rt {
    fn clone(&self) -> Rt {
        Rt {
            fixed: Arc::clone(&self.fixed),
            machine: self.machine.clone(),
            values: self.values.clone(),
            error: self.error.clone(),
            vm_regs: self.vm_regs.clone(),
            regs_live: self.regs_live,
            action_runs: self.action_runs,
            pred_evals: self.pred_evals,
        }
    }

    /// Copies the session half into this runtime's own buffers: a
    /// restore of a checkpoint of the same design allocates nothing.
    fn clone_from(&mut self, source: &Rt) {
        if !Arc::ptr_eq(&self.fixed, &source.fixed) {
            self.fixed = Arc::clone(&source.fixed);
        }
        self.machine.clone_from(&source.machine);
        self.values.clone_from(&source.values);
        self.error.clone_from(&source.error);
        self.vm_regs.clone_from(&source.vm_regs);
        self.regs_live = source.regs_live;
        self.action_runs = source.action_runs;
        self.pred_evals = source.pred_evals;
    }
}

/// Compile-time signal resolution for the lowerer.
struct SigLayout<'a> {
    by_name: &'a FxHashMap<String, usize>,
    sig_types: &'a [Option<TypeId>],
}

impl SignalLayout for SigLayout<'_> {
    fn signal(&self, name: &str) -> Option<(usize, Option<TypeId>)> {
        self.by_name.get(name).map(|&i| (i, self.sig_types[i]))
    }
}

/// The types a runtime of a design resolves: its type table, each
/// frame variable's type (in `elab.vars` order) and each signal's
/// value type (`None`: pure).
pub(crate) struct Types {
    pub(crate) table: TypeTable,
    pub(crate) vars: Vec<TypeId>,
    pub(crate) sigs: Vec<Option<TypeId>>,
}

impl Types {
    /// Build the type table of `ast` and resolve the variable and
    /// signal types of `elab` in it.
    ///
    /// # Errors
    ///
    /// Fails when a variable or signal type cannot be resolved.
    pub(crate) fn resolve(ast: &Program, elab: &Elab) -> Result<Types, RtError> {
        let mut sink = DiagSink::new();
        let mut table = TypeTable::build(ast, &mut sink);
        if sink.has_errors() {
            return Err(RtError {
                msg: format!("type errors:\n{sink}"),
            });
        }
        let mut vars = Vec::with_capacity(elab.vars.len());
        for v in &elab.vars {
            let mut sink = DiagSink::new();
            let Some(ty) = table.resolve(&v.ty, &mut sink) else {
                return Err(RtError {
                    msg: format!("cannot resolve type of variable `{}`", v.name),
                });
            };
            vars.push(ty);
        }
        let mut sigs = Vec::with_capacity(elab.signals.len());
        for s in &elab.signals {
            if s.pure {
                sigs.push(None);
                continue;
            }
            let Some(t) = &s.ty else {
                return Err(RtError {
                    msg: format!("valued signal `{}` lacks a type", s.name),
                });
            };
            let mut sink = DiagSink::new();
            let ty = table.resolve(t, &mut sink).ok_or_else(|| RtError {
                msg: format!("cannot resolve type of signal `{}`", s.name),
            })?;
            sigs.push(Some(ty));
        }
        Ok(Types { table, vars, sigs })
    }
}

impl Rt {
    /// Build the runtime for an elaborated + split design.
    ///
    /// # Errors
    ///
    /// Fails when a variable or signal type cannot be resolved.
    pub fn new(ast: &Program, elab: &Elab, data: &DataTable) -> Result<Rt, RtError> {
        let Types {
            table,
            vars,
            sigs: sig_types,
        } = Types::resolve(ast, elab)?;
        let mut machine = Machine::new(table);
        for f in ast.functions() {
            machine.add_function(f);
        }
        // Allocate the flat frame.
        for (v, &ty) in elab.vars.iter().zip(&vars) {
            let zero = Value::zero(machine.table(), ty);
            machine.declare(&v.name, zero);
        }
        let values = (sig_types.iter())
            .map(|ty| ty.map(|ty| Value::zero(machine.table(), ty)))
            .collect();
        let by_name = (elab.signals.iter().enumerate())
            .map(|(i, s)| (s.name.clone(), i))
            .collect();
        // Lower every data hook to bytecode once, now that the frame
        // and signal layout are final.
        let layout = SigLayout {
            by_name: &by_name,
            sig_types: &sig_types,
        };
        let mut lw = Lowering::new(&mut machine, &layout);
        let preds = data.preds.iter().map(|e| lw.pred(e)).collect();
        let actions = data.actions.iter().map(|a| lw.action(a)).collect();
        let emits = (data.emit_exprs.iter())
            .map(|(e, sig)| lw.emit(e, sig.0 as usize, sig_types[sig.0 as usize]))
            .collect();
        let progs = DataProgs {
            preds,
            actions,
            emits,
        };
        Ok(Rt {
            fixed: Arc::new(Fixed {
                data: data.clone(),
                sig_types,
                by_name,
                progs,
            }),
            machine,
            values,
            error: None,
            vm_regs: Vec::new(),
            regs_live: false,
            action_runs: 0,
            pred_evals: 0,
        })
    }

    /// Access the C machine (e.g. to inspect variables in tests).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable access to the C machine (fuel control in tests).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// `(compiled hooks, total hooks)` — how much of the design's data
    /// path fused reactions run as bytecode rather than on the walker.
    pub fn vm_coverage(&self) -> (u32, u32) {
        let progs = &self.fixed.progs;
        let all = [&progs.preds, &progs.actions, &progs.emits];
        let total: usize = all.iter().map(|v| v.len()).sum();
        let vm: usize = all
            .iter()
            .flat_map(|v| v.iter())
            .filter(|c| c.is_some())
            .count();
        (vm as u32, total as u32)
    }

    /// The walker reads and writes the frame: a fused program's live
    /// registers must have been written back first.
    fn assert_synced(&self) {
        debug_assert!(
            !self.regs_live,
            "a walker step on a runtime whose promoted registers are live \
             (`Fused::sync_frame` first)"
        );
    }

    /// Take the first pending evaluation error, if any.
    pub fn take_error(&mut self) -> Option<EvalError> {
        self.error.take()
    }

    /// Current value of signal `idx` (None for pure signals).
    pub fn signal_value(&self, idx: usize) -> Option<&Value> {
        self.values.get(idx).and_then(|v| v.as_ref())
    }

    /// Current value of a signal by name.
    pub fn signal_value_by_name(&self, name: &str) -> Option<&Value> {
        self.fixed
            .by_name
            .get(name)
            .and_then(|i| self.signal_value(*i))
    }

    /// Set an *input* signal's value for the coming instant (the
    /// testbench side of valued signals).
    ///
    /// # Errors
    ///
    /// Fails for unknown or pure signals, or on a type mismatch.
    pub fn set_input_value(&mut self, name: &str, v: Value) -> Result<(), RtError> {
        let Some(&i) = self.fixed.by_name.get(name) else {
            return Err(RtError {
                msg: format!("unknown signal `{name}`"),
            });
        };
        let Some(ty) = self.fixed.sig_types[i] else {
            return Err(RtError {
                msg: format!("signal `{name}` is pure"),
            });
        };
        let Some(conv) = v.convert(self.machine.table(), ty) else {
            return Err(RtError {
                msg: format!("type mismatch for signal `{name}`"),
            });
        };
        self.values[i] = Some(conv);
        Ok(())
    }

    /// Build an `i64` value of the signal's own type and set it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Rt::set_input_value`].
    pub fn set_input_i64(&mut self, name: &str, v: i64) -> Result<(), RtError> {
        let Some(&i) = self.fixed.by_name.get(name) else {
            return Err(RtError {
                msg: format!("unknown signal `{name}`"),
            });
        };
        self.set_input_i64_idx(i, v)
    }

    /// [`Rt::set_input_i64`] by signal index — the runner hot path.
    /// Rewrites the existing value buffer in place with one
    /// fixed-width store (no allocation once the signal has been set
    /// once).
    ///
    /// # Errors
    ///
    /// Unknown index or pure signal.
    pub fn set_input_i64_idx(&mut self, idx: usize, v: i64) -> Result<(), RtError> {
        let Some(ty) = self.fixed.sig_types.get(idx).copied().flatten() else {
            return Err(RtError {
                msg: format!("signal #{idx} is pure or unknown"),
            });
        };
        let table = self.machine.table();
        if let Some(val) = &mut self.values[idx] {
            let t = table.get(ty);
            if val.ty == ty && val.bytes.len() <= 8 && t.is_integer() {
                let v = if t == ecl_types::Type::Bool {
                    (v != 0) as i64
                } else {
                    v
                };
                ecl_types::value::store_le(&mut val.bytes, v);
                return Ok(());
            }
        }
        self.values[idx] = Some(Value::from_i64(table, ty, v));
        Ok(())
    }

    /// [`Rt::set_input_value`] by signal index (cross-task value copy
    /// without a name lookup). A value of the signal's own type is
    /// copied into the existing buffer (no allocation once the signal
    /// has been set once); only a real type change converts.
    ///
    /// # Errors
    ///
    /// Unknown index, pure signal, or a type mismatch.
    pub fn set_input_value_idx(&mut self, idx: usize, v: &Value) -> Result<(), RtError> {
        let Some(ty) = self.fixed.sig_types.get(idx).copied().flatten() else {
            return Err(RtError {
                msg: format!("signal #{idx} is pure or unknown"),
            });
        };
        if v.ty == ty {
            match &mut self.values[idx] {
                Some(cur) if cur.ty == ty && cur.bytes.len() == v.bytes.len() => {
                    ecl_types::value::copy_le(&mut cur.bytes, &v.bytes);
                }
                slot => *slot = Some(v.clone()),
            }
            return Ok(());
        }
        let Some(conv) = v.convert(self.machine.table(), ty) else {
            return Err(RtError {
                msg: format!("type mismatch for signal #{idx}"),
            });
        };
        self.values[idx] = Some(conv);
        Ok(())
    }
}

/// The tree-walking reference: every hook evaluates its AST. Fused
/// reactions never call these (they inline the bytecode); the s-graph
/// walker and the constructive interpreter do, on a synced frame
/// (debug-asserted).
impl DataHooks for Rt {
    fn eval_pred(&mut self, pred: PredId) -> bool {
        self.assert_synced();
        if self.error.is_some() {
            return false;
        }
        self.pred_evals += 1;
        ecl_telemetry::metrics::VM_WALKER_HOOKS.incr();
        let reader = ValuesReader {
            values: &self.values,
            by_name: &self.fixed.by_name,
        };
        match self
            .machine
            .eval(&self.fixed.data.preds[pred.0 as usize], &reader)
        {
            Ok(v) => v.is_truthy(),
            Err(e) => {
                self.error = Some(e);
                false
            }
        }
    }

    fn run_action(&mut self, action: ActionId) {
        self.assert_synced();
        if self.error.is_some() {
            return;
        }
        self.action_runs += 1;
        ecl_telemetry::metrics::VM_WALKER_HOOKS.incr();
        let reader = ValuesReader {
            values: &self.values,
            by_name: &self.fixed.by_name,
        };
        for s in &self.fixed.data.actions[action.0 as usize] {
            if let Err(e) = self.machine.exec(s, &reader) {
                self.error = Some(e);
                return;
            }
        }
    }

    /// Compute the emit expression and store it as its signal's value
    /// (a pure signal's is evaluated and dropped).
    fn emit_value(&mut self, sig: Signal, expr: ExprId) {
        self.assert_synced();
        if self.error.is_some() {
            return;
        }
        let (e, bound) = &self.fixed.data.emit_exprs[expr.0 as usize];
        debug_assert_eq!(*bound, sig, "emit expr bound to a different signal");
        ecl_telemetry::metrics::VM_WALKER_HOOKS.incr();
        let si = bound.0 as usize;
        let reader = ValuesReader {
            values: &self.values,
            by_name: &self.fixed.by_name,
        };
        let v = match self.machine.eval(e, &reader) {
            Ok(v) => v,
            Err(err) => {
                self.error = Some(err);
                return;
            }
        };
        if let Some(ty) = self.fixed.sig_types[si] {
            match v.convert(self.machine.table(), ty) {
                Some(cv) => self.values[si] = Some(cv),
                None => {
                    self.error = Some(EvalError {
                        msg: format!("emit_v value not convertible to signal type for signal {si}"),
                        span: e.span,
                    })
                }
            }
        }
    }
}

impl From<RtError> for ecl_syntax::EclError {
    fn from(e: RtError) -> Self {
        ecl_syntax::EclError::msg(
            ecl_syntax::Stage::Runtime,
            e.msg.clone(),
            ecl_syntax::Span::dummy(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Source;
    use ecl_types::Type;

    /// A counter whose source also carries a C function; its body is
    /// appended to the data table as one more action, so a hook can
    /// run a top-level declaration — one that shadows the enum
    /// constant the counter's predicate compares against.
    const SRC: &str = "
        typedef enum { LIMIT = 2 } lim_t;
        void extra() { int fresh = 7; int LIMIT = 0; }
        module counter(input pure tick, output pure full) {
          int n;
          while (1) { await (tick); n = n + 1; if (n > LIMIT) { emit (full); n = 0; } }
        }";

    fn frame(rt: &Rt) -> Vec<(String, Value)> {
        rt.machine()
            .root_entries()
            .map(|(n, v)| (n.to_string(), v.clone()))
            .collect()
    }

    #[test]
    fn clones_grow_shared_state_copy_on_write() {
        let d = Source::new(SRC)
            .parse()
            .unwrap()
            .elaborate("counter")
            .unwrap()
            .split()
            .unwrap()
            .to_design();
        let mut data = d.split.data.clone();
        let body = d.ast.functions().find(|f| f.name.name == "extra");
        data.actions.push(body.unwrap().body.clone().unwrap().stmts);
        let extra = ActionId(data.actions.len() as u32 - 1);
        let original = Rt::new(&d.ast, &d.elab, &data).unwrap();
        let (len, entries) = (original.machine().root_len(), frame(&original));
        let int = original.machine().table().int();
        let new_ty = Type::Array(int, 99);
        assert_eq!(original.machine().table().lookup(new_ty), None);

        // The walker runs the declaration at top level: a new root
        // binding, on the clone only. Finding `int` copies no table.
        let mut grown = original.clone();
        grown.run_action(extra);
        assert!(grown.take_error().is_none());
        assert!(std::ptr::eq(
            grown.machine().table(),
            original.machine().table()
        ));
        grown.machine_mut().table_mut().intern(new_ty);
        assert!(grown.machine().table().lookup(new_ty).is_some());
        assert_eq!(grown.machine().root_len(), len + 2);
        assert!(grown.machine().root_lookup("fresh").is_some());

        // The original saw none of it.
        assert_eq!(original.machine().root_len(), len);
        assert_eq!(frame(&original), entries);
        assert_eq!(original.machine().root_lookup("fresh"), None);
        assert_eq!(original.machine().table().lookup(new_ty), None);

        // The declaring action has no program, so its runtime has no
        // fused reaction, although the machine never runs that action:
        // a runtime fuses only when every hook lowers.
        let efsm = d.to_efsm(&Default::default()).unwrap();
        assert!(crate::Fused::compile(&efsm, &original).is_none());

        // Without it every hook lowers, and clones step through the
        // fused reaction in agreement with the walker reference. The
        // grown clone, on the walker, counts past the enum constant the
        // bytecode folded, because its `LIMIT` variable shadows it.
        let plain = Rt::new(&d.ast, &d.elab, &d.split.data).unwrap();
        let fused = crate::Fused::compile(&efsm, &plain).expect("every hook lowers");
        let tick: efsm::BitSet = [d.signal("tick").unwrap().0 as usize].into_iter().collect();
        let mut runs = [
            (plain.clone(), true),
            (plain.clone(), false),
            (grown.clone(), false),
        ]
        .map(|(rt, fused)| (rt, fused, efsm.init, Vec::new()));
        for _ in 0..5 {
            for (rt, on_fused, state, emitted) in &mut runs {
                *state = if *on_fused {
                    fused.step(*state, &tick, rt, emitted).next
                } else {
                    efsm.step_bits(*state, &tick, rt, emitted).next
                };
                assert!(rt.take_error().is_none());
            }
        }
        // The fused run's counter lives in a register until synced.
        fused.sync_frame(&mut runs[0].0);
        let seen = |i: usize| (runs[i].2, runs[i].3.clone(), frame(&runs[i].0));
        assert_eq!(seen(0), seen(1), "bytecode and walker agree");
        assert_ne!(runs[0].3, runs[2].3, "`LIMIT` is shadowed once grown");
        assert_ne!(
            frame(&runs[0].0),
            entries,
            "the fused hooks wrote the frame"
        );
        assert_eq!(frame(&plain), entries);
    }
}
