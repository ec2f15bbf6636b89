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
//!   and emit expression is lowered to register bytecode
//!   ([`ecl_types::vm`]) over the frame's dense slots and the signal
//!   indices, and the [`efsm::DataHooks`] impl dispatches there by
//!   default ([`Rt::set_backend`] with [`efsm::Backend::Walker`]
//!   forces the tree-walker for measurement; both backends are
//!   differential-tested equal, including error instants, fuel-derived
//!   cycle charges and the `pred_evals`/`action_runs` counters).
//!
//! One `Rt` instance backs the Esterel interpreter and compiled EFSMs
//! alike — both call the same [`efsm::DataHooks`] entry points, which
//! is what makes differential testing between the two meaningful.

use crate::elab::Elab;
use crate::split::DataTable;
use ecl_syntax::ast::Program;
use ecl_syntax::diag::DiagSink;
use ecl_types::vm::{self, Compiled};
use ecl_types::{
    FxHashMap, Lowering, Machine, SignalLayout, TypeId, TypeTable, Value, ValuesReader,
};
use efsm::{ActionId, Backend, DataHooks, ExprId, PredId, Signal};
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

/// The compiled data hooks of one runtime: bytecode programs (or
/// walker markers) per predicate / action / emit expression, plus the
/// root-scope length they were resolved against — slot resolutions are
/// valid only while the root frame hasn't grown (root bindings are
/// append-only; only a walker-executed top-level declaration can add
/// one, after which every hook conservatively walks).
#[derive(Debug, Clone, Default)]
struct DataProgs {
    preds: Vec<Compiled>,
    actions: Vec<Compiled>,
    emits: Vec<Compiled>,
    root_len: usize,
}

/// The data-side runtime for one design instance.
#[derive(Debug, Clone)]
pub struct Rt {
    machine: Machine,
    data: DataTable,
    /// Signal index → current value (valued signals only).
    values: Vec<Option<Value>>,
    /// Signal index → resolved value type.
    sig_types: Vec<Option<ecl_types::TypeId>>,
    /// Signal name → index.
    by_name: FxHashMap<String, usize>,
    /// First evaluation error encountered (subsequent actions are
    /// skipped until it is taken).
    error: Option<ecl_types::EvalError>,
    /// Bytecode programs compiled from the data table at construction.
    /// Immutable after lowering; `Arc`-shared so cloning an `Rt` (fleet
    /// sessions, checkpoints) never re-copies the compiled data path.
    progs: Arc<DataProgs>,
    /// Register-file scratch reused across hook runs (no steady-state
    /// allocation).
    vm_regs: Vec<i64>,
    /// Which backend dispatches the data hooks: [`Backend::Compiled`]
    /// (default) runs them on the bytecode VM; [`Backend::Walker`]
    /// forces the tree-walker everywhere — observationally identical,
    /// the toggle exists for measurement and bisection.
    backend: Backend,
    /// Count of executed actions/predicates/emissions (cost metrics).
    pub action_runs: u64,
    /// Count of predicate evaluations.
    pub pred_evals: u64,
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

impl Rt {
    /// Build the runtime for an elaborated + split design.
    ///
    /// # Errors
    ///
    /// Fails when a variable or signal type cannot be resolved.
    pub fn new(ast: &Program, elab: &Elab, data: &DataTable) -> Result<Rt, RtError> {
        let mut sink = DiagSink::new();
        let table = TypeTable::build(ast, &mut sink);
        if sink.has_errors() {
            return Err(RtError {
                msg: format!("type errors:\n{sink}"),
            });
        }
        let mut machine = Machine::new(table);
        for f in ast.functions() {
            machine.add_function(f);
        }
        // Allocate the flat frame.
        for v in &elab.vars {
            let mut sink = DiagSink::new();
            let Some(ty) = machine.table_mut().resolve(&v.ty, &mut sink) else {
                return Err(RtError {
                    msg: format!("cannot resolve type of variable `{}`", v.name),
                });
            };
            let zero = Value::zero(machine.table(), ty);
            machine.declare(&v.name, zero);
        }
        // Resolve signal value types.
        let mut values = Vec::new();
        let mut sig_types = Vec::new();
        let mut by_name = FxHashMap::default();
        for (i, s) in elab.signals.iter().enumerate() {
            by_name.insert(s.name.clone(), i);
            if s.pure {
                values.push(None);
                sig_types.push(None);
            } else {
                let ty = match &s.ty {
                    Some(t) => {
                        let mut sink = DiagSink::new();
                        machine
                            .table_mut()
                            .resolve(t, &mut sink)
                            .ok_or_else(|| RtError {
                                msg: format!("cannot resolve type of signal `{}`", s.name),
                            })?
                    }
                    None => {
                        return Err(RtError {
                            msg: format!("valued signal `{}` lacks a type", s.name),
                        })
                    }
                };
                values.push(Some(Value::zero(machine.table(), ty)));
                sig_types.push(Some(ty));
            }
        }
        // Lower every data hook to bytecode once, now that the frame
        // and signal layout are final.
        let layout = SigLayout {
            by_name: &by_name,
            sig_types: &sig_types,
        };
        let mut lw = Lowering::new(&mut machine, &layout);
        let progs = Arc::new(DataProgs {
            preds: data.preds.iter().map(|e| lw.pred(e)).collect(),
            actions: data.actions.iter().map(|a| lw.action(a)).collect(),
            emits: data
                .emit_exprs
                .iter()
                .map(|(e, sig)| lw.emit(e, sig.0 as usize, sig_types[sig.0 as usize]))
                .collect(),
            root_len: machine.root_len(),
        });
        Ok(Rt {
            machine,
            data: data.clone(),
            values,
            sig_types,
            by_name,
            error: None,
            progs,
            vm_regs: Vec::new(),
            backend: Backend::default(),
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

    /// Choose the data-hook backend: [`Backend::Compiled`] (the
    /// default) dispatches to the bytecode VM, [`Backend::Walker`]
    /// forces the tree-walker everywhere. Semantics are identical
    /// either way (differential-tested); the switch exists for
    /// measurement, bisection and differential gating.
    pub fn set_backend(&mut self, backend: Backend) {
        self.backend = backend;
    }

    /// The active data-hook backend.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// `(vm-compiled hooks, total hooks)` — how much of the design's
    /// data path runs on bytecode rather than the walker.
    pub fn vm_coverage(&self) -> (u32, u32) {
        let all = [&self.progs.preds, &self.progs.actions, &self.progs.emits];
        let total: usize = all.iter().map(|v| v.len()).sum();
        let vm: usize = all
            .iter()
            .flat_map(|v| v.iter())
            .filter(|c| c.is_vm())
            .count();
        (vm as u32, total as u32)
    }

    /// Are the compiled slot resolutions still valid? (The root frame
    /// is append-only; it grows only if a walker-executed top-level
    /// declaration added a binding.)
    fn progs_valid(&self) -> bool {
        self.backend == Backend::Compiled && self.progs.root_len == self.machine.root_len()
    }

    /// Take the first pending evaluation error, if any.
    pub fn take_error(&mut self) -> Option<ecl_types::EvalError> {
        self.error.take()
    }

    /// Current value of signal `idx` (None for pure signals).
    pub fn signal_value(&self, idx: usize) -> Option<&Value> {
        self.values.get(idx).and_then(|v| v.as_ref())
    }

    /// Current value of a signal by name.
    pub fn signal_value_by_name(&self, name: &str) -> Option<&Value> {
        self.by_name.get(name).and_then(|i| self.signal_value(*i))
    }

    /// Set an *input* signal's value for the coming instant (the
    /// testbench side of valued signals).
    ///
    /// # Errors
    ///
    /// Fails for unknown or pure signals, or on a type mismatch.
    pub fn set_input_value(&mut self, name: &str, v: Value) -> Result<(), RtError> {
        let Some(&i) = self.by_name.get(name) else {
            return Err(RtError {
                msg: format!("unknown signal `{name}`"),
            });
        };
        let Some(ty) = self.sig_types[i] else {
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
        let Some(&i) = self.by_name.get(name) else {
            return Err(RtError {
                msg: format!("unknown signal `{name}`"),
            });
        };
        self.set_input_i64_idx(i, v)
    }

    /// [`Rt::set_input_i64`] by signal index — the runner hot path.
    /// Rewrites the existing value buffer in place (no allocation once
    /// the signal has been set once).
    ///
    /// # Errors
    ///
    /// Unknown index or pure signal.
    pub fn set_input_i64_idx(&mut self, idx: usize, v: i64) -> Result<(), RtError> {
        // Fault site: a corrupted sensor/bus flips bits in the value
        // before the type system ever sees it (stream site — the
        // testbench drives this identically on every backend).
        let v = ecl_faults::corrupt_i64(idx, v).unwrap_or(v);
        let Some(ty) = self.sig_types.get(idx).copied().flatten() else {
            return Err(RtError {
                msg: format!("signal #{idx} is pure or unknown"),
            });
        };
        let table = self.machine.table();
        if let Some(val) = &mut self.values[idx] {
            let t = table.get(ty);
            if val.ty == ty && val.bytes.len() <= 8 && t.is_integer() {
                let le = v.to_le_bytes();
                let n = val.bytes.len();
                val.bytes[..n].copy_from_slice(&le[..n]);
                if t == ecl_types::Type::Bool {
                    val.bytes[0] = (v != 0) as u8;
                }
                return Ok(());
            }
        }
        self.values[idx] = Some(Value::from_i64(table, ty, v));
        Ok(())
    }

    /// [`Rt::set_input_value`] by signal index (cross-task value copy
    /// without a name lookup).
    ///
    /// # Errors
    ///
    /// Unknown index, pure signal, or a type mismatch.
    pub fn set_input_value_idx(&mut self, idx: usize, v: &Value) -> Result<(), RtError> {
        let Some(ty) = self.sig_types.get(idx).copied().flatten() else {
            return Err(RtError {
                msg: format!("signal #{idx} is pure or unknown"),
            });
        };
        let Some(conv) = v.clone().convert(self.machine.table(), ty) else {
            return Err(RtError {
                msg: format!("type mismatch for signal #{idx}"),
            });
        };
        self.values[idx] = Some(conv);
        Ok(())
    }
}

impl DataHooks for Rt {
    fn eval_pred(&mut self, pred: PredId) -> bool {
        if self.error.is_some() {
            return false;
        }
        self.pred_evals += 1;
        let i = pred.0 as usize;
        let vm_path = self.progs_valid() && self.progs.preds[i].is_vm();
        // One execution entry point: disjoint-field borrows split the
        // machine (mutable) from the value store and data table (the
        // shared `ValuesReader` view serves the walker and the VM's
        // fallback ops alike).
        let Rt {
            machine,
            values,
            by_name,
            data,
            progs,
            vm_regs,
            ..
        } = self;
        let out = if vm_path {
            let Compiled::Vm(prog) = &progs.preds[i] else {
                unreachable!("vm_path checked above")
            };
            vm::run(prog, machine, values, by_name, vm_regs).map(|v| v != 0)
        } else {
            ecl_telemetry::metrics::VM_WALKER_HOOKS.incr();
            machine
                .eval(&data.preds[i], &ValuesReader { values, by_name })
                .map(|v| v.is_truthy())
        };
        match out {
            Ok(v) => v,
            Err(e) => {
                self.error = Some(e);
                false
            }
        }
    }

    fn run_action(&mut self, action: ActionId) {
        if self.error.is_some() {
            return;
        }
        self.action_runs += 1;
        let i = action.0 as usize;
        let vm_path = self.progs_valid() && self.progs.actions[i].is_vm();
        let Rt {
            machine,
            values,
            by_name,
            data,
            progs,
            vm_regs,
            ..
        } = self;
        if vm_path {
            let Compiled::Vm(prog) = &progs.actions[i] else {
                unreachable!("vm_path checked above")
            };
            if let Err(e) = vm::run(prog, machine, values, by_name, vm_regs) {
                self.error = Some(e);
            }
        } else {
            ecl_telemetry::metrics::VM_WALKER_HOOKS.incr();
            let reader = ValuesReader { values, by_name };
            for s in &data.actions[i] {
                if let Err(e) = machine.exec(s, &reader) {
                    self.error = Some(e);
                    break;
                }
            }
        }
    }

    fn emit_value(&mut self, sig: Signal, expr: ExprId) {
        if self.error.is_some() {
            return;
        }
        let i = expr.0 as usize;
        let si = sig.0 as usize;
        let vm_path = self.progs_valid() && self.progs.emits[i].is_vm();
        let Rt {
            machine,
            values,
            by_name,
            data,
            sig_types,
            progs,
            vm_regs,
            ..
        } = self;
        let (e, target) = &data.emit_exprs[i];
        debug_assert_eq!(*target, sig, "emit expr bound to a different signal");
        if vm_path {
            // The compiled program stores the converted value into the
            // signal's buffer itself (in place).
            let Compiled::Vm(prog) = &progs.emits[i] else {
                unreachable!("vm_path checked above")
            };
            if let Err(e) = vm::run(prog, machine, values, by_name, vm_regs) {
                self.error = Some(e);
            }
            return;
        }
        ecl_telemetry::metrics::VM_WALKER_HOOKS.incr();
        let out = machine.eval(e, &ValuesReader { values, by_name });
        match out {
            Ok(v) => {
                if let Some(ty) = sig_types[si] {
                    match v.convert(machine.table(), ty) {
                        Some(cv) => values[si] = Some(cv),
                        None => {
                            self.error = Some(ecl_types::EvalError {
                                msg: format!(
                                    "emit_v value not convertible to signal type for signal {}",
                                    si
                                ),
                                span: e.span,
                            })
                        }
                    }
                }
            }
            Err(e) => self.error = Some(e),
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
