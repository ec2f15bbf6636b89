//! One dispatch loop per reaction: a task's fused compiled backend.
//!
//! [`efsm::CompiledEfsm`] lays each state's s-graph out as a linear
//! array of control ops, one per live node. [`Fused`] translates that
//! layout once, when the task's program is built, into one op stream
//! ([`ecl_types::vm::Op`]) with each hook's folded bytecode inlined
//! between the control ops, and [`Fused::step`] runs a reaction from
//! its state's entry op in a single dispatch loop: presence tests
//! branch on the instant's inputs, and there is no
//! [`efsm::DataHooks`] call and no per-hook register-file setup.
//!
//! The loop keeps everything the walker reference shows: emission
//! order, `nodes_visited` (one charge per control op, where the walk
//! visits its node), fuel, error messages and spans, and the
//! `pred_evals`/`action_runs` counters. After a data error the rest of
//! the reaction runs the way the walker's hooks do: later predicates
//! read false uncounted, later actions and valued emits are skipped,
//! presence tests, presence emissions and node charges continue.
//!
//! A task fuses whole or not at all: [`Fused::compile`] returns `None`
//! for a runtime with any data hook outside the bytecode subset, and
//! such a task runs on the walker reference. So the loop never enters
//! the tree walker. Only a walker-executed declaration outside any
//! block adds a root binding, and no hook of a fused runtime is one, so
//! the slots the bytecode resolved at lowering time hold for the whole
//! session.
//!
//! A state is *quiet* when its reaction to no input at all runs no data
//! hook and emits nothing: from its entry op, every presence test's
//! absent branch leads to its `End` through tests and jumps alone. Its
//! outcome — next state and nodes visited — is then fixed when the
//! program is compiled, and [`Fused::quiet`] returns it without running
//! the loop.

use crate::rt::Rt;
use ecl_syntax::source::Span;
use ecl_telemetry::metrics as tm;
use ecl_types::interp::fuel_exhausted;
use ecl_types::vm::{self, BinKind, Op, Program};
use ecl_types::{EvalError, Value};
use efsm::{BitSet, CompiledEfsm, Efsm, ResidualOp, Signal, StateId, StepOut};

/// Tags a jump target as a layout pc until every block is placed.
const LAYOUT: u32 = 1 << 31;

/// The fused compiled backend of one task: the control layout of its
/// EFSM as one op stream, with the data bytecode of the runtime it was
/// compiled against inlined.
///
/// Holds no reference to the machine or the runtime; callers pass a
/// runtime of the same design (a clone of the one it was compiled
/// against) to [`Fused::step`].
#[derive(Debug, Clone)]
pub struct Fused {
    ops: Vec<Op>,
    /// Entry op pc of each state, by state id.
    entries: Vec<u32>,
    /// Per state, the outcome of its no-input reaction when the state
    /// is quiet (see [`Fused::quiet`]).
    quiet: Vec<Option<(StateId, u32)>>,
    /// `(pc, span)` of every fallible op, in pc order — read only on
    /// the error path.
    spans: Vec<(u32, Span)>,
    /// Register-file size: the widest inlined hook.
    regs: u16,
}

impl Fused {
    /// Lay out the states of `m` and translate the layout, with `rt`'s
    /// hook bytecode inlined; `None` unless every data hook of `rt` —
    /// whether `m` references it or not — has a program.
    pub fn compile(m: &Efsm, rt: &Rt) -> Option<Fused> {
        let (compiled, total) = rt.vm_coverage();
        if compiled < total {
            return None;
        }
        let table = CompiledEfsm::compile(m);
        let progs = &rt.fixed.progs;
        let layout = table.ops();
        // Layout pc → op pc.
        let mut at = vec![0; layout.len()];
        let mut f = Stream::default();
        let res = |pc: u32| LAYOUT | pc;
        // Blocks are placed in descending layout pc: a successor
        // usually sits one pc below and so falls through.
        for rpc in (0..layout.len()).rev() {
            at[rpc] = f.ops.len() as u32;
            match layout[rpc] {
                ResidualOp::Test { sig, then_, else_ } => f.ops.push(Op::Test {
                    sig: sig.0,
                    then_: res(then_),
                    else_: res(else_),
                }),
                ResidualOp::Pred { pred, then_, else_ } => {
                    f.ops.push(Op::PredHead {
                        pred: pred.0,
                        else_: res(else_),
                    });
                    f.inline(program(&progs.preds, pred.0), [res(else_), res(then_)]);
                    f.goto(else_, rpc);
                }
                ResidualOp::Action { action, next } => {
                    f.ops.push(Op::ActHead {
                        action: action.0,
                        next: res(next),
                    });
                    f.inline(program(&progs.actions, action.0), [res(next); 2]);
                    f.goto(next, rpc);
                }
                ResidualOp::Emit {
                    sig,
                    value: None,
                    next,
                } => {
                    f.ops.push(Op::Emit { sig: sig.0 });
                    f.goto(next, rpc);
                }
                ResidualOp::Emit {
                    sig,
                    value: Some(expr),
                    next,
                } => {
                    let p = program(&progs.emits, expr.0);
                    let push = (f.ops.len() + 1 + p.ops.len()) as u32;
                    f.ops.push(Op::EmitHead { expr: expr.0, push });
                    f.inline(p, [push; 2]);
                    f.ops.push(Op::Push { sig: sig.0 });
                    f.goto(next, rpc);
                }
                ResidualOp::End { target } => f.ops.push(Op::End { target: target.0 }),
            }
        }
        for op in &mut f.ops {
            op.map_targets(|t| match t & LAYOUT {
                0 => t,
                _ => at[(t & !LAYOUT) as usize],
            });
        }
        let entries: Vec<u32> = table
            .entries()
            .iter()
            .map(|&rpc| at[rpc as usize])
            .collect();
        Some(Fused {
            quiet: entries
                .iter()
                .map(|&pc| quiet_outcome(&f.ops, pc))
                .collect(),
            ops: f.ops,
            entries,
            spans: f.spans,
            regs: f.regs,
        })
    }

    /// The outcome of `state`'s reaction to no input — `(next state,
    /// nodes visited)`, what [`Fused::step`] returns for an empty input
    /// set — when that reaction runs no data hook and emits nothing;
    /// `None` otherwise. Such a step burns no fuel and touches no
    /// runtime state, so a caller may take this outcome instead of
    /// running it.
    ///
    /// # Panics
    ///
    /// Panics if `state` is not a state of the machine this was
    /// compiled from.
    #[inline]
    pub fn quiet(&self, state: StateId) -> Option<(StateId, u32)> {
        self.quiet[state.0 as usize]
    }

    /// Control ops in the stream: one per live s-graph node.
    pub fn control_ops(&self) -> u32 {
        self.ops.iter().filter(|op| op.is_residual()).count() as u32
    }

    /// One instant of the task from `state`: the dispatch loop runs
    /// from the state's entry op to its `End` against `rt`, branching
    /// on the presence of the local signals in `inputs`.
    /// Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `state` is not a state of the machine this was
    /// compiled from.
    pub fn step(
        &self,
        state: StateId,
        inputs: &BitSet,
        rt: &mut Rt,
        emitted: &mut Vec<Signal>,
    ) -> StepOut {
        let tel = ecl_telemetry::enabled();
        let Rt {
            machine: m,
            values,
            error,
            vm_regs,
            action_runs,
            pred_evals,
            ..
        } = rt;
        if vm_regs.len() < usize::from(self.regs) {
            vm_regs.resize(usize::from(self.regs), 0);
        }
        let regs = &mut vm_regs[..];
        let ops = &self.ops[..];
        let mut pc = self.entries[state.0 as usize] as usize;
        let mut nodes = 0u32;
        let mut fused_ops = 0u64;
        // Where the running hook continues after a data error.
        let mut skip = 0usize;
        'dispatch: loop {
            let op = &ops[pc];
            if tel {
                match op.telemetry_index() {
                    Some(i) => tm::VM_OPS[i].raw_add(1),
                    None => fused_ops += u64::from(op.is_residual()),
                }
            }
            let fault = 'op: {
                match *op {
                    Op::Burn { n } => {
                        if !m.burn_n(u64::from(n)) {
                            break 'op Fault::Fuel;
                        }
                    }
                    Op::Const { dst, v } => regs[dst as usize] = v,
                    Op::Conv { dst, src, ext } => regs[dst as usize] = ext.norm(regs[src as usize]),
                    Op::LoadVar { dst, slot, ext } => {
                        regs[dst as usize] = ext.read(&m.root_value(slot as usize).bytes, 0);
                    }
                    Op::StoreVar { slot, src, ext } => {
                        let v = regs[src as usize];
                        ext.write(&mut m.root_value_mut(slot as usize).bytes, 0, v);
                    }
                    Op::LoadVarOff {
                        dst,
                        slot,
                        off,
                        ext,
                    } => {
                        let bytes = &m.root_value(slot as usize).bytes;
                        regs[dst as usize] = ext.read(bytes, off as usize);
                    }
                    Op::StoreVarOff {
                        slot,
                        off,
                        src,
                        ext,
                    } => {
                        let v = regs[src as usize];
                        ext.write(&mut m.root_value_mut(slot as usize).bytes, off as usize, v);
                    }
                    Op::LoadVarIdx {
                        dst,
                        idx,
                        slot,
                        base,
                        elem,
                        len,
                        ext,
                    } => {
                        let i = regs[idx as usize];
                        if i < 0 || i >= i64::from(len) {
                            break 'op Fault::Index(i, len);
                        }
                        let o = base as usize + i as usize * elem as usize;
                        regs[dst as usize] = ext.read(&m.root_value(slot as usize).bytes, o);
                    }
                    Op::StoreVarIdx {
                        src,
                        idx,
                        slot,
                        base,
                        elem,
                        len,
                        ext,
                    } => {
                        let i = regs[idx as usize];
                        if i < 0 || i >= i64::from(len) {
                            break 'op Fault::Index(i, len);
                        }
                        let o = base as usize + i as usize * elem as usize;
                        let v = regs[src as usize];
                        ext.write(&mut m.root_value_mut(slot as usize).bytes, o, v);
                    }
                    Op::LoadSig { dst, sig, ext } => {
                        regs[dst as usize] = ext.read(&value(values, sig).bytes, 0);
                    }
                    Op::LoadSigOff { dst, sig, off, ext } => {
                        regs[dst as usize] = ext.read(&value(values, sig).bytes, off as usize);
                    }
                    Op::LoadSigIdx {
                        dst,
                        idx,
                        sig,
                        base,
                        elem,
                        len,
                        ext,
                    } => {
                        let i = regs[idx as usize];
                        if i < 0 || i >= i64::from(len) {
                            break 'op Fault::Index(i, len);
                        }
                        let o = base as usize + i as usize * elem as usize;
                        regs[dst as usize] = ext.read(&value(values, sig).bytes, o);
                    }
                    Op::StoreSig { sig, src, ext } => {
                        let v = regs[src as usize];
                        let val = values[sig as usize].as_mut().expect("valued signal");
                        ext.write(&mut val.bytes, 0, v);
                    }
                    Op::EmitCopy { sig, slot } => {
                        let src = m.root_value(slot as usize);
                        let dst = values[sig as usize].as_mut().expect("valued signal");
                        dst.bytes.copy_from_slice(&src.bytes);
                    }
                    Op::Bin { op, dst, a, b, ext } => {
                        match op.apply(regs[a as usize], regs[b as usize]) {
                            Some(v) => regs[dst as usize] = ext.norm(v),
                            None => break 'op Fault::ZeroDivisor(op),
                        }
                    }
                    Op::BinImm {
                        op,
                        dst,
                        a,
                        imm,
                        ext,
                    } => {
                        let v = op.apply(regs[a as usize], imm).unwrap_or_default();
                        regs[dst as usize] = ext.norm(v);
                    }
                    Op::Un { op, dst, src, ext } => {
                        regs[dst as usize] = ext.norm(op.apply(regs[src as usize]));
                    }
                    Op::Jmp { target } | Op::Goto { target } => {
                        pc = target as usize;
                        continue 'dispatch;
                    }
                    Op::JmpIf {
                        cond,
                        target,
                        when_true,
                    } => {
                        if (regs[cond as usize] != 0) == when_true {
                            pc = target as usize;
                            continue 'dispatch;
                        }
                    }
                    Op::JmpCmp { op, a, b, target } => {
                        if op.holds(regs[a as usize], regs[b as usize]) {
                            pc = target as usize;
                            continue 'dispatch;
                        }
                    }
                    Op::JmpCmpImm { op, a, target, imm } => {
                        if op.holds(regs[a as usize], imm) {
                            pc = target as usize;
                            continue 'dispatch;
                        }
                    }
                    Op::PredHead { else_, .. } => {
                        nodes += 1;
                        if error.is_some() {
                            pc = else_ as usize;
                            continue 'dispatch;
                        }
                        *pred_evals += 1;
                        skip = else_ as usize;
                        if tel {
                            tm::VM_HOOK_RUNS.raw_add(1);
                        }
                    }
                    Op::ActHead { next, .. } => {
                        nodes += 1;
                        if error.is_some() {
                            pc = next as usize;
                            continue 'dispatch;
                        }
                        *action_runs += 1;
                        skip = next as usize;
                        if tel {
                            tm::VM_HOOK_RUNS.raw_add(1);
                        }
                    }
                    Op::EmitHead { push, .. } => {
                        nodes += 1;
                        skip = push as usize;
                        if error.is_some() {
                            pc = skip;
                            continue 'dispatch;
                        }
                        if tel {
                            tm::VM_HOOK_RUNS.raw_add(1);
                        }
                    }
                    Op::Push { sig } => emitted.push(Signal(sig)),
                    Op::Emit { sig } => {
                        nodes += 1;
                        emitted.push(Signal(sig));
                    }
                    Op::Test { sig, then_, else_ } => {
                        nodes += 1;
                        pc = if inputs.contains(sig as usize) {
                            then_
                        } else {
                            else_
                        } as usize;
                        continue 'dispatch;
                    }
                    Op::End { target } => {
                        nodes += 1;
                        if tel {
                            tm::TABLE_STEPS.raw_add(1);
                            tm::TABLE_FUSED_OPS.raw_add(fused_ops);
                        }
                        return StepOut {
                            next: StateId(target),
                            nodes_visited: nodes,
                        };
                    }
                }
                pc += 1;
                continue 'dispatch;
            };
            // Error mode: record the first error and leave the hook.
            *error = Some(fault.into_error(&self.spans, pc as u32));
            pc = skip;
        }
    }
}

/// The program of hook `id`; [`Fused::compile`] checked that every
/// hook has one.
fn program(hooks: &[Option<Program>], id: u32) -> &Program {
    hooks[id as usize]
        .as_ref()
        .expect("every hook has a program")
}

/// The op stream under construction.
#[derive(Default)]
struct Stream {
    ops: Vec<Op>,
    spans: Vec<(u32, Span)>,
    regs: u16,
}

impl Stream {
    /// Continue at layout block `next` from the block of `rpc`: a
    /// jump, unless `next` is placed right after it.
    fn goto(&mut self, next: u32, rpc: usize) {
        if next as usize + 1 != rpc {
            self.ops.push(Op::Goto {
                target: LAYOUT | next,
            });
        }
    }

    /// Append hook program `p`, relocated, with its exits (`len`,
    /// `len + 1`; see [`Program`]) sent to `exits`.
    fn inline(&mut self, p: &Program, exits: [u32; 2]) {
        let base = self.ops.len() as u32;
        let len = p.ops.len() as u32;
        self.spans
            .extend(p.spans.iter().map(|&(pc, span)| (base + pc, span)));
        self.ops.extend(p.ops.iter().map(|&op| {
            let mut op = op;
            op.map_targets(|t| match t.checked_sub(len) {
                None => base + t,
                Some(exit) => exits[exit as usize],
            });
            op
        }));
        self.regs = self.regs.max(p.regs);
    }
}

/// The no-input path from entry op `pc`, if it reaches its `End`
/// through presence tests (absent branch) and jumps alone: the `End`'s
/// target and the nodes [`Fused::step`] charges on the way, one per
/// test and one for the `End`. Any other op — a hook head, an emission
/// or a data op — makes the state not quiet.
fn quiet_outcome(ops: &[Op], mut pc: u32) -> Option<(StateId, u32)> {
    let mut nodes = 0u32;
    loop {
        match ops[pc as usize] {
            Op::Test { else_, .. } => {
                nodes += 1;
                pc = else_;
            }
            Op::Goto { target } => pc = target,
            Op::End { target } => return Some((StateId(target), nodes + 1)),
            _ => return None,
        }
    }
}

/// The current value of valued signal `sig`.
#[inline]
fn value(values: &[Option<Value>], sig: u32) -> &Value {
    values[sig as usize].as_ref().expect("valued signal")
}

/// A data error raised inside the loop, before its span is looked up.
enum Fault {
    Fuel,
    Index(i64, u32),
    ZeroDivisor(BinKind),
}

impl Fault {
    /// The walker's error for this fault at op `pc`.
    #[cold]
    fn into_error(self, spans: &[(u32, Span)], pc: u32) -> EvalError {
        let span = vm::span_at(spans, pc);
        match self {
            Fault::Fuel => fuel_exhausted(span),
            Fault::Index(i, len) => vm::index_error(i, len, span),
            Fault::ZeroDivisor(op) => vm::zero_divisor_error(op, span),
        }
    }
}
