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
//! # Two streams
//!
//! The translation is the *exact* stream: every hook's bytecode as
//! lowered, each variable access a frame load or store and each
//! coalesced walker step an [`Op::Burn`]. [`Fused::compile`] derives a
//! *fast* stream from it, and every reaction runs that one:
//!
//! * **Promoted slots.** A root variable whose every access in the
//!   stream is a whole-scalar [`Op::LoadVar`]/[`Op::StoreVar`] of one
//!   [`vm::Ext`] lives in a register of its own for the whole reaction,
//!   loaded from the frame before the state's entry op and written back
//!   at its `End`. Its loads vanish (their readers read the register),
//!   and a store retargets the op that defined the value when nothing
//!   fallible and no read of the slot lies between them and the value
//!   has the slot's `Ext`; otherwise the store is a register move.
//! * **One charge per block.** A straight-line block runs from a head
//!   (a state entry, a jump or presence-test target, or the op after a
//!   branch) to its branch; error-mode edges (a hook head's jump after
//!   a data error, a fault's exit from its hook) cut nothing. The
//!   block's burns become one [`Op::Charge`] at its head, taken only
//!   when no data error is pending. A data fault inside the block
//!   refunds every burn after the faulting op (a cold per-op table), so
//!   the fuel is the walker's.
//! * **Deoptimization.** When the fuel cannot cover a block, the loop
//!   writes the registers back and continues at the same block of the
//!   exact stream, before any op of the block ran: its temporaries hold
//!   what the exact stream's would (promotion only drops a temporary
//!   that is dead at the block's exit), so the exact stream finishes the
//!   reaction as if it had run from the entry.
//!
//! So at every fault point the registers hold exactly the stores the
//! walker has made, and fuel, frames, errors, emissions and node counts
//! never depend on which stream ran; only the executed op counts do.
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
use ecl_types::vm::{self, BinKind, Ext, Op, Program};
use ecl_types::{EvalError, Machine, Value};
use efsm::{BitSet, CompiledEfsm, Efsm, ResidualOp, Signal, StateId, StepOut};

/// Tags a jump target as a layout pc until every block is placed.
const LAYOUT: u32 = 1 << 31;

/// The fused compiled backend of one task: the control layout of its
/// EFSM as one op stream, with the data bytecode of the runtime it was
/// compiled against inlined — once exact, once fast (see the module
/// docs).
///
/// Holds no reference to the machine or the runtime; callers pass a
/// runtime of the same design (a clone of the one it was compiled
/// against) to [`Fused::step`].
#[derive(Debug, Clone)]
pub struct Fused {
    /// The exact stream: every hook's bytecode as lowered.
    exact: Code,
    /// The fast stream every reaction runs.
    fast: Code,
    /// Fast pc → the exact pc it was derived from (a charge: its
    /// block's head) — read only when a reaction deoptimizes.
    to_exact: Vec<u32>,
    /// The promoted slots each state's reaction can reach, grouped per
    /// state, the ones it can store last.
    homes: Vec<Home>,
    /// Per state, `[first, first stored, end]` into `homes`.
    state_homes: Vec<[u32; 3]>,
    /// Per state, the outcome of its no-input reaction when the state
    /// is quiet (see [`Fused::quiet`]).
    quiet: Vec<Option<(StateId, u32)>>,
    /// Register-file size: the widest inlined hook, then one register
    /// per promoted slot.
    regs: u16,
}

/// One op stream and the side tables only its error paths read.
#[derive(Debug, Clone, Default)]
struct Code {
    ops: Vec<Op>,
    /// Entry op pc of each state, by state id.
    entries: Vec<u32>,
    /// `(pc, span)` of every fallible op, in pc order.
    spans: Vec<(u32, Span)>,
    /// `(pc, fuel)` in pc order: what a fault of the op at `pc` gives
    /// back of its block's charge (the fast stream's only).
    refunds: Vec<(u32, u32)>,
}

/// A promoted slot: the root variable `slot`, held in register `reg`
/// while a fast reaction runs.
#[derive(Debug, Clone, Copy)]
struct Home {
    slot: u32,
    reg: u16,
    ext: Ext,
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
        let exact = Code {
            entries: (table.entries().iter())
                .map(|&rpc| at[rpc as usize])
                .collect(),
            ops: f.ops,
            spans: f.spans,
            refunds: Vec::new(),
        };
        let fast = Derive::new(&exact, f.regs).run();
        Some(Fused {
            quiet: (exact.entries.iter())
                .map(|&pc| quiet_outcome(&exact.ops, pc))
                .collect(),
            exact,
            fast: fast.code,
            to_exact: fast.to_exact,
            homes: fast.homes,
            state_homes: fast.state_homes,
            regs: fast.regs,
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
        self.exact.ops.iter().filter(|op| op.is_residual()).count() as u32
    }

    /// One instant of the task from `state`: the dispatch loop runs
    /// the fast stream from the state's entry op to its `End` against
    /// `rt`, branching on the presence of the local signals in
    /// `inputs`, and finishes on the exact stream if the fuel runs
    /// short. Allocation-free.
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
        let [lo, mid, hi] = self.state_homes[state.0 as usize].map(|i| i as usize);
        let homes = &self.homes[lo..hi];
        self.run(
            &self.fast,
            homes,
            &homes[mid - lo..],
            state,
            inputs,
            rt,
            emitted,
        )
    }

    /// The same reaction on the exact stream alone, which every
    /// observable of [`Fused::step`] equals — the reference its
    /// deoptimization continues on, run whole.
    ///
    /// # Panics
    ///
    /// As [`Fused::step`].
    pub fn step_exact(
        &self,
        state: StateId,
        inputs: &BitSet,
        rt: &mut Rt,
        emitted: &mut Vec<Signal>,
    ) -> StepOut {
        self.run(&self.exact, &[], &[], state, inputs, rt, emitted)
    }

    /// The dispatch loop over `code` from `state`'s entry, with `homes`
    /// loaded into their registers first and `back` written back at
    /// the `End`.
    #[allow(clippy::too_many_arguments)]
    fn run<'a>(
        &'a self,
        mut code: &'a Code,
        homes: &[Home],
        mut back: &'a [Home],
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
        for h in homes {
            regs[h.reg as usize] = h.ext.read(&m.root_value(h.slot as usize).bytes, 0);
        }
        let mut ops = &code.ops[..];
        let mut pc = code.entries[state.0 as usize] as usize;
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
                    Op::Charge { n } => {
                        let fuel = m.fuel();
                        if error.is_none() {
                            if fuel < u64::from(n) {
                                // Deoptimize: the frame takes the
                                // registers, and the exact stream runs
                                // this block and the rest.
                                write_back(m, regs, back);
                                back = &[];
                                code = &self.exact;
                                ops = &code.ops[..];
                                skip = self.to_exact[skip] as usize;
                                pc = self.to_exact[pc] as usize;
                                continue 'dispatch;
                            }
                            m.set_fuel(fuel - u64::from(n));
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
                        write_back(m, regs, back);
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
            *error = Some(fault.raise(code, pc as u32, m));
            pc = skip;
        }
    }
}

/// Store the promoted registers `homes` into their frame slots.
#[inline]
fn write_back(m: &mut Machine, regs: &[i64], homes: &[Home]) {
    for h in homes {
        let v = regs[h.reg as usize];
        h.ext
            .write(&mut m.root_value_mut(h.slot as usize).bytes, 0, v);
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

/// The slots whose every access in `ops` is a whole-scalar load or
/// store of one `Ext`, in slot order: the slots the fast stream keeps
/// in registers. A slot read or written by offset, by index or by an
/// aggregate copy is not one.
fn promotable(ops: &[Op]) -> Vec<(u32, Ext)> {
    // Per slot: unseen, `Some(Some(ext))` so far, or `Some(None)` out.
    let mut seen: Vec<Option<Option<Ext>>> = Vec::new();
    for op in ops {
        let (slot, ext) = match *op {
            Op::LoadVar { slot, ext, .. } | Op::StoreVar { slot, ext, .. } => (slot, Some(ext)),
            Op::LoadVarOff { slot, .. }
            | Op::StoreVarOff { slot, .. }
            | Op::LoadVarIdx { slot, .. }
            | Op::StoreVarIdx { slot, .. }
            | Op::EmitCopy { slot, .. } => (slot, None),
            _ => continue,
        };
        let s = slot as usize;
        if seen.len() <= s {
            seen.resize(s + 1, None);
        }
        seen[s] = match seen[s] {
            None => Some(ext),
            Some(prev) if prev == ext => Some(prev),
            Some(_) => Some(None),
        };
    }
    (seen.iter().enumerate())
        .filter_map(|(s, a)| match a {
            Some(Some(ext)) => Some((s as u32, *ext)),
            _ => None,
        })
        .collect()
}

/// The registers `op` reads.
fn reads(op: &Op) -> [Option<u16>; 2] {
    let mut out = [None; 2];
    let mut n = 0;
    map_reads(&mut { *op }, |r| {
        out[n] = Some(r);
        n += 1;
        r
    });
    out
}

/// Rewrite every register `op` reads through `f`.
fn map_reads(op: &mut Op, mut f: impl FnMut(u16) -> u16) {
    match op {
        Op::Conv { src, .. }
        | Op::StoreVar { src, .. }
        | Op::StoreVarOff { src, .. }
        | Op::StoreSig { src, .. }
        | Op::Un { src, .. } => *src = f(*src),
        Op::LoadVarIdx { idx, .. } | Op::LoadSigIdx { idx, .. } => *idx = f(*idx),
        Op::StoreVarIdx { src, idx, .. } => {
            *src = f(*src);
            *idx = f(*idx);
        }
        Op::Bin { a, b, .. } | Op::JmpCmp { a, b, .. } => {
            *a = f(*a);
            *b = f(*b);
        }
        Op::BinImm { a, .. } | Op::JmpCmpImm { a, .. } => *a = f(*a),
        Op::JmpIf { cond, .. } => *cond = f(*cond),
        _ => {}
    }
}

/// The register `op` writes.
fn def(op: &mut Op) -> Option<&mut u16> {
    match op {
        Op::Const { dst, .. }
        | Op::Conv { dst, .. }
        | Op::LoadVar { dst, .. }
        | Op::LoadVarOff { dst, .. }
        | Op::LoadVarIdx { dst, .. }
        | Op::LoadSig { dst, .. }
        | Op::LoadSigOff { dst, .. }
        | Op::LoadSigIdx { dst, .. }
        | Op::Bin { dst, .. }
        | Op::BinImm { dst, .. }
        | Op::Un { dst, .. } => Some(dst),
        _ => None,
    }
}

/// The register `op` writes, by value.
fn writes(op: &Op) -> Option<u16> {
    let mut op = *op;
    def(&mut op).copied()
}

/// Can `op` raise a data error in the fast stream? (Its burns moved to
/// the block's charge, which deoptimizes instead of failing.)
fn faults(op: &Op) -> bool {
    matches!(
        op,
        Op::LoadVarIdx { .. }
            | Op::StoreVarIdx { .. }
            | Op::LoadSigIdx { .. }
            | Op::Bin {
                op: BinKind::Div | BinKind::Rem,
                ..
            }
    )
}

/// Does `op` end a straight-line block?
fn ends_block(op: &Op) -> bool {
    matches!(
        op,
        Op::Jmp { .. }
            | Op::Goto { .. }
            | Op::JmpIf { .. }
            | Op::JmpCmp { .. }
            | Op::JmpCmpImm { .. }
            | Op::Test { .. }
            | Op::End { .. }
    )
}

/// Where `op` at `pc` can continue when no data error is pending.
fn normal_succ(op: &Op, pc: u32) -> impl Iterator<Item = u32> {
    let two = match *op {
        Op::Jmp { target } | Op::Goto { target } => [Some(target), None],
        Op::JmpIf { target, .. } | Op::JmpCmp { target, .. } | Op::JmpCmpImm { target, .. } => {
            [Some(target), Some(pc + 1)]
        }
        Op::Test { then_, else_, .. } => [Some(then_), Some(else_)],
        Op::End { .. } => [None, None],
        _ => [Some(pc + 1), None],
    };
    two.into_iter().flatten()
}

/// The fast stream and what running it needs.
struct Fast {
    code: Code,
    to_exact: Vec<u32>,
    homes: Vec<Home>,
    state_homes: Vec<[u32; 3]>,
    regs: u16,
}

/// The derivation of the fast stream from an exact one.
struct Derive<'a> {
    exact: &'a Code,
    /// Temporaries: the registers the exact stream uses.
    temps: u16,
    /// The promoted slots, in slot order (register `temps + k`).
    promoted: Vec<Home>,
    /// Slot → its home, for promoted slots.
    home: Vec<Option<Home>>,
    /// Block start pcs, ascending; the last block ends at the stream's
    /// end.
    starts: Vec<u32>,
    /// Pc → the block holding it.
    block_id: Vec<u32>,
    /// `u64` words per set of temporaries.
    words: usize,
}

/// Per-block buffers of [`Derive::block_ops`], reused across blocks.
#[derive(Default)]
struct Scratch {
    /// The block's fast ops, position for position (`None`: dropped).
    out: Vec<Option<Op>>,
    /// Temporaries holding a promoted slot's value, loaded in the block.
    alias: Vec<(u16, u32)>,
    /// Per position, the promoted slots its reads see through `alias`.
    seen: Vec<[Option<u32>; 2]>,
    /// Where each home register is written: `(position, slot)`.
    put: Vec<(usize, u32)>,
    uses: Vec<usize>,
}

impl<'a> Derive<'a> {
    fn new(exact: &'a Code, temps: u16) -> Derive<'a> {
        let ops = &exact.ops;
        let room = usize::from(u16::MAX - temps);
        let promoted: Vec<Home> = (promotable(ops).into_iter().take(room).enumerate())
            .map(|(k, (slot, ext))| Home {
                slot,
                reg: temps + k as u16,
                ext,
            })
            .collect();
        let mut home = vec![None; promoted.last().map_or(0, |h| h.slot as usize + 1)];
        for h in &promoted {
            home[h.slot as usize] = Some(*h);
        }
        let mut head = vec![false; ops.len() + 1];
        head[0] = true;
        for &e in &exact.entries {
            head[e as usize] = true;
        }
        for (pc, op) in ops.iter().enumerate() {
            if ends_block(op) {
                head[pc + 1] = true;
                for t in normal_succ(op, pc as u32) {
                    head[t as usize] = true;
                }
            }
        }
        let starts: Vec<u32> = (0..ops.len() as u32)
            .filter(|&pc| head[pc as usize])
            .collect();
        let mut block_id = Vec::with_capacity(ops.len());
        for (b, &h) in starts.iter().enumerate().skip(1) {
            block_id.resize(h as usize, b as u32 - 1);
        }
        block_id.resize(ops.len(), starts.len() as u32 - 1);
        Derive {
            exact,
            temps,
            promoted,
            home,
            starts,
            block_id,
            words: usize::from(temps).div_ceil(64).max(1),
        }
    }

    fn home(&self, slot: u32) -> Option<Home> {
        self.home.get(slot as usize).copied().flatten()
    }

    /// The pc range of block `b`.
    fn block(&self, b: usize) -> std::ops::Range<usize> {
        let end = self
            .starts
            .get(b + 1)
            .map_or(self.exact.ops.len(), |&e| e as usize);
        self.starts[b] as usize..end
    }

    /// The block holding `pc`.
    fn block_of(&self, pc: u32) -> usize {
        self.block_id[pc as usize] as usize
    }

    /// The blocks a block's last op continues to when no data error is
    /// pending.
    fn normal_succ(&self, b: usize) -> impl Iterator<Item = usize> + '_ {
        let last = self.block(b).end - 1;
        normal_succ(&self.exact.ops[last], last as u32)
            .filter(|&t| (t as usize) < self.exact.ops.len())
            .map(|t| self.block_of(t))
    }

    /// The temporaries live at each block's exit, `words` per block,
    /// over normal edges only: in error mode no hook body runs, so no
    /// temporary is read.
    fn live_out(&self) -> Vec<u64> {
        let (nb, w) = (self.starts.len(), self.words);
        let mut gen = vec![0u64; nb * w];
        let mut kill = vec![0u64; nb * w];
        for b in 0..nb {
            let (g, k) = (&mut gen[b * w..][..w], &mut kill[b * w..][..w]);
            for op in &self.exact.ops[self.block(b)] {
                for x in reads(op).into_iter().flatten() {
                    if !has(k, x) {
                        put(g, x);
                    }
                }
                if let Some(d) = writes(op) {
                    put(k, d);
                }
            }
        }
        let succ: Vec<[Option<usize>; 2]> = (0..nb)
            .map(|b| {
                let mut s = self.normal_succ(b);
                [s.next(), s.next()]
            })
            .collect();
        let mut live_in = gen.clone();
        let mut out = vec![0u64; nb * w];
        let mut changed = true;
        while changed {
            changed = false;
            for b in (0..nb).rev() {
                for i in 0..w {
                    let o = (succ[b].iter().flatten()).fold(0, |o, &s| o | live_in[s * w + i]);
                    out[b * w + i] = o;
                    let v = gen[b * w + i] | (o & !kill[b * w + i]);
                    if v != live_in[b * w + i] {
                        live_in[b * w + i] = v;
                        changed = true;
                    }
                }
            }
        }
        out
    }

    fn run(self) -> Fast {
        let ops = &self.exact.ops;
        let live_out = self.live_out();
        let mut code = Code {
            ops: Vec::with_capacity(ops.len() + self.starts.len()),
            spans: Vec::with_capacity(self.exact.spans.len()),
            ..Code::default()
        };
        let mut to_exact = Vec::with_capacity(ops.len() + self.starts.len());
        // Exact pc → the fast pc its block or op starts at (a dropped
        // op: the next op kept).
        let mut fast_at = vec![0u32; ops.len()];
        let mut sc = Scratch::default();
        for b in 0..self.starts.len() {
            let r = self.block(b);
            self.block_ops(
                &ops[r.clone()],
                &live_out[b * self.words..][..self.words],
                &mut sc,
            );
            let total: u32 = (ops[r.clone()].iter())
                .map(|op| match op {
                    Op::Burn { n } => *n,
                    _ => 0,
                })
                .sum();
            fast_at[r.start] = code.ops.len() as u32;
            if total > 0 {
                code.ops.push(Op::Charge { n: total });
                to_exact.push(r.start as u32);
            }
            let mut burned = 0;
            for (i, op) in sc.out.iter().enumerate() {
                let pc = r.start + i;
                if i > 0 {
                    fast_at[pc] = code.ops.len() as u32;
                }
                if let Op::Burn { n } = ops[pc] {
                    burned += n;
                }
                let Some(op) = *op else { continue };
                let at = code.ops.len() as u32;
                if faults(&op) {
                    code.spans
                        .push((at, vm::span_at(&self.exact.spans, pc as u32)));
                    if total > burned {
                        code.refunds.push((at, total - burned));
                    }
                }
                code.ops.push(op);
                to_exact.push(pc as u32);
            }
        }
        for op in &mut code.ops {
            op.map_targets(|t| fast_at[t as usize]);
        }
        code.entries = (self.exact.entries.iter())
            .map(|&e| fast_at[e as usize])
            .collect();
        let (homes, state_homes) = self.state_homes();
        Fast {
            code,
            to_exact,
            homes,
            state_homes,
            regs: self.temps + self.promoted.len() as u16,
        }
    }

    /// The fast form of one block's ops into `sc.out`: burns dropped,
    /// and promoted loads and stores turned into register traffic.
    /// `live` holds the temporaries live at the block's exit.
    fn block_ops(&self, block: &[Op], live: &[u64], sc: &mut Scratch) {
        sc.out.clear();
        sc.out.extend(block.iter().map(|op| match op {
            Op::Burn { .. } => None,
            op => Some(*op),
        }));
        let promoted = |op: &Op| match *op {
            Op::LoadVar { slot, .. } | Op::StoreVar { slot, .. } => self.home(slot).is_some(),
            _ => false,
        };
        if !block.iter().any(promoted) {
            return;
        }
        sc.alias.clear();
        sc.seen.clear();
        for op in block {
            let alias = &sc.alias;
            sc.seen.push(
                reads(op).map(|r| r.and_then(|r| alias.iter().find(|a| a.0 == r).map(|a| a.1))),
            );
            if let Some(d) = writes(op) {
                sc.alias.retain(|a| a.0 != d);
            }
            if let Op::LoadVar { dst, slot, .. } = *op {
                if self.home(slot).is_some() {
                    sc.alias.push((dst, slot));
                }
            }
        }
        // Is temporary `r` read after position `q` before it is
        // written again (or at the block's exit)?
        let live_after = |r: u16, q: usize| {
            for op in &block[q + 1..] {
                if reads(op).contains(&Some(r)) {
                    return true;
                }
                if writes(op) == Some(r) {
                    return false;
                }
            }
            has(live, r)
        };
        // Stores: retarget the defining op, or move.
        sc.put.clear();
        for (q, op) in block.iter().enumerate() {
            let Op::StoreVar { slot, src, ext } = *op else {
                continue;
            };
            let Some(h) = self.home(slot) else { continue };
            match self.retarget(block, &sc.seen, q, h, &live_after) {
                Some(d) => {
                    let mut op = block[d];
                    *def(&mut op).expect("a def") = h.reg;
                    if let Op::Const { v, .. } = &mut op {
                        *v = ext.norm(*v);
                    }
                    sc.out[d] = Some(op);
                    sc.out[q] = None;
                    sc.put.push((d, slot));
                }
                None => {
                    sc.out[q] = Some(Op::Conv {
                        dst: h.reg,
                        src,
                        ext,
                    });
                    sc.put.push((q, slot));
                }
            }
        }
        // Loads: readers read the home register while it still holds
        // the loaded value; otherwise a move.
        for (p, op) in block.iter().enumerate() {
            let Op::LoadVar { dst, slot, ext } = *op else {
                continue;
            };
            let Some(h) = self.home(slot) else { continue };
            sc.uses.clear();
            let mut redefined = false;
            for (u, later) in block.iter().enumerate().skip(p + 1) {
                if reads(later).contains(&Some(dst)) {
                    sc.uses.push(u);
                }
                if writes(later) == Some(dst) {
                    redefined = true;
                    break;
                }
            }
            let last = sc.uses.last().copied().unwrap_or(p);
            let clobbered = (sc.put.iter()).any(|&(w, s)| s == slot && p < w && w < last);
            if clobbered || (!redefined && has(live, dst)) {
                sc.out[p] = Some(Op::Conv {
                    dst,
                    src: h.reg,
                    ext,
                });
                continue;
            }
            sc.out[p] = None;
            for &u in &sc.uses {
                if let Some(op) = &mut sc.out[u] {
                    map_reads(op, |r| if r == dst { h.reg } else { r });
                }
            }
        }
    }

    /// The position of the op that defines the value the store at `q`
    /// writes to home `h`, when writing `h` there instead is exact:
    /// nothing between them can fault, reads the value or the slot, or
    /// stores the slot; the value has the slot's `Ext` (a constant is
    /// renormalized) and is dead after the store.
    fn retarget(
        &self,
        block: &[Op],
        seen: &[[Option<u32>; 2]],
        q: usize,
        h: Home,
        live_after: &impl Fn(u16, usize) -> bool,
    ) -> Option<usize> {
        let Op::StoreVar { src, ext, .. } = block[q] else {
            return None;
        };
        for d in (0..q).rev() {
            let op = &block[d];
            if writes(op) == Some(src) {
                let fits = match *op {
                    Op::Const { .. } => true,
                    Op::LoadVar { slot, .. } if self.home(slot).is_some() => false,
                    Op::Conv { ext: e, .. }
                    | Op::LoadVar { ext: e, .. }
                    | Op::LoadVarOff { ext: e, .. }
                    | Op::LoadVarIdx { ext: e, .. }
                    | Op::LoadSig { ext: e, .. }
                    | Op::LoadSigOff { ext: e, .. }
                    | Op::LoadSigIdx { ext: e, .. }
                    | Op::Bin { ext: e, .. }
                    | Op::BinImm { ext: e, .. }
                    | Op::Un { ext: e, .. } => e == ext,
                    _ => false,
                };
                return (fits && !live_after(src, q)).then_some(d);
            }
            let touches_slot = match *op {
                Op::LoadVar { slot, .. } | Op::StoreVar { slot, .. } => slot == h.slot,
                _ => false,
            };
            if faults(op)
                || touches_slot
                || reads(op).contains(&Some(src))
                || seen[d].contains(&Some(h.slot))
            {
                return None;
            }
        }
        None
    }

    /// The homes each state's reaction can reach, over every edge —
    /// error-mode ones included, each to its target's whole block: per
    /// state, the slots it only loads, then the ones it can store.
    fn state_homes(&self) -> (Vec<Home>, Vec<[u32; 3]>) {
        let ops = &self.exact.ops;
        let nb = self.starts.len();
        // Per block: successors over every edge, and the promoted
        // slots it touches (`true`: stores).
        let (mut succ, mut succ_at) = (Vec::new(), Vec::with_capacity(nb + 1));
        let (mut touch, mut touch_at) = (Vec::new(), Vec::with_capacity(nb + 1));
        for b in 0..nb {
            succ_at.push(succ.len());
            touch_at.push(touch.len());
            for op in &ops[self.block(b)] {
                match *op {
                    Op::LoadVar { slot, .. } | Op::StoreVar { slot, .. } => {
                        if let Some(h) = self.home(slot) {
                            let k = usize::from(h.reg - self.temps);
                            touch.push((k, matches!(op, Op::StoreVar { .. })));
                        }
                    }
                    Op::PredHead { else_: t, .. }
                    | Op::ActHead { next: t, .. }
                    | Op::EmitHead { push: t, .. } => succ.push(self.block_of(t)),
                    _ => {}
                }
            }
            succ.extend(self.normal_succ(b));
        }
        succ_at.push(succ.len());
        touch_at.push(touch.len());
        let mut homes = Vec::new();
        let mut ranges = Vec::with_capacity(self.exact.entries.len());
        // Stamps: visited blocks and touched homes, per state.
        let mut visited = vec![0u32; nb];
        let (mut loaded, mut stored) = (
            vec![0u32; self.promoted.len()],
            vec![0u32; self.promoted.len()],
        );
        let mut stack = Vec::new();
        for (i, &entry) in self.exact.entries.iter().enumerate() {
            let stamp = i as u32 + 1;
            stack.push(self.block_of(entry));
            while let Some(b) = stack.pop() {
                if std::mem::replace(&mut visited[b], stamp) == stamp {
                    continue;
                }
                for &(k, store) in &touch[touch_at[b]..touch_at[b + 1]] {
                    loaded[k] = stamp;
                    if store {
                        stored[k] = stamp;
                    }
                }
                stack.extend_from_slice(&succ[succ_at[b]..succ_at[b + 1]]);
            }
            let lo = homes.len() as u32;
            let only_loaded = |k: &usize| loaded[*k] == stamp && stored[*k] != stamp;
            homes.extend(
                (0..self.promoted.len())
                    .filter(only_loaded)
                    .map(|k| self.promoted[k]),
            );
            let mid = homes.len() as u32;
            homes.extend(
                (0..self.promoted.len())
                    .filter(|&k| stored[k] == stamp)
                    .map(|k| self.promoted[k]),
            );
            ranges.push([lo, mid, homes.len() as u32]);
        }
        (homes, ranges)
    }
}

/// Is register `r` in the word set `set`?
fn has(set: &[u64], r: u16) -> bool {
    set[usize::from(r) / 64] >> (r % 64) & 1 != 0
}

/// Add register `r` to the word set `set`.
fn put(set: &mut [u64], r: u16) {
    set[usize::from(r) / 64] |= 1 << (r % 64);
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
    /// The walker's error for this fault at op `pc` of `code`; gives
    /// back to `m` what the op's block charged for the ops after it.
    #[cold]
    fn raise(self, code: &Code, pc: u32, m: &mut Machine) -> EvalError {
        if let Ok(i) = code.refunds.binary_search_by_key(&pc, |r| r.0) {
            m.set_fuel(m.fuel() + u64::from(code.refunds[i].1));
        }
        let span = vm::span_at(&code.spans, pc);
        match self {
            Fault::Fuel => fuel_exhausted(span),
            Fault::Index(i, len) => vm::index_error(i, len, span),
            Fault::ZeroDivisor(op) => vm::zero_divisor_error(op, span),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const INT: Ext = Ext::INT;

    #[test]
    fn only_whole_scalar_slots_of_one_type_are_promoted() {
        let byte = Ext {
            bits: 8,
            unsigned: true,
            is_bool: false,
        };
        let ops = [
            Op::LoadVar {
                dst: 0,
                slot: 0,
                ext: INT,
            },
            Op::StoreVar {
                slot: 0,
                src: 0,
                ext: INT,
            },
            Op::LoadVar {
                dst: 0,
                slot: 1,
                ext: INT,
            },
            Op::LoadVarOff {
                dst: 0,
                slot: 1,
                off: 0,
                ext: INT,
            },
            Op::StoreVar {
                slot: 2,
                src: 0,
                ext: INT,
            },
            Op::EmitCopy { sig: 0, slot: 2 },
            Op::LoadVar {
                dst: 0,
                slot: 3,
                ext: INT,
            },
            Op::StoreVar {
                slot: 3,
                src: 0,
                ext: byte,
            },
            Op::StoreVarIdx {
                src: 0,
                idx: 0,
                slot: 4,
                base: 0,
                elem: 1,
                len: 1,
                ext: INT,
            },
            Op::LoadVar {
                dst: 0,
                slot: 4,
                ext: INT,
            },
            Op::LoadVar {
                dst: 0,
                slot: 5,
                ext: byte,
            },
        ];
        assert_eq!(promotable(&ops), [(0, INT), (5, byte)]);
    }

    /// The fast ops of a one-block stream over temporaries `0..2`
    /// that stores `v` into slot 0, with `between` between the
    /// constant's def and its store.
    fn store_after(between: &[Op]) -> Vec<Op> {
        let mut ops = vec![Op::Const { dst: 0, v: 7 }];
        ops.extend_from_slice(between);
        ops.push(Op::StoreVar {
            slot: 0,
            src: 0,
            ext: INT,
        });
        ops.push(Op::End { target: 0 });
        let exact = Code {
            ops,
            entries: vec![0],
            ..Code::default()
        };
        Derive::new(&exact, 2).run().code.ops
    }

    #[test]
    fn a_store_retargets_its_def_only_across_infallible_ops() {
        // Slot 0's home is register 2.
        let load = Op::LoadSig {
            dst: 1,
            sig: 0,
            ext: INT,
        };
        assert_eq!(
            store_after(&[load]),
            [Op::Const { dst: 2, v: 7 }, load, Op::End { target: 0 }]
        );
        let div = Op::Bin {
            op: BinKind::Div,
            dst: 1,
            a: 1,
            b: 1,
            ext: INT,
        };
        let mov = Op::Conv {
            dst: 2,
            src: 0,
            ext: INT,
        };
        assert_eq!(
            store_after(&[load, div]),
            [
                Op::Const { dst: 0, v: 7 },
                load,
                div,
                mov,
                Op::End { target: 0 }
            ]
        );
    }
}
