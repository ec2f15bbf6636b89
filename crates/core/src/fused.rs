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
//!   [`vm::Ext`] lives in a register of its own for the whole session:
//!   the first fast reaction loads every promoted slot from the frame,
//!   later ones find them in the registers, and no `End` writes them
//!   back. Its loads vanish (their readers read the register), and a
//!   store retargets the op that defined the value when nothing
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
//!   writes every promoted register back (they may hold stores of
//!   earlier reactions) and continues at the same block of the exact
//!   stream, before any op of the block ran: its temporaries hold what
//!   the exact stream's would (promotion only drops a temporary that is
//!   dead at the block's exit), so the exact stream finishes the
//!   reaction as if it had run from the entry.
//!
//! # Registers are session state
//!
//! The runtime ([`Rt`]) records whether the promoted registers are
//! live. While they are, they and not the frame hold the promoted
//! variables, so the frame is synced — every register written back and
//! the flag cleared — wherever something reads it: at a
//! deoptimization, before [`Fused::step_exact`], and through
//! [`Fused::sync_frame`], which a caller runs before the walker
//! reference steps the task or before it inspects the frame. The next
//! fast reaction reloads. The walker's [`efsm::DataHooks`] assert (in
//! debug builds) that no register is live. A clone or a restore of the
//! runtime carries the registers and the flag with the frame.
//!
//! So at every fault point the registers hold exactly the stores the
//! walker has made, and fuel, frames at every sync point, errors,
//! emissions and node counts never depend on which stream ran; only the
//! executed op counts do.
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
#[derive(Clone)]
pub struct Fused {
    /// The exact stream: every hook's bytecode as lowered.
    exact: Code,
    /// The fast stream every reaction runs.
    fast: Code,
    /// Fast pc → the exact pc it was derived from (a charge: its
    /// block's head) — read only when a reaction deoptimizes.
    to_exact: Vec<u32>,
    /// Per state, the outcome of its no-input reaction when the state
    /// is quiet (see [`Fused::quiet`]).
    quiet: Vec<Option<(StateId, u32)>>,
    /// Register-file size: the widest inlined hook, then one register
    /// per promoted slot.
    regs: u16,
    /// The promoted slots, in slot order, each with its register.
    promoted: Vec<Home>,
}

/// Shows the streams, the deoptimization map, the quiet table and the
/// register count. The promoted slots are left out: they are the slots
/// the exact stream only loads and stores whole with one `Ext`, in slot
/// order after the temporaries, so the exact stream shows them.
impl std::fmt::Debug for Fused {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fused")
            .field("exact", &self.exact)
            .field("fast", &self.fast)
            .field("to_exact", &self.to_exact)
            .field("quiet", &self.quiet)
            .field("regs", &self.regs)
            .finish()
    }
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
/// while the runtime's registers are live.
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
        // Room for every op and span: per layout op, itself, a jump,
        // and its hook's program and push.
        let hook = |op: &ResidualOp| match *op {
            ResidualOp::Pred { pred, .. } => Some(program(&progs.preds, pred.0)),
            ResidualOp::Action { action, .. } => Some(program(&progs.actions, action.0)),
            ResidualOp::Emit {
                value: Some(expr), ..
            } => Some(program(&progs.emits, expr.0)),
            _ => None,
        };
        let (ops, spans) = layout
            .iter()
            .filter_map(hook)
            .fold((0, 0), |(o, s), p| (o + p.ops.len() + 1, s + p.spans.len()));
        let mut f = Stream {
            ops: Vec::with_capacity(2 * layout.len() + ops),
            spans: Vec::with_capacity(spans),
            regs: 0,
        };
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
            regs: fast.regs,
            promoted: fast.promoted,
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
    /// short. The promoted variables stay in `rt`'s registers
    /// afterwards; [`Fused::sync_frame`] writes them to the frame.
    /// Allocation-free once the registers are live.
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
        if !rt.regs_live {
            self.load(rt);
        }
        self.run(&self.fast, state, inputs, rt, emitted)
    }

    /// The same reaction on the exact stream alone, which every
    /// observable of [`Fused::step`] equals — the reference its
    /// deoptimization continues on, run whole. Syncs the frame first;
    /// the registers are not live afterwards.
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
        self.sync_frame(rt);
        self.size_regs(rt);
        self.run(&self.exact, state, inputs, rt, emitted)
    }

    /// Make `rt`'s frame exact: when its promoted registers are live,
    /// write every one back to its slot and mark them not live, so the
    /// next fast reaction reloads them. Run it before anything else —
    /// the walker reference, a test — reads or writes the frame of a
    /// runtime [`Fused::step`] has stepped.
    pub fn sync_frame(&self, rt: &mut Rt) {
        if std::mem::take(&mut rt.regs_live) {
            write_back(&mut rt.machine, &rt.vm_regs, &self.promoted);
        }
    }

    /// Load every promoted slot from the frame into its register: the
    /// registers are live from now on.
    #[cold]
    fn load(&self, rt: &mut Rt) {
        self.size_regs(rt);
        for h in &self.promoted {
            let v = h.ext.read(&rt.machine.root_value(h.slot as usize).bytes, 0);
            rt.vm_regs[usize::from(h.reg)] = v;
        }
        rt.regs_live = true;
    }

    /// Grow `rt`'s register file to this program's.
    fn size_regs(&self, rt: &mut Rt) {
        if rt.vm_regs.len() < usize::from(self.regs) {
            rt.vm_regs.resize(usize::from(self.regs), 0);
        }
    }

    /// The dispatch loop over `code` from `state`'s entry, on a sized
    /// register file; a fast stream's reaction finds its promoted
    /// registers live.
    fn run<'a>(
        &'a self,
        mut code: &'a Code,
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
            regs_live,
            action_runs,
            pred_evals,
            ..
        } = rt;
        let regs = &mut vm_regs[..];
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
                                // Deoptimize: the frame takes every
                                // register (they may hold stores of
                                // earlier reactions), and the exact
                                // stream runs this block and the rest.
                                write_back(m, regs, &self.promoted);
                                *regs_live = false;
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
#[cold]
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

/// The slots whose every access in a stream is a whole-scalar load or
/// store of one `Ext`: the slots the fast stream keeps in registers,
/// found one op at a time. A slot read or written by offset, by index
/// or by an aggregate copy is not one.
#[derive(Default)]
struct Promotable {
    /// Per slot up to the highest one seen: unseen, `Some(Some(ext))`
    /// so far, or `Some(None)` out.
    seen: Vec<Option<Option<Ext>>>,
}

impl Promotable {
    fn see(&mut self, op: &Op) {
        let (slot, ext) = match *op {
            Op::LoadVar { slot, ext, .. } | Op::StoreVar { slot, ext, .. } => (slot, Some(ext)),
            Op::LoadVarOff { slot, .. }
            | Op::StoreVarOff { slot, .. }
            | Op::LoadVarIdx { slot, .. }
            | Op::StoreVarIdx { slot, .. }
            | Op::EmitCopy { slot, .. } => (slot, None),
            _ => return,
        };
        let s = slot as usize;
        if self.seen.len() <= s {
            self.seen.resize(s + 1, None);
        }
        self.seen[s] = match self.seen[s] {
            None => Some(ext),
            Some(prev) if prev == ext => Some(prev),
            Some(_) => Some(None),
        };
    }

    /// The promotable slots, ascending.
    fn slots(&self) -> impl Iterator<Item = (u32, Ext)> + '_ {
        (self.seen.iter().enumerate()).filter_map(|(s, a)| match a {
            Some(Some(ext)) => Some((s as u32, *ext)),
            _ => None,
        })
    }
}

/// The registers `op` reads, in operand order, and the one it writes,
/// as places.
type Regs<'a> = ([Option<&'a mut u16>; 2], Option<&'a mut u16>);

/// The registers `op` reads and writes.
fn regs(op: &mut Op) -> Regs<'_> {
    match op {
        Op::Const { dst, .. }
        | Op::LoadVar { dst, .. }
        | Op::LoadVarOff { dst, .. }
        | Op::LoadSig { dst, .. }
        | Op::LoadSigOff { dst, .. } => ([None, None], Some(dst)),
        Op::Conv { dst, src, .. } | Op::Un { dst, src, .. } => ([Some(src), None], Some(dst)),
        Op::LoadVarIdx { dst, idx, .. } | Op::LoadSigIdx { dst, idx, .. } => {
            ([Some(idx), None], Some(dst))
        }
        Op::Bin { dst, a, b, .. } => ([Some(a), Some(b)], Some(dst)),
        Op::BinImm { dst, a, .. } => ([Some(a), None], Some(dst)),
        Op::StoreVar { src, .. } | Op::StoreVarOff { src, .. } | Op::StoreSig { src, .. } => {
            ([Some(src), None], None)
        }
        Op::StoreVarIdx { src, idx, .. } => ([Some(src), Some(idx)], None),
        Op::JmpCmp { a, b, .. } => ([Some(a), Some(b)], None),
        Op::JmpCmpImm { a, .. } | Op::JmpIf { cond: a, .. } => ([Some(a), None], None),
        _ => ([None, None], None),
    }
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
    promoted: Vec<Home>,
    regs: u16,
}

/// The derivation of the fast stream from an exact one: two scans of
/// the stream analyse it, a liveness fixpoint over its blocks settles
/// what crosses a block's exit, one pass over the promoted loads and
/// stores decides each, and one scan emits the fast ops. Every pass
/// costs per op, per block edge or per promoted access.
///
/// The first scan finds the blocks and the promotable slots. The
/// second summarizes each op ([`Fx`]) and each block (burns, gen and
/// kill sets, its successors) and runs the store-retargeting and
/// load-forwarding analysis forward, with one table of stamps per
/// register and per home. What depends on the temporaries live at a
/// block's exit waits for the liveness fixpoint.
struct Derive<'a> {
    exact: &'a Code,
    /// Temporaries: the registers the exact stream uses.
    temps: u16,
    /// The promoted slots, in slot order (register `temps + k`).
    promoted: Vec<Home>,
    /// Block start pcs, ascending; the last block ends at the stream's
    /// end.
    starts: Vec<u32>,
    /// Pc → the block holding it.
    block_id: Vec<u32>,
    /// Per block: its burns' total.
    burns: Vec<u32>,
    /// Per exact op, what the derivation knows of it.
    fx: Vec<Fx>,
    /// The promoted loads and stores in pc order, each with the pc of
    /// the op its store could retarget ([`NO_POS`]: none).
    promos: Vec<(u32, u32)>,
    /// The ops that replace exact ops ([`Fx::edit`]).
    edits: Vec<Op>,
    /// Ops that can fault in the fast stream.
    faults: usize,
    /// Per block `b`, `succ[succ_at[b]..succ_at[b + 1]]` are the blocks
    /// its last op continues to when no data error is pending. Empty
    /// without promoted slots.
    succ: Vec<u32>,
    succ_at: Vec<u32>,
    /// Some block continues to itself or an earlier block (a loop in a
    /// hook body): without one, a fixpoint over the blocks in reverse
    /// order settles in one pass.
    loops: bool,
    /// Per block, word sets of temporaries (`words` each): gen, kill,
    /// live-in and live-out. Empty without promoted slots.
    sets: Vec<u64>,
    words: usize,
}

/// No register, home or position.
const NONE: u16 = u16::MAX;
const NO_POS: u32 = u32::MAX;

/// [`Fx::flags`]: the op can fault in the fast stream.
const FAULT: u8 = 1;
/// The op loads a promoted slot.
const LOAD: u8 = 2;
/// The op stores a promoted slot.
const STORE: u8 = 4;
/// A promoted store: its value is read before it is redefined.
const LIVE_AFTER: u8 = 8;
/// A promoted store: its value is neither read nor redefined in the
/// block, so it is live after the store if live at the block's exit.
const EXIT_LIVE: u8 = 16;
/// A promoted load: a later op of its block overwrites its temporary.
const REDEFINED: u8 = 32;
/// A promoted load: its home register is written between it and the
/// last read of its temporary.
const CLOBBERED: u8 = 64;
/// The op is dropped from the fast stream (a promoted load: its
/// readers read the home register).
const DROPPED: u8 = 128;

/// One exact op as the derivation sees it.
#[derive(Debug, Clone, Copy)]
struct Fx {
    /// The registers it reads, in [`regs`] order ([`NONE`]: none).
    reads: [u16; 2],
    /// The register it writes, or [`NONE`].
    write: u16,
    /// The promoted slot it loads or stores, by index in `promoted`,
    /// or [`NONE`].
    home: u16,
    flags: u8,
    /// Per register it reads: the pc of the promoted load whose value
    /// that is, or [`NO_POS`].
    from: [u32; 2],
    /// The op it is replaced by, in `edits`, or [`NO_POS`].
    edit: u32,
}

/// `pc + 1`, the stamp of the op at `pc`.
fn stamp(pc: usize) -> u32 {
    pc as u32 + 1
}

impl<'a> Derive<'a> {
    /// Analyse `exact`, whose hooks use registers `0..temps`.
    fn new(exact: &'a Code, temps: u16) -> Derive<'a> {
        let ops = &exact.ops;
        // Mark each block head 1 in `block_id`, then number the blocks
        // in place.
        let mut block_id = vec![0u32; ops.len()];
        let mut heads = 0;
        let mut mark = |pc: u32| {
            if let Some(h @ 0) = block_id.get_mut(pc as usize) {
                *h = 1;
                heads += 1;
            }
        };
        mark(0);
        for &e in &exact.entries {
            mark(e);
        }
        let mut promotable = Promotable::default();
        let mut accesses = 0;
        for (pc, op) in ops.iter().enumerate() {
            if ends_block(op) {
                mark(pc as u32 + 1);
                for t in normal_succ(op, pc as u32) {
                    mark(t);
                }
            } else {
                accesses += usize::from(matches!(op, Op::LoadVar { .. } | Op::StoreVar { .. }));
                promotable.see(op);
            }
        }
        let room = usize::from(u16::MAX - temps);
        let promoted: Vec<Home> = (promotable.slots().take(room).enumerate())
            .map(|(k, (slot, ext))| Home {
                slot,
                reg: temps + k as u16,
                ext,
            })
            .collect();
        // Slot → its index in `promoted`, up to the highest slot the
        // stream names.
        let mut home = vec![NONE; promotable.seen.len()];
        for (k, h) in promoted.iter().enumerate() {
            home[h.slot as usize] = k as u16;
        }
        let mut starts = Vec::with_capacity(heads);
        for (pc, id) in block_id.iter_mut().enumerate() {
            if *id == 1 {
                starts.push(pc as u32);
            }
            *id = starts.len() as u32 - 1;
        }
        let mut d = Derive {
            exact,
            temps,
            promoted,
            starts,
            block_id,
            burns: Vec::with_capacity(heads),
            fx: Vec::with_capacity(ops.len()),
            promos: Vec::with_capacity(accesses),
            edits: Vec::new(),
            faults: 0,
            succ: Vec::new(),
            succ_at: Vec::new(),
            loops: false,
            sets: Vec::new(),
            words: usize::from(temps).div_ceil(64).max(1),
        };
        d.summarize(&home);
        d
    }

    /// The second scan: fill `fx`, `burns` and `promos`, and with
    /// promoted slots `succ`, `succ_at` and the gen, kill and live-in
    /// sets. `home[slot]` is the index in `promoted` of a promoted
    /// slot.
    ///
    /// A promoted store can retarget the op that defined its value when
    /// nothing between them can fault, reads the value, loads or stores
    /// the slot, or reads a temporary holding the slot's loaded value,
    /// and the value has the slot's `Ext` (a constant is renormalized):
    /// that op is its candidate, taken unless the value is live after
    /// the store. A promoted load is forwarded — dropped, its readers
    /// reading the home register — unless the home is written before
    /// its last reader, or its temporary is live at the exit without
    /// being redefined.
    ///
    /// The stamp tables hold `pc + 1` of the op each entry names, so an
    /// entry an earlier block wrote is stale by comparison with the
    /// block's head and needs no reset. Per temporary: its last def,
    /// its last read, the promoted load whose value it holds, and the
    /// promoted store whose liveness it decides; per home: the last
    /// load or store of its slot, the last read of a temporary holding
    /// its loaded value, and the last store.
    fn summarize(&mut self, home: &[u16]) {
        let ops = &self.exact.ops;
        let nb = self.starts.len();
        let with_homes = !self.promoted.is_empty();
        // Without promoted slots there are no sets: every slice of them
        // below is empty.
        let w = if with_homes { self.words } else { 0 };
        let stride = 4 * w;
        let (mut sets, mut succ) = (Vec::new(), Vec::new());
        if with_homes {
            sets = vec![0; nb * stride];
            succ = Vec::with_capacity(2 * nb);
            self.succ_at = Vec::with_capacity(nb + 1);
        }
        let mut stamps = vec![[0u32; 4]; usize::from(self.temps) + self.promoted.len()];
        let (temp, touch) = stamps.split_at_mut(usize::from(self.temps));
        // Locals, so the loop keeps their lengths in registers.
        let mut all = std::mem::take(&mut self.fx);
        let mut promos = std::mem::take(&mut self.promos);
        let mut faulting = 0;
        const DEF: usize = 0;
        const READ: usize = 1;
        const OPEN: usize = 2;
        const PENDING: usize = 3;
        const TOUCH: usize = 0;
        const SEEN: usize = 1;
        const PUT: usize = 2;
        for b in 0..nb {
            let r = self.block(b);
            let start = r.start;
            // The pc a stamp names, if this block wrote it.
            let at = |v: u32| (v as usize > start).then(|| v as usize - 1);
            // Nothing the stamp names lies after pc `d`.
            let by = |v: u32, d: usize| at(v).is_none_or(|p| p <= d);
            if with_homes {
                let last = r.end - 1;
                self.succ_at.push(succ.len() as u32);
                let normal = normal_succ(&ops[last], last as u32)
                    .filter(|&t| (t as usize) < ops.len())
                    .map(|t| self.block_id[t as usize]);
                succ.extend(normal);
            }
            let (mut burns, mut fault) = (0, 0);
            let (g, rest) = sets
                .get_mut(b * stride..)
                .unwrap_or_default()
                .split_at_mut(w);
            let (kill, rest) = rest.split_at_mut(w);
            let live_in = rest.get_mut(..w).unwrap_or_default();
            for q in r {
                let op = &ops[q];
                let mut copy = *op;
                let (read, write) = regs(&mut copy);
                let mut fx = Fx {
                    reads: read.map(|r| r.map_or(NONE, |r| *r)),
                    write: write.map_or(NONE, |w| *w),
                    home: NONE,
                    flags: 0,
                    from: [NO_POS; 2],
                    edit: NO_POS,
                };
                if faults(op) {
                    fx.flags = FAULT;
                    faulting += 1;
                }
                match *op {
                    Op::Burn { n } => burns += n,
                    Op::LoadVar { slot, .. } | Op::StoreVar { slot, .. }
                        if home.get(slot as usize).is_some_and(|&k| k != NONE) =>
                    {
                        fx.home = home[slot as usize];
                        fx.flags |= if matches!(op, Op::LoadVar { .. }) {
                            LOAD
                        } else {
                            STORE | EXIT_LIVE
                        };
                    }
                    _ => {}
                }
                if !with_homes {
                    all.push(fx);
                    continue;
                }
                // Gen and kill.
                for x in fx.reads.into_iter().filter(|&x| x != NONE) {
                    if !has(kill, x) {
                        put(g, x);
                    }
                }
                if fx.write != NONE {
                    put(kill, fx.write);
                }
                // Reads of loaded values, and of stored ones.
                for (i, x) in fx.reads.into_iter().enumerate() {
                    if x == NONE {
                        continue;
                    }
                    let t = &mut temp[usize::from(x)];
                    if let Some(s) = at(t[PENDING]) {
                        let store = &mut all[s].flags;
                        *store = (*store | LIVE_AFTER) & !EXIT_LIVE;
                        t[PENDING] = 0;
                    }
                    let Some(p) = at(t[OPEN]) else { continue };
                    fx.from[i] = p as u32;
                    let k = usize::from(all[p].home);
                    let load = &mut all[p].flags;
                    if at(touch[k][PUT]).is_some_and(|w| w > p) {
                        *load |= CLOBBERED;
                    } else {
                        *load &= !CLOBBERED;
                    }
                }
                if fx.flags & STORE != 0 {
                    let k = usize::from(fx.home);
                    let Op::StoreVar { src, ext, .. } = *op else {
                        unreachable!("a promoted store is a StoreVar")
                    };
                    let [def, read, ..] = temp[usize::from(src)];
                    let candidate = at(def).filter(|&d| {
                        fits(&ops[d], all[d].flags, ext)
                            && by(fault, d)
                            && by(read, d)
                            && by(touch[k][TOUCH], d)
                            && by(touch[k][SEEN], d)
                    });
                    promos.push((q as u32, candidate.map_or(NO_POS, |d| d as u32)));
                    touch[k][PUT] = stamp(q);
                    temp[usize::from(src)][PENDING] = stamp(q);
                }
                for (i, x) in fx.reads.into_iter().enumerate() {
                    if x == NONE {
                        continue;
                    }
                    temp[usize::from(x)][READ] = stamp(q);
                    if fx.from[i] != NO_POS {
                        let k = usize::from(all[fx.from[i] as usize].home);
                        touch[k][SEEN] = stamp(q);
                    }
                }
                if fx.flags & FAULT != 0 {
                    fault = stamp(q);
                }
                if fx.home != NONE {
                    touch[usize::from(fx.home)][TOUCH] = stamp(q);
                }
                if fx.write != NONE {
                    let t = &mut temp[usize::from(fx.write)];
                    if let Some(p) = at(t[OPEN]) {
                        all[p].flags |= REDEFINED;
                    }
                    if let Some(s) = at(t[PENDING]) {
                        all[s].flags &= !EXIT_LIVE;
                    }
                    t[DEF] = stamp(q);
                    t[PENDING] = 0;
                    t[OPEN] = 0;
                    if fx.flags & LOAD != 0 {
                        t[OPEN] = stamp(q);
                        promos.push((q as u32, NO_POS));
                    }
                }
                all.push(fx);
            }
            // Live-in starts at gen.
            live_in.copy_from_slice(g);
            self.burns.push(burns);
        }
        self.fx = all;
        self.faults = faulting;
        self.sets = sets;
        self.succ = succ;
        self.edits = Vec::with_capacity(promos.len());
        self.promos = promos;
        if with_homes {
            self.succ_at.push(self.succ.len() as u32);
            self.loops = (0..nb).any(|b| self.succ(b).iter().any(|&s| s as usize <= b));
        }
    }

    /// The pc range of block `b`.
    fn block(&self, b: usize) -> std::ops::Range<usize> {
        let end = self
            .starts
            .get(b + 1)
            .map_or(self.exact.ops.len(), |&e| e as usize);
        self.starts[b] as usize..end
    }

    /// The blocks block `b` continues to when no data error is
    /// pending.
    fn succ(&self, b: usize) -> &[u32] {
        &self.succ[self.succ_at[b] as usize..self.succ_at[b + 1] as usize]
    }

    /// Solve the live-out sets: the temporaries live at each block's
    /// exit, over normal edges only — in error mode no hook body runs,
    /// so no temporary is read.
    fn live_out(&mut self) {
        let (nb, w) = (self.starts.len(), self.words);
        let stride = 4 * w;
        let mut changed = true;
        while std::mem::take(&mut changed) {
            for b in (0..nb).rev() {
                let at = b * stride;
                for i in 0..w {
                    let o = (self.succ(b).iter())
                        .fold(0, |o, &s| o | self.sets[s as usize * stride + 2 * w + i]);
                    self.sets[at + 3 * w + i] = o;
                    let v = self.sets[at + i] | (o & !self.sets[at + w + i]);
                    if v != self.sets[at + 2 * w + i] {
                        self.sets[at + 2 * w + i] = v;
                        changed = self.loops;
                    }
                }
            }
        }
    }

    /// Decide every promoted load and store, as edits and drops in
    /// `fx`, now that the temporaries live at each block's exit are
    /// known: a store retargets its candidate unless its value is live
    /// after it, else it is a move; a load is a move when its home is
    /// clobbered before its last reader or its temporary is live at the
    /// exit without being redefined, else it is dropped.
    fn decide(&mut self) {
        self.live_out();
        let (w, stride) = (self.words, 4 * self.words);
        for i in 0..self.promos.len() {
            let (pc, candidate) = self.promos[i];
            let pc = pc as usize;
            let fx = self.fx[pc];
            let exit = &self.sets[self.block_id[pc] as usize * stride + 3 * w..][..w];
            let h = self.promoted[usize::from(fx.home)];
            match self.exact.ops[pc] {
                Op::StoreVar { src, ext, .. } => {
                    let live =
                        fx.flags & LIVE_AFTER != 0 || (fx.flags & EXIT_LIVE != 0 && has(exit, src));
                    if candidate != NO_POS && !live {
                        let d = candidate as usize;
                        let mut op = self.exact.ops[d];
                        *regs(&mut op).1.expect("a def") = h.reg;
                        if let Op::Const { v, .. } = &mut op {
                            *v = ext.norm(*v);
                        }
                        self.edit(d, op);
                        self.fx[pc].flags |= DROPPED;
                    } else {
                        let op = Op::Conv {
                            dst: h.reg,
                            src,
                            ext,
                        };
                        self.edit(pc, op);
                    }
                }
                Op::LoadVar { dst, ext, .. } => {
                    let kept = fx.flags & REDEFINED == 0 && has(exit, dst);
                    if fx.flags & CLOBBERED != 0 || kept {
                        let op = Op::Conv {
                            dst,
                            src: h.reg,
                            ext,
                        };
                        self.edit(pc, op);
                    } else {
                        self.fx[pc].flags |= DROPPED;
                    }
                }
                _ => unreachable!("a promoted access is a LoadVar or a StoreVar"),
            }
        }
    }

    /// Replace the op at `pc` by `op` in the fast stream.
    fn edit(&mut self, pc: usize, op: Op) {
        self.fx[pc].edit = self.edits.len() as u32;
        self.edits.push(op);
    }

    fn run(mut self) -> Fast {
        if !self.promoted.is_empty() {
            self.decide();
        }
        let ops = &self.exact.ops;
        let mut code = Code {
            ops: Vec::with_capacity(ops.len() + self.starts.len()),
            spans: Vec::with_capacity(self.faults),
            refunds: Vec::with_capacity(self.faults),
            entries: Vec::new(),
        };
        // The exact spans, in pc order, as the ops reach them.
        let mut spans = self.exact.spans.iter().peekable();
        let mut to_exact = Vec::with_capacity(ops.len() + self.starts.len());
        // Exact pc → the fast pc its block or op starts at (a dropped
        // op: the next op kept).
        let mut fast_at = vec![0u32; ops.len()];
        for (b, &total) in self.burns.iter().enumerate() {
            let r = self.block(b);
            fast_at[r.start] = code.ops.len() as u32;
            if total > 0 {
                code.ops.push(Op::Charge { n: total });
                to_exact.push(r.start as u32);
            }
            let mut burned = 0;
            for pc in r.clone() {
                if pc > r.start {
                    fast_at[pc] = code.ops.len() as u32;
                }
                let fx = self.fx[pc];
                let mut op = match ops[pc] {
                    Op::Burn { n } => {
                        burned += n;
                        continue;
                    }
                    _ if fx.flags & DROPPED != 0 => continue,
                    _ if fx.edit != NO_POS => self.edits[fx.edit as usize],
                    op => op,
                };
                // Readers of a dropped load read its home register.
                for (r, p) in fx.reads.into_iter().zip(fx.from) {
                    if p != NO_POS && self.fx[p as usize].flags & DROPPED != 0 {
                        let reg = self.temps + self.fx[p as usize].home;
                        for x in regs(&mut op).0.into_iter().flatten() {
                            if *x == r {
                                *x = reg;
                            }
                        }
                    }
                }
                let at = code.ops.len() as u32;
                if fx.flags & FAULT != 0 {
                    let pc = pc as u32;
                    while spans.next_if(|s| s.0 < pc).is_some() {}
                    let span = spans.next_if(|s| s.0 == pc);
                    code.spans.push((at, span.map_or(Span::dummy(), |s| s.1)));
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
        Fast {
            code,
            to_exact,
            regs: self.temps + self.promoted.len() as u16,
            promoted: self.promoted,
        }
    }
}

/// Can `op` (with [`Fx::flags`] `flags`), the def of a value stored
/// with `ext`, write the home register instead: it yields a value of
/// that `Ext` (a constant is renormalized), and is not itself a
/// promoted load?
fn fits(op: &Op, flags: u8, ext: Ext) -> bool {
    match *op {
        Op::Const { .. } => true,
        Op::LoadVar { .. } if flags & LOAD != 0 => false,
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
        let mut p = Promotable::default();
        ops.iter().for_each(|op| p.see(op));
        assert_eq!(p.slots().collect::<Vec<_>>(), [(0, INT), (5, byte)]);
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

    /// A store whose value an earlier block defined is a register move:
    /// the def's block can run on paths that never reach the store.
    #[test]
    fn a_store_retargets_no_def_of_an_earlier_block() {
        let store = Op::StoreVar {
            slot: 0,
            src: 0,
            ext: INT,
        };
        let exact = Code {
            ops: vec![
                Op::Const { dst: 0, v: 7 },
                Op::Jmp { target: 2 },
                store,
                Op::End { target: 0 },
            ],
            entries: vec![0],
            ..Code::default()
        };
        let mov = Op::Conv {
            dst: 2,
            src: 0,
            ext: INT,
        };
        assert_eq!(
            Derive::new(&exact, 2).run().code.ops,
            [
                Op::Const { dst: 0, v: 7 },
                Op::Jmp { target: 2 },
                mov,
                Op::End { target: 0 }
            ]
        );
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
