//! MIPS-R3000-flavoured cost model.
//!
//! The paper reports code/data memory in bytes and execution time in
//! clock cycles on a MIPS R3000. We do not have that toolchain, so this
//! module models it the way POLIS estimated software cost: charge a
//! fixed number of 4-byte instructions per s-graph node kind and per C
//! AST operator. The absolute constants are calibrated to R3000-era
//! code generation (fixed 32-bit instructions, loads ~2 cycles, ALU 1);
//! what the reproduction relies on is that the model is *monotone and
//! structural*, so comparisons between implementations (the whole point
//! of Table 1) are meaningful.

use ecl_core::Design;
use ecl_syntax::ast::{Expr, ExprKind, Stmt, StmtKind};
use efsm::sgraph::Node;
use efsm::Efsm;

/// Tunable constants of the model (defaults calibrated to the R3000).
#[derive(Debug, Clone, Copy)]
pub struct CostParams {
    /// Bytes per machine instruction (MIPS: fixed 4).
    pub bytes_per_insn: u32,
    /// Instructions per presence test (load flag + branch + delay slot).
    pub insns_test: u32,
    /// Extra instructions per predicate test beyond the expression.
    pub insns_pred_overhead: u32,
    /// Instructions per pure emission (set flag).
    pub insns_emit: u32,
    /// Instructions per valued emission (flag + value copy setup).
    pub insns_emit_valued: u32,
    /// Instructions per Goto leaf (store state + jump).
    pub insns_goto: u32,
    /// Instructions per state dispatch entry (jump table slot).
    pub insns_state_dispatch: u32,
    /// Fixed instructions per task (prologue, scheduler entry).
    pub insns_task_base: u32,
    /// Instructions per I/O port of a task (event detect/emit stubs —
    /// POLIS emits these per CFSM port; a monolithic compilation
    /// internalizes the wires and avoids them).
    pub insns_per_port: u32,
    /// RTOS kernel base code bytes.
    pub rtos_code_base: u32,
    /// RTOS code bytes per task (task stubs, config tables).
    pub rtos_code_per_task: u32,
    /// RTOS data base bytes (kernel structures).
    pub rtos_data_base: u32,
    /// RTOS data bytes per task (TCB + stack).
    pub rtos_data_per_task: u32,
    /// RTOS data bytes per inter-task signal (1-place mailbox header).
    pub rtos_data_per_mailbox: u32,
    // ---- cycle charges (simulation-time) ----
    /// Cycles per presence-test node.
    pub cyc_test: u64,
    /// Cycles per Goto node.
    pub cyc_goto: u64,
    /// Cycles per pure emission.
    pub cyc_emit: u64,
    /// Cycles per interpreter micro-operation (expression/statement
    /// node) inside actions and predicates.
    pub cyc_per_op: u64,
    /// Cycles per byte moved for valued emissions.
    pub cyc_per_value_byte: u64,
    /// Cycles per reaction invocation (call + I/O marshalling).
    pub cyc_reaction_base: u64,
    /// RTOS: cycles per scheduler dispatch.
    pub cyc_rtos_dispatch: u64,
    /// RTOS: cycles per inter-task event delivery.
    pub cyc_rtos_send: u64,
    /// RTOS: cycles per external input buffering.
    pub cyc_rtos_input: u64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            bytes_per_insn: 4,
            insns_test: 3,
            insns_pred_overhead: 2,
            insns_emit: 3,
            insns_emit_valued: 6,
            insns_goto: 2,
            insns_state_dispatch: 2,
            insns_task_base: 30,
            insns_per_port: 10,
            rtos_code_base: 5440,
            rtos_code_per_task: 144,
            rtos_data_base: 1384,
            rtos_data_per_task: 120,
            rtos_data_per_mailbox: 16,
            cyc_test: 3,
            cyc_goto: 2,
            cyc_emit: 4,
            cyc_per_op: 2,
            cyc_per_value_byte: 1,
            cyc_reaction_base: 12,
            cyc_rtos_dispatch: 60,
            cyc_rtos_send: 45,
            cyc_rtos_input: 25,
        }
    }
}

/// Estimated memory footprint of one task (paper Table 1 "Task(s)").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TaskCost {
    /// Code bytes of the reaction function + extracted data functions.
    pub code_bytes: u32,
    /// Data bytes: frame + signal value buffers + state variable.
    pub data_bytes: u32,
}

impl std::ops::Add for TaskCost {
    type Output = TaskCost;
    fn add(self, o: TaskCost) -> TaskCost {
        TaskCost {
            code_bytes: self.code_bytes + o.code_bytes,
            data_bytes: self.data_bytes + o.data_bytes,
        }
    }
}

/// Estimated RTOS footprint (paper Table 1 "RTOS" columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RtosCost {
    /// Kernel + per-task stub code bytes.
    pub code_bytes: u32,
    /// Kernel structures, TCBs, stacks, mailboxes.
    pub data_bytes: u32,
}

/// Instruction estimate for a C expression (AST walk).
pub fn expr_insns(e: &Expr) -> u32 {
    match &e.kind {
        ExprKind::IntLit(_) | ExprKind::FloatLit(_) | ExprKind::CharLit(_) => 1,
        ExprKind::StrLit(_) => 2,
        ExprKind::Ident(_) => 2, // address + load (lw)
        ExprKind::Unary(_, x) => 1 + expr_insns(x),
        ExprKind::Binary(_, a, b) => 1 + expr_insns(a) + expr_insns(b),
        ExprKind::Assign(_, a, b) => 2 + expr_insns(a) + expr_insns(b), // store
        ExprKind::PreIncDec(_, x) | ExprKind::PostIncDec(_, x) => 3 + expr_insns(x),
        ExprKind::Ternary(c, t, f) => 2 + expr_insns(c) + expr_insns(t) + expr_insns(f),
        ExprKind::Call(_, args) => {
            4 + args.iter().map(expr_insns).sum::<u32>() // jal + arg moves
        }
        ExprKind::Index(a, i) => 3 + expr_insns(a) + expr_insns(i), // scale+add+load
        ExprKind::Member(a, _) => 1 + expr_insns(a),
        ExprKind::Arrow(a, _) => 2 + expr_insns(a),
        ExprKind::Cast(_, x) => 1 + expr_insns(x),
        ExprKind::SizeofExpr(_) | ExprKind::SizeofType(_) => 1,
        ExprKind::Comma(a, b) => expr_insns(a) + expr_insns(b),
    }
}

/// Instruction estimate for a C statement.
pub fn stmt_insns(s: &Stmt) -> u32 {
    match &s.kind {
        StmtKind::Expr(None) => 0,
        StmtKind::Expr(Some(e)) => expr_insns(e),
        StmtKind::Decl(d) => d
            .decls
            .iter()
            .map(|dec| dec.init.as_ref().map(expr_insns).unwrap_or(0) + 1)
            .sum(),
        StmtKind::Block(b) => b.stmts.iter().map(stmt_insns).sum(),
        StmtKind::If { cond, then, els } => {
            2 + expr_insns(cond) + stmt_insns(then) + els.as_deref().map(stmt_insns).unwrap_or(0)
        }
        StmtKind::While { cond, body } | StmtKind::DoWhile { body, cond } => {
            3 + expr_insns(cond) + stmt_insns(body)
        }
        StmtKind::For {
            init,
            cond,
            step,
            body,
        } => {
            3 + init.as_deref().map(stmt_insns).unwrap_or(0)
                + cond.as_ref().map(expr_insns).unwrap_or(0)
                + step.as_ref().map(expr_insns).unwrap_or(0)
                + stmt_insns(body)
        }
        StmtKind::Switch { scrutinee, arms } => {
            4 + expr_insns(scrutinee)
                + arms
                    .iter()
                    .map(|a| 2 + a.stmts.iter().map(stmt_insns).sum::<u32>())
                    .sum::<u32>()
        }
        StmtKind::Break | StmtKind::Continue => 1,
        StmtKind::Return(e) => 2 + e.as_ref().map(expr_insns).unwrap_or(0),
        // Reactive statements never appear in extracted data code.
        _ => 0,
    }
}

/// Estimate one task's footprint from its EFSM and design tables.
///
/// `m` is the compiled machine; `design` provides the extracted action
/// code and the sizes of the variable frame and the valued signals
/// ([`Design::data_bytes`], from the resolved types).
pub fn task_cost(m: &Efsm, design: &Design, p: &CostParams) -> TaskCost {
    let mut insns: u64 = p.insns_task_base as u64;
    insns += (m.states.len() as u64) * p.insns_state_dispatch as u64;
    // Port marshalling stubs: one per external input/output signal.
    let ports = m
        .signals
        .iter()
        .filter(|s| s.kind != efsm::SigKind::Local)
        .count() as u64;
    insns += ports * p.insns_per_port as u64;
    // Count each live node once (shared subgraphs are shared code), and
    // each referenced data body once (the C back end emits one static
    // function per action/predicate/value expression; s-graph nodes are
    // *call sites*). This is what makes the paper's monolithic Stack
    // smaller than the 3-task version: the product machine reuses the
    // extracted functions across its branches. One seen array serves
    // every state.
    let data = &design.split.data;
    let mut seen = vec![false; m.nodes.len()];
    let mut used_actions = vec![false; data.actions.len()];
    let mut used_preds = vec![false; data.preds.len()];
    let mut used_exprs = vec![false; data.emit_exprs.len()];
    let mut stack = Vec::new();
    const INSNS_CALL: u64 = 3; // jal + frame pointer arg + delay slot
    for st in &m.states {
        stack.push(st.root);
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut seen[id.0 as usize], true) {
                continue;
            }
            let node = &m.nodes[id.0 as usize];
            stack.extend(node.successors());
            insns += match node {
                Node::Test { .. } => p.insns_test as u64,
                Node::TestPred { pred, .. } => {
                    used_preds[pred.0 as usize] = true;
                    (p.insns_pred_overhead as u64) + INSNS_CALL
                }
                Node::Do { action, .. } => {
                    used_actions[action.0 as usize] = true;
                    INSNS_CALL
                }
                Node::Emit { value, .. } => {
                    if let Some(v) = value {
                        used_exprs[v.0 as usize] = true;
                        p.insns_emit_valued as u64 + INSNS_CALL
                    } else {
                        p.insns_emit as u64
                    }
                }
                Node::Goto { .. } => p.insns_goto as u64,
            };
        }
    }
    // Bodies, once each.
    for (stmts, _) in data.actions.iter().zip(used_actions).filter(|u| u.1) {
        insns += stmts.iter().map(stmt_insns).sum::<u32>() as u64 + 2; // prologue/ret
    }
    for (e, _) in data.preds.iter().zip(used_preds).filter(|u| u.1) {
        insns += expr_insns(e) as u64 + 2;
    }
    for ((e, _), _) in data.emit_exprs.iter().zip(used_exprs).filter(|u| u.1) {
        insns += expr_insns(e) as u64 + 2;
    }
    let code_bytes = (insns as u32) * p.bytes_per_insn;
    // Data: frame variables + valued-signal buffers + 4B state word +
    // one status byte per signal (rounded up to 4).
    let data_bytes = 4
        + design.data_bytes().unwrap_or_default()
        + (design.elab.signals.len() as u32).div_ceil(4) * 4;
    TaskCost {
        code_bytes,
        data_bytes,
    }
}

/// Estimate the RTOS footprint for `tasks` tasks exchanging
/// `mailbox_bytes` of buffered signal values.
pub fn rtos_cost(tasks: u32, mailboxes: u32, mailbox_bytes: u32, p: &CostParams) -> RtosCost {
    RtosCost {
        code_bytes: p.rtos_code_base + p.rtos_code_per_task * tasks,
        data_bytes: p.rtos_data_base
            + p.rtos_data_per_task * tasks
            + p.rtos_data_per_mailbox * mailboxes
            + mailbox_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecl_core::Source;

    fn design(src: &str, entry: &str) -> Design {
        Source::new(src)
            .parse()
            .and_then(|p| p.elaborate(entry)?.split())
            .expect("compile")
            .to_design()
    }

    const SIMPLE: &str = "
        module m(input pure a, output pure o) {
          int n;
          while (1) { await (a); n = n + 1; emit (o); }
        }";

    #[test]
    fn cost_is_positive_and_monotone_in_states() {
        let d = design(SIMPLE, "m");
        let m = d.to_efsm(&Default::default()).unwrap();
        let p = CostParams::default();
        let c = task_cost(&m, &d, &p);
        assert!(c.code_bytes > p.insns_task_base * p.bytes_per_insn);
        assert!(c.data_bytes >= 8); // state word + n (int)
    }

    #[test]
    fn bigger_program_costs_more() {
        let d1 = design(SIMPLE, "m");
        let big_src = "
            module m(input pure a, input pure b, output pure o, output pure q) {
              int n; int k;
              par {
                while (1) { await (a); n = n + 1; emit (o); }
                while (1) { await (b); k = k + 2; emit (q); }
              }
            }";
        let d2 = design(big_src, "m");
        let p = CostParams::default();
        let m1 = d1.to_efsm(&Default::default()).unwrap();
        let m2 = d2.to_efsm(&Default::default()).unwrap();
        let c1 = task_cost(&m1, &d1, &p);
        let c2 = task_cost(&m2, &d2, &p);
        assert!(c2.code_bytes > c1.code_bytes);
        assert!(c2.data_bytes > c1.data_bytes);
    }

    #[test]
    fn rtos_footprint_slopes_match_calibration() {
        let p = CostParams::default();
        let one = rtos_cost(1, 0, 0, &p);
        let three = rtos_cost(3, 0, 0, &p);
        // Calibrated against the paper's Stack rows: 5584/5872 code,
        // 1504/1744 data.
        assert_eq!(one.code_bytes, 5584);
        assert_eq!(three.code_bytes, 5872);
        assert_eq!(one.data_bytes, 1504);
        assert_eq!(three.data_bytes, 1744);
    }

    #[test]
    fn expr_cost_scales_with_size() {
        use ecl_syntax::parse_str;
        let p = parse_str("void t() { int x; x = 1; x = (x + 2) * (x - 3) + x / 4; }").unwrap();
        let f = p.functions().next().unwrap();
        let b = f.body.as_ref().unwrap();
        let small = stmt_insns(&b.stmts[1]);
        let large = stmt_insns(&b.stmts[2]);
        assert!(large > small);
    }

    #[test]
    fn optimization_reduces_code_cost() {
        let d = design(SIMPLE, "m");
        let p = CostParams::default();
        let unopt = d
            .to_efsm(&esterel::CompileOptions {
                optimize: false,
                ..Default::default()
            })
            .unwrap();
        let mut opt = unopt.clone();
        efsm::opt::optimize(&mut opt);
        let c_un = task_cost(&unopt, &d, &p);
        let c_op = task_cost(&opt, &d, &p);
        assert!(c_op.code_bytes <= c_un.code_bytes);
    }
}
