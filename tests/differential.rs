//! Property-based implementation verification (paper Section 2: "one
//! can perform ... implementation verification"): randomly generated
//! ECL programs must behave identically under the constructive
//! interpreter and the compiled EFSM, and under the shipped compiled
//! path and the reference walker, for random input sequences.

use ecl_core::{Design, Fused, Rt, Source, SplitStrategy};
use ecl_observe::Monitor;
use efsm::{Backend, BitSet, Efsm, StateId};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use sim::runner::{AsyncRunner, InterpRunner, Runner, SharedProgram};
use sim::tb::InstantEvents;
use std::sync::Arc;

/// Split module `m` of a generated program, or `None` when a stage
/// (correctly) rejects it — consistent behavior, not a divergence.
fn design(src: &str, strategy: SplitStrategy) -> Option<Design> {
    let parsed = Source::new(src).parse().ok()?;
    let split = parsed.elaborate("m").ok()?.split_with(strategy).ok()?;
    Some(split.to_design())
}

/// `n` instants of random pure stimuli on `a` (p = 0.5) and `b`
/// (p = 0.3).
fn pure_events(rng: &mut impl Rng, n: usize) -> Vec<InstantEvents> {
    (0..n)
        .map(|_| {
            let mut pure = Vec::new();
            if rng.gen_bool(0.5) {
                pure.push("a".to_string());
            }
            if rng.gen_bool(0.3) {
                pure.push("b".to_string());
            }
            InstantEvents {
                pure,
                valued: vec![],
            }
        })
        .collect()
}

/// Generate a small random (constructive) ECL module over two inputs
/// and two outputs, built from the reactive statement grammar.
fn gen_module(seed: u64) -> String {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut body = String::new();
    let mut stmts = 0;
    gen_block(&mut rng, &mut body, 2, &mut stmts);
    format!(
        "module m(input pure a, input pure b, output pure x, output pure y) {{\n\
           int v;\n while (1) {{ await (a | b); {body} }} }}"
    )
}

/// Append one to three random reactive statements. Besides tests,
/// awaits and aborts, the grammar reaches every control construct EFSM
/// construction resolves: `par` (parallel max-codes), a local signal
/// emitted in one branch and tested or awaited in the other (internal
/// guesses), `do … suspend` (frozen selections), `do … weak_abort` and
/// a `break` out of a `par` (pauses killed by a trap).
fn gen_block(rng: &mut impl Rng, out: &mut String, depth: u32, stmts: &mut u32) {
    let n = rng.gen_range(1..=3);
    for _ in 0..n {
        if *stmts > 12 {
            return;
        }
        *stmts += 1;
        match rng.gen_range(0..13) {
            0 => out.push_str("emit (x); "),
            1 => out.push_str("emit (y); "),
            2 => out.push_str("v = v + 1; "),
            3 => out.push_str("await (b); "),
            4 if depth > 0 => {
                out.push_str("present (a) { ");
                gen_block(rng, out, depth - 1, stmts);
                out.push_str("} else { ");
                gen_block(rng, out, depth - 1, stmts);
                out.push_str("} ");
            }
            5 if depth > 0 => {
                out.push_str("do { ");
                gen_block(rng, out, depth - 1, stmts);
                out.push_str("halt (); } abort (b); ");
            }
            6 if depth > 0 => {
                out.push_str("if (v > 2) { ");
                gen_block(rng, out, depth - 1, stmts);
                out.push_str("} ");
            }
            7 if depth > 0 => {
                out.push_str("par { { ");
                gen_block(rng, out, depth - 1, stmts);
                out.push_str("} { ");
                gen_block(rng, out, depth - 1, stmts);
                out.push_str("} } ");
            }
            8 if depth > 0 => {
                // The emitter never reads `s`, so the pair stays
                // constructive whichever branch runs first.
                let s = format!("s{stmts}");
                let mut emitter = String::new();
                gen_block(rng, &mut emitter, depth - 1, stmts);
                let emitter = format!("{{ {emitter}emit ({s}); }}");
                let reader = match rng.gen_range(0..3) {
                    0 => format!("{{ present ({s}) {{ emit (x); }} else {{ emit (y); }} }}"),
                    1 => format!("{{ await_immediate ({s}); emit (y); }}"),
                    _ => format!("{{ await ({s}); emit (x); }}"),
                };
                let (first, second) = if rng.gen_bool(0.5) {
                    (emitter, reader)
                } else {
                    (reader, emitter)
                };
                out.push_str(&format!(
                    "{{ signal pure {s}; par {{ {first} {second} }} }} "
                ));
            }
            9 if depth > 0 => {
                out.push_str("do { ");
                gen_block(rng, out, depth - 1, stmts);
                out.push_str("await (); } suspend (b); ");
            }
            10 if depth > 0 => {
                out.push_str("do { ");
                gen_block(rng, out, depth - 1, stmts);
                out.push_str("halt (); } weak_abort (a); ");
            }
            11 if depth > 0 => {
                out.push_str("while (1) { par { { await (b); break; } { ");
                gen_block(rng, out, depth - 1, stmts);
                out.push_str("halt (); } } } ");
            }
            _ => out.push_str("await (); "),
        }
    }
}

fn check_equiv(src: &str, strategy: SplitStrategy, seeds: u64) -> Result<(), TestCaseError> {
    let Some(design) = design(src, strategy) else {
        return Ok(());
    };
    let Ok(machine) = design.to_efsm(&Default::default()) else {
        return Ok(());
    };
    let a = design.signal("a").unwrap();
    let b = design.signal("b").unwrap();
    let x = design.signal("x").unwrap();
    let y = design.signal("y").unwrap();
    for seed in 0..seeds {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut rt_i = design.new_rt().unwrap();
        let mut rt_m = design.new_rt().unwrap();
        let mut interp = esterel::Machine::new(design.program());
        let mut st = machine.init;
        let mut emitted = Vec::new();
        for step in 0..50 {
            let mut present = BitSet::new();
            if rng.gen_bool(0.5) {
                present.insert(a.0 as usize);
            }
            if rng.gen_bool(0.3) {
                present.insert(b.0 as usize);
            }
            let r1 = interp
                .react_set(&present, &mut rt_i)
                .expect("constructive program");
            emitted.clear();
            st = machine
                .step_bits(st, &present, &mut rt_m, &mut emitted)
                .next;
            for sig in [x, y] {
                prop_assert_eq!(
                    r1.has(sig),
                    emitted.contains(&sig),
                    "signal {:?} diverged at seed {} step {} in\n{}",
                    sig,
                    seed,
                    step,
                    src
                );
            }
        }
    }
    Ok(())
}

/// Generate a data-heavy module: integer locals, an aggregate record,
/// valued signals read in predicates/actions/projections (including
/// signal-rooted chains through the aggregate output `q`), valued and
/// aggregate emits, inc/dec and compound assignments, for/do-while
/// loops, casts/sizeof/comma, calls of a helper C function when the
/// seed is a multiple of four (a call is outside the bytecode subset,
/// so such a module's runtime has no fused backend; other seeds draw
/// the helper's body inline in its place), *deliberate* runtime errors
/// (divisions whose divisor is input-dependent, occasionally
/// out-of-bounds indices), and an arm for every fold lowering makes:
/// constant operands and conditions, constants that wrap at the C
/// width, divisions by a constant zero and constant indices past the
/// end behind data conditions, and a data error ahead of a predicate,
/// an action and a valued emit of the same reaction — the data
/// workload of the compiled ≡ walker differential.
fn gen_data_module(seed: u64) -> String {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut body = String::new();
    let mut stmts = 0;
    gen_data_block(&mut rng, &mut body, 2, &mut stmts, seed.is_multiple_of(4));
    format!(
        "typedef unsigned char byte;\n\
         typedef struct {{ byte d[4]; int w; }} rec_t;\n\
         int helper(int z) {{ return z * 3 - 1; }}\n\
         module m(input int a, input pure b, output int x, output rec_t q, output pure y) {{\n\
           int u; int v; rec_t r;\n\
           while (1) {{ await (a | b); {body} }} }}"
    )
}

fn gen_data_expr(rng: &mut impl Rng, depth: u32) -> String {
    if depth == 0 {
        // Leaves include signal-rooted projections (`q.*` reads the
        // aggregate output's current value — LoadSigOff/LoadSigIdx).
        return match rng.gen_range(0..8) {
            0 => "u".to_string(),
            1 => "v".to_string(),
            2 => "a".to_string(),
            3 => "r.w".to_string(),
            4 => format!("r.d[{}]", rng.gen_range(0..4)),
            5 => format!("q.d[{}]", rng.gen_range(0..4)),
            6 => "q.w".to_string(),
            _ => format!("{}", rng.gen_range(-3..60)),
        };
    }
    let a = gen_data_expr(rng, depth - 1);
    let b = gen_data_expr(rng, depth - 1);
    match rng.gen_range(0..25) {
        0 => format!("({a} + {b})"),
        1 => format!("({a} - {b})"),
        2 => format!("({a} * {b})"),
        // Input-dependent divisors: zero sometimes → real error instants.
        3 => format!("({a} / (a & 3))"),
        4 => format!("({a} % ((v & 7) + {}))", rng.gen_range(0..2)),
        5 => format!("({a} < {b})"),
        6 => format!("({a} == {b})"),
        7 => format!("({a} & {b})"),
        8 => format!("({a} ^ {b})"),
        9 => format!("({a} << ({b} & 7))"),
        10 => format!("({a} >> 1)"),
        11 => format!("(-{a})"),
        12 => format!("(~{a})"),
        13 => format!("((byte) {a})"),
        14 => format!("((unsigned int) {a} >> 1)"),
        15 => format!("(sizeof(rec_t) + {a})"),
        16 => format!("(q.d[(u & 3)] + {a})"),
        17 => format!("(v = {a}, v & 31)"),
        18 => format!("({a} >= {b})"),
        // Constant operands: folded subexpressions, immediates, a
        // constant left operand of a comparison, a constant divisor, a
        // folded conversion.
        20 => format!("({a} + (3 * 4 - 2))"),
        21 => format!("(((2147483647 + 1) >> 1) ^ {a})"),
        22 => format!("((5 - 8) < {a})"),
        23 => format!("({a} / (6 + 56 + 2))"),
        24 => format!("((unsigned char) 300 + {b})"),
        _ => format!("(!{a})"),
    }
}

/// Append two to four random data statements; with `calls`, the three
/// call arms call `helper`, and without, they compute its body inline
/// (drawing the same random numbers either way).
fn gen_data_block(rng: &mut impl Rng, out: &mut String, depth: u32, stmts: &mut u32, calls: bool) {
    let n = rng.gen_range(2..=4);
    for _ in 0..n {
        if *stmts > 14 {
            return;
        }
        *stmts += 1;
        match rng.gen_range(0..27) {
            0 => {
                let e = gen_data_expr(rng, 2);
                out.push_str(&format!("u = {e}; "));
            }
            1 => {
                let e = gen_data_expr(rng, 1);
                out.push_str(&format!("v = v + {e}; "));
            }
            2 => {
                // Sometimes a deliberately out-of-bounds index.
                let i = if rng.gen_bool(0.15) {
                    "(a & 7)".to_string()
                } else {
                    format!("{}", rng.gen_range(0..4))
                };
                let e = gen_data_expr(rng, 1);
                out.push_str(&format!("r.d[{i}] = {e}; "));
            }
            3 => out.push_str("r.w = r.w + r.d[1] + 1; "),
            4 if depth > 0 => {
                let c = gen_data_expr(rng, 1);
                out.push_str(&format!("if ({c}) {{ "));
                gen_data_block(rng, out, depth - 1, stmts, calls);
                out.push_str("} else { ");
                gen_data_block(rng, out, depth - 1, stmts, calls);
                out.push_str("} ");
            }
            5 if depth > 0 => {
                out.push_str("u = u & 15; while (u > 0) { u = u - 1; ");
                gen_data_block(rng, out, depth - 1, stmts, calls);
                out.push_str("} ");
            }
            // Calls: outside the bytecode subset.
            6 => out.push_str(if calls {
                "v = helper(v & 63); "
            } else {
                "v = (v & 63) * 3 - 1; "
            }),
            7 => {
                let e = gen_data_expr(rng, 2);
                out.push_str(&format!("emit_v (x, {e}); "));
            }
            8 => out.push_str("emit (y); "),
            9 => out.push_str("await (b); "),
            10 => out.push_str("u = u + (a > 2 ? v : r.w); "),
            11 => {
                let c = gen_data_expr(rng, 1);
                out.push_str(&format!("if ({c}) {{ emit_v (x, v); }} "));
            }
            // Inc/dec and compound assignments (pre/post, += families).
            12 => out.push_str("u++; --v; r.w += u; "),
            13 => {
                let e = gen_data_expr(rng, 1);
                out.push_str(&format!("v ^= {e}; u <<= 1; u &= 255; "));
            }
            // For / do-while with per-iteration burn placement.
            14 if depth > 0 => {
                out.push_str("for (u = 0; u < (a & 7); u++) { ");
                gen_data_block(rng, out, depth - 1, stmts, calls);
                out.push_str("} ");
            }
            15 if depth > 0 => {
                out.push_str("v = v & 7; do { v--; ");
                gen_data_block(rng, out, depth - 1, stmts, calls);
                out.push_str("} while (v > 0); ");
            }
            // Aggregate emit (EmitCopy) feeding the `q.*` signal reads.
            16 => out.push_str("emit_v (q, r); "),
            17 => out.push_str("u = (v += r.d[2], v) % 97 + sizeof(int); "),
            // Constant conditions: the branch or loop folds to a jump or
            // a fall-through.
            19 if depth > 0 => {
                let c = ["1", "0", "(2 > 3)", "(1 + 1 == 2)", "!(4 & 4)"][rng.gen_range(0..5)];
                out.push_str(&format!("if ({c}) {{ "));
                gen_data_block(rng, out, depth - 1, stmts, calls);
                out.push_str("} else { ");
                gen_data_block(rng, out, depth - 1, stmts, calls);
                out.push_str("} ");
            }
            20 => out.push_str(if rng.gen_bool(0.5) {
                "while (1 - 1) { u = u + 9; } "
            } else {
                "do { v = v + 1; } while (2 < 1); "
            }),
            // A division or remainder by a constant zero, behind a data
            // condition: an error instant only some steps reach.
            21 => out.push_str(if rng.gen_bool(0.5) {
                "if ((a & 7) == 5) { u = v / (2 - 2); } "
            } else {
                "if ((v & 15) == 3) { u = u % (4 * 0); } "
            }),
            // A constant index past the end of `r.d`, likewise guarded.
            22 => out.push_str(if rng.gen_bool(0.5) {
                "if ((a & 7) == 6) { r.d[2 + 2] = u; } "
            } else {
                "if ((u & 7) == 2) { v = r.d[3 + 1]; } "
            }),
            // Constants that wrap at the C width: `int` overflow, and a
            // byte store of 260.
            23 => out.push_str("u = 2147483647 + 1 + v; r.d[0] = 250 + 10; "),
            // A data error (on even `a`) ahead of a predicate, an action
            // and a valued emit of the same reaction, then a presence
            // emission that still fires.
            24 => out.push_str(
                "u = 7 / (a & 1); if (u > 3) { v = v + 1; } v = v * 2; emit_v (x, v + 1); emit (y); ",
            ),
            // A call in a valued emit and in a predicate.
            25 => out.push_str(if calls {
                "emit_v (x, helper(u & 7)); "
            } else {
                "emit_v (x, (u & 7) * 3 - 1); "
            }),
            26 if depth > 0 => {
                out.push_str(if calls {
                    "if (helper(v & 3) > 4) { "
                } else {
                    "if ((v & 3) * 3 - 1 > 4) { "
                });
                gen_data_block(rng, out, depth - 1, stmts, calls);
                out.push_str("} ");
            }
            _ => out.push_str("v = v + r.d[u & 3] - q.d[v & 3]; "),
        }
    }
}

/// The shipped path ≡ the reference path, step for step, on module `m`
/// of `src` split under `strategy`. The runtime has a fused backend
/// exactly when every data hook compiles (`vm_coverage`); a module
/// without one runs on the walker under either backend, and has
/// nothing more to check here. One runtime steps through
/// [`Fused::step`] — the state's s-graph layout and the inlined data
/// bytecode in one dispatch loop (`Backend::Compiled`);
/// the other walks the s-graph with `step_bits` and evaluates data on
/// the tree-walker (`Backend::Walker`). They
/// must agree every step on emission order, `StepOut` (next state
/// *and* `nodes_visited`, the cycle-cost proxy), errors (message and
/// span), the `pred_evals`/`action_runs` hook counters, the emitted
/// value of `x`, every root-frame variable, and — on error-free steps
/// — the exact fuel consumed (the kernel's cycle-charge source).
///
/// The fused runtime's promoted variables stay in its registers for
/// the whole run, as in a session: its frame is read from a synced
/// clone ([`Fused::sync_frame`]) at every step, and the stepped runtime
/// itself is never synced.
fn check_compiled_vs_walker(
    src: &str,
    strategy: SplitStrategy,
    seeds: u64,
) -> Result<(), TestCaseError> {
    let Some(design) = design(src, strategy) else {
        return Ok(());
    };
    let Ok(machine) = design.to_efsm(&Default::default()) else {
        return Ok(());
    };
    let proto = design.new_rt().unwrap();
    let (lowered, hooks) = proto.vm_coverage();
    let Some(compiled) = Fused::compile(&machine, &proto) else {
        prop_assert!(
            lowered < hooks,
            "all {} hooks lower, yet no fused backend in\n{}",
            hooks,
            src
        );
        return Ok(());
    };
    prop_assert_eq!(
        lowered,
        hooks,
        "a fused backend with a hook left out in\n{}",
        src
    );
    check_quiet_states(&machine, &compiled, &proto)
        .map_err(|e| TestCaseError::fail(format!("{e} in\n{src}")))?;
    let a = design.signal("a").unwrap();
    let b = design.signal("b").unwrap();
    let a_valued = machine.signal_info(a).valued;
    for seed in 0..seeds {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut rt_c = proto.clone();
        let mut rt_w = design.new_rt().unwrap();
        // Small fuel budget: generated programs can loop for real, and
        // exhaustion is itself a behavior both paths must share.
        rt_c.machine_mut().set_fuel(200_000);
        rt_w.machine_mut().set_fuel(200_000);
        let (mut st_c, mut st_w) = (machine.init, machine.init);
        for step in 0..60 {
            let at = || format!("seed {seed} step {step} in\n{src}");
            let mut bits = BitSet::new();
            if rng.gen_bool(0.6) {
                if a_valued {
                    let val = rng.gen_range(-4i64..12);
                    rt_c.set_input_i64("a", val).unwrap();
                    rt_w.set_input_i64("a", val).unwrap();
                }
                bits.insert(a.0 as usize);
            }
            if rng.gen_bool(0.3) {
                bits.insert(b.0 as usize);
            }
            let (mut e_c, mut e_w) = (Vec::new(), Vec::new());
            let r_c = compiled.step(st_c, &bits, &mut rt_c, &mut e_c);
            let r_w = machine.step_bits(st_w, &bits, &mut rt_w, &mut e_w);
            st_c = r_c.next;
            st_w = r_w.next;
            prop_assert_eq!(&e_c, &e_w, "emission order diverged at {}", at());
            prop_assert_eq!(r_c, r_w, "StepOut diverged at {}", at());
            let err_c = rt_c.take_error();
            let err_w = rt_w.take_error();
            // Fuel exhaustion reports the span where the counter hit
            // zero — burn coalescing legitimately shifts it within the
            // exhausted expression, so compare those by message.
            if err_c.as_ref().is_some_and(|e| e.msg.contains("fuel")) {
                prop_assert_eq!(
                    err_c.as_ref().map(|e| &e.msg),
                    err_w.as_ref().map(|e| &e.msg),
                    "errors diverged at {}",
                    at()
                );
            } else {
                prop_assert_eq!(&err_c, &err_w, "errors diverged at {}", at());
            }
            prop_assert_eq!(rt_c.pred_evals, rt_w.pred_evals, "pred_evals at {}", at());
            prop_assert_eq!(
                rt_c.action_runs,
                rt_w.action_runs,
                "action_runs at {}",
                at()
            );
            prop_assert_eq!(
                rt_c.signal_value_by_name("x"),
                rt_w.signal_value_by_name("x"),
                "value of x diverged at {}",
                at()
            );
            // Whole-frame comparison: every variable slot byte-equal.
            let synced = synced(&compiled, &rt_c);
            for ((n1, v1), (n2, v2)) in synced
                .machine()
                .root_entries()
                .zip(rt_w.machine().root_entries())
            {
                prop_assert_eq!(n1, n2);
                prop_assert_eq!(v1, v2, "variable `{}` diverged at {}", n1, at());
            }
            if err_c.is_none() {
                prop_assert_eq!(
                    rt_c.machine().fuel(),
                    rt_w.machine().fuel(),
                    "fuel diverged at {}",
                    at()
                );
            } else {
                // After an error the tails legitimately differ
                // (coalesced burns stop at the error) — resynchronize.
                let sync = rt_c.machine().fuel().min(rt_w.machine().fuel());
                rt_c.machine_mut().set_fuel(sync);
                rt_w.machine_mut().set_fuel(sync);
            }
        }
    }
    Ok(())
}

/// How often [`check_deopt_exact`] saw each way a reaction leaves the
/// fast stream's normal path: fuel exhaustion (only the exact stream
/// raises it, so the step deoptimized) and any other data error.
#[derive(Default)]
struct DeoptSeen {
    exhausted: u32,
    faulted: u32,
}

/// Deoptimization is exact: [`Fused::step`] — the fast stream, which
/// holds scalar variables in registers, charges fuel once per block and
/// continues on the exact stream at the block the fuel cannot cover —
/// equals [`Fused::step_exact`], the exact stream run whole, on every
/// observable at every step, exactly: emission order, `StepOut`
/// (`nodes_visited` included), the error's message *and span*, the
/// hook counters, the emitted value of `x`, the whole frame and the
/// fuel, after an error too. A second fast runtime interleaves the two
/// streams — every fourth step runs [`Fused::step_exact`], which syncs
/// the registers the fast steps left live, and the next fast step
/// reloads them — and is held to the same. The fast runtimes' frames
/// are read from synced clones, so their registers stay live from step
/// to step. A runtime on the walker is held to the exact stream as
/// [`check_compiled_vs_walker`] holds it.
///
/// Every step starts from its own fuel budget — mostly a few dozen
/// steps, so exhaustion lands at block heads, inside loops and after an
/// earlier data error of the same reaction (an index or zero-divisor
/// fault inside a fast block), sometimes plenty.
fn check_deopt_exact(
    src: &str,
    strategy: SplitStrategy,
    seeds: u64,
    seen: &mut DeoptSeen,
) -> Result<(), TestCaseError> {
    let Some(design) = design(src, strategy) else {
        return Ok(());
    };
    let Ok(machine) = design.to_efsm(&Default::default()) else {
        return Ok(());
    };
    let proto = design.new_rt().unwrap();
    let Some(fused) = Fused::compile(&machine, &proto) else {
        return Ok(());
    };
    let a = design.signal("a").unwrap();
    let b = design.signal("b").unwrap();
    let a_valued = machine.signal_info(a).valued;
    for seed in 0..seeds {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // The fast stream alone, and the two streams interleaved.
        let mut fast = [("fast", proto.clone()), ("interleaved", proto.clone())]
            .map(|(what, rt)| (what, rt, machine.init));
        let mut rt_x = proto.clone();
        let mut rt_w = design.new_rt().unwrap();
        let (mut st_x, mut st_w) = (machine.init, machine.init);
        for step in 0..60 {
            let at = || format!("seed {seed} step {step} in\n{src}");
            let mut bits = BitSet::new();
            let input = rng
                .gen_bool(0.6)
                .then(|| a_valued.then(|| rng.gen_range(-4i64..12)));
            if input.is_some() {
                bits.insert(a.0 as usize);
            }
            if rng.gen_bool(0.3) {
                bits.insert(b.0 as usize);
            }
            let fuel = if rng.gen_bool(0.15) {
                1_000_000
            } else {
                rng.gen_range(0..80)
            };
            let rts = fast.iter_mut().map(|f| &mut f.1);
            for rt in rts.chain([&mut rt_x, &mut rt_w]) {
                if let Some(Some(val)) = input {
                    rt.set_input_i64("a", val).unwrap();
                }
                rt.machine_mut().set_fuel(fuel);
            }
            let (mut e_x, mut e_w) = (Vec::new(), Vec::new());
            let r_x = fused.step_exact(st_x, &bits, &mut rt_x, &mut e_x);
            let r_w = machine.step_bits(st_w, &bits, &mut rt_w, &mut e_w);
            (st_x, st_w) = (r_x.next, r_w.next);
            let (err_x, err_w) = (rt_x.take_error(), rt_w.take_error());
            for (what, rt_f, st_f) in &mut fast {
                let at = || format!("{what} {}", at());
                let mut e_f = Vec::new();
                let r_f = if *what == "interleaved" && step % 4 == 3 {
                    fused.step_exact(*st_f, &bits, rt_f, &mut e_f)
                } else {
                    fused.step(*st_f, &bits, rt_f, &mut e_f)
                };
                *st_f = r_f.next;
                prop_assert_eq!(&e_f, &e_x, "emission order diverged at {}", at());
                prop_assert_eq!(r_f, r_x, "StepOut diverged at {}", at());
                let err_f = rt_f.take_error();
                prop_assert_eq!(&err_f, &err_x, "errors diverged at {}", at());
                prop_assert_eq!(rt_f.pred_evals, rt_x.pred_evals, "pred_evals at {}", at());
                prop_assert_eq!(
                    rt_f.action_runs,
                    rt_x.action_runs,
                    "action_runs at {}",
                    at()
                );
                prop_assert_eq!(
                    rt_f.signal_value_by_name("x"),
                    rt_x.signal_value_by_name("x"),
                    "value of x diverged at {}",
                    at()
                );
                prop_assert!(
                    synced(&fused, rt_f)
                        .machine()
                        .root_entries()
                        .eq(rt_x.machine().root_entries()),
                    "frames diverged at {}",
                    at()
                );
                prop_assert_eq!(
                    rt_f.machine().fuel(),
                    rt_x.machine().fuel(),
                    "fuel diverged at {}",
                    at()
                );
            }
            // The exact stream against the walker, as the compiled ≡
            // walker check compares them.
            prop_assert_eq!(&e_x, &e_w, "walker emissions diverged at {}", at());
            prop_assert_eq!(r_x, r_w, "walker StepOut diverged at {}", at());
            let msg = |e: &Option<ecl_types::EvalError>| e.as_ref().map(|e| e.msg.clone());
            match &err_x {
                Some(e) if e.msg.contains("fuel") => {
                    seen.exhausted += 1;
                    prop_assert_eq!(msg(&err_x), msg(&err_w), "walker error at {}", at());
                }
                Some(_) => {
                    seen.faulted += 1;
                    prop_assert_eq!(&err_x, &err_w, "walker error at {}", at());
                }
                None => {
                    prop_assert!(err_w.is_none(), "walker error at {}", at());
                    prop_assert_eq!(
                        rt_x.machine().fuel(),
                        rt_w.machine().fuel(),
                        "walker fuel at {}",
                        at()
                    );
                }
            }
            prop_assert!(
                rt_x.machine()
                    .root_entries()
                    .eq(rt_w.machine().root_entries()),
                "walker frame diverged at {}",
                at()
            );
        }
    }
    Ok(())
}

/// A copy of `rt` with `fused`'s registers written back to its frame;
/// `rt` itself keeps them live.
fn synced(fused: &Fused, rt: &Rt) -> Rt {
    let mut copy = rt.clone();
    fused.sync_frame(&mut copy);
    copy
}

/// A runtime's observable data state: fuel, hook counters, root frame
/// and signal values.
fn data_state(rt: &Rt, signals: usize) -> impl PartialEq + std::fmt::Debug {
    let frame: Vec<(String, ecl_types::Value)> = (rt.machine().root_entries())
        .map(|(n, v)| (n.to_string(), v.clone()))
        .collect();
    let values: Vec<Option<ecl_types::Value>> =
        (0..signals).map(|i| rt.signal_value(i).cloned()).collect();
    (
        rt.machine().fuel(),
        rt.pred_evals,
        rt.action_runs,
        frame,
        values,
    )
}

/// The quiet table is exact: for every state, [`Fused::quiet`] is
/// `Some((next, nodes))` exactly when a full [`Fused::step`] with no
/// input, on a fresh copy of `proto`, emits nothing and runs no data
/// hook, and then that step returned `next` and `nodes`, burned no
/// fuel and left the frame and the signal values as they were.
fn check_quiet_states(machine: &Efsm, fused: &Fused, proto: &Rt) -> Result<(), TestCaseError> {
    let signals = machine.signals.len();
    let before = data_state(proto, signals);
    for s in 0..machine.states.len() {
        let state = StateId(s as u32);
        let mut rt = proto.clone();
        let mut emitted = Vec::new();
        let r = fused.step(state, &BitSet::new(), &mut rt, &mut emitted);
        fused.sync_frame(&mut rt);
        let error = rt.take_error();
        let hooks = (rt.pred_evals, rt.action_runs) != (proto.pred_evals, proto.action_runs);
        let quiet = fused.quiet(state);
        prop_assert_eq!(
            quiet.is_some(),
            emitted.is_empty() && !hooks,
            "state {} quiet {:?}, but the no-input step emitted {:?} (hooks run: {})",
            s,
            quiet,
            emitted,
            hooks
        );
        if let Some((next, nodes)) = quiet {
            prop_assert_eq!((r.next, r.nodes_visited), (next, nodes), "state {}", s);
            prop_assert!(error.is_none(), "state {}: {:?}", s, error);
            prop_assert_eq!(&data_state(&rt, signals), &before, "state {}", s);
        }
    }
    Ok(())
}

/// The runner-level half of the compiled ≡ walker differential: an
/// [`AsyncRunner`] on `Backend::Compiled` and one forced onto
/// `Backend::Walker` must present identical sets every instant, drive
/// the pinned observer to identical verdicts and bill identical
/// kernel totals (single-task runs of generated modules take the
/// compiled runner's quiet tick).
fn check_runner_verdicts(src: &str, seeds: u64) -> Result<(), TestCaseError> {
    let full = format!("{src}\n{PIN_OBSERVER}");
    let Some(design) = design(&full, SplitStrategy::default()) else {
        return Ok(());
    };
    let Ok(shared) = SharedProgram::compile(vec![design], &Default::default()) else {
        return Ok(());
    };
    let prog = ecl_syntax::parse_str(&full).expect("generated program parses");
    let spec = Arc::new(
        ecl_observe::synthesize(prog.observer("pin").expect("observer present"))
            .expect("observer synthesizes"),
    );
    for seed in 0..seeds {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let events = pure_events(&mut rng, 50);
        let run = |backend| {
            let mut r = AsyncRunner::from_shared(&shared, Default::default(), Default::default());
            r.set_backend(backend);
            let mut mon = Monitor::new(Arc::clone(&spec));
            mon.bind(r.sig_table());
            let mut log = Vec::new();
            r.run_events(&events, |i, p| {
                mon.step_present(i, p);
                log.push((p.ids().clone(), mon.verdict().clone()));
            })
            .expect("runner runs");
            let k = r.kernel();
            let totals = (k.task_cycles, k.rtos_cycles, k.dispatches);
            (log, mon.finish(), totals)
        };
        prop_assert_eq!(
            run(Backend::Walker),
            run(Backend::Compiled),
            "present sets, observer verdicts or kernel totals diverged at seed {} in\n{}",
            seed,
            src
        );
    }
    Ok(())
}

/// The observer attached to every generated program: an
/// `always`-style invariant ("outputs fire only under or right after
/// stimulus") that generated programs *can* genuinely violate, plus a
/// trivially-true guard. Both runners must reach identical verdicts.
const PIN_OBSERVER: &str = "
    observer pin(input pure a, input pure b, input pure x, input pure y) {
      always (~x | a | b);
      always (x | ~x);
    }";

/// Run the generated program under the interpreter and the compiled
/// EFSM with the pinned observer attached to each; the two monitors
/// must agree on the verdict at every step.
fn check_observer_equiv(src: &str, seeds: u64) -> Result<(), TestCaseError> {
    let full = format!("{src}\n{PIN_OBSERVER}");
    let Some(design) = design(&full, SplitStrategy::default()) else {
        return Ok(());
    };
    let Ok(machine) = design.to_efsm(&Default::default()) else {
        return Ok(());
    };
    let prog = ecl_syntax::parse_str(&full).expect("generated program parses");
    let spec = Arc::new(
        ecl_observe::synthesize(prog.observer("pin").expect("observer present"))
            .expect("observer synthesizes"),
    );
    let a = design.signal("a").unwrap();
    let b = design.signal("b").unwrap();
    let x = design.signal("x").unwrap();
    let y = design.signal("y").unwrap();
    // The monitors step by id over a table naming the watched signals.
    let mut table = efsm::SigTable::new();
    let [id_a, id_b, id_x, id_y] = ["a", "b", "x", "y"].map(|n| table.intern(n).bit());
    for seed in 0..seeds {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut rt_i = design.new_rt().unwrap();
        let mut rt_m = design.new_rt().unwrap();
        let mut interp = esterel::Machine::new(design.program());
        let mut st = machine.init;
        let mut emitted = Vec::new();
        let mut mon_i = Monitor::new(Arc::clone(&spec));
        let mut mon_m = Monitor::new(Arc::clone(&spec));
        for step in 0..50u64 {
            let mut present = BitSet::new();
            let mut ids = BitSet::new();
            if rng.gen_bool(0.5) {
                present.insert(a.0 as usize);
                ids.insert(id_a);
            }
            if rng.gen_bool(0.3) {
                present.insert(b.0 as usize);
                ids.insert(id_b);
            }
            let r1 = interp
                .react_set(&present, &mut rt_i)
                .expect("constructive program");
            emitted.clear();
            st = machine
                .step_bits(st, &present, &mut rt_m, &mut emitted)
                .next;
            let mut ids_i = ids.clone();
            let mut ids_m = ids;
            for (sig, id) in [(x, id_x), (y, id_y)] {
                if r1.has(sig) {
                    ids_i.insert(id);
                }
                if emitted.contains(&sig) {
                    ids_m.insert(id);
                }
            }
            mon_i.step_ids(step, &ids_i, &table);
            mon_m.step_ids(step, &ids_m, &table);
            prop_assert_eq!(
                mon_i.verdict(),
                mon_m.verdict(),
                "observer verdict diverged at seed {} step {} in\n{}",
                seed,
                step,
                src
            );
        }
        prop_assert_eq!(mon_i.finish(), mon_m.finish(), "final verdicts in\n{}", src);
    }
    Ok(())
}

/// Every fold arm and every call arm of the data generator turns up
/// within the first few hundred modules, and at least 85% of the first
/// 512 modules have a fused backend under both strategies, so the
/// differential's default and 512-case runs check each fold against
/// the walker on the fused loop.
#[test]
fn data_generator_reaches_every_fold_arm() {
    let arms = [
        "(3 * 4 - 2)",
        "((2147483647 + 1) >> 1) ^",
        "(5 - 8) <",
        "/ (6 + 56 + 2)",
        "(unsigned char) 300",
        "if (1) {",
        "if (0) {",
        "while (1 - 1)",
        "while (2 < 1)",
        "v / (2 - 2)",
        "u % (4 * 0)",
        "r.d[2 + 2] = u",
        "v = r.d[3 + 1]",
        "r.d[0] = 250 + 10",
        "u = 7 / (a & 1); if (u > 3)",
        "v = helper(v & 63)",
        "emit_v (x, helper(u & 7))",
        "if (helper(v & 3) > 4)",
    ];
    let modules: Vec<String> = (0..512).map(gen_data_module).collect();
    for arm in arms {
        let first = modules[..300].iter().position(|m| m.contains(arm));
        assert!(first.is_some(), "no module among the first 300 has `{arm}`");
    }
    let fuses = |src: &str, strategy| {
        design(src, strategy).is_some_and(|d| {
            let rt = d.new_rt().expect("runtime builds");
            (d.to_efsm(&Default::default()).ok()).is_some_and(|m| Fused::compile(&m, &rt).is_some())
        })
    };
    let both = modules
        .iter()
        .filter(|m| fuses(m, SplitStrategy::MaxEsterel) && fuses(m, SplitStrategy::MinEsterel))
        .count();
    assert!(
        both * 100 >= 512 * 85,
        "only {both} of 512 data modules fuse under both strategies"
    );
}

/// Every control arm of the reactive generator turns up within the
/// first few hundred modules, and the grammar stays mostly
/// constructive: at least 90% of the first 256 modules compile under
/// both strategies, so the interpreter ≡ EFSM properties check the
/// arms instead of skipping them.
#[test]
fn reactive_generator_reaches_every_arm() {
    let arms = [
        "par { { ",
        "signal pure s",
        "{ present (s",
        "{ await_immediate (s",
        "{ await (s",
        "} suspend (b)",
        "} weak_abort (a)",
        "{ await (b); break; }",
    ];
    let modules: Vec<String> = (0..300).map(gen_module).collect();
    for arm in arms {
        let first = modules.iter().position(|m| m.contains(arm));
        assert!(first.is_some(), "no module among the first 300 has `{arm}`");
    }
    let compiles = |src: &str, strategy| {
        design(src, strategy).is_some_and(|d| d.to_efsm(&Default::default()).is_ok())
    };
    let both = modules[..256]
        .iter()
        .filter(|m| {
            compiles(m, SplitStrategy::MaxEsterel) && compiles(m, SplitStrategy::MinEsterel)
        })
        .count();
    assert!(
        both * 10 >= 256 * 9,
        "only {both} of 256 modules compile under both strategies"
    );
}

/// FNV-1a, continued from `h` over `bytes` (perfbench digests the
/// generated C the same way).
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// The text an EFSM construction is pinned by: the optimized
/// machine's nodes, states and initial state, and the compile report.
fn construction_text(design: &Design) -> String {
    match esterel::compile::compile_with_report(design.program(), &Default::default()) {
        Ok((m, r)) => format!(
            "{:?}|{:?}|{:?}|{} {} {}",
            m.nodes, m.states, m.init, r.states, r.runs, r.ambiguous_choices
        ),
        Err(e) => format!("error: {e}"),
    }
}

/// One design per task: the entry as one task, or each of its direct
/// instantiations as its own.
fn config_designs(src: &str, entry: &str, partition: bool, strategy: SplitStrategy) -> Vec<Design> {
    let parsed = Source::new(src).parse().expect("design parses");
    if !partition {
        let split = parsed.elaborate(entry).unwrap().split_with(strategy);
        return vec![split.unwrap().to_design()];
    }
    parsed
        .instantiations(entry)
        .into_iter()
        .map(|inst| {
            let elab = parsed.elaborate_bound(&inst.module, Some(&inst.actuals));
            elab.unwrap().split_with(strategy).unwrap().to_design()
        })
        .collect()
}

/// EFSM construction is pinned, byte for byte. The interpreter ≡ EFSM
/// properties cannot see a change to the shared engine (both sides run
/// it), so this test digests what construction produces: every
/// optimized machine and its compile report, plus the C emitted from
/// it, over the 8 perfbench configurations ({stack, pager} × {mono,
/// partition} × {MaxEsterel, MinEsterel}), every shipped observer, and
/// the first 256 generated modules under both strategies.
///
/// The digests were recorded before the symbolic runs shared one
/// scratch, and that change reproduced all eleven. Placing each
/// decision after the events journaled before its choice was first
/// requested (not re-requested in the run's last pass) then changed
/// exactly four: the monolithic pager, whose machines emitted a valued
/// signal twice and skipped an action on 15 of 301 (`MaxEsterel`) and
/// 14 of 281 (`MinEsterel`) paths, and the generated modules.
#[test]
fn efsm_construction_is_pinned() {
    let sources = [
        ("stack", sim::designs::PROTOCOL_STACK, "toplevel"),
        ("pager", sim::designs::VOICE_PAGER, "pager"),
    ];
    let strategies = [
        ("max", SplitStrategy::MaxEsterel),
        ("min", SplitStrategy::MinEsterel),
    ];
    let mut digests: Vec<(String, u64)> = Vec::new();
    for (name, src, entry) in sources {
        for (shape, partition) in [("mono", false), ("parts", true)] {
            for (sname, strategy) in strategies {
                let mut h = FNV_OFFSET;
                for d in config_designs(src, entry, partition, strategy) {
                    h = fnv1a(h, construction_text(&d).as_bytes());
                    let m = d.to_efsm(&Default::default()).expect("design compiles");
                    h = fnv1a(h, codegen::c_backend::emit_c(&m, &d).as_bytes());
                }
                digests.push((format!("{name}/{shape}/{sname}"), h));
            }
        }
    }
    let mut h = FNV_OFFSET;
    for (_, src, _) in sources {
        let ast = ecl_syntax::parse_str(src).expect("design parses");
        for spec in ecl_observe::synthesize_all(&ast).expect("observers synthesize") {
            let m = &spec.efsm;
            h = fnv1a(
                h,
                format!("{:?}|{:?}|{:?}", m.nodes, m.states, m.init).as_bytes(),
            );
            h = fnv1a(h, codegen::emit_monitor_c(m).as_bytes());
        }
    }
    digests.push(("observers".to_string(), h));
    for (sname, strategy) in strategies {
        let mut h = FNV_OFFSET;
        for seed in 0..256 {
            let text = match design(&gen_module(seed), strategy) {
                Some(d) => construction_text(&d),
                None => "rejected".to_string(),
            };
            h = fnv1a(h, text.as_bytes());
        }
        digests.push((format!("generated/{sname}"), h));
    }
    let pinned: [(&str, u64); 11] = [
        ("stack/mono/max", 0x6336_2710_107C_F788),
        ("stack/mono/min", 0xA791_E7CA_624B_ACE9),
        ("stack/parts/max", 0xC3E9_BBCC_E538_04F8),
        ("stack/parts/min", 0x5393_92A0_213F_66DF),
        ("pager/mono/max", 0x09EA_512A_41C1_A624),
        ("pager/mono/min", 0x1C60_085D_1A3F_AD8F),
        ("pager/parts/max", 0xE8D6_8EF2_BE71_87AD),
        ("pager/parts/min", 0x13AE_1D2D_97D3_79AA),
        ("observers", 0xBF5B_CD81_D685_8ED6),
        ("generated/max", 0x73FF_17B2_205E_DE27),
        ("generated/min", 0x1ED7_1652_79DA_8C1F),
    ];
    let actual: Vec<(&str, u64)> = digests.iter().map(|(k, h)| (k.as_str(), *h)).collect();
    if actual != pinned {
        for (k, h) in &actual {
            eprintln!("(\"{k}\", 0x{h:016X}),");
        }
    }
    assert_eq!(actual, pinned, "EFSM construction changed");
}

/// The 8 shipped configurations, each with its designs (one per task)
/// and its key in the pinning tests.
fn shipped_configs() -> Vec<(String, Vec<Design>)> {
    let mut out = Vec::new();
    for (name, src, entry) in [
        ("stack", sim::designs::PROTOCOL_STACK, "toplevel"),
        ("pager", sim::designs::VOICE_PAGER, "pager"),
    ] {
        for (shape, partition) in [("mono", false), ("parts", true)] {
            for (sname, strategy) in [
                ("max", SplitStrategy::MaxEsterel),
                ("min", SplitStrategy::MinEsterel),
            ] {
                let designs = config_designs(src, entry, partition, strategy);
                out.push((format!("{name}/{shape}/{sname}"), designs));
            }
        }
    }
    out
}

/// The fused programs of the 16 shipped task runtimes are pinned, op
/// for op: the `{:?}` of each task's `Fused` (exact stream, fast
/// stream, fast-to-exact pc map, quiet table and register count),
/// digested per configuration. Every `vm.op.*` count of a compiled run
/// follows from these streams.
#[test]
fn fused_programs_are_pinned() {
    let digests: Vec<(String, u64)> = shipped_configs()
        .into_iter()
        .map(|(key, designs)| {
            let h = designs.iter().fold(FNV_OFFSET, |h, d| {
                let machine = d.to_efsm(&Default::default()).expect("design compiles");
                let rt = d.new_rt().expect("runtime builds");
                let fused = Fused::compile(&machine, &rt).expect("every shipped task fuses");
                fnv1a(h, format!("{fused:?}").as_bytes())
            });
            (key, h)
        })
        .collect();
    let pinned: [(&str, u64); 8] = [
        ("stack/mono/max", 0x2312_95F2_999A_4966),
        ("stack/mono/min", 0xBEAB_811F_0092_E40E),
        ("stack/parts/max", 0xFEEB_AAC9_DF9F_9886),
        ("stack/parts/min", 0x689A_83A8_16D1_CADA),
        ("pager/mono/max", 0xE75B_1E0D_EE01_09DF),
        ("pager/mono/min", 0xDB39_4FC4_154D_2EEC),
        ("pager/parts/max", 0xAC58_31B7_19BD_0FB1),
        ("pager/parts/min", 0x0DD4_86DF_06DD_4021),
    ];
    let actual: Vec<(&str, u64)> = digests.iter().map(|(k, h)| (k.as_str(), *h)).collect();
    if actual != pinned {
        for (k, h) in &actual {
            eprintln!("(\"{k}\", 0x{h:016X}),");
        }
    }
    assert_eq!(actual, pinned, "fused programs changed");
}

/// Table 1's size columns are pinned for the 8 shipped configurations:
/// `task_cost` code and data bytes summed over the tasks, and
/// `rtos_cost` code and data bytes with the RTOS sized the way
/// `sim::measure` sizes it (one mailbox per task input, 64 buffer
/// bytes when it carries a value). Their sum over all 8 is the cost
/// model's total over one cycle of the `compile` workload.
#[test]
fn cost_model_is_pinned() {
    use codegen::cost::{rtos_cost, task_cost, CostParams, TaskCost};
    let p = CostParams::default();
    let rows: Vec<(String, [u32; 4])> = shipped_configs()
        .into_iter()
        .map(|(key, designs)| {
            let mut task = TaskCost::default();
            let (mut mailboxes, mut buffers) = (0, 0);
            for d in &designs {
                let machine = d.to_efsm(&Default::default()).expect("design compiles");
                task = task + task_cost(&machine, d, &p);
                for s in d.program().signals() {
                    if s.kind == efsm::SigKind::Input {
                        mailboxes += 1;
                        buffers += if s.valued { 64 } else { 0 };
                    }
                }
            }
            let rtos = rtos_cost(designs.len() as u32, mailboxes, buffers, &p);
            let bytes = [task.code_bytes, task.data_bytes];
            (key, [bytes[0], bytes[1], rtos.code_bytes, rtos.data_bytes])
        })
        .collect();
    let pinned: [(&str, [u32; 4]); 8] = [
        ("stack/mono/max", [2052, 165, 5584, 1600]),
        ("stack/mono/min", [1976, 165, 5584, 1600]),
        ("stack/parts/max", [2192, 309, 5872, 2080]),
        ("stack/parts/min", [2112, 309, 5872, 2080]),
        ("pager/mono/max", [3652, 103, 5584, 1680]),
        ("pager/mono/min", [3548, 103, 5584, 1680]),
        ("pager/parts/max", [2192, 120, 5872, 2080]),
        ("pager/parts/min", [2120, 120, 5872, 2080]),
    ];
    let actual: Vec<(&str, [u32; 4])> = rows.iter().map(|(k, b)| (k.as_str(), *b)).collect();
    if actual != pinned {
        for (k, b) in &actual {
            eprintln!("(\"{k}\", {b:?}),");
        }
    }
    assert_eq!(actual, pinned, "cost model figures changed");
    let total: u32 = rows.iter().flat_map(|(_, b)| b).sum();
    assert_eq!(total, 81_942);
}

/// The swept fuel budgets of `deopt_matches_exact_stream` reach both
/// ways out of a fast block: fuel exhaustion, which the fast stream
/// only reaches by deoptimizing, and index or zero-divisor faults
/// inside fast blocks.
#[test]
fn deopt_property_reaches_exhaustion_and_faults() {
    let mut seen = DeoptSeen::default();
    for seed in 0..24 {
        let src = gen_data_module(seed);
        check_deopt_exact(&src, SplitStrategy::MinEsterel, 2, &mut seen)
            .unwrap_or_else(|e| panic!("{e}"));
    }
    assert!(seen.exhausted > 0, "no step ran out of fuel");
    assert!(seen.faulted > 0, "no step faulted");
}

/// Promoted slots stay exact around faults: `u` and `v` live in
/// registers in the fast stream, and on most steps an indexed store
/// (`d[a & 7]`, four of every eight inputs) or a division (`a & 3`
/// zero) faults between their loads and stores, on both strategies.
/// The block locals `t` and `w` are hoisted into the frame like every
/// module variable, so here, as everywhere in lowered ECL, a stored
/// value is defined right before its store; the fused unit test
/// `a_store_retargets_its_def_only_across_infallible_ops` pins the rule
/// for a def that a fallible op separates from its store.
#[test]
fn promoted_slots_stay_exact_around_faults() {
    let src = "typedef unsigned char byte;\n\
         module m(input int a, input pure b, output int x, output pure y) {\n\
           int u; int v; byte d[4];\n\
           while (1) { await (a | b);\n\
             { int t = v + a * 3; d[a & 7] = (byte) t; u = t; }\n\
             { int w = u - 1; v = v / (a & 3); u = w; }\n\
             emit_v (x, u + v); } }";
    for strategy in [SplitStrategy::MaxEsterel, SplitStrategy::MinEsterel] {
        let mut seen = DeoptSeen::default();
        check_deopt_exact(src, strategy, 8, &mut seen).unwrap_or_else(|e| panic!("{e}"));
        assert!(seen.faulted > 0, "{strategy:?}: no step faulted");
        check_compiled_vs_walker(src, strategy, 8).unwrap_or_else(|e| panic!("{e}"));
    }
}

/// Every task runtime of the 8 shipped configurations — 16 in all —
/// has a fused backend, its quiet table is exact, and the partitioned
/// pager — the design whose tasks mostly wait — has quiet states in
/// every task.
#[test]
fn quiet_states_are_exact_on_shipped_designs() {
    for (src, entry) in [
        (sim::designs::PROTOCOL_STACK, "toplevel"),
        (sim::designs::VOICE_PAGER, "pager"),
    ] {
        for partition in [false, true] {
            for strategy in [SplitStrategy::MaxEsterel, SplitStrategy::MinEsterel] {
                for d in config_designs(src, entry, partition, strategy) {
                    let machine = d.to_efsm(&Default::default()).expect("design compiles");
                    let proto = d.new_rt().expect("runtime builds");
                    let fused = Fused::compile(&machine, &proto)
                        .unwrap_or_else(|| panic!("{entry} ({}) has no fused backend", d.entry));
                    check_quiet_states(&machine, &fused, &proto)
                        .unwrap_or_else(|e| panic!("{entry} ({}): {e}", d.entry));
                    let quiet = (0..machine.states.len())
                        .filter(|&s| fused.quiet(StateId(s as u32)).is_some())
                        .count();
                    if entry == "pager" && partition {
                        assert!(quiet > 0, "pager task `{}` has no quiet state", d.entry);
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Interpreter ≡ compiled EFSM under the paper's default strategy.
    #[test]
    fn interp_matches_efsm_max(seed in 0u64..10_000) {
        let src = gen_module(seed);
        check_equiv(&src, SplitStrategy::MaxEsterel, 3)?;
    }

    /// Same under the MinEsterel (Section 6) strategy.
    #[test]
    fn interp_matches_efsm_min(seed in 0u64..10_000) {
        let src = gen_module(seed);
        check_equiv(&src, SplitStrategy::MinEsterel, 3)?;
    }

    /// Interpreter ≡ EFSM on *observer verdicts*: random programs run
    /// with an always-style observer attached reach the same
    /// Pass/Fail{instant} on both execution paths.
    #[test]
    fn observer_verdicts_match(seed in 0u64..10_000) {
        let src = gen_module(seed);
        check_observer_equiv(&src, 3)?;
    }

    // The compiled path (control ops + one dispatch loop) ≡ the reference
    // path (s-graph walk + tree-walker): one check,
    // `check_compiled_vs_walker`, over three workloads.

    /// On the reactive grammar: exact per-step results at the machine
    /// level, plus identical present sets and observer verdicts at the
    /// runner level.
    #[test]
    fn table_matches_sgraph(seed in 0u64..10_000) {
        let src = gen_module(seed);
        check_compiled_vs_walker(&src, SplitStrategy::MaxEsterel, 3)?;
        check_runner_verdicts(&src, 3)?;
    }

    /// On the data-heavy grammar (ints, aggregates, signal reads and
    /// projections, valued emits, deliberate runtime errors; a module
    /// that calls a C function runs on the walker whole) under
    /// MaxEsterel: data `if`s become EFSM
    /// predicates, so the fused programs interleave predicates, actions
    /// and valued emits with presence tests.
    #[test]
    fn fused_matches_walker(seed in 0u64..10_000) {
        check_compiled_vs_walker(&gen_data_module(seed), SplitStrategy::MaxEsterel, 3)?;
    }

    /// The same grammar under MinEsterel: halting-free regions batch
    /// into single actions, so the inlined bytecode runs whole branches
    /// and loops (jumps, coalesced burns) inside one hook.
    #[test]
    fn vm_matches_walker(seed in 0u64..10_000) {
        check_compiled_vs_walker(&gen_data_module(seed), SplitStrategy::MinEsterel, 3)?;
    }

    /// Deoptimization is exact (`check_deopt_exact`) on the data-heavy
    /// grammar under both strategies: under swept small fuel budgets
    /// the fast stream equals the exact stream on every observable.
    #[test]
    fn deopt_matches_exact_stream(seed in 0u64..10_000) {
        let src = gen_data_module(seed);
        let mut seen = DeoptSeen::default();
        check_deopt_exact(&src, SplitStrategy::MaxEsterel, 2, &mut seen)?;
        check_deopt_exact(&src, SplitStrategy::MinEsterel, 2, &mut seen)?;
    }

    /// Both strategies agree with each other on outputs.
    #[test]
    fn strategies_agree(seed in 0u64..10_000) {
        let src = gen_module(seed);
        let d1 = design(&src, SplitStrategy::MaxEsterel);
        let d2 = design(&src, SplitStrategy::MinEsterel);
        let (Some(d1), Some(d2)) = (d1, d2) else { return Ok(()); };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let events = pure_events(&mut rng, 40);
        let run = |d: &Design| {
            let mut log = Vec::new();
            InterpRunner::new(d)
                .unwrap()
                .run_events(&events, |_, p| {
                    let mut names = p.to_names();
                    names.sort();
                    log.push(names);
                })
                .unwrap();
            log
        };
        prop_assert_eq!(run(&d1), run(&d2), "strategy divergence in\n{}", src);
    }
}
