//! Property-based implementation verification (paper Section 2: "one
//! can perform ... implementation verification"): randomly generated
//! ECL programs must behave identically under the constructive
//! interpreter and the compiled EFSM, and under the shipped compiled
//! path and the reference walker, for random input sequences.

use ecl_core::{Design, Source, SplitStrategy};
use ecl_observe::Monitor;
use efsm::{Backend, BitSet};
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

fn gen_block(rng: &mut impl Rng, out: &mut String, depth: u32, stmts: &mut u32) {
    let n = rng.gen_range(1..=3);
    for _ in 0..n {
        if *stmts > 12 {
            return;
        }
        *stmts += 1;
        match rng.gen_range(0..8) {
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
/// loops, casts/sizeof/comma, a helper C function (exercising the
/// VM's statement-level walker fallback), and *deliberate* runtime errors
/// (divisions whose divisor is input-dependent, occasionally
/// out-of-bounds indices) — the data workload of the compiled ≡
/// walker differential.
fn gen_data_module(seed: u64) -> String {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut body = String::new();
    let mut stmts = 0;
    gen_data_block(&mut rng, &mut body, 2, &mut stmts);
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
        // aggregate output's current value — LoadSigOff/LoadSigAt).
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
    match rng.gen_range(0..20) {
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
        _ => format!("(!{a})"),
    }
}

fn gen_data_block(rng: &mut impl Rng, out: &mut String, depth: u32, stmts: &mut u32) {
    let n = rng.gen_range(2..=4);
    for _ in 0..n {
        if *stmts > 14 {
            return;
        }
        *stmts += 1;
        match rng.gen_range(0..19) {
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
                gen_data_block(rng, out, depth - 1, stmts);
                out.push_str("} else { ");
                gen_data_block(rng, out, depth - 1, stmts);
                out.push_str("} ");
            }
            5 if depth > 0 => {
                out.push_str("u = u & 15; while (u > 0) { u = u - 1; ");
                gen_data_block(rng, out, depth - 1, stmts);
                out.push_str("} ");
            }
            // Outside the bytecode subset → statement-level fallback.
            6 => out.push_str("v = helper(v & 63); "),
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
                gen_data_block(rng, out, depth - 1, stmts);
                out.push_str("} ");
            }
            15 if depth > 0 => {
                out.push_str("v = v & 7; do { v--; ");
                gen_data_block(rng, out, depth - 1, stmts);
                out.push_str("} while (v > 0); ");
            }
            // Aggregate emit (EmitCopy) feeding the `q.*` signal reads.
            16 => out.push_str("emit_v (q, r); "),
            17 => out.push_str("u = (v += r.d[2], v) % 97 + sizeof(int); "),
            _ => out.push_str("v = v + r.d[u & 3] - q.d[v & 3]; "),
        }
    }
}

/// The shipped path ≡ the reference path, step for step, on module `m`
/// of `src` split under `strategy`. One runtime
/// steps through `step_table` — fused mask-scan rows falling through
/// into residual programs — with its data hooks on the bytecode VM
/// (`Backend::Compiled`); the other walks the s-graph with `step_bits`
/// and evaluates data on the tree-walker (`Backend::Walker`). They
/// must agree every step on emission order, `StepOut` (next state
/// *and* `nodes_visited`, the cycle-cost proxy), errors (message and
/// span), the `pred_evals`/`action_runs` hook counters, the emitted
/// value of `x`, every root-frame variable, and — on error-free steps
/// — the exact fuel consumed (the kernel's cycle-charge source).
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
    let compiled = efsm::CompiledEfsm::compile(&machine);
    let a = design.signal("a").unwrap();
    let b = design.signal("b").unwrap();
    let a_valued = machine.signal_info(a).valued;
    for seed in 0..seeds {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut rt_c = design.new_rt().unwrap();
        let mut rt_w = design.new_rt().unwrap();
        prop_assert!(
            rt_c.backend() == Backend::Compiled,
            "compiled is the default backend"
        );
        rt_w.set_backend(Backend::Walker);
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
            let r_c = compiled.step_table(&machine, st_c, &bits, &mut rt_c, &mut e_c);
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
            for ((n1, v1), (n2, v2)) in rt_c
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

/// The runner-level half of the compiled ≡ walker differential: an
/// [`AsyncRunner`] on `Backend::Compiled` and one forced onto
/// `Backend::Walker` must present identical sets every instant and
/// drive the pinned observer to identical verdicts.
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
            (log, mon.finish())
        };
        prop_assert_eq!(
            run(Backend::Walker),
            run(Backend::Compiled),
            "present sets or observer verdicts diverged at seed {} in\n{}",
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

    // The compiled path (fused rows + bytecode VM) ≡ the reference
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
    /// projections, valued emits, function-call fallbacks, deliberate
    /// runtime errors) under MaxEsterel: data `if`s become EFSM
    /// predicates, so fused rows interleave predicates, actions and
    /// valued emits with presence tests.
    #[test]
    fn fused_matches_walker(seed in 0u64..10_000) {
        check_compiled_vs_walker(&gen_data_module(seed), SplitStrategy::MaxEsterel, 3)?;
    }

    /// The same grammar under MinEsterel: halting-free regions batch
    /// into single actions, so the VM runs whole branches and loops
    /// (jumps, coalesced burns, fallbacks) inside one hook.
    #[test]
    fn vm_matches_walker(seed in 0u64..10_000) {
        check_compiled_vs_walker(&gen_data_module(seed), SplitStrategy::MinEsterel, 3)?;
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
