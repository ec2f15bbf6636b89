//! `compile`: one job compiles one design from source text to
//! everything a designer gets back — parse, elaborate and split,
//! `SharedProgram::compile`, `synthesize_all`, then C, Verilog and
//! cost artifacts per task and C per observer.
//!
//! It is the designer's edit-compile loop, the only workload that
//! exercises `ecl-syntax`, `esterel` and `codegen`, and it bypasses the
//! reaction layers entirely.

use crate::metrics::Values;
use crate::spans::Tracer;
use crate::stats::{derive, permutation};
use crate::workload::{
    self, session, shared_program, Compiled, Emitted, JobOutcome, Phase, Src, PAGER, STACK,
};
use crate::Workload;
use ecl_core::SplitStrategy;
use sim::runner::SharedProgram;
use std::time::Instant;

/// {stack, pager} × {one task, 3-task partition} × {MaxEsterel,
/// MinEsterel}.
const CONFIGS: [(Src, bool, SplitStrategy); 8] = [
    (STACK, false, SplitStrategy::MaxEsterel),
    (STACK, false, SplitStrategy::MinEsterel),
    (STACK, true, SplitStrategy::MaxEsterel),
    (STACK, true, SplitStrategy::MinEsterel),
    (PAGER, false, SplitStrategy::MaxEsterel),
    (PAGER, false, SplitStrategy::MinEsterel),
    (PAGER, true, SplitStrategy::MaxEsterel),
    (PAGER, true, SplitStrategy::MinEsterel),
];

/// What one configuration compiles to; every job of that
/// configuration must reproduce it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Product {
    emitted: Emitted,
    states: u32,
    fused_rows: u32,
}

pub struct CompileMix {
    seed: u64,
    /// The product of each configuration, from the set-up pass.
    reference: Vec<Product>,
}

/// Compile configuration `cfg`, one span per step.
fn compile_one(cfg: usize, tr: &mut Tracer) -> Result<(Compiled<SharedProgram>, Product), String> {
    let (src, partition, strategy) = CONFIGS[cfg];
    let c = workload::compile(src, partition, strategy, tr, shared_program)?;
    let r = session(&c.program);
    let emitted = tr.span("codegen.emit", || workload::emit(&r, &c.specs))?;
    let cov = r.coverage();
    if !cov.fully_fused() {
        return Err(format!("configuration {cfg} is not fully fused: {cov:?}"));
    }
    let product = Product {
        emitted,
        states: cov.states(),
        fused_rows: cov.fused_rows(),
    };
    Ok((c, product))
}

/// Configuration of job `job`: the jobs cycle through all eight, each
/// cycle in its own seeded order.
pub fn config_of(seed: u64, job: u64) -> usize {
    let n = CONFIGS.len() as u64;
    permutation(CONFIGS.len(), derive(seed, 3, job / n))[(job % n) as usize]
}

impl CompileMix {
    fn run(
        &self,
        job: u64,
        cfg: usize,
        tr: &mut Tracer,
    ) -> (JobOutcome, Option<Compiled<SharedProgram>>) {
        let t0 = Instant::now();
        tr.open("job");
        let out = compile_one(cfg, tr);
        tr.close();
        let ns = t0.elapsed().as_nanos() as u64;
        let (c, failure) = match out {
            Ok((c, p)) if p == self.reference[cfg] => (Some(c), None),
            Ok((c, p)) => (
                Some(c),
                Some(format!(
                    "job {job}: configuration {cfg} produced {p:?}, earlier {:?}",
                    self.reference[cfg]
                )),
            ),
            Err(e) => (None, Some(e)),
        };
        let outcome = JobOutcome {
            ns,
            instants: 0,
            failure,
        };
        (outcome, c)
    }
}

impl Workload for CompileMix {
    type Input = usize;

    /// Set-up compiles every configuration once; the products are the
    /// reference every later job is checked against.
    fn setup(seed: u64) -> Result<Self, String> {
        let reference = (0..CONFIGS.len())
            .map(|cfg| compile_one(cfg, &mut Tracer::off()).map(|(_, p)| p))
            .collect::<Result<_, _>>()?;
        Ok(CompileMix { seed, reference })
    }

    fn input(&self, job: u64) -> usize {
        config_of(self.seed, job)
    }

    fn job(&mut self, job: u64, cfg: usize) -> JobOutcome {
        self.run(job, cfg, &mut Tracer::off()).0
    }

    fn traced_job(&mut self, job: u64, cfg: usize, tr: &mut Tracer) -> JobOutcome {
        let (mut out, c) = self.run(job, cfg, tr);
        if let Some(c) = c {
            if let Err(e) = workload::probe_stages(&c.designs, tr) {
                out.failure = out.failure.or(Some(e));
            }
        }
        out
    }

    fn traced_setup(&mut self, _tr: &mut Tracer) -> Result<(), String> {
        // The traced jobs carry the compile-stage spans themselves.
        Ok(())
    }

    fn verify(&mut self) -> Vec<(u64, String)> {
        // Every job is checked against the set-up's products already.
        Vec::new()
    }

    fn layers(
        &mut self,
        v: &mut Values,
        _seconds: f64,
        untraced: &Phase,
        traced: &Phase,
    ) -> Result<Vec<String>, String> {
        v.set("telemetry.overhead", traced.rate() / untraced.rate());
        let sum = |f: fn(&Product) -> u64| self.reference.iter().map(f).sum::<u64>() as f64;
        v.set("model_code_bytes", sum(|p| p.emitted.model_bytes));
        v.set("codegen.c_bytes", sum(|p| p.emitted.c_bytes));
        v.set("efsm.states", sum(|p| u64::from(p.states)));
        v.set("efsm.fused_rows", sum(|p| u64::from(p.fused_rows)));
        Ok(Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::{config_of, CONFIGS};

    #[test]
    fn job_order_is_a_function_of_the_seed() {
        let order = |seed| (0..32).map(|j| config_of(seed, j)).collect::<Vec<_>>();
        assert_eq!(order(5), order(5));
        assert_ne!(order(5), order(6));
        // Every cycle of eight jobs compiles every configuration once.
        for cycle in order(5).chunks(CONFIGS.len()) {
            let mut c = cycle.to_vec();
            c.sort_unstable();
            assert_eq!(c, (0..CONFIGS.len()).collect::<Vec<_>>());
        }
    }
}
