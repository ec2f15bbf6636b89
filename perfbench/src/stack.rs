//! `stack_solo`: one job is one 500-packet testbench session of the
//! protocol stack, compiled as one task, with its three observers.
//!
//! Almost all of the work is the data path — byte assembly and the
//! 62-iteration CRC on the `ecl-types` VM — on a single task, so the
//! `rtk` kernel and supervision do little.

use crate::metrics::Values;
use crate::spans::Tracer;
use crate::stats::derive;
use crate::workload::{
    self, compare, drive, emitted, monitors, observed, session, shared_program, step_all,
    with_telemetry, Compiled, JobOutcome, KernelTotals, Observed, Phase, STACK,
};
use crate::Workload;
use ecl_core::SplitStrategy;
use ecl_observe::MonitorReport;
use efsm::Backend;
use sim::runner::{AsyncRunner, Runner, SharedProgram, SimError};
use sim::tb::{InstantEvents, PacketTb};
use std::time::Instant;

/// Packets per session: the paper's testbench.
const PACKETS: usize = 500;
/// Jobs replayed on the walker after the timed phase.
const REPLAYED: u64 = 2;

pub struct StackSolo {
    seed: u64,
    c: Compiled<SharedProgram>,
    /// What the replayed jobs observed in the timed phase.
    sample: Vec<(u64, Observed)>,
}

/// A clean-CRC packet stream with a per-job payload seed.
pub fn events(seed: u64, job: u64) -> Vec<InstantEvents> {
    PacketTb {
        packets: PACKETS,
        corrupt_every: 0,
        reset_every: 0,
        seed: derive(seed, 1, job),
    }
    .events()
}

/// The job-level check: every verdict passes and every packet is
/// forwarded with a good CRC.
fn check(run: Result<(), SimError>, report: &MonitorReport, r: &AsyncRunner) -> Option<String> {
    if let Err(e) = run {
        return Some(e.to_string());
    }
    if !report.all_pass() {
        return Some(format!("verdicts: {report}"));
    }
    let counts = r.counts();
    let (fwd, crc) = (emitted(&counts, "addr_match"), emitted(&counts, "crc_ok"));
    if fwd != PACKETS as u64 || crc != PACKETS as u64 {
        return Some(format!(
            "{fwd} packets forwarded and {crc} CRC verdicts, expected {PACKETS}"
        ));
    }
    None
}

impl StackSolo {
    /// One untimed session on `backend`, with an unbounded trace.
    fn replay(&self, job: u64, backend: Backend) -> Result<Observed, String> {
        let ev = events(self.seed, job);
        let mut r = session(&self.c.program);
        r.set_backend(backend);
        r.enable_trace(0);
        let mut mons = monitors(&self.c.specs, r.sig_table(), backend);
        let run = r.run_events(&ev, step_all(&mut mons));
        match check(run, &MonitorReport::conclude(mons), &r) {
            Some(f) => Err(f),
            None => Ok(observed(&r)),
        }
    }
}

impl Workload for StackSolo {
    type Input = Vec<InstantEvents>;

    fn setup(seed: u64) -> Result<Self, String> {
        Ok(StackSolo {
            seed,
            c: workload::compile(
                STACK,
                false,
                SplitStrategy::MaxEsterel,
                &mut Tracer::off(),
                shared_program,
            )?,
            sample: Vec::new(),
        })
    }

    fn input(&self, job: u64) -> Self::Input {
        events(self.seed, job)
    }

    fn job(&mut self, job: u64, ev: Self::Input) -> JobOutcome {
        let t0 = Instant::now();
        let mut r = session(&self.c.program);
        let mut mons = monitors(&self.c.specs, r.sig_table(), Backend::Compiled);
        let run = r.run_events(&ev, step_all(&mut mons));
        let report = MonitorReport::conclude(mons);
        let ns = t0.elapsed().as_nanos() as u64;
        if job < REPLAYED {
            self.sample.push((job, observed(&r)));
        }
        JobOutcome {
            ns,
            instants: r.now(),
            failure: check(run, &report, &r),
        }
    }

    fn traced_job(&mut self, _job: u64, ev: Self::Input, tr: &mut Tracer) -> JobOutcome {
        let t0 = Instant::now();
        tr.open("job");
        let s = tr.now();
        let mut r = session(&self.c.program);
        let mut mons = monitors(&self.c.specs, r.sig_table(), Backend::Compiled);
        tr.leaf("sim.session_init", s, tr.now());
        let run = drive(&mut r, &ev, &mut mons, tr);
        let report = MonitorReport::conclude(mons);
        tr.close();
        JobOutcome {
            ns: t0.elapsed().as_nanos() as u64,
            instants: r.now(),
            failure: check(run, &report, &r),
        }
    }

    fn traced_setup(&mut self, tr: &mut Tracer) -> Result<(), String> {
        workload::traced_setup(STACK, false, tr)
    }

    fn verify(&mut self) -> Vec<(u64, String)> {
        let mut bad = Vec::new();
        for (job, seen) in &self.sample {
            match (
                self.replay(*job, Backend::Walker),
                self.replay(*job, Backend::Compiled),
            ) {
                (Ok(w), Ok(c)) => {
                    // The timed job ran without a trace: compare its
                    // counts, cycles and losses, then the traces of
                    // the two replays.
                    let untraced = Observed {
                        trace: w.trace,
                        ..seen.clone()
                    };
                    let diff = compare(&format!("stack_solo job {job}"), &untraced, &w)
                        .or_else(|| compare(&format!("stack_solo job {job} traced"), &c, &w));
                    if let Some(d) = diff {
                        bad.push((*job, d));
                    }
                }
                (Err(e), _) | (_, Err(e)) => bad.push((*job, e)),
            }
        }
        bad
    }

    fn layers(
        &mut self,
        v: &mut Values,
        _seconds: f64,
        untraced: &Phase,
        traced: &Phase,
    ) -> Result<Vec<String>, String> {
        v.set("telemetry.overhead", traced.rate() / untraced.rate());
        let ev = events(self.seed, 0);
        let (r, snap) = with_telemetry(|| {
            let mut r = session(&self.c.program);
            let mut mons = monitors(&self.c.specs, r.sig_table(), Backend::Compiled);
            r.run_events(&ev, step_all(&mut mons)).map(|()| r)
        });
        let r = r.map_err(|e| e.to_string())?;
        let mut k = KernelTotals::default();
        k.add(&r);
        let absent = workload::set_work_counts(v, &k, &snap);
        workload::add_structure(v, &r);
        let e = workload::emit(&r, &self.c.specs)?;
        v.set("model_code_bytes", e.model_bytes as f64);
        v.set("codegen.c_bytes", e.c_bytes as f64);
        Ok(absent)
    }
}

#[cfg(test)]
mod tests {
    use super::events;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        assert_eq!(events(5, 3), events(5, 3));
        assert_ne!(events(5, 3), events(6, 3));
        assert_ne!(events(5, 3), events(5, 4));
        assert_eq!(
            events(5, 3).len(),
            32_511,
            "the paper's 500-packet testbench"
        );
    }
}
