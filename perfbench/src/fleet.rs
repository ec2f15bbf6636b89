//! `pager_fleet`: one job is one `Supervisor::run` batch of 64 voice
//! pager sessions, compiled as three tasks, each with its own
//! testbench seed, both pager observers and a 256-instant trace ring.
//!
//! The work is control and three-task `rtk` kernel traffic plus
//! snapshot writes and short-session set-up, with little data work:
//! many short sessions whose state is copied every 64 instants, where
//! `stack_solo` is one long steady stream.

use crate::metrics::Values;
use crate::spans::Tracer;
use crate::stats::derive;
use crate::workload::{
    self, compare, drive, emitted, monitors, observed, session, sorted_counts, step_all,
    timed_phase, trace_digest, with_telemetry, Compiled, JobOutcome, KernelTotals, Observed, Phase,
    PAGER,
};
use crate::Workload;
use ecl_core::SplitStrategy;
use ecl_fleet::{FleetConfig, Pressure, SessionSpec, SessionStatus, Supervisor};
use ecl_observe::{Monitor, MonitorReport, MonitorSpec};
use efsm::Backend;
use sim::runner::{AsyncRunner, Runner, RunnerSnapshot, SharedProgram, SimError, Snapshot};
use sim::tb::{InstantEvents, PagerTb};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Sessions per `Supervisor::run` batch.
const SESSIONS: usize = 64;
/// Fleet shards. One: a batch on two shards lasts as long as its
/// slower shard, so on a shared two-core machine its time follows
/// whichever core a neighbour slows, and its p90 spread past 20%
/// between runs of the same code.
const SHARDS: usize = 1;
/// Record/playback rounds per session (1,726 instants).
const ROUNDS: usize = 25;
/// Frames recorded per round.
const FRAMES: usize = 4;
/// Trace-ring capacity of every session.
const TRACE_RING: usize = 256;
/// Instants between checkpoints.
const CHECKPOINT_EVERY: usize = 64;
/// Sessions of the first batch replayed on the walker.
const REPLAYED: usize = 4;

pub struct PagerFleet {
    seed: u64,
    c: Compiled<Supervisor>,
    /// What the replayed sessions observed in the first batch.
    sample: Vec<(usize, Observed)>,
    restarts: u64,
}

/// Session `k` of batch `job`: its own sample values.
pub fn events(seed: u64, job: u64, k: usize) -> Vec<InstantEvents> {
    PagerTb {
        rounds: ROUNDS,
        frames: FRAMES,
        seed: derive(seed, 2, job * SESSIONS as u64 + k as u64),
    }
    .events()
}

fn session_id(job: u64, k: usize) -> u64 {
    job * SESSIONS as u64 + k as u64 + 1
}

/// The session-level check: finished at nominal pressure, every
/// verdict passes, and every recorded frame is played back.
fn check(
    status: SessionStatus,
    pressure: Pressure,
    report: Option<&MonitorReport>,
    counts: &HashMap<String, u64>,
) -> Option<String> {
    if status != SessionStatus::Finished || pressure != Pressure::Nominal {
        return Some(format!("session {status:?} at {pressure:?}"));
    }
    match report {
        Some(r) if r.all_pass() => {}
        Some(r) => return Some(format!("verdicts: {r}")),
        None => return Some("no verdicts".into()),
    }
    let frames = (ROUNDS * FRAMES) as u64;
    let got = [
        emitted(counts, "frame"),
        emitted(counts, "out_sample"),
        emitted(counts, "dac"),
    ];
    if got != [frames, 4 * frames, 4 * frames] {
        return Some(format!(
            "frame/out_sample/dac {got:?}, expected {frames}/{}/{}",
            4 * frames,
            4 * frames
        ));
    }
    None
}

/// One session on a bare runner, doing the fleet's per-session work in
/// the fleet's order: set-up, a checkpoint (snapshot plus monitor
/// copy) at the start and after every 64 instants but the last. With
/// `tr` on, each piece is a span, and the last checkpoint is also
/// restored into a fresh runner, to time a restore.
fn solo(
    shared: &SharedProgram,
    specs: &[Arc<MonitorSpec>],
    id: u64,
    ev: &[InstantEvents],
    backend: Backend,
    tr: &mut Tracer,
) -> (AsyncRunner, Result<(), SimError>, MonitorReport) {
    let s = tr.now();
    let mut r = session(shared);
    r.set_session(id);
    r.set_backend(backend);
    r.enable_trace(TRACE_RING);
    let mut mons = monitors(specs, r.sig_table(), backend);
    tr.leaf("sim.session_init", s, tr.now());
    let run = (|| {
        let mut last = checkpoint(&r, &mons, tr)?;
        let chunks: Vec<&[InstantEvents]> = ev.chunks(CHECKPOINT_EVERY).collect();
        for (i, chunk) in chunks.iter().enumerate() {
            if tr.is_on() {
                drive(&mut r, chunk, &mut mons, tr)?;
            } else {
                r.run_events(chunk, step_all(&mut mons))?;
            }
            if i + 1 < chunks.len() {
                last = checkpoint(&r, &mons, tr)?;
            }
        }
        if tr.is_on() {
            // Into a fresh runner, so this session's outputs stay.
            let mut other = session(shared);
            let s = tr.now();
            let restored = other.restore(&last.0);
            tr.leaf("sim.restore", s, tr.now());
            restored?;
        }
        Ok(())
    })();
    let report = MonitorReport::conclude(mons);
    (r, run, report)
}

/// The fleet's checkpoint: a runner snapshot plus a copy of the
/// monitors.
fn checkpoint(
    r: &AsyncRunner,
    mons: &[Monitor],
    tr: &mut Tracer,
) -> Result<(RunnerSnapshot, Vec<Monitor>), SimError> {
    let s = tr.now();
    let ckpt = (r.snapshot()?, mons.to_vec());
    tr.leaf("sim.snapshot", s, tr.now());
    Ok(ckpt)
}

impl PagerFleet {
    fn specs(&self, job: u64, input: &[Arc<Vec<InstantEvents>>]) -> Vec<SessionSpec> {
        input
            .iter()
            .enumerate()
            .map(|(k, ev)| SessionSpec {
                id: session_id(job, k),
                events: Arc::clone(ev),
                specs: self.c.specs.clone(),
                trace_capacity: Some(TRACE_RING),
            })
            .collect()
    }

    /// Session `k` of batch `job` on a bare runner: its observations
    /// and the job-level check.
    fn solo_session(
        &self,
        job: u64,
        k: usize,
        ev: &[InstantEvents],
        backend: Backend,
        tr: &mut Tracer,
    ) -> (AsyncRunner, Option<String>) {
        let (r, run, report) = solo(
            self.c.program.shared(),
            &self.c.specs,
            session_id(job, k),
            ev,
            backend,
            tr,
        );
        let failure = match run {
            Err(e) => Some(e.to_string()),
            Ok(()) => check(
                SessionStatus::Finished,
                Pressure::Nominal,
                Some(&report),
                &r.counts(),
            ),
        };
        (r, failure)
    }

    /// A batch of solo sessions, one after another on this thread.
    fn solo_batch(
        &self,
        job: u64,
        input: &[Arc<Vec<InstantEvents>>],
        tr: &mut Tracer,
    ) -> JobOutcome {
        let t0 = Instant::now();
        let (mut instants, mut failure) = (0, None);
        for (k, ev) in input.iter().enumerate() {
            let (r, f) = self.solo_session(job, k, ev, Backend::Compiled, tr);
            instants += r.now();
            failure = failure.or(f);
        }
        JobOutcome {
            ns: t0.elapsed().as_nanos() as u64,
            instants,
            failure,
        }
    }
}

impl Workload for PagerFleet {
    type Input = Vec<Arc<Vec<InstantEvents>>>;

    fn setup(seed: u64) -> Result<Self, String> {
        let cfg = FleetConfig {
            shards: SHARDS,
            // Room for twice the batch: the queue never reaches half
            // full, so no session is shed or refused.
            queue_cap: 2 * SESSIONS,
            checkpoint_every: CHECKPOINT_EVERY as u64,
            ..FleetConfig::default()
        };
        let c = workload::compile(
            PAGER,
            true,
            SplitStrategy::MaxEsterel,
            &mut Tracer::off(),
            |designs| Supervisor::new(designs, &Default::default(), cfg),
        )?;
        Ok(PagerFleet {
            seed,
            c,
            sample: Vec::new(),
            restarts: 0,
        })
    }

    fn input(&self, job: u64) -> Self::Input {
        (0..SESSIONS)
            .map(|k| Arc::new(events(self.seed, job, k)))
            .collect()
    }

    fn job(&mut self, job: u64, input: Self::Input) -> JobOutcome {
        let specs = self.specs(job, &input);
        let t0 = Instant::now();
        let rep = self.c.program.run(specs);
        let ns = t0.elapsed().as_nanos() as u64;
        self.restarts += rep.health.restarts;
        let mut failure = None;
        for (k, s) in rep.sessions.iter().enumerate() {
            if job == 0 && k < REPLAYED {
                let seen = Observed {
                    counts: sorted_counts(&s.counts),
                    cycles: 0,
                    events_lost: s.events_lost,
                    trace: trace_digest(s.trace.as_ref()),
                };
                self.sample.push((k, seen));
            }
            let f = check(s.status, s.pressure, s.report.as_ref(), &s.counts)
                .map(|f| format!("session {}: {f}", s.id));
            failure = failure.or(f);
        }
        JobOutcome {
            ns,
            instants: rep.sessions.iter().map(|s| s.instants).sum(),
            failure,
        }
    }

    fn traced_job(&mut self, job: u64, input: Self::Input, tr: &mut Tracer) -> JobOutcome {
        tr.open("job");
        let out = self.solo_batch(job, &input, tr);
        tr.close();
        out
    }

    fn traced_setup(&mut self, tr: &mut Tracer) -> Result<(), String> {
        workload::traced_setup(PAGER, true, tr)
    }

    fn verify(&mut self) -> Vec<(u64, String)> {
        let mut bad = Vec::new();
        for (k, seen) in &self.sample {
            let ev = events(self.seed, 0, *k);
            let off = &mut Tracer::off();
            let (w, wf) = self.solo_session(0, *k, &ev, Backend::Walker, off);
            let (c, cf) = self.solo_session(0, *k, &ev, Backend::Compiled, off);
            if let Some(f) = wf.or(cf) {
                bad.push((0, format!("pager_fleet session {k} replay: {f}")));
                continue;
            }
            let w = observed(&w);
            let diff = compare(&format!("pager_fleet session {k}"), seen, &w)
                .or_else(|| compare(&format!("pager_fleet session {k} solo"), &observed(&c), &w));
            if let Some(d) = diff {
                bad.push((0, d));
            }
        }
        bad
    }

    fn layers(
        &mut self,
        v: &mut Values,
        seconds: f64,
        untraced: &Phase,
        traced: &Phase,
    ) -> Result<Vec<String>, String> {
        // The same sessions one after another on bare runners: the
        // base of the fleet's scaling, and of the tracing overhead
        // (the traced run drives them the same way).
        let solo = timed_phase(seconds / 2.0, |j| {
            self.solo_batch(j, &self.input(j), &mut Tracer::off())
        });
        if let Some((j, f)) = solo.failures.first() {
            return Err(format!("solo batch {j}: {f}"));
        }
        v.set(
            "fleet.scaling",
            untraced.rate() / (SHARDS as f64 * solo.rate()),
        );
        v.set("telemetry.overhead", traced.rate() / solo.rate());
        v.set("fleet.restarts", self.restarts as f64);

        let input = self.input(0);
        let (k, snap) = with_telemetry(|| {
            let mut k = KernelTotals::default();
            for (i, ev) in input.iter().enumerate() {
                let (r, f) = self.solo_session(0, i, ev, Backend::Compiled, &mut Tracer::off());
                if let Some(f) = f {
                    return Err(f);
                }
                k.add(&r);
            }
            Ok(k)
        });
        let mut absent = workload::set_work_counts(v, &k?, &snap);
        let specs = self.specs(0, &input);
        let (_, snap) = with_telemetry(|| self.c.program.run(specs));
        match snap
            .counters
            .iter()
            .find(|(n, _)| *n == "fleet.checkpoints")
        {
            Some((_, n)) => v.set("fleet.checkpoints_per_session", *n as f64 / SESSIONS as f64),
            None => absent.push("fleet.checkpoints".into()),
        }
        let r = session(self.c.program.shared());
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
        assert_eq!(events(5, 3, 1), events(5, 3, 1));
        assert_ne!(events(5, 3, 1), events(6, 3, 1));
        assert_ne!(events(5, 3, 1), events(5, 3, 2));
        assert_ne!(events(5, 3, 1), events(5, 4, 1));
        assert_eq!(events(5, 3, 1).len(), 1_726, "25 pager rounds");
    }
}
