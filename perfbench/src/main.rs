//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <stack_solo|pager_fleet|compile> --seed <n>
//!           --seconds <s> --trace <0|1> [--spans-dir <dir>]
//! ```
//!
//! Each workload is one closed-loop client that submits its next job
//! when the previous one completes. `--trace 0` measures the
//! end-to-end metrics untraced; `--trace 1` measures the same untraced
//! phase, then a traced phase with the benchmark's own spans around
//! calls into each crate, then a counting pass with the telemetry
//! registry on, and prints the per-layer metrics. Host times are
//! scaled to a reference machine speed measured around each job
//! (`workload::speed_factor`); the measured times go to standard
//! error. Every metric is printed with its unit; the last line of
//! standard output is one JSON object. Failed jobs or replay
//! mismatches make the exit code 1.

mod compile;
mod fleet;
mod metrics;
mod spans;
mod stack;
mod stats;
mod workload;

use metrics::{Values, END_TO_END, PER_LAYER};
use spans::Tracer;
use std::path::PathBuf;
use std::time::Instant;
use workload::{timed_phase, JobOutcome, Phase, SETUP_REPS};

/// One benchmark workload.
pub trait Workload: Sized {
    /// A job's generated inputs.
    type Input;

    /// Source text to the first job being ready.
    fn setup(seed: u64) -> Result<Self, String>;

    /// Job `job`'s inputs, a pure function of the seed; made outside
    /// the job's timer.
    fn input(&self, job: u64) -> Self::Input;

    /// Run and time one job.
    fn job(&mut self, job: u64, input: Self::Input) -> JobOutcome;

    /// Run and time one job with spans around each layer's calls.
    fn traced_job(&mut self, job: u64, input: Self::Input, tr: &mut Tracer) -> JobOutcome;

    /// One set-up with a span per compile stage.
    fn traced_setup(&mut self, tr: &mut Tracer) -> Result<(), String>;

    /// Replay the fixed sample of jobs on the reference path; one
    /// `(job, mismatch)` per failure.
    fn verify(&mut self) -> Vec<(u64, String)>;

    /// The workload's own per-layer values and its counting pass.
    /// Returns the names of counters the registry no longer has.
    fn layers(
        &mut self,
        v: &mut Values,
        seconds: f64,
        untraced: &Phase,
        traced: &Phase,
    ) -> Result<Vec<String>, String>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        spans_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} takes a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--spans-dir" => args.spans_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds {} out of (0, 600]", args.seconds));
    }
    Ok(args)
}

/// What a run prints.
struct Report {
    values: Values,
    attempted: u64,
    failures: Vec<(u64, String)>,
}

fn run<W: Workload>(args: &Args) -> Result<Report, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut raw_setup_s = Vec::with_capacity(SETUP_REPS);
    let mut w = None;
    for _ in 0..SETUP_REPS {
        let factor = stats::median(&[0; 3].map(|_| workload::speed_factor()));
        let t0 = Instant::now();
        let built = W::setup(args.seed)?;
        let s = t0.elapsed().as_secs_f64();
        raw_setup_s.push(s);
        setup_s.push(s * factor);
        w = Some(built);
    }
    let mut w = w.expect("at least one set-up");
    eprintln!(
        "set-up: {SETUP_REPS} reps; measured: cold {:.6} s, median {:.6} s",
        raw_setup_s[0],
        stats::median(&raw_setup_s)
    );

    let untraced = timed_phase(args.seconds, |j| {
        let input = w.input(j);
        w.job(j, input)
    });
    let rss = workload::peak_rss_mb();
    let mut failures = untraced.failures.clone();
    failures.extend(w.verify());

    let mut v = Values::default();
    v.set("setup_s", stats::median(&setup_s));
    v.set("job_ms_p50", untraced.job_ms(50.0));
    v.set("job_ms_p90", untraced.job_ms(90.0));
    v.set("peak_rss_mb", rss);
    v.set(
        "instants_per_s",
        untraced.instants as f64 / untraced.busy_s(),
    );
    v.set(
        "failed_share",
        failed_jobs(&failures) as f64 / untraced.attempted() as f64,
    );
    eprintln!(
        "untraced: {} jobs, {} instants; median speed factor {:.3}; measured job ms p50 {:.3}, p90 {:.3}",
        untraced.attempted(),
        untraced.instants,
        untraced.median_factor(),
        untraced.raw_job_ms(50.0),
        untraced.raw_job_ms(90.0),
    );

    if args.trace {
        let mut tr = Tracer::new();
        w.traced_setup(&mut tr)?;
        // Traced jobs run on this thread only, the fleet's included.
        let traced = timed_phase(args.seconds, |j| {
            let input = w.input(j);
            w.traced_job(j, input, &mut tr)
        });
        failures.extend(traced.failures.iter().cloned());
        let absent = w.layers(&mut v, args.seconds, &untraced, &traced)?;
        if !absent.is_empty() {
            eprintln!("counters absent from the registry (read as 0): {absent:?}");
        }
        set_traced(&mut v, &tr, &traced);
        if let Some(dir) = &args.spans_dir {
            let path = dir.join(format!("{}-seed{}.tsv", args.workload, args.seed));
            match tr.write_tsv(&path) {
                Ok(dropped) => eprintln!(
                    "spans written to {} ({dropped} folded into totals only)",
                    path.display()
                ),
                Err(e) => return Err(format!("cannot write {}: {e}", path.display())),
            }
        }
    }
    Ok(Report {
        values: v,
        attempted: untraced.attempted(),
        failures,
    })
}

/// Distinct jobs among `(job, reason)` failures.
fn failed_jobs(failures: &[(u64, String)]) -> u64 {
    let mut jobs: Vec<u64> = failures.iter().map(|(j, _)| *j).collect();
    jobs.sort_unstable();
    jobs.dedup();
    jobs.len() as u64
}

/// Per-layer values read off the traced run's spans, scaled like the
/// traced jobs to the reference machine speed.
fn set_traced(v: &mut Values, tr: &Tracer, traced: &Phase) {
    let f = traced.median_factor();
    let samples = tr.sampled_sorted();
    v.set("sim.instant_ns_p50", f * stats::percentile(&samples, 50.0));
    v.set("sim.instant_ns_p99", f * stats::percentile(&samples, 99.0));
    let per_instant = |name: &str| {
        if traced.instants == 0 {
            0.0
        } else {
            f * tr.totals(name).total_ns as f64 / traced.instants as f64
        }
    };
    v.set("core.input_ns", per_instant("core.input"));
    v.set("observe.step_ns", per_instant("observe.step"));
    v.set("sim.session_init_us", f * tr.mean_us("sim.session_init"));
    v.set("sim.snapshot_us", f * tr.mean_us("sim.snapshot"));
    v.set("sim.restore_us", f * tr.mean_us("sim.restore"));
    let job = tr.totals("job");
    v.set(
        "sim.unattributed_share",
        job.self_ns as f64 / job.total_ns as f64,
    );
    // Compile stages, per compile: each compile parses once.
    let compiles = tr.totals("ecl-syntax.parse").count.max(1) as f64;
    for (metric, span) in [
        ("ecl-syntax.parse_us", "ecl-syntax.parse"),
        ("core.elab_split_us", "core.elab_split"),
        ("esterel.efsm_us", "esterel.efsm"),
        ("efsm.table_us", "efsm.table"),
        ("core.rt_us", "core.rt"),
        ("sim.program_us", "sim.program"),
        ("observe.synth_us", "observe.synth"),
        ("codegen.emit_us", "codegen.emit"),
    ] {
        v.set(metric, f * tr.totals(span).total_ns as f64 / compiles / 1e3);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let report = match args.workload.as_str() {
        "stack_solo" => run::<stack::StackSolo>(&args),
        "pager_fleet" => run::<fleet::PagerFleet>(&args),
        "compile" => run::<compile::CompileMix>(&args),
        other => Err(format!(
            "unknown workload `{other}` (stack_solo, pager_fleet, compile)"
        )),
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    for (job, f) in &report.failures {
        eprintln!("FAILED job {job}: {f}");
    }
    let failed = failed_jobs(&report.failures);
    let correct = report.failures.is_empty();
    let set = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "{} seed {} ({} jobs, {} failed):",
        args.workload, args.seed, report.attempted, failed
    );
    print!("{}", report.values.table(END_TO_END));
    // `instants_per_s` and `failed_share` come from the untraced run.
    print!("{}", report.values.table(&PER_LAYER[..2]));
    if args.trace {
        print!("{}", report.values.table(&PER_LAYER[2..]));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        report.attempted,
        report.values.json(set)
    );
    if !correct {
        std::process::exit(1);
    }
}
