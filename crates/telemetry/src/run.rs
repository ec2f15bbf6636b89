//! Run correlation and event emission.
//!
//! A [`Run`] brackets one simulation (design + config) with
//! `run_start`/`run_end` events and stamps a process-unique
//! correlation id that every event emitted in between carries, so a
//! consumer can split an interleaved JSONL stream back into runs.
//!
//! [`event`] is the single emission gate: it returns `None` unless
//! telemetry is enabled *and* a sink is installed, so call sites pay
//! two relaxed loads and nothing else when observability is off.

use crate::json::ObjBuilder;
use crate::schema::SCHEMA_VERSION;
use crate::sink;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Monotonic run sequence within the process.
static RUN_SEQ: AtomicU64 = AtomicU64::new(0);

/// Sequence number of the current run (0 = no run open; events emitted
/// outside a run carry sequence 0).
static CURRENT_RUN: AtomicU64 = AtomicU64::new(0);

/// Process-unique run-id prefix: pid + epoch seconds at first use.
fn run_prefix() -> &'static str {
    static PREFIX: OnceLock<String> = OnceLock::new();
    PREFIX.get_or_init(|| {
        let secs = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        format!("{:x}-{:x}", std::process::id(), secs)
    })
}

/// The correlation id events are stamped with right now.
pub fn current_run_id() -> String {
    format!("r{}-{}", run_prefix(), CURRENT_RUN.load(Ordering::Relaxed))
}

/// Milliseconds since the UNIX epoch, as an f64 (µs resolution after
/// the builder's 3-decimal rendering).
fn now_ms() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs_f64() * 1e3)
}

/// An event line under construction, preloaded with the schema
/// preamble (`schema`, `ts`, `run_id`, `event`). Dropping without
/// [`EventBuilder::emit`] discards the line.
#[must_use = "call .emit() to deliver the event to the sink"]
pub struct EventBuilder {
    obj: ObjBuilder,
}

/// Open an event line named `name`, or `None` when telemetry is
/// disabled or no sink is installed (the only gate emission sites need
/// to check).
#[inline]
pub fn event(name: &str) -> Option<EventBuilder> {
    if !crate::enabled() || !sink::has_sink() {
        return None;
    }
    let mut obj = ObjBuilder::new();
    obj.u64("schema", SCHEMA_VERSION)
        .f64("ts", now_ms())
        .str("run_id", &current_run_id())
        .str("event", name);
    Some(EventBuilder { obj })
}

impl EventBuilder {
    /// Append an unsigned integer field.
    pub fn u64(mut self, k: &str, v: u64) -> Self {
        self.obj.u64(k, v);
        self
    }

    /// Append a signed integer field.
    pub fn i64(mut self, k: &str, v: i64) -> Self {
        self.obj.i64(k, v);
        self
    }

    /// Append a float field.
    pub fn f64(mut self, k: &str, v: f64) -> Self {
        self.obj.f64(k, v);
        self
    }

    /// Append a string field.
    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.obj.str(k, v);
        self
    }

    /// Append a boolean field.
    pub fn bool(mut self, k: &str, v: bool) -> Self {
        self.obj.bool(k, v);
        self
    }

    /// Append a nested `(name, u64)` map field.
    pub fn obj_u64<'a>(mut self, k: &str, pairs: impl IntoIterator<Item = (&'a str, u64)>) -> Self {
        self.obj.obj_u64(k, pairs);
        self
    }

    /// Render the line and deliver it to the installed sink.
    pub fn emit(self) {
        sink::emit_line(&self.obj.finish());
    }
}

/// Backend-coverage summary a runner can attach to its `run_end`
/// event (extra fields on a known kind are schema-legal): how much of
/// the design executes on the compiled fused backend vs the walker.
///
/// Defined here — not in the runner crates — so telemetry stays at the
/// bottom of the dependency graph; runners convert their own coverage
/// reports into this flat shape.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunCoverage {
    /// Total control states across all tasks.
    pub states: u32,
    /// Control ops of the compiled reactions across all tasks (one per
    /// live s-graph node).
    pub fused_rows: u32,
    /// Data hooks compiled to VM bytecode.
    pub vm_compiled: u32,
    /// Total data hooks across all tasks.
    pub vm_total: u32,
}

/// One bracketed simulation run. Construct with [`Run::start`] (emits
/// `run_start` and claims the correlation id), close with [`Run::end`]
/// (emits `run_end` with wall time and throughput, then flushes the
/// sink).
pub struct Run {
    design: String,
    config: String,
    t0: Instant,
    seq: u64,
    session: u64,
}

impl Run {
    /// Open a run: bump the run sequence, stamp it current, emit
    /// `run_start` (with session 0 — fleet supervisors use
    /// [`Run::start_session`]).
    pub fn start(design: &str, config: &str) -> Run {
        Run::start_session(design, config, 0)
    }

    /// Open a run attributed to fleet session `session`: the
    /// `run_start`/`run_end` bracket carries the id.
    pub fn start_session(design: &str, config: &str, session: u64) -> Run {
        let seq = RUN_SEQ.fetch_add(1, Ordering::Relaxed) + 1;
        CURRENT_RUN.store(seq, Ordering::Relaxed);
        if let Some(e) = event("run_start") {
            e.str("design", design)
                .str("config", config)
                .u64("session", session)
                .emit();
        }
        Run {
            design: design.to_string(),
            config: config.to_string(),
            t0: Instant::now(),
            seq,
            session,
        }
    }

    /// The run's own correlation id (stable even after another run
    /// starts).
    pub fn id(&self) -> String {
        format!("r{}-{}", run_prefix(), self.seq)
    }

    /// Close the run: emit `run_end` with the instant count, wall
    /// nanoseconds and instants/sec, then flush the sink.
    pub fn end(self, instants: u64) {
        self.end_with_coverage(instants, None)
    }

    /// Close the run like [`Run::end`], additionally stamping the
    /// `run_end` event with backend-coverage fields when `coverage`
    /// is provided.
    pub fn end_with_coverage(self, instants: u64, coverage: Option<&RunCoverage>) {
        let wall_ns = self.t0.elapsed().as_nanos() as u64;
        if let Some(e) = event("run_end") {
            let per_sec = if wall_ns == 0 {
                0.0
            } else {
                instants as f64 / (wall_ns as f64 / 1e9)
            };
            let mut e = e
                .str("design", &self.design)
                .str("config", &self.config)
                .u64("session", self.session)
                .u64("instants", instants)
                .u64("wall_ns", wall_ns)
                .f64("instants_per_sec", per_sec);
            if let Some(c) = coverage {
                e = e
                    .u64("states", c.states as u64)
                    .u64("fused_rows", c.fused_rows as u64)
                    .u64("vm_compiled", c.vm_compiled as u64)
                    .u64("vm_total", c.vm_total as u64);
            }
            e.emit();
        }
        CURRENT_RUN.store(0, Ordering::Relaxed);
        sink::flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{install_sink, uninstall_sink, MemorySink};

    #[test]
    fn event_gate_requires_enabled_and_sink() {
        let _g = crate::tests::locked();
        crate::set_enabled(false);
        uninstall_sink();
        assert!(event("x").is_none());
        crate::set_enabled(true);
        assert!(event("x").is_none(), "no sink installed");
        let mem = MemorySink::new();
        install_sink(Box::new(mem.clone()));
        event("x").unwrap().u64("n", 1).emit();
        uninstall_sink();
        crate::set_enabled(false);
        let lines = mem.lines();
        assert_eq!(lines.len(), 1);
        let obj = crate::schema::parse(&lines[0]).unwrap();
        assert_eq!(obj.get("event").and_then(|v| v.as_str()), Some("x"));
        assert!(obj.get("run_id").is_some());
        assert!(obj.get("ts").is_some());
    }

    #[test]
    fn run_brackets_emit_valid_start_and_end() {
        let _g = crate::tests::locked();
        crate::set_enabled(true);
        let mem = MemorySink::new();
        install_sink(Box::new(mem.clone()));
        let run = Run::start("stack", "vm");
        let id = run.id();
        run.end(10);
        uninstall_sink();
        crate::set_enabled(false);
        let lines = mem.lines();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            crate::schema::validate_line(line).unwrap();
            let obj = crate::schema::parse(line).unwrap();
            assert_eq!(obj.get("run_id").and_then(|v| v.as_str()), Some(&id[..]));
        }
        let end = crate::schema::parse(&lines[1]).unwrap();
        assert_eq!(end.get("event").and_then(|v| v.as_str()), Some("run_end"));
        assert_eq!(end.get("instants").and_then(|v| v.as_u64()), Some(10));
    }
}
