//! `ecl-telemetry` — structured observability for the reaction hot
//! path.
//!
//! Every execution backend in this repo (s-graph walker, transition
//! tables, fused bytecode reactions) ultimately runs inside the same per-instant
//! loop; this crate gives that loop one shared window: a **lock-free
//! metric registry** of static counter/timer/histogram handles, a
//! **per-run correlation id**, and a **pluggable sink** that emits one
//! JSON object per line (run boundaries, per-N-instant span summaries,
//! monitor verdicts, error instants, `events_lost` warnings).
//!
//! The overhead contract, enforced by `tests/alloc_counter.rs` and the
//! normalized bench gate:
//!
//! * **disabled** (the default): a metric update is one relaxed
//!   atomic load and a predicted branch — no allocation, no store, no
//!   lock. Hot loops may hoist the check once ([`enabled`]) and use
//!   the `raw_*` update paths behind their own local flag.
//! * **enabled**: metric updates are relaxed atomic RMWs on static
//!   cells — still allocation-free and lock-free. Heap traffic happens
//!   only when an *event line* is rendered for the sink (run
//!   boundaries, spans, verdicts — never per instant in steady state
//!   unless a span closes).
//!
//! Nothing here depends on the rest of the workspace: `rtk`, `efsm`,
//! `ecl-types`, `sim` and `ecl-observe` all depend on this crate and
//! bump the well-known handles in [`metrics`].

pub mod json;
pub mod metrics;
pub mod run;
pub mod schema;
pub mod sink;

pub use run::{event, EventBuilder, Run, RunCoverage};
pub use sink::{install_sink, uninstall_sink, MemorySink, Sink, WriterSink};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Master switch. Off by default; every metric update short-circuits
/// on a relaxed load of this flag.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Span summary cadence in instants (0 = spans off). Read once per
/// `run_events` call by the sim runners.
static SPAN_EVERY: AtomicU64 = AtomicU64::new(1024);

/// Is telemetry collection on? One relaxed load — hot loops may call
/// this once and keep the answer in a register.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn collection on or off (process-wide).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Current span cadence (instants per span summary; 0 = off).
pub fn span_every() -> u64 {
    SPAN_EVERY.load(Ordering::Relaxed)
}

/// Set the span cadence (0 disables span summaries).
pub fn set_span_every(n: u64) {
    SPAN_EVERY.store(n, Ordering::Relaxed);
}

/// Configure from the environment — the switchboard for binaries and
/// examples: `ECL_TELEMETRY=1` enables collection,
/// `ECL_TELEMETRY_OUT=<path>` installs a line-buffered file sink
/// (stderr with `ECL_TELEMETRY_OUT=-`), `ECL_TELEMETRY_SPAN=<n>`
/// overrides the span cadence. Returns whether telemetry ended up
/// enabled.
pub fn init_from_env() -> bool {
    let on = std::env::var("ECL_TELEMETRY").is_ok_and(|v| v != "0" && !v.is_empty());
    set_enabled(on);
    if let Ok(n) = std::env::var("ECL_TELEMETRY_SPAN") {
        if let Ok(n) = n.parse::<u64>() {
            set_span_every(n);
        }
    }
    if on {
        match std::env::var("ECL_TELEMETRY_OUT").as_deref() {
            Ok("-") => install_sink(Box::new(WriterSink::stderr())),
            Ok(path) => match std::fs::File::create(path) {
                Ok(f) => install_sink(Box::new(WriterSink::new(f))),
                Err(e) => eprintln!("ecl-telemetry: cannot open {path}: {e}"),
            },
            Err(_) => {}
        }
    }
    on
}

/// A named monotonically increasing counter with a static handle.
///
/// `static PKTS: Counter = Counter::new("sim.packets");` — updates are
/// relaxed `fetch_add`s when enabled and a load+branch when not.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    cell: AtomicU64,
}

impl Counter {
    /// A zeroed counter (const — usable in statics).
    pub const fn new(name: &'static str) -> Counter {
        Counter {
            name,
            cell: AtomicU64::new(0),
        }
    }

    /// The registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Add `n` if telemetry is enabled.
    #[inline(always)]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.raw_add(n);
        }
    }

    /// Add 1 if telemetry is enabled.
    #[inline(always)]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Unconditional add — for loops that hoisted the [`enabled`]
    /// check into a local.
    #[inline(always)]
    pub fn raw_add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }

    /// Reset to zero (profiling harnesses isolate configs this way).
    pub fn reset(&self) {
        self.cell.store(0, Ordering::Relaxed);
    }
}

/// Bucket count of [`Histogram`]: one power-of-two bucket per possible
/// `leading_zeros` answer (bucket `i` holds values in
/// `[2^(i-1), 2^i)`, bucket 0 holds zero).
pub const HIST_BUCKETS: usize = 65;

/// A lock-free log₂-bucketed histogram with a static handle.
///
/// Records are relaxed RMWs on fixed atomic cells; quantiles are
/// answered from the bucket upper bounds (within 2x of the true
/// value, which is plenty for "did the per-instant wall time move").
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// A zeroed histogram (const — usable in statics).
    pub const fn new(name: &'static str) -> Histogram {
        Histogram {
            name,
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// The registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Record `v` if telemetry is enabled.
    #[inline(always)]
    pub fn record(&self, v: u64) {
        if enabled() {
            self.raw_record(v);
        }
    }

    /// Unconditional record — for loops that hoisted the [`enabled`]
    /// check.
    #[inline]
    pub fn raw_record(&self, v: u64) {
        let b = (u64::BITS - v.leading_zeros()) as usize;
        self.buckets[b].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Start a timer that records elapsed nanoseconds on drop; `None`
    /// when telemetry is disabled (so the clock is never read).
    #[inline]
    pub fn start_timer(&self) -> Option<TimerGuard<'_>> {
        enabled().then(|| TimerGuard {
            hist: self,
            t0: Instant::now(),
        })
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Upper bound of the bucket containing quantile `q` in `[0, 1]`
    /// (0 when empty).
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return if i == 0 {
                    0
                } else {
                    (1u64 << i).wrapping_sub(1)
                };
            }
        }
        self.max()
    }

    /// Reset every cell to zero.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// Records elapsed wall time (ns) into a [`Histogram`] when dropped.
pub struct TimerGuard<'h> {
    hist: &'h Histogram,
    t0: Instant,
}

impl Drop for TimerGuard<'_> {
    fn drop(&mut self) {
        self.hist.raw_record(self.t0.elapsed().as_nanos() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Process-global state (ENABLED) is shared across test threads;
    // serialize the tests that flip it.
    pub(crate) static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    pub(crate) fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_counter_does_not_move() {
        let _g = locked();
        set_enabled(false);
        static C: Counter = Counter::new("test.disabled");
        C.add(5);
        C.incr();
        assert_eq!(C.get(), 0);
    }

    #[test]
    fn enabled_counter_counts_and_resets() {
        let _g = locked();
        set_enabled(true);
        static C: Counter = Counter::new("test.enabled");
        C.reset();
        C.add(5);
        C.incr();
        assert_eq!(C.get(), 6);
        C.reset();
        assert_eq!(C.get(), 0);
        set_enabled(false);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let _g = locked();
        set_enabled(true);
        static H: Histogram = Histogram::new("test.hist");
        H.reset();
        for v in [0u64, 1, 2, 3, 100, 1000] {
            H.record(v);
        }
        assert_eq!(H.count(), 6);
        assert_eq!(H.sum(), 1106);
        assert_eq!(H.max(), 1000);
        assert_eq!(H.quantile(0.0), 0);
        // p50 lands in the bucket of 2..=3.
        assert_eq!(H.quantile(0.5), 3);
        assert!(H.quantile(1.0) >= 1000);
        H.reset();
        assert_eq!(H.quantile(0.5), 0);
        set_enabled(false);
    }

    #[test]
    fn timer_guard_records_on_drop() {
        let _g = locked();
        set_enabled(true);
        static H: Histogram = Histogram::new("test.timer");
        H.reset();
        drop(H.start_timer());
        assert_eq!(H.count(), 1);
        set_enabled(false);
        assert!(H.start_timer().is_none());
    }
}
