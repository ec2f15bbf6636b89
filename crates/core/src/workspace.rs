//! The batch compilation session: many modules, shared parses,
//! parallel stage execution, memoized artifacts.
//!
//! A [`Workspace`] holds a set of named ECL sources and serves
//! compilation requests against them. It is the driver the
//! production-scale goals build on:
//!
//! * **Shared parsing** — each source is parsed once, whatever number
//!   of entry modules is compiled from it ([`Workspace::parsed`] is
//!   memoized by source name).
//! * **Memoized designs** — elaborate+split results (successes *and*
//!   failures) are cached by `(source, entry, strategy)`; compiled
//!   EFSMs by the same key.
//!   Cache effectiveness is observable through
//!   [`Workspace::cache_stats`].
//! * **Parallel batches** — [`Workspace::compile_all`] fans a list of
//!   `(source, entry)` jobs across scoped worker threads (every
//!   pipeline stage type is `Send + Sync`) and returns one
//!   [`Result`] per job, in job order, with span-annotated
//!   [`EclError`] diagnostics for the failures.
//!
//! Batch code generation (C/Verilog per design) lives in the `codegen`
//! crate's `WorkspaceCodegenExt`, which builds on
//! [`Workspace::compile`] and [`Workspace::machine`].
//!
//! # Example
//!
//! ```
//! use ecl_core::workspace::Workspace;
//!
//! let mut ws = Workspace::new();
//! ws.add_source(
//!     "relay.ecl",
//!     "module a(input pure i, output pure m) { while (1) { await (i); emit (m); } }
//!      module b(input pure m, output pure o) { while (1) { await (m); emit (o); } }
//!      module top(input pure i, output pure o) {
//!        signal pure mid; par { a(i, mid); b(mid, o); } }",
//! );
//! let jobs = [("relay.ecl", "a"), ("relay.ecl", "b"), ("relay.ecl", "top")];
//! let results = ws.compile_all(&jobs);
//! assert!(results.iter().all(Result::is_ok));
//! // The source was parsed exactly once.
//! assert_eq!(ws.cache_stats().parse_misses, 1);
//! ```

use crate::pipeline::{Design, Parsed, Source, Split};
use crate::split::SplitStrategy;
use ecl_syntax::diag::{EclError, Stage};
use ecl_syntax::source::Span;
use esterel::compile::CompileOptions;
use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Cache-effectiveness counters (snapshot of a workspace's lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Parse requests served from cache.
    pub parse_hits: u64,
    /// Parses actually performed.
    pub parse_misses: u64,
    /// Design requests served from cache.
    pub design_hits: u64,
    /// Elaborate+split runs actually performed.
    pub design_misses: u64,
    /// EFSM requests served from cache.
    pub machine_hits: u64,
    /// EFSM compilations actually performed.
    pub machine_misses: u64,
    /// Extension-artifact requests served from cache.
    pub ext_hits: u64,
    /// Extension artifacts actually computed.
    pub ext_misses: u64,
}

#[derive(Debug, Default)]
struct Counters {
    parse_hits: AtomicU64,
    parse_misses: AtomicU64,
    design_hits: AtomicU64,
    design_misses: AtomicU64,
    machine_hits: AtomicU64,
    machine_misses: AtomicU64,
    ext_hits: AtomicU64,
    ext_misses: AtomicU64,
}

type DesignKey = (String, String, SplitStrategy);
/// Extension-cache key: `(source, subkey, kind)`.
type ExtKey = (String, String, &'static str);
/// Type-erased extension artifact (downcast by [`Workspace::memo_ext`]).
type ExtValue = Arc<dyn Any + Send + Sync>;

/// One memo slot: computed exactly once per key, even when many
/// threads request it concurrently (`OnceLock` blocks the losers
/// until the winner's result is visible).
type Slot<T> = Arc<OnceLock<Result<T, EclError>>>;

/// Get-or-compute a slot in `map` under `key`. `compute` runs at most
/// once per key; the map lock is never held across it.
fn memoize<K, T>(
    map: &Mutex<HashMap<K, Slot<T>>>,
    key: K,
    hits: &AtomicU64,
    misses: &AtomicU64,
    compute: impl FnOnce() -> Result<T, EclError>,
) -> Result<T, EclError>
where
    K: std::hash::Hash + Eq,
    T: Clone,
{
    let cell = Arc::clone(map.lock().expect("lock").entry(key).or_default());
    let mut computed = false;
    let result = cell
        .get_or_init(|| {
            computed = true;
            compute()
        })
        .clone();
    if computed {
        misses.fetch_add(1, Ordering::Relaxed);
    } else {
        hits.fetch_add(1, Ordering::Relaxed);
    }
    result
}

/// A multi-module compilation session over a set of named sources.
///
/// All query methods take `&self` and are safe to call from many
/// threads; mutation ([`Workspace::add_source`],
/// [`Workspace::set_compile_options`]) takes `&mut self` and
/// invalidates exactly the affected cache entries.
#[derive(Debug, Default)]
pub struct Workspace {
    compile_options: CompileOptions,
    sources: HashMap<String, Source>,
    parsed: Mutex<HashMap<String, Slot<Arc<Parsed>>>>,
    designs: Mutex<HashMap<DesignKey, Slot<Arc<Design>>>>,
    machines: Mutex<HashMap<DesignKey, Slot<Arc<efsm::Efsm>>>>,
    /// Extension artifacts: further terminal stages (monitor sets,
    /// co-simulation stubs…) memoized by `(source, subkey, kind)`
    /// without `ecl-core` knowing their types.
    ext: Mutex<HashMap<ExtKey, Slot<ExtValue>>>,
    counters: Counters,
}

impl Workspace {
    /// An empty workspace with default options.
    pub fn new() -> Self {
        Self::default()
    }

    /// The EFSM-compilation options used by [`Workspace::machine`].
    pub fn compile_options(&self) -> CompileOptions {
        self.compile_options
    }

    /// Replace the EFSM-compilation options (drops cached machines —
    /// they were built under the old options).
    pub fn set_compile_options(&mut self, opts: CompileOptions) {
        self.compile_options = opts;
        self.machines.lock().expect("lock").clear();
    }

    /// Add (or replace) a named source. Replacing invalidates every
    /// cached artifact derived from that name.
    pub fn add_source(&mut self, name: impl Into<String>, text: impl Into<String>) {
        let name = name.into();
        self.parsed.lock().expect("lock").remove(&name);
        self.designs
            .lock()
            .expect("lock")
            .retain(|(n, _, _), _| *n != name);
        self.machines
            .lock()
            .expect("lock")
            .retain(|(n, _, _), _| *n != name);
        self.ext
            .lock()
            .expect("lock")
            .retain(|(n, _, _), _| *n != name);
        self.sources
            .insert(name.clone(), Source::named(name, text.into()));
    }

    /// Names of the registered sources.
    pub fn source_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.sources.keys().cloned().collect();
        names.sort();
        names
    }

    /// Snapshot of the cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            parse_hits: self.counters.parse_hits.load(Ordering::Relaxed),
            parse_misses: self.counters.parse_misses.load(Ordering::Relaxed),
            design_hits: self.counters.design_hits.load(Ordering::Relaxed),
            design_misses: self.counters.design_misses.load(Ordering::Relaxed),
            machine_hits: self.counters.machine_hits.load(Ordering::Relaxed),
            machine_misses: self.counters.machine_misses.load(Ordering::Relaxed),
            ext_hits: self.counters.ext_hits.load(Ordering::Relaxed),
            ext_misses: self.counters.ext_misses.load(Ordering::Relaxed),
        }
    }

    /// Get-or-compute an *extension artifact* — a terminal-stage value
    /// owned by a downstream crate (e.g. `ecl-observe` monitor sets,
    /// batch codegen bundles) — memoized by `(source, subkey, kind)`
    /// with the same once-per-key semantics as the built-in caches.
    /// Entries are invalidated when `source` is replaced.
    ///
    /// # Errors
    ///
    /// Propagates the compute failure (memoized too), or reports a
    /// `kind` reused with a different type.
    pub fn memo_ext<T: Send + Sync + 'static>(
        &self,
        source: &str,
        subkey: &str,
        kind: &'static str,
        compute: impl FnOnce() -> Result<Arc<T>, EclError>,
    ) -> Result<Arc<T>, EclError> {
        let erased = memoize(
            &self.ext,
            (source.to_string(), subkey.to_string(), kind),
            &self.counters.ext_hits,
            &self.counters.ext_misses,
            || compute().map(|v| v as Arc<dyn Any + Send + Sync>),
        )?;
        erased.downcast::<T>().map_err(|_| {
            EclError::msg(
                Stage::Codegen,
                format!("extension cache kind `{kind}` holds a different type"),
                Span::dummy(),
            )
        })
    }

    /// The parsed form of source `name` (memoized).
    ///
    /// # Errors
    ///
    /// Unknown source name, or a parse failure.
    pub fn parsed(&self, name: &str) -> Result<Arc<Parsed>, EclError> {
        let source = self.sources.get(name).ok_or_else(|| {
            EclError::msg(
                Stage::Parse,
                format!("workspace has no source named `{name}`"),
                Span::dummy(),
            )
        })?;
        // Failures memoize too: a broken source costs one parse per
        // replace, not one per request.
        memoize(
            &self.parsed,
            name.to_string(),
            &self.counters.parse_hits,
            &self.counters.parse_misses,
            || source.parse().map(Arc::new),
        )
    }

    /// Module names declared in source `name` (candidate entries).
    ///
    /// # Errors
    ///
    /// Unknown source name, or a parse failure.
    pub fn entry_modules(&self, name: &str) -> Result<Vec<String>, EclError> {
        Ok(self.parsed(name)?.module_names())
    }

    /// The [`Split`] stage for `(name, entry)` under `strategy` —
    /// an explicit re-entry point for stage-level tooling (not
    /// memoized; the parse underneath is).
    ///
    /// # Errors
    ///
    /// First failing stage.
    pub fn split_stage(
        &self,
        name: &str,
        entry: &str,
        strategy: SplitStrategy,
    ) -> Result<Split, EclError> {
        self.parsed(name)?.elaborate(entry)?.split_with(strategy)
    }

    /// Compile `(name, entry)` under the default strategy (memoized).
    ///
    /// # Errors
    ///
    /// First failing stage.
    pub fn compile(&self, name: &str, entry: &str) -> Result<Arc<Design>, EclError> {
        self.compile_with(name, entry, SplitStrategy::default())
    }

    /// Compile `(name, entry)` under an explicit strategy (memoized by
    /// `(name, entry, strategy)`).
    ///
    /// # Errors
    ///
    /// First failing stage.
    pub fn compile_with(
        &self,
        name: &str,
        entry: &str,
        strategy: SplitStrategy,
    ) -> Result<Arc<Design>, EclError> {
        memoize(
            &self.designs,
            (name.to_string(), entry.to_string(), strategy),
            &self.counters.design_hits,
            &self.counters.design_misses,
            || {
                self.split_stage(name, entry, strategy)
                    .map(|s| Arc::new(s.to_design()))
            },
        )
    }

    /// The compiled EFSM for `(name, entry)` under the default
    /// strategy and the workspace's [`CompileOptions`] (memoized).
    ///
    /// # Errors
    ///
    /// First failing stage.
    pub fn machine(&self, name: &str, entry: &str) -> Result<Arc<efsm::Efsm>, EclError> {
        let key = (
            name.to_string(),
            entry.to_string(),
            SplitStrategy::default(),
        );
        memoize(
            &self.machines,
            key,
            &self.counters.machine_hits,
            &self.counters.machine_misses,
            || {
                self.compile(name, entry)
                    .and_then(|design| design.to_efsm(&self.compile_options).map(Arc::new))
            },
        )
    }

    /// Compile a batch of `(source, entry)` jobs in parallel on scoped
    /// worker threads. Returns one result per job, in job order.
    /// Results are identical to calling [`Workspace::compile`]
    /// sequentially — parallelism only changes wall-clock time.
    pub fn compile_all(&self, jobs: &[(&str, &str)]) -> Vec<Result<Arc<Design>, EclError>> {
        self.run_jobs(jobs, |name, entry| self.compile(name, entry))
    }

    /// [`Workspace::compile_all`] with an explicit strategy per batch.
    pub fn compile_all_with(
        &self,
        jobs: &[(&str, &str)],
        strategy: SplitStrategy,
    ) -> Vec<Result<Arc<Design>, EclError>> {
        self.run_jobs(jobs, |name, entry| self.compile_with(name, entry, strategy))
    }

    /// Compile a batch to EFSMs in parallel (design + machine each).
    pub fn machine_all(&self, jobs: &[(&str, &str)]) -> Vec<Result<Arc<efsm::Efsm>, EclError>> {
        self.run_jobs(jobs, |name, entry| self.machine(name, entry))
    }

    /// Fan `jobs` across scoped threads; `f` must be safe for
    /// concurrent calls (all query methods are). Each job runs under
    /// `catch_unwind`: a panicking job yields an [`EclError`] for its
    /// slot (and a telemetry `error` event) instead of tearing down the
    /// whole batch — sibling jobs complete normally.
    fn run_jobs<T, F>(&self, jobs: &[(&str, &str)], f: F) -> Vec<Result<T, EclError>>
    where
        T: Send,
        F: Fn(&str, &str) -> Result<T, EclError> + Sync,
    {
        let guarded = |name: &str, entry: &str| -> Result<T, EclError> {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(name, entry)))
                .unwrap_or_else(|p| Err(job_panic_error(name, entry, p.as_ref())))
        };
        if jobs.len() <= 1 {
            return jobs.iter().map(|(n, e)| guarded(n, e)).collect();
        }
        let workers = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)
            .min(jobs.len());
        let slots: Vec<Mutex<Option<Result<T, EclError>>>> =
            jobs.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some((name, entry)) = jobs.get(i) else {
                        break;
                    };
                    let result = guarded(name, entry);
                    *slots[i].lock().expect("slot lock") = Some(result);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("slot lock")
                    .expect("every job slot filled")
            })
            .collect()
    }
}

/// Convert a caught job panic into an [`EclError`] (and a telemetry
/// `error` event), keeping the payload message when it is a string.
fn job_panic_error(name: &str, entry: &str, payload: &(dyn Any + Send)) -> EclError {
    let what = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload");
    if let Some(e) = ecl_telemetry::event("error") {
        e.str("kind", "panic")
            .str("job", name)
            .str("msg", what)
            .emit();
    }
    EclError::msg(
        Stage::Runtime,
        format!("job `{name}:{entry}` panicked: {what}"),
        Span::dummy(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const RELAY: &str = "
        module a(input pure i, output pure m) { while (1) { await (i); emit (m); } }
        module b(input pure m, output pure o) { while (1) { await (m); emit (o); } }
        module top(input pure i, output pure o) {
          signal pure mid;
          par { a(i, mid); b(mid, o); }
        }";

    fn relay_ws() -> Workspace {
        let mut ws = Workspace::new();
        ws.add_source("relay.ecl", RELAY);
        ws
    }

    #[test]
    fn parse_is_shared_across_entries() {
        let ws = relay_ws();
        for entry in ["a", "b", "top"] {
            ws.compile("relay.ecl", entry).unwrap();
        }
        let stats = ws.cache_stats();
        assert_eq!(stats.parse_misses, 1, "{stats:?}");
        assert_eq!(stats.design_misses, 3);
    }

    #[test]
    fn designs_are_memoized() {
        let ws = relay_ws();
        let d1 = ws.compile("relay.ecl", "top").unwrap();
        let d2 = ws.compile("relay.ecl", "top").unwrap();
        assert!(Arc::ptr_eq(&d1, &d2));
        assert_eq!(ws.cache_stats().design_hits, 1);
        // A different strategy is a different cache entry.
        ws.compile_with("relay.ecl", "top", SplitStrategy::MinEsterel)
            .unwrap();
        assert_eq!(ws.cache_stats().design_misses, 2);
    }

    #[test]
    fn replacing_a_source_invalidates_its_artifacts() {
        let mut ws = relay_ws();
        let d1 = ws.compile("relay.ecl", "top").unwrap();
        ws.add_source("relay.ecl", RELAY);
        let d2 = ws.compile("relay.ecl", "top").unwrap();
        assert!(!Arc::ptr_eq(&d1, &d2), "stale cache served after replace");
    }

    #[test]
    fn unknown_source_is_a_parse_stage_error() {
        let ws = relay_ws();
        let e = ws.compile("missing.ecl", "top").unwrap_err();
        assert_eq!(e.stage(), Stage::Parse);
    }

    #[test]
    fn failures_are_per_job() {
        let ws = relay_ws();
        let results = ws.compile_all(&[
            ("relay.ecl", "top"),
            ("relay.ecl", "no_such_module"),
            ("relay.ecl", "a"),
        ]);
        assert!(results[0].is_ok());
        assert_eq!(results[1].as_ref().unwrap_err().stage(), Stage::Elaborate);
        assert!(results[2].is_ok());
    }

    #[test]
    fn machines_are_memoized() {
        let ws = relay_ws();
        let m1 = ws.machine("relay.ecl", "top").unwrap();
        let m2 = ws.machine("relay.ecl", "top").unwrap();
        assert!(Arc::ptr_eq(&m1, &m2));
        m1.validate().unwrap();
    }
    #[test]
    fn extension_artifacts_memoize_and_invalidate() {
        let mut ws = relay_ws();
        let a1 = ws
            .memo_ext("relay.ecl", "top", "lengths", || Ok(Arc::new(RELAY.len())))
            .unwrap();
        let a2 = ws
            .memo_ext("relay.ecl", "top", "lengths", || unreachable!("cached"))
            .unwrap();
        assert!(Arc::ptr_eq(&a1, &a2));
        let stats = ws.cache_stats();
        assert_eq!((stats.ext_misses, stats.ext_hits), (1, 1));
        // A different kind under the same key is a separate entry; a
        // type clash on the same kind is reported, not mis-cast.
        ws.memo_ext("relay.ecl", "top", "names", || {
            Ok(Arc::new("top".to_string()))
        })
        .unwrap();
        assert!(ws
            .memo_ext::<String>("relay.ecl", "top", "lengths", || unreachable!())
            .is_err());
        // Replacing the source drops the cached artifact.
        ws.add_source("relay.ecl", RELAY);
        let a3 = ws
            .memo_ext("relay.ecl", "top", "lengths", || Ok(Arc::new(0usize)))
            .unwrap();
        assert_eq!(*a3, 0);
    }

    #[test]
    fn failures_are_memoized_too() {
        let mut ws = Workspace::new();
        ws.add_source("bad.ecl", "module oops(");
        assert!(ws.compile("bad.ecl", "oops").is_err());
        assert!(ws.compile("bad.ecl", "oops").is_err());
        let stats = ws.cache_stats();
        // Second request hit the memoized parse failure.
        assert_eq!(stats.parse_misses, 1, "{stats:?}");
        // Replacing the source clears the cached failure.
        ws.add_source("bad.ecl", "module oops(input pure a) { await (a); }");
        assert!(ws.compile("bad.ecl", "oops").is_ok());
    }
}
