//! `ecl-faults` — seedable, fully deterministic fault injection for
//! the reaction stack.
//!
//! The kernel, the runners and the `Rt` data path call the site
//! functions below at well-defined points (event posting, input
//! setters, instant boundaries). With no plan
//! installed every site is one relaxed atomic load and a predicted
//! branch — the same master-switch contract as
//! `ecl_telemetry::enabled()`, so the hot path is untouched when
//! faults are off (the zero-allocation and bench gates both run with
//! the switch off).
//!
//! # Determinism contract
//!
//! Every decision is a pure function of the plan seed and the site's
//! *coordinates*, never of global query order:
//!
//! * **keyed sites** (external drop/delay, fuel starvation, session
//!   kill, shard stall) hash `(seed, site salt, coordinates)` — e.g.
//!   `(instant, signal)` or `(shard, quantum)` — with a SplitMix64
//!   finalizer. Two backends that query the same site with the same
//!   coordinates get the same answer regardless of how many *other*
//!   sites fired in between.
//! * **stream sites** (internal drop/delay, input corruption) draw
//!   from a per-site `rand::rngs::StdRng` seeded from
//!   `(seed, site salt)`. Their call sequences are identical across
//!   the walker and compiled backends (posting order and input setter
//!   order are backend-invariant), so the streams replay
//!   bit-identically too.
//!
//! Installing a plan resets all per-site state, so the same seed
//! replays the same faults run after run — the chaos differential
//! suite relies on byte-identical traces across interpreter, walker
//! and compiled runs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

use ecl_telemetry::metrics as tm;

/// Master switch. Off unless a plan is installed; every site function
/// short-circuits on a relaxed load of this flag.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is a fault plan installed? One relaxed load — hot paths call this
/// (or hoist it per instant) before touching any site function.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A deterministic fault plan. All rates are probabilities in
/// `[0, 1]`; the default plan injects nothing even when installed.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for every per-site decision stream.
    pub seed: u64,
    /// P(drop) per external event, keyed by `(instant, signal)`.
    pub drop_external: f64,
    /// P(delay) per external event, keyed by `(instant, signal)`.
    /// A delayed event is re-presented 1..=`max_delay` instants later.
    pub delay_external: f64,
    /// Upper bound (in instants) of an external delay; min 1.
    pub max_delay: u64,
    /// P(drop) per internal (inter-task) event, stream-drawn.
    pub drop_internal: f64,
    /// P(defer to the next instant) per internal event, stream-drawn.
    pub delay_internal: f64,
    /// Shrunk per-task mailbox capacity (pending-set size); `None`
    /// keeps the 1-place-per-signal semantics unbounded across
    /// signals.
    pub mailbox_cap: Option<usize>,
    /// P(corrupt) per `Rt` index-based input write, stream-drawn; the
    /// written value is XOR-perturbed, never left equal.
    pub corrupt_input: f64,
    /// P(starve) per instant, keyed by instant: data-path fuel is
    /// capped at `starved_fuel` for that instant and restored after.
    pub fuel_starve: f64,
    /// The fuel cap applied by a starved instant.
    pub starved_fuel: u64,
    /// Panic injected at the start of this instant (once per
    /// install) — exercises the session containment boundary.
    pub panic_at: Option<u64>,
    /// P(a fleet session is killed at all), keyed by session id. A
    /// killed session dies (injected panic) at a deterministic
    /// instant in `[0, kill_within)`, at most once per install — the
    /// supervisor's restart path replays past the site without
    /// re-dying.
    pub kill_session: f64,
    /// Exclusive upper bound of the kill instant; min 1.
    pub kill_within: u64,
    /// P(stall) per `(shard, quantum)`, keyed: the fleet worker
    /// sleeps `stall_ms` before running the quantum. Purely temporal
    /// — session results must be byte-identical under any stall
    /// pattern (the chaos suite proves it).
    pub shard_stall: f64,
    /// Stall duration in milliseconds.
    pub stall_ms: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            drop_external: 0.0,
            delay_external: 0.0,
            max_delay: 1,
            drop_internal: 0.0,
            delay_internal: 0.0,
            mailbox_cap: None,
            corrupt_input: 0.0,
            fuel_starve: 0.0,
            starved_fuel: 64,
            panic_at: None,
            kill_session: 0.0,
            kill_within: 100,
            shard_stall: 0.0,
            stall_ms: 1,
        }
    }
}

impl FaultPlan {
    /// An inert plan with the given seed.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }
}

/// How many injections each site performed since `install`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectionStats {
    /// External events dropped at the runner boundary.
    pub dropped_external: u64,
    /// External events delayed at the runner boundary.
    pub delayed_external: u64,
    /// Internal events dropped at `Kernel::post_internal`.
    pub dropped_internal: u64,
    /// Internal events deferred one instant at `Kernel::post_internal`.
    pub delayed_internal: u64,
    /// Deliveries rejected by the shrunk mailbox capacity.
    pub mailbox_rejections: u64,
    /// Input values corrupted at the `Rt` setters.
    pub corrupted_inputs: u64,
    /// Instants that ran under a squeezed fuel budget.
    pub starved_instants: u64,
    /// Panics injected.
    pub panics: u64,
    /// Fleet sessions killed at an instant boundary.
    pub session_kills: u64,
    /// Fleet shard quanta stalled.
    pub shard_stalls: u64,
}

impl InjectionStats {
    /// Total injections across all sites.
    pub fn total(&self) -> u64 {
        self.dropped_external
            + self.delayed_external
            + self.dropped_internal
            + self.delayed_internal
            + self.mailbox_rejections
            + self.corrupted_inputs
            + self.starved_instants
            + self.panics
            + self.session_kills
            + self.shard_stalls
    }
}

/// Per-site stream state, reset on every `install`.
struct Active {
    plan: FaultPlan,
    internal_rng: StdRng,
    corrupt_rng: StdRng,
    panic_fired: bool,
    /// Sessions the kill site already fired for (one-shot per
    /// session per install, so checkpoint replay survives the site).
    kills_fired: Vec<u64>,
    stats: InjectionStats,
}

static ACTIVE: Mutex<Option<Active>> = Mutex::new(None);

fn active() -> MutexGuard<'static, Option<Active>> {
    ACTIVE.lock().unwrap_or_else(|e| e.into_inner())
}

// Distinct per-site salts so one site's decisions never alias
// another's.
const SALT_DROP_EXT: u64 = 0x1;
const SALT_DELAY_EXT: u64 = 0x2;
const SALT_DELAY_EXT_N: u64 = 0x3;
const SALT_DROP_INT: u64 = 0x4;
const SALT_CORRUPT: u64 = 0x6;
const SALT_FUEL: u64 = 0x7;
const SALT_KILL: u64 = 0x5;
const SALT_KILL_AT: u64 = 0xA;
const SALT_STALL: u64 = 0xB;

/// SplitMix64 finalizer over the seed, a site salt and two
/// coordinates — the keyed-site decision function.
fn mix(seed: u64, salt: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E3779B97F4A7C15))
        .wrapping_add(a.wrapping_mul(0xBF58476D1CE4E5B9))
        .wrapping_add(b.wrapping_mul(0x94D049BB133111EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Uniform `[0, 1)` from the top 53 bits of a hash.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

fn hit(seed: u64, salt: u64, a: u64, b: u64, p: f64) -> bool {
    p > 0.0 && unit(mix(seed, salt, a, b)) < p
}

/// Emit a `fault_injected` telemetry line (no-op when telemetry is
/// off or sinkless) and bump the injection counter.
fn note_injected(site: &str, a: u64, b: u64) {
    tm::FAULTS_INJECTED.incr();
    if let Some(e) = ecl_telemetry::event("fault_injected") {
        e.str("site", site).u64("a", a).u64("b", b).emit();
    }
}

/// Install `plan` and flip the master switch on. Resets every
/// per-site stream and the injection stats, so the same seed replays
/// the same faults.
pub fn install(plan: FaultPlan) {
    let mut g = active();
    *g = Some(Active {
        internal_rng: StdRng::seed_from_u64(
            plan.seed ^ SALT_DROP_INT.wrapping_mul(0x9E3779B97F4A7C15),
        ),
        corrupt_rng: StdRng::seed_from_u64(
            plan.seed ^ SALT_CORRUPT.wrapping_mul(0x9E3779B97F4A7C15),
        ),
        panic_fired: false,
        kills_fired: Vec::new(),
        stats: InjectionStats::default(),
        plan,
    });
    ENABLED.store(true, Ordering::Relaxed);
}

/// Flip the master switch off and drop the plan, returning the
/// injection stats of the finished chaos run (if one was installed).
pub fn uninstall() -> Option<InjectionStats> {
    ENABLED.store(false, Ordering::Relaxed);
    active().take().map(|a| a.stats)
}

/// Injection stats of the installed plan, if any.
pub fn stats() -> Option<InjectionStats> {
    active().as_ref().map(|a| a.stats)
}

/// The installed plan, if any.
pub fn current_plan() -> Option<FaultPlan> {
    active().as_ref().map(|a| a.plan.clone())
}

/// Should this external event be dropped? Keyed by
/// `(instant, signal)` — runners ask before posting environment
/// stimuli.
pub fn drop_external(instant: u64, sig: u32) -> bool {
    if !enabled() {
        return false;
    }
    let mut g = active();
    let Some(a) = g.as_mut() else { return false };
    if hit(
        a.plan.seed,
        SALT_DROP_EXT,
        instant,
        sig as u64,
        a.plan.drop_external,
    ) {
        a.stats.dropped_external += 1;
        drop(g);
        note_injected("drop_external", instant, sig as u64);
        true
    } else {
        false
    }
}

/// Should this external event be delayed? Returns the number of
/// instants (1..=`max_delay`) to hold it, keyed by
/// `(instant, signal)`. Queried only for events that survived
/// [`drop_external`].
pub fn delay_external(instant: u64, sig: u32) -> Option<u64> {
    if !enabled() {
        return None;
    }
    let mut g = active();
    let a = g.as_mut()?;
    if !hit(
        a.plan.seed,
        SALT_DELAY_EXT,
        instant,
        sig as u64,
        a.plan.delay_external,
    ) {
        return None;
    }
    let span = a.plan.max_delay.max(1);
    let d = 1 + mix(a.plan.seed, SALT_DELAY_EXT_N, instant, sig as u64) % span;
    a.stats.delayed_external += 1;
    drop(g);
    note_injected("delay_external", instant, sig as u64);
    Some(d)
}

/// Should this internal (inter-task) event be dropped? Stream-drawn —
/// `Kernel::post_internal` asks once per emission, and emission order
/// is backend-invariant.
pub fn drop_internal(sig: u32) -> bool {
    if !enabled() {
        return false;
    }
    let mut g = active();
    let Some(a) = g.as_mut() else { return false };
    let p = a.plan.drop_internal;
    if p > 0.0 && unit(a.internal_rng.next_u64()) < p {
        a.stats.dropped_internal += 1;
        drop(g);
        note_injected("drop_internal", sig as u64, 0);
        true
    } else {
        false
    }
}

/// Should this internal event be deferred to the next instant?
/// Stream-drawn, queried only for events that survived
/// [`drop_internal`].
pub fn delay_internal(sig: u32) -> bool {
    if !enabled() {
        return false;
    }
    let mut g = active();
    let Some(a) = g.as_mut() else { return false };
    let p = a.plan.delay_internal;
    if p > 0.0 && unit(a.internal_rng.next_u64()) < p {
        a.stats.delayed_internal += 1;
        drop(g);
        note_injected("delay_internal", sig as u64, 0);
        true
    } else {
        false
    }
}

/// The shrunk mailbox capacity, if the plan applies pressure.
pub fn mailbox_cap() -> Option<usize> {
    if !enabled() {
        return None;
    }
    active().as_ref().and_then(|a| a.plan.mailbox_cap)
}

/// Record one delivery rejected by the shrunk capacity (the kernel
/// counts the loss itself — this only keeps the injection stats and
/// event stream honest).
pub fn note_mailbox_rejection(task: u64, sig: u32) {
    let mut g = active();
    let Some(a) = g.as_mut() else { return };
    a.stats.mailbox_rejections += 1;
    drop(g);
    note_injected("mailbox_cap", task, sig as u64);
}

/// Corrupt an input value about to be written at slot `idx`? Returns
/// the replacement (always different from `v`). Stream-drawn — the
/// runners call the setters in testbench order on every backend.
pub fn corrupt_i64(idx: usize, v: i64) -> Option<i64> {
    if !enabled() {
        return None;
    }
    let mut g = active();
    let a = g.as_mut()?;
    let p = a.plan.corrupt_input;
    if !(p > 0.0 && unit(a.corrupt_rng.next_u64()) < p) {
        return None;
    }
    // A non-zero XOR mask guarantees the value actually changes.
    let mut mask = a.corrupt_rng.next_u64() as i64;
    if mask == 0 {
        mask = 1;
    }
    a.stats.corrupted_inputs += 1;
    drop(g);
    note_injected("corrupt_input", idx as u64, 0);
    Some(v ^ mask)
}

/// Is this instant fuel-starved? Returns the squeezed fuel cap, keyed
/// by instant. Runners apply the cap for the instant and restore the
/// unconsumed balance afterwards.
pub fn fuel_cap(instant: u64) -> Option<u64> {
    if !enabled() {
        return None;
    }
    let mut g = active();
    let a = g.as_mut()?;
    if !hit(a.plan.seed, SALT_FUEL, instant, 0, a.plan.fuel_starve) {
        return None;
    }
    let cap = a.plan.starved_fuel;
    a.stats.starved_instants += 1;
    drop(g);
    note_injected("fuel_starve", instant, cap);
    Some(cap)
}

/// Is the injected panic due at this instant? Fires at most once per
/// `install` (a batch run contains exactly one poisoned session).
pub fn panic_due(instant: u64) -> bool {
    if !enabled() {
        return false;
    }
    let mut g = active();
    let Some(a) = g.as_mut() else { return false };
    if a.panic_fired || a.plan.panic_at != Some(instant) {
        return false;
    }
    a.panic_fired = true;
    a.stats.panics += 1;
    drop(g);
    note_injected("panic", instant, 0);
    true
}

/// Should fleet session `session` be killed at `instant`? Keyed: the
/// victim set is chosen by `(seed, session)` and each victim dies at
/// one deterministic instant in `[0, kill_within)`. One-shot per
/// session per install — the supervisor's checkpoint replay crosses
/// the same instant again without re-dying, so restarts converge.
pub fn kill_due(session: u64, instant: u64) -> bool {
    if !enabled() {
        return false;
    }
    let mut g = active();
    let Some(a) = g.as_mut() else { return false };
    if !hit(a.plan.seed, SALT_KILL, session, 0, a.plan.kill_session) {
        return false;
    }
    let at = mix(a.plan.seed, SALT_KILL_AT, session, 0) % a.plan.kill_within.max(1);
    if instant != at || a.kills_fired.contains(&session) {
        return false;
    }
    a.kills_fired.push(session);
    a.stats.session_kills += 1;
    drop(g);
    note_injected("kill_session", session, instant);
    true
}

/// Which instant would [`kill_due`] fire at for `session`, if any —
/// lets chaos tests predict the victim set without consuming the
/// one-shot latch.
pub fn kill_instant(session: u64) -> Option<u64> {
    if !enabled() {
        return None;
    }
    let g = active();
    let a = g.as_ref()?;
    hit(a.plan.seed, SALT_KILL, session, 0, a.plan.kill_session)
        .then(|| mix(a.plan.seed, SALT_KILL_AT, session, 0) % a.plan.kill_within.max(1))
}

/// Should fleet shard `shard` stall before running quantum `quantum`?
/// Returns the stall in milliseconds. Keyed — purely temporal: the
/// chaos suite proves session outputs are byte-identical under any
/// stall pattern.
pub fn shard_stall(shard: u64, quantum: u64) -> Option<u64> {
    if !enabled() {
        return None;
    }
    let mut g = active();
    let a = g.as_mut()?;
    if !hit(a.plan.seed, SALT_STALL, shard, quantum, a.plan.shard_stall) {
        return None;
    }
    let ms = a.plan.stall_ms;
    a.stats.shard_stalls += 1;
    drop(g);
    note_injected("shard_stall", shard, quantum);
    Some(ms)
}

/// Configure from the environment: `ECL_FAULTS` holds a
/// comma-separated `key=value` list, e.g.
/// `ECL_FAULTS=seed=7,drop_external=0.02,mailbox_cap=3,panic_at=100`.
/// Keys are the [`FaultPlan`] field names. Returns whether a plan was
/// installed. Unknown keys and malformed values are reported on
/// stderr and skipped, never fatal.
pub fn init_from_env() -> bool {
    let Ok(spec) = std::env::var("ECL_FAULTS") else {
        return false;
    };
    if spec.is_empty() || spec == "0" {
        return false;
    }
    let mut plan = FaultPlan::default();
    for item in spec.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        let Some((k, v)) = item.split_once('=') else {
            eprintln!("ecl-faults: malformed ECL_FAULTS item `{item}` (want key=value)");
            continue;
        };
        let ok = match k.trim() {
            "seed" => v.parse().map(|x| plan.seed = x).is_ok(),
            "drop_external" => v.parse().map(|x| plan.drop_external = x).is_ok(),
            "delay_external" => v.parse().map(|x| plan.delay_external = x).is_ok(),
            "max_delay" => v.parse().map(|x| plan.max_delay = x).is_ok(),
            "drop_internal" => v.parse().map(|x| plan.drop_internal = x).is_ok(),
            "delay_internal" => v.parse().map(|x| plan.delay_internal = x).is_ok(),
            "mailbox_cap" => v.parse().map(|x| plan.mailbox_cap = Some(x)).is_ok(),
            "corrupt_input" => v.parse().map(|x| plan.corrupt_input = x).is_ok(),
            "fuel_starve" => v.parse().map(|x| plan.fuel_starve = x).is_ok(),
            "starved_fuel" => v.parse().map(|x| plan.starved_fuel = x).is_ok(),
            "panic_at" => v.parse().map(|x| plan.panic_at = Some(x)).is_ok(),
            "kill_session" => v.parse().map(|x| plan.kill_session = x).is_ok(),
            "kill_within" => v.parse().map(|x| plan.kill_within = x).is_ok(),
            "shard_stall" => v.parse().map(|x| plan.shard_stall = x).is_ok(),
            "stall_ms" => v.parse().map(|x| plan.stall_ms = x).is_ok(),
            other => {
                eprintln!("ecl-faults: unknown ECL_FAULTS key `{other}`");
                continue;
            }
        };
        if !ok {
            eprintln!("ecl-faults: bad value in ECL_FAULTS item `{item}`");
        }
    }
    install(plan);
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    // The plan is process-global; serialize the tests that install
    // one.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_sites_are_inert() {
        let _g = locked();
        uninstall();
        assert!(!enabled());
        assert!(!drop_external(3, 7));
        assert!(delay_external(3, 7).is_none());
        assert!(!drop_internal(7));
        assert!(!delay_internal(7));
        assert!(mailbox_cap().is_none());
        assert!(corrupt_i64(0, 42).is_none());
        assert!(fuel_cap(5).is_none());
        assert!(!panic_due(0));
        assert!(!kill_due(0, 0));
        assert!(kill_instant(0).is_none());
        assert!(shard_stall(0, 0).is_none());
        assert!(stats().is_none());
    }

    #[test]
    fn kill_site_is_one_shot_per_session() {
        let _g = locked();
        install(FaultPlan {
            kill_session: 1.0,
            kill_within: 10,
            ..FaultPlan::seeded(11)
        });
        let at = kill_instant(3).expect("rate 1.0 marks every session");
        assert!(at < 10);
        assert!(!kill_due(3, at + 1), "kill must fire at its own instant");
        assert!(kill_due(3, at));
        assert!(!kill_due(3, at), "kill site must be one-shot per session");
        // Other sessions keep their own independent latch.
        let at4 = kill_instant(4).unwrap();
        assert!(kill_due(4, at4));
        install(FaultPlan {
            kill_session: 1.0,
            kill_within: 10,
            ..FaultPlan::seeded(11)
        });
        assert_eq!(
            kill_instant(3),
            Some(at),
            "kill instant moved under reinstall"
        );
        assert!(kill_due(3, at), "reinstall re-arms the kill site");
        assert_eq!(uninstall().unwrap().session_kills, 1);
    }

    #[test]
    fn stall_site_is_keyed_and_bounded() {
        let _g = locked();
        install(FaultPlan {
            shard_stall: 0.5,
            stall_ms: 3,
            ..FaultPlan::seeded(21)
        });
        let a: Vec<Option<u64>> = (0..64).map(|q| shard_stall(1, q)).collect();
        install(FaultPlan {
            shard_stall: 0.5,
            stall_ms: 3,
            ..FaultPlan::seeded(21)
        });
        let b: Vec<Option<u64>> = (0..64).map(|q| shard_stall(1, q)).collect();
        assert_eq!(a, b, "keyed stall decisions moved under reinstall");
        assert!(a.iter().any(|x| x == &Some(3)), "stall never fired");
        assert!(a.iter().any(|x| x.is_none()), "stall always fired");
        uninstall();
    }

    #[test]
    fn keyed_sites_are_query_order_free() {
        let _g = locked();
        install(FaultPlan {
            drop_external: 0.5,
            fuel_starve: 0.5,
            ..FaultPlan::seeded(42)
        });
        let forward: Vec<bool> = (0..64).map(|i| drop_external(i, (i % 5) as u32)).collect();
        let fuel: Vec<Option<u64>> = (0..64).map(fuel_cap).collect();
        // Reinstall and interleave the queries in a different order —
        // keyed answers must not move.
        install(FaultPlan {
            drop_external: 0.5,
            fuel_starve: 0.5,
            ..FaultPlan::seeded(42)
        });
        for i in (0..64).rev() {
            assert_eq!(fuel_cap(i), fuel[i as usize]);
            assert_eq!(
                drop_external(i, (i % 5) as u32),
                forward[i as usize],
                "instant {i}"
            );
        }
        let s = uninstall().unwrap();
        assert!(s.total() > 0, "a 0.5-rate plan injected nothing");
    }

    #[test]
    fn stream_sites_replay_under_the_same_seed() {
        let _g = locked();
        let plan = FaultPlan {
            drop_internal: 0.3,
            delay_internal: 0.2,
            corrupt_input: 0.4,
            ..FaultPlan::seeded(1999)
        };
        install(plan.clone());
        let a: Vec<(bool, bool, Option<i64>)> = (0..128)
            .map(|i| {
                (
                    drop_internal(i),
                    delay_internal(i),
                    corrupt_i64(i as usize, i as i64),
                )
            })
            .collect();
        install(plan);
        let b: Vec<(bool, bool, Option<i64>)> = (0..128)
            .map(|i| {
                (
                    drop_internal(i),
                    delay_internal(i),
                    corrupt_i64(i as usize, i as i64),
                )
            })
            .collect();
        assert_eq!(a, b, "stream sites diverged under an identical seed");
        assert!(a.iter().any(|x| x.0), "drop stream never fired");
        assert!(
            a.iter().any(|x| x.2.is_some()),
            "corrupt stream never fired"
        );
        // Corruption really changes the value.
        for (i, x) in a.iter().enumerate() {
            if let Some(v) = x.2 {
                assert_ne!(v, i as i64);
            }
        }
        uninstall();
    }

    #[test]
    fn different_seeds_differ() {
        let _g = locked();
        install(FaultPlan {
            drop_external: 0.5,
            ..FaultPlan::seeded(1)
        });
        let a: Vec<bool> = (0..256).map(|i| drop_external(i, 0)).collect();
        install(FaultPlan {
            drop_external: 0.5,
            ..FaultPlan::seeded(2)
        });
        let b: Vec<bool> = (0..256).map(|i| drop_external(i, 0)).collect();
        assert_ne!(a, b, "two seeds produced identical drop patterns");
        uninstall();
    }

    #[test]
    fn panic_site_fires_once_per_install() {
        let _g = locked();
        install(FaultPlan {
            panic_at: Some(5),
            ..FaultPlan::seeded(0)
        });
        assert!(!panic_due(4));
        assert!(panic_due(5));
        assert!(!panic_due(5), "panic site must be one-shot");
        install(FaultPlan {
            panic_at: Some(5),
            ..FaultPlan::seeded(0)
        });
        assert!(panic_due(5), "reinstall re-arms the panic site");
        assert_eq!(uninstall().unwrap().panics, 1);
    }

    #[test]
    fn delay_is_bounded_by_max_delay() {
        let _g = locked();
        install(FaultPlan {
            delay_external: 1.0,
            max_delay: 4,
            ..FaultPlan::seeded(7)
        });
        for i in 0..256 {
            let d = delay_external(i, 3).expect("rate 1.0 always delays");
            assert!((1..=4).contains(&d), "delay {d} out of range");
        }
        uninstall();
    }

    #[test]
    fn env_spec_parses_and_installs() {
        let _g = locked();
        // Direct plan parse via the same code path `init_from_env`
        // uses, but without mutating the process environment (other
        // test binaries read it concurrently).
        std::env::set_var(
            "ECL_FAULTS",
            "seed=9,drop_external=0.25,mailbox_cap=2,panic_at=17,starved_fuel=128",
        );
        assert!(init_from_env());
        let p = current_plan().unwrap();
        assert_eq!(p.seed, 9);
        assert_eq!(p.drop_external, 0.25);
        assert_eq!(p.mailbox_cap, Some(2));
        assert_eq!(p.panic_at, Some(17));
        assert_eq!(p.starved_fuel, 128);
        std::env::remove_var("ECL_FAULTS");
        uninstall();
    }
}
