//! `ecl-faults` — seedable, fully deterministic fault injection for
//! the reaction stack.
//!
//! A [`FaultPlan`] is a plain value. Arming a runner, a kernel or a
//! fleet session with one builds a [`Faults`]: the plan, its
//! [`InjectionStats`] and the two one-shot latches (`panic_at` and
//! the session kill). The kernel, the runners and the fleet
//! supervisor call its site methods at well-defined points (event
//! posting, input setters, instant and quantum boundaries). Nothing
//! here is process-global: every armed component owns its `Faults`,
//! so plans never leak between runs, sessions or tests, and an
//! unarmed component checks one pointer.
//!
//! # Determinism contract
//!
//! Every decision is a pure function of the plan seed, a per-site
//! salt and the site's *coordinates*, hashed with a SplitMix64
//! finalizer — never of query order:
//!
//! * external drop/delay and input corruption: `(instant, signal)`;
//! * internal drop/delay: `(instant, task, signal, ordinal of the
//!   post within the instant)`;
//! * fuel starvation: the instant; session kill: the session; shard
//!   stall: `(shard, quantum)`.
//!
//! Two backends that query the same site with the same coordinates
//! get the same answer however many *other* sites fired in between,
//! so walker, compiled and interpreter runs replay the same faults,
//! and a runner restored from a checkpoint replays every decision the
//! uninterrupted run made.

use ecl_telemetry::metrics as tm;

/// A deterministic fault plan. All rates are probabilities in
/// `[0, 1]`; the default plan injects nothing even when armed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of every per-site decision.
    pub seed: u64,
    /// P(drop) per external event, keyed by `(instant, signal)`.
    pub drop_external: f64,
    /// P(delay) per external event, keyed by `(instant, signal)`.
    /// A delayed event is re-presented 1..=`max_delay` instants later.
    pub delay_external: f64,
    /// Upper bound (in instants) of an external delay; min 1.
    pub max_delay: u64,
    /// P(drop) per internal (inter-task) event, keyed by
    /// `(instant, task, signal, post ordinal)`.
    pub drop_internal: f64,
    /// P(defer to the next instant) per internal event, keyed like
    /// `drop_internal`.
    pub delay_internal: f64,
    /// Shrunk per-task mailbox capacity (pending-set size); `None`
    /// keeps the 1-place-per-signal semantics unbounded across
    /// signals.
    pub mailbox_cap: Option<usize>,
    /// P(corrupt) per valued input write, keyed by
    /// `(instant, signal)`; the written value is XOR-perturbed, never
    /// left equal.
    pub corrupt_input: f64,
    /// P(starve) per instant, keyed by instant: data-path fuel is
    /// capped at `starved_fuel` for that instant and restored after.
    pub fuel_starve: f64,
    /// The fuel cap applied by a starved instant.
    pub starved_fuel: u64,
    /// Panic injected at the start of this instant (once per
    /// arming) — exercises the session containment boundary.
    pub panic_at: Option<u64>,
    /// P(a fleet session is killed at all), keyed by session id. A
    /// killed session dies (injected panic) at a deterministic
    /// instant in `[0, kill_within)`, once per arming — the
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

    /// The instant at which the kill site fires for `session`, if the
    /// plan kills it at all — lets chaos tests predict the victim set
    /// before a run.
    pub fn kill_instant(&self, session: u64) -> Option<u64> {
        self.hit(SALT_KILL, session, 0, self.kill_session)
            .then(|| self.key(SALT_KILL_AT, session, 0) % self.kill_within.max(1))
    }

    /// The decision hash of site `salt` at coordinates `(a, b)`.
    fn key(&self, salt: u64, a: u64, b: u64) -> u64 {
        mix(self.seed, salt, a, b)
    }

    /// Does site `salt` fire at `(a, b)`, with probability `rate`?
    fn hit(&self, salt: u64, a: u64, b: u64, rate: f64) -> bool {
        rate > 0.0 && unit(self.key(salt, a, b)) < rate
    }

    /// Parse a comma-separated `key=value` list, e.g.
    /// `seed=7,drop_external=0.02,mailbox_cap=3,panic_at=100`. Keys
    /// are the field names. Malformed items, unknown keys and bad
    /// values are reported on stderr and leave their field at the
    /// default, never fatal.
    pub fn parse(spec: &str) -> FaultPlan {
        let mut plan = FaultPlan::default();
        for item in spec.split(',').map(str::trim).filter(|i| !i.is_empty()) {
            let Some((k, v)) = item.split_once('=') else {
                eprintln!("ecl-faults: malformed item `{item}` (want key=value)");
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
                    eprintln!("ecl-faults: unknown key `{other}`");
                    continue;
                }
            };
            if !ok {
                eprintln!("ecl-faults: bad value in item `{item}`");
            }
        }
        plan
    }

    /// The plan `ECL_FAULTS` spells out (see [`FaultPlan::parse`]),
    /// or `None` when the variable is unset, empty or `0` — how the
    /// example and bench binaries opt into fault injection.
    pub fn from_env() -> Option<FaultPlan> {
        let spec = std::env::var("ECL_FAULTS").ok()?;
        (!spec.is_empty() && spec != "0").then(|| FaultPlan::parse(&spec))
    }
}

/// How many injections each site of one arming performed.
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
    /// Input values corrupted at the runners' input setters.
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

impl std::ops::Add for InjectionStats {
    type Output = InjectionStats;

    fn add(self, o: InjectionStats) -> InjectionStats {
        InjectionStats {
            dropped_external: self.dropped_external + o.dropped_external,
            delayed_external: self.delayed_external + o.delayed_external,
            dropped_internal: self.dropped_internal + o.dropped_internal,
            delayed_internal: self.delayed_internal + o.delayed_internal,
            mailbox_rejections: self.mailbox_rejections + o.mailbox_rejections,
            corrupted_inputs: self.corrupted_inputs + o.corrupted_inputs,
            starved_instants: self.starved_instants + o.starved_instants,
            panics: self.panics + o.panics,
            session_kills: self.session_kills + o.session_kills,
            shard_stalls: self.shard_stalls + o.shard_stalls,
        }
    }
}

// Distinct per-site salts so one site's decisions never alias
// another's.
const SALT_DROP_EXT: u64 = 0x1;
const SALT_DELAY_EXT: u64 = 0x2;
const SALT_DELAY_EXT_N: u64 = 0x3;
const SALT_DROP_INT: u64 = 0x4;
const SALT_KILL: u64 = 0x5;
const SALT_CORRUPT: u64 = 0x6;
const SALT_FUEL: u64 = 0x7;
const SALT_DELAY_INT: u64 = 0x8;
const SALT_CORRUPT_MASK: u64 = 0x9;
const SALT_KILL_AT: u64 = 0xA;
const SALT_STALL: u64 = 0xB;
const SALT_POST: u64 = 0xC;

/// SplitMix64 finalizer over a seed, a site salt and two
/// coordinates — the decision function of every site.
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

/// Emit a `fault_injected` telemetry line (no-op when telemetry is
/// off or sinkless) and bump the injection counter.
fn note_injected(site: &str, a: u64, b: u64) {
    tm::FAULTS_INJECTED.incr();
    if let Some(e) = ecl_telemetry::event("fault_injected") {
        e.str("site", site).u64("a", a).u64("b", b).emit();
    }
}

/// An armed [`FaultPlan`]: the plan, the injection counts and the
/// one-shot latches. Each site method decides (a pure function of
/// the plan and its coordinates), counts and emits `fault_injected`.
/// A checkpoint restore keeps the armed `Faults` of the runner it
/// restores into, so it loses no counts and never re-fires a
/// one-shot site.
#[derive(Debug, Clone)]
pub struct Faults {
    plan: FaultPlan,
    stats: InjectionStats,
    panic_fired: bool,
    kill_fired: bool,
}

impl Faults {
    /// Arm `plan` with zeroed counts and open latches.
    pub fn new(plan: FaultPlan) -> Faults {
        Faults {
            plan,
            stats: InjectionStats::default(),
            panic_fired: false,
            kill_fired: false,
        }
    }

    /// Injections performed since arming.
    pub fn stats(&self) -> InjectionStats {
        self.stats
    }

    /// Should the external event `sig` at `instant` be dropped?
    pub fn drop_external(&mut self, instant: u64, sig: u32) -> bool {
        let p = &self.plan;
        if !p.hit(SALT_DROP_EXT, instant, sig.into(), p.drop_external) {
            return false;
        }
        self.stats.dropped_external += 1;
        note_injected("drop_external", instant, sig.into());
        true
    }

    /// Should the external event `sig` at `instant` be delayed?
    /// Returns the number of instants (1..=`max_delay`) to hold it.
    /// Queried only for events that survived [`Faults::drop_external`].
    pub fn delay_external(&mut self, instant: u64, sig: u32) -> Option<u64> {
        let p = &self.plan;
        if !p.hit(SALT_DELAY_EXT, instant, sig.into(), p.delay_external) {
            return None;
        }
        let d = 1 + p.key(SALT_DELAY_EXT_N, instant, sig.into()) % p.max_delay.max(1);
        self.stats.delayed_external += 1;
        note_injected("delay_external", instant, sig.into());
        Some(d)
    }

    /// Should the `ordinal`-th internal post of `instant` (task
    /// `task` emitting `sig`) be dropped?
    pub fn drop_internal(&mut self, instant: u64, task: u64, sig: u32, ordinal: u64) -> bool {
        let p = &self.plan;
        let post = mix(task, SALT_POST, sig.into(), ordinal);
        if !p.hit(SALT_DROP_INT, instant, post, p.drop_internal) {
            return false;
        }
        self.stats.dropped_internal += 1;
        note_injected("drop_internal", instant, sig.into());
        true
    }

    /// Should that internal post be deferred to the next instant?
    /// Queried only for posts that survived [`Faults::drop_internal`].
    pub fn delay_internal(&mut self, instant: u64, task: u64, sig: u32, ordinal: u64) -> bool {
        let p = &self.plan;
        let post = mix(task, SALT_POST, sig.into(), ordinal);
        if !p.hit(SALT_DELAY_INT, instant, post, p.delay_internal) {
            return false;
        }
        self.stats.delayed_internal += 1;
        note_injected("delay_internal", instant, sig.into());
        true
    }

    /// Is `task`'s mailbox, holding `pending` events, full under the
    /// plan's shrunk capacity? A full mailbox rejects the delivery of
    /// `sig` (the kernel counts the loss itself).
    pub fn mailbox_full(&mut self, task: u64, sig: u32, pending: usize) -> bool {
        if self.plan.mailbox_cap.is_none_or(|cap| pending < cap) {
            return false;
        }
        self.stats.mailbox_rejections += 1;
        note_injected("mailbox_cap", task, sig.into());
        true
    }

    /// Corrupt the value `v` written to input `sig` for `instant`?
    /// Returns the replacement, always different from `v`.
    pub fn corrupt_i64(&mut self, instant: u64, sig: u32, v: i64) -> Option<i64> {
        let p = &self.plan;
        if !p.hit(SALT_CORRUPT, instant, sig.into(), p.corrupt_input) {
            return None;
        }
        // A non-zero XOR mask guarantees the value actually changes.
        let mask = p.key(SALT_CORRUPT_MASK, instant, sig.into()).max(1) as i64;
        self.stats.corrupted_inputs += 1;
        note_injected("corrupt_input", instant, sig.into());
        Some(v ^ mask)
    }

    /// Is `instant` fuel-starved? Returns the squeezed fuel cap.
    /// Runners apply the cap for the instant and restore the
    /// unconsumed balance afterwards.
    pub fn fuel_cap(&mut self, instant: u64) -> Option<u64> {
        let p = &self.plan;
        if !p.hit(SALT_FUEL, instant, 0, p.fuel_starve) {
            return None;
        }
        let cap = p.starved_fuel;
        self.stats.starved_instants += 1;
        note_injected("fuel_starve", instant, cap);
        Some(cap)
    }

    /// Is the injected panic due at `instant`? Fires at most once per
    /// arming.
    pub fn panic_due(&mut self, instant: u64) -> bool {
        if self.panic_fired || self.plan.panic_at != Some(instant) {
            return false;
        }
        self.panic_fired = true;
        self.stats.panics += 1;
        note_injected("panic", instant, 0);
        true
    }

    /// Should fleet session `session` be killed at `instant`? Fires
    /// at [`FaultPlan::kill_instant`], at most once per arming — the
    /// supervisor's checkpoint replay crosses the same instant again
    /// without re-dying, so restarts converge.
    pub fn kill_due(&mut self, session: u64, instant: u64) -> bool {
        if self.kill_fired || self.plan.kill_instant(session) != Some(instant) {
            return false;
        }
        self.kill_fired = true;
        self.stats.session_kills += 1;
        note_injected("kill_session", session, instant);
        true
    }

    /// Should fleet shard `shard` stall before running quantum
    /// `quantum`? Returns the stall in milliseconds. Purely temporal:
    /// the chaos suite proves session outputs are byte-identical
    /// under any stall pattern.
    pub fn shard_stall(&mut self, shard: u64, quantum: u64) -> Option<u64> {
        let p = &self.plan;
        if !p.hit(SALT_STALL, shard, quantum, p.shard_stall) {
            return None;
        }
        let ms = p.stall_ms;
        self.stats.shard_stalls += 1;
        note_injected("shard_stall", shard, quantum);
        Some(ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_site_is_one_shot_per_session() {
        let plan = FaultPlan {
            kill_session: 1.0,
            kill_within: 10,
            ..FaultPlan::seeded(11)
        };
        let mut f = Faults::new(plan);
        let at = plan.kill_instant(3).expect("rate 1.0 marks every session");
        assert!(at < 10);
        assert!(!f.kill_due(3, at + 1), "kill must fire at its own instant");
        assert!(f.kill_due(3, at));
        assert!(!f.kill_due(3, at), "kill site must be one-shot per session");
        assert_eq!(f.stats().session_kills, 1);
        // Another session is armed on its own and keeps its own latch.
        let at4 = plan.kill_instant(4).unwrap();
        assert!(Faults::new(plan).kill_due(4, at4));
        // Re-arming re-opens the latch at the same instant.
        assert!(Faults::new(plan).kill_due(3, at), "re-arming re-arms");
    }

    #[test]
    fn stall_site_is_keyed_and_bounded() {
        let plan = FaultPlan {
            shard_stall: 0.5,
            stall_ms: 3,
            ..FaultPlan::seeded(21)
        };
        let mut f = Faults::new(plan);
        let a: Vec<Option<u64>> = (0..64).map(|q| f.shard_stall(1, q)).collect();
        let mut f = Faults::new(plan);
        let b: Vec<Option<u64>> = (0..64).map(|q| f.shard_stall(1, q)).collect();
        assert_eq!(a, b, "keyed stall decisions moved under re-arming");
        assert!(a.iter().any(|x| x == &Some(3)), "stall never fired");
        assert!(a.iter().any(|x| x.is_none()), "stall always fired");
    }

    /// Every site is keyed: answers depend on the coordinates only,
    /// never on how many other queries ran before — forward and
    /// reverse query orders over two armings agree.
    #[test]
    fn keyed_sites_are_query_order_free() {
        let plan = FaultPlan {
            drop_external: 0.5,
            fuel_starve: 0.5,
            drop_internal: 0.3,
            delay_internal: 0.2,
            corrupt_input: 0.4,
            ..FaultPlan::seeded(42)
        };
        type Row = (bool, Option<u64>, bool, bool, Option<i64>);
        let query = |f: &mut Faults, i: u64| -> Row {
            let sig = (i % 5) as u32;
            (
                f.drop_external(i, sig),
                f.fuel_cap(i),
                f.drop_internal(i, i % 3, sig, i % 7),
                f.delay_internal(i, i % 3, sig, i % 7),
                f.corrupt_i64(i, sig, i as i64),
            )
        };
        let mut f = Faults::new(plan);
        let forward: Vec<Row> = (0..128).map(|i| query(&mut f, i)).collect();
        let mut g = Faults::new(plan);
        for i in (0..128).rev() {
            assert_eq!(query(&mut g, i), forward[i as usize], "instant {i}");
        }
        assert_eq!(f.stats(), g.stats());
        assert!(forward.iter().any(|r| r.0), "external drop never fired");
        assert!(forward.iter().any(|r| r.2), "internal drop never fired");
        assert!(forward.iter().any(|r| r.3), "internal delay never fired");
        assert!(
            forward.iter().any(|r| r.4.is_some()),
            "corruption never fired"
        );
        // Corruption really changes the value.
        for (i, r) in forward.iter().enumerate() {
            if let Some(v) = r.4 {
                assert_ne!(v, i as i64);
            }
        }
        // The post ordinal is a coordinate: one (instant, task,
        // signal) gets differing answers across ordinals.
        let mut h = Faults::new(plan);
        let by_ordinal: Vec<bool> = (0..64).map(|o| h.drop_internal(9, 1, 2, o)).collect();
        assert!(by_ordinal.contains(&true) && by_ordinal.contains(&false));
    }

    /// The internal drop/delay and input corruption sites replay
    /// under the same seed: two armings of one plan make the same
    /// decisions and counts, each site fires, and corruption always
    /// changes the value.
    #[test]
    fn stream_sites_replay_under_the_same_seed() {
        let plan = FaultPlan {
            drop_internal: 0.3,
            delay_internal: 0.2,
            corrupt_input: 0.4,
            ..FaultPlan::seeded(1999)
        };
        let run = || {
            let mut f = Faults::new(plan);
            let rows: Vec<(bool, bool, Option<i64>)> = (0..128)
                .map(|i| {
                    let sig = (i % 5) as u32;
                    (
                        f.drop_internal(i, i % 3, sig, i % 7),
                        f.delay_internal(i, i % 3, sig, i % 7),
                        f.corrupt_i64(i, sig, i as i64),
                    )
                })
                .collect();
            (rows, f.stats())
        };
        let (a, a_stats) = run();
        let (b, b_stats) = run();
        assert_eq!(a, b, "stream sites diverged under an identical seed");
        assert_eq!(a_stats, b_stats);
        assert!(a.iter().any(|x| x.0), "internal drop never fired");
        assert!(a.iter().any(|x| x.1), "internal delay never fired");
        assert!(a.iter().any(|x| x.2.is_some()), "corruption never fired");
        for (i, x) in a.iter().enumerate() {
            if let Some(v) = x.2 {
                assert_ne!(v, i as i64);
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let drops = |seed| {
            let mut f = Faults::new(FaultPlan {
                drop_external: 0.5,
                ..FaultPlan::seeded(seed)
            });
            (0..256)
                .map(|i| f.drop_external(i, 0))
                .collect::<Vec<bool>>()
        };
        assert_ne!(
            drops(1),
            drops(2),
            "two seeds produced identical drop patterns"
        );
    }

    #[test]
    fn panic_site_fires_once_per_arming() {
        let plan = FaultPlan {
            panic_at: Some(5),
            ..FaultPlan::seeded(0)
        };
        let mut f = Faults::new(plan);
        assert!(!f.panic_due(4));
        assert!(f.panic_due(5));
        assert!(!f.panic_due(5), "panic site must be one-shot");
        assert_eq!(f.stats().panics, 1);
        assert!(
            Faults::new(plan).panic_due(5),
            "re-arming re-arms the panic site"
        );
    }

    #[test]
    fn delay_is_bounded_by_max_delay() {
        let mut f = Faults::new(FaultPlan {
            delay_external: 1.0,
            max_delay: 4,
            ..FaultPlan::seeded(7)
        });
        for i in 0..256 {
            let d = f.delay_external(i, 3).expect("rate 1.0 always delays");
            assert!((1..=4).contains(&d), "delay {d} out of range");
        }
    }

    #[test]
    fn spec_parses() {
        let p = FaultPlan::parse(
            "seed=9,drop_external=0.25, mailbox_cap=2,panic_at=17,starved_fuel=128",
        );
        assert_eq!(
            p,
            FaultPlan {
                drop_external: 0.25,
                mailbox_cap: Some(2),
                panic_at: Some(17),
                starved_fuel: 128,
                ..FaultPlan::seeded(9)
            }
        );
        // A malformed item, an unknown key and a bad value each leave
        // the default.
        for bad in ["seed", "bogus=1", "seed=x", "mailbox_cap=-1", ""] {
            assert_eq!(FaultPlan::parse(bad), FaultPlan::default(), "`{bad}`");
        }
    }
}
