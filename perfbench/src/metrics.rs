//! The metric registry: every name the benchmark prints, with its
//! unit. `BENCHMARK.json` at the repository root lists the same names;
//! `test_contract.py` checks the two agree.

use std::collections::BTreeMap;

/// A printed metric.
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// Metrics of the untraced run (`--trace 0`), on every workload.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("job_ms_p50", "ms"),
    m("job_ms_p90", "ms"),
    m("peak_rss_mb", "MB"),
];

/// Metrics of the traced run (`--trace 1`), on every workload. A layer
/// a workload does not exercise reads 0 there.
pub const PER_LAYER: &[Metric] = &[
    m("instants_per_s", "1/s"),
    m("failed_share", "share"),
    m("model_cycles_per_instant", "cycles"),
    m("model_code_bytes", "bytes"),
    m("sim.instant_ns_p50", "ns"),
    m("sim.instant_ns_p99", "ns"),
    m("core.input_ns", "ns"),
    m("observe.step_ns", "ns"),
    m("sim.session_init_us", "us"),
    m("sim.snapshot_us", "us"),
    m("sim.restore_us", "us"),
    m("sim.unattributed_share", "share"),
    m("telemetry.overhead", "ratio"),
    m("fleet.scaling", "ratio"),
    m("fleet.checkpoints_per_session", "count"),
    m("fleet.restarts", "count"),
    m("ecl-syntax.parse_us", "us"),
    m("core.elab_split_us", "us"),
    m("esterel.efsm_us", "us"),
    m("efsm.table_us", "us"),
    m("core.rt_us", "us"),
    m("sim.program_us", "us"),
    m("observe.synth_us", "us"),
    m("codegen.emit_us", "us"),
    m("codegen.c_bytes", "bytes"),
    m("rtk.dispatches_per_instant", "count"),
    m("rtk.deliveries_per_instant", "count"),
    m("rtk.events_lost", "count"),
    m("efsm.rows_per_hit", "count"),
    m("efsm.fused_ops_per_instant", "count"),
    m("efsm.walk_fallbacks", "count"),
    m("ecl-types.hook_runs_per_instant", "count"),
    m("ecl-types.vm_ops_per_instant", "count"),
    m("ecl-types.fallback_stmts", "count"),
    m("efsm.states", "count"),
    m("efsm.fused_rows", "count"),
];

/// Measured values by metric name.
#[derive(Debug, Default, Clone)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Set one value; a value that is not finite reads as 0.
    pub fn set(&mut self, name: &'static str, v: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "unregistered metric {name}"
        );
        self.0.insert(name, if v.is_finite() { v } else { 0.0 });
    }

    /// A value, 0 when never set.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// One `name value unit` line per metric of `set`.
    pub fn table(&self, set: &[Metric]) -> String {
        set.iter()
            .map(|m| format!("  {:<34} {:>18} {}\n", m.name, self.get(m.name), m.unit))
            .collect()
    }

    /// The `metrics` object of the result line for `set`.
    pub fn json(&self, set: &[Metric]) -> String {
        let body: Vec<String> = set
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    self.get(m.name),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let len = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(len, names.len());
    }

    #[test]
    fn json_has_every_metric_of_the_set() {
        let mut v = Values::default();
        v.set("setup_s", 0.25);
        v.set("job_ms_p50", f64::NAN);
        let j = v.json(END_TO_END);
        assert!(j.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert!(j.contains("\"job_ms_p50\": {\"value\": 0, \"unit\": \"ms\"}"));
        assert_eq!(j.matches("\"unit\"").count(), END_TO_END.len());
    }
}
