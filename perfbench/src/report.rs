//! Metric catalogue and the result line.
//!
//! The two lists below are the benchmark's contract: `BENCHMARK.json`
//! declares the same names and units (a self-test checks that), and a
//! run prints every end-to-end metric with `--trace 0` and every
//! per-layer metric with `--trace 1`, in one JSON object on the last
//! line of standard output.

use std::collections::BTreeMap;

/// A metric's name, unit, and which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Stable dotted name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

/// A metric where lower is better.
const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
    }
}

/// A metric where higher is better.
const fn h(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "higher",
    }
}

/// End-to-end metrics, reported by every workload from untraced passes.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    h("verified_per_s", "1/s"),
    m("sim_p50_us", "us"),
    m("sim_p99_us", "us"),
    h("slo_attainment", "ratio"),
    h("sim_gflops_spaden", "GFLOP/s"),
    h("sim_speedup_vs_csr", "x"),
    m("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload from the traced run.
/// A layer the workload does not call reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("sparse.bitbsr_ns_per_nnz", "ns/nnz"),
    m("core.prepare_ms", "ms"),
    m("core.spaden_run_ms", "ms"),
    m("core.abft_verify_us", "us"),
    m("core.spmm_sweep_us", "us"),
    m("core.apply_value_ms", "ms"),
    m("core.apply_structural_ms", "ms"),
    m("core.compactions", "count"),
    m("core.structural_batches", "count"),
    m("baselines.run_ms", "ms"),
    m("gpusim.host_s_per_sim_s", "s/s"),
    m("gpusim.mma_ns", "ns"),
    m("gpusim.l2_access_ns", "ns"),
    m("gpusim.coalesce_ns.unit", "ns"),
    m("gpusim.coalesce_ns.scattered", "ns"),
    m("gpusim.mma_share", "ratio"),
    m("gpusim.memory_share", "ratio"),
    m("gpusim.launch_fixed_us", "us"),
    m("gpusim.launch_share", "ratio"),
    m("gpusim.unexplained_share", "ratio"),
    m("gpusim.mma_m16n16k16", "count"),
    m("gpusim.load_insts", "count"),
    m("gpusim.sectors_read", "count"),
    h("gpusim.l2_hit_rate", "ratio"),
    m("gpusim.dram_bytes", "bytes"),
    m("gpusim.warps", "count"),
    m("gpusim.launches", "count"),
    m("gpusim.sim_s", "s"),
    m("plan.predict_us", "us"),
    m("serve.register_ms", "ms"),
    m("serve.est_cost_ms", "ms"),
    m("serve.open_loop_us_per_offered", "us"),
    m("serve.self_share", "ratio"),
    m("serve.commit_ms", "ms"),
    m("serve.queue_wait_p99_us", "us"),
    m("serve.service_p50_us", "us"),
    m("serve.attempts.sharded", "count"),
    m("serve.attempts.spaden_checked", "count"),
    m("serve.attempts.scalar", "count"),
    m("serve.attempts.csr", "count"),
    m("serve.retries", "count"),
    m("serve.shed", "count"),
    m("serve.batches", "count"),
    h("serve.batch_width_mean", "count"),
    h("serve.coalescing_rate", "ratio"),
    m("serve.batch_fallbacks", "count"),
    m("serve.epoch_stragglers", "count"),
    m("shard.launches", "count"),
    m("shard.speculative_launches", "count"),
    m("shard.busy_sim_s", "s"),
    h("shard.partition_cache_hit_rate", "ratio"),
    m("store.append_us", "us"),
    m("store.snapshot_ms", "ms"),
    m("store.wal_bytes", "bytes"),
    m("store.snapshot_bytes", "bytes"),
    m("store.records", "count"),
    m("store.snapshots", "count"),
    m("traffic.schedule_ms", "ms"),
    m("bench.oracle_ms", "ms"),
    h("bench.trace_overhead", "ratio"),
    m("failed_frac", "ratio"),
];

/// Whether `name` is a legal metric name: starts with a letter or digit,
/// then letters, digits, `_`, `.` and `-`, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Metric values collected by a run, keyed by name.
#[derive(Debug, Clone, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Records `name = value`. The name must be in one of the catalogues.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "unknown metric {name}"
        );
        self.0.insert(name, value);
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The result of one benchmark invocation.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every output passed the oracle and every determinism check held.
    pub correct: bool,
    /// Operations offered in the timed phase of one pass.
    pub attempted: u64,
    /// Operations among them that did not yield a verified output.
    pub failed: u64,
    /// Metric values.
    pub values: Values,
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

impl Outcome {
    /// Renders the result line for the metric list `defs`. A metric the
    /// run did not record reads 0 (a layer the workload does not call).
    pub fn json_line(&self, defs: &[MetricDef]) -> String {
        let metrics: Vec<String> = defs
            .iter()
            .map(|d| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    number(self.values.get(d.name).unwrap_or(0.0)),
                    d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// Names in `defs` the run did not record, or recorded as a value
    /// that cannot be printed as a JSON number.
    pub fn missing(&self, defs: &[MetricDef]) -> Vec<&'static str> {
        defs.iter()
            .filter(|d| !self.values.get(d.name).is_some_and(f64::is_finite))
            .map(|d| d.name)
            .collect()
    }
}
