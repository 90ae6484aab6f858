//! Every metric the benchmark reports, with its unit. `BENCHMARK.json`
//! at the repository root lists the same names; the benchmark's tests
//! keep the two in step.

/// A named metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// End-to-end metrics. Every workload reports every one, each for its
/// own unit of work (see `README.md`): a bus-transaction chunk at layer
/// 1 / layer 2 (`table3_mix`), a design point / its software-only run
/// (`jcvm_sweep`), a cold / warm request (`serve_mixed`).
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("peak_rss_mb", "MB"),
    m("ops_per_s", "1/s"),
    m("p50_ms", "ms"),
    m("light_p50_ms", "ms"),
];

/// Whether a larger value of end-to-end metric `name` is better.
pub fn higher_is_better(name: &str) -> bool {
    name == "ops_per_s"
}

/// Tracing overhead metric → the end-to-end metric it compares.
pub const TRACE_OVERHEAD: &[(&str, &str)] = &[
    ("bench.trace_overhead_pct.ops_per_s", "ops_per_s"),
    ("bench.trace_overhead_pct.p50_ms", "p50_ms"),
    ("bench.trace_overhead_pct.light_p50_ms", "light_p50_ms"),
];

/// Per-layer metrics, each prefixed by the crate it measures. A
/// workload reports 0 for a layer it does not reach.
pub const PER_LAYER: &[Metric] = &[
    // table3_mix
    m("core.tlm1_timing_kts", "kT/s"),
    m("core.tlm2_timing_kts", "kT/s"),
    m("power.layer1_ns_per_txn", "ns"),
    m("power.layer2_ns_per_txn", "ns"),
    m("obs.span_ns_per_txn", "ns"),
    m("rtl.kts", "kT/s"),
    m("rtl.ideal_kts", "kT/s"),
    m("core.tlm1_cycles", "count"),
    m("core.tlm2_cycles", "count"),
    m("rtl.cycles", "count"),
    m("harness.l1_energy_err_pct", "%"),
    m("harness.l2_energy_err_pct", "%"),
    m("harness.l2_cycle_err_pct", "%"),
    // jcvm_sweep
    m("jcvm.point_p50_ms", "ms"),
    m("jcvm.point_p99_ms", "ms"),
    m("jcvm.interp_us_per_point", "us"),
    m("campaign.busy_frac", "frac"),
    m("campaign.overhead_ms", "ms"),
    m("jcvm.bus_txns", "count"),
    m("jcvm.sim_cycles", "count"),
    // serve_mixed
    m("serve.parse_us", "us"),
    m("serve.materialize_us", "us"),
    m("serve.fingerprint_us", "us"),
    m("serve.result_json_us", "us"),
    m("serve.session_mix_us", "us"),
    m("serve.session_multi_us", "us"),
    m("serve.cold_residual_us", "us"),
    m("serve.warm_residual_us", "us"),
    m("serve.cold_p99_ms", "ms"),
    m("serve.warm_p99_ms", "ms"),
    m("serve.cache_hits", "count"),
    m("serve.cache_misses", "count"),
    m("serve.cache_evictions", "count"),
    // every workload
    m("bench.spans", "count"),
    m("bench.trace_overhead_pct.ops_per_s", "%"),
    m("bench.trace_overhead_pct.p50_ms", "%"),
    m("bench.trace_overhead_pct.light_p50_ms", "%"),
];

/// The timed end-to-end metrics of one set of samples: `ops_per_s`
/// as passed in, and the medians of the heavy and light classes (ms).
pub fn timed(
    ops_per_s: f64,
    heavy_ms: &[f64],
    light_ms: &[f64],
) -> std::collections::BTreeMap<&'static str, f64> {
    use crate::stats::median;
    [
        ("ops_per_s", ops_per_s),
        ("p50_ms", median(heavy_ms)),
        ("light_p50_ms", median(light_ms)),
    ]
    .into_iter()
    .collect()
}
