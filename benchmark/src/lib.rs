//! The repository benchmark. Three workloads drive the estimator only
//! through its public entry points and time every call from outside:
//!
//! * `table3_mix` — the paper's Table 3 stimulus through layer 1 and
//!   layer 2 (`hierbus::harness::perf`), with and without estimation,
//!   plus a held-back slice through the RTL reference for accuracy;
//! * `jcvm_sweep` — the §4.3 HW/SW-interface sweep
//!   (`hierbus_jcvm::ExploreSession` on `hierbus_campaign::run_with`);
//! * `serve_mixed` — one closed-loop client against an in-process
//!   `hierbus_serve::Daemon`, alternating cold and warm requests.
//!
//! See `README.md` in this directory for the metric map.

pub mod host;
pub mod jcvm_sweep;
pub mod metrics;
pub mod serve_mixed;
pub mod stats;
pub mod table3_mix;
pub mod trace;

use std::collections::BTreeMap;
use std::time::Instant;
use trace::Span;

/// The workloads, by name.
pub const WORKLOADS: &[&str] = &["table3_mix", "jcvm_sweep", "serve_mixed"];

/// Input sizes: `Full` is the benchmark; `Tiny` exercises every code
/// path in a fraction of a second for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's sizes.
    Full,
    /// Smoke-test sizes.
    Tiny,
}

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measurement window in seconds (set-up excluded).
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Pool workers.
    pub workers: usize,
    /// Input sizes.
    pub size: Size,
}

impl RunConfig {
    /// Whether round `round` records spans: a traced run alternates
    /// traced and untraced rounds, so the untraced half gives the
    /// baseline its tracing overhead is measured against.
    pub fn traced(&self, round: usize) -> bool {
        self.trace && round % 2 == 1
    }
}

/// What a workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (wrong output, error, incomplete).
    pub failed: u64,
    /// Every failed check, in order.
    pub errors: Vec<String>,
    /// End-to-end metrics (from untraced rounds only).
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: BTreeMap<&'static str, f64>,
    /// The traced rounds' spans.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Counts one operation; a failed one records `msg`.
    pub fn op(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(msg());
        }
    }

    /// Records a whole-run check (not an operation).
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(msg());
        }
    }

    /// True when every operation and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.attempted > 0
    }

    /// Records the tracing overhead of each timed end-to-end metric as
    /// the traced rounds' value against the untraced rounds', in
    /// percent; positive means tracing made the metric worse.
    pub fn tracing_overhead(
        &mut self,
        untraced: &BTreeMap<&'static str, f64>,
        traced: &BTreeMap<&'static str, f64>,
    ) {
        for &(name, metric) in metrics::TRACE_OVERHEAD {
            let (base, with) = (untraced[metric], traced[metric]);
            let worse = if metrics::higher_is_better(metric) {
                base - with
            } else {
                with - base
            };
            let pct = if base == 0.0 {
                0.0
            } else {
                worse / base * 100.0
            };
            self.per_layer.insert(name, pct);
        }
    }
}

/// Median wall seconds of `reps` set-ups, and the last set-up's value.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut secs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        last = Some(std::hint::black_box(setup()));
        secs.push(t.elapsed().as_secs_f64());
    }
    (stats::median(&secs), last.expect("at least one set-up"))
}

/// SplitMix64 step: derives the `k`-th input seed of a run seed.
pub fn derive(seed: u64, k: u64) -> u64 {
    let mut z = seed.wrapping_add(k.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs workload `name`; `None` for an unknown name.
pub fn run(name: &str, cfg: &RunConfig) -> Option<Outcome> {
    let mut outcome = match name {
        "table3_mix" => table3_mix::run(cfg),
        "jcvm_sweep" => jcvm_sweep::run(cfg),
        "serve_mixed" => serve_mixed::run(cfg),
        _ => return None,
    };
    outcome
        .end_to_end
        .insert("peak_rss_mb", host::peak_rss_mb());
    Some(outcome)
}

/// Renders a metric value for the result line: integers without a
/// fraction, everything else with all its digits, non-finite as null.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// The result line: `correct`, `attempted`, `failed` and every
/// end-to-end (untraced) or per-layer (traced) metric with its unit.
/// A per-layer metric of a layer the workload does not reach reads 0.
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    let (list, values) = if trace {
        (metrics::PER_LAYER, &outcome.per_layer)
    } else {
        (metrics::END_TO_END, &outcome.end_to_end)
    };
    let body: Vec<String> = list
        .iter()
        .map(|m| {
            let v = values.get(m.name).copied().unwrap_or(0.0);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(v),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    )
}
