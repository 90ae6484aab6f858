//! `jcvm_sweep`: the §4.3 HW/SW-interface exploration, repeated sweeps
//! of every `IfaceConfig::all_variants` × every standard applet on the
//! campaign pool.
//!
//! Each design point runs the applet twice from the runner closure: on
//! the plain `SoftStack` (the software-only stack, no bus — the light
//! class) and through `ExploreSession::run` (interpreter → adapter →
//! layer-1 bus with spans and the attribution ledger → hardware stack —
//! the heavy class). The end-to-end latencies sum each class over one
//! sweep, so every sample covers the same design points. The seed picks the stack's base address and the
//! order of both matrix axes; the design space itself is fixed, so the
//! bus-transaction and cycle counts are the same for every seed.

use crate::trace::{durations, Span, Tracer};
use crate::{derive, metrics, stats, timed_setup, Outcome, RunConfig, Size};
use hierbus::harness;
use hierbus_campaign::{run_with, CampaignOptions};
use hierbus_jcvm::workloads::{standard_workloads, Workload};
use hierbus_jcvm::{
    explore_matrix, ExplorationRow, ExploreSession, IfaceConfig, Interpreter, SoftStack,
};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Interpreter step ceiling, as in the exploration driver.
const MAX_STEPS: u64 = 50_000_000;

/// One design point's timings and checks, as the runner saw them.
struct Point {
    index: usize,
    thread: usize,
    start: Instant,
    interp_end: Instant,
    end: Instant,
    soft_ok: bool,
    run_error: Option<String>,
}

/// A row's identity for cross-sweep comparison: every field, with
/// energies as bits.
type RowId = (String, String, u64, u64, u64, i32, Vec<(String, u64)>);

fn identity(row: &ExplorationRow) -> RowId {
    (
        row.config.clone(),
        row.workload.clone(),
        row.cycles,
        row.transactions,
        row.energy_pj.to_bits(),
        row.result,
        row.attribution
            .iter()
            .map(|(k, v)| (k.clone(), v.to_bits()))
            .collect(),
    )
}

/// Fisher–Yates shuffle driven by the run seed.
fn shuffle<T>(v: &mut [T], seed: u64) {
    for i in (1..v.len()).rev() {
        let j = (derive(seed, i as u64) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
}

/// The applet on the software-only stack; true when it returns the
/// expected result.
fn interpret(config: &IfaceConfig, workload: &Workload) -> bool {
    let mut vm = Interpreter::new();
    let (entry, args) = (workload.build)(&mut vm);
    let mut stack = SoftStack::new(config.capacity);
    matches!(vm.run(entry, &args, &mut stack, MAX_STEPS), Ok(Some(r)) if r == workload.expected)
}

/// One sweep: wall seconds and design points.
type Sweep = (f64, Vec<Point>);

/// End-to-end metrics of a set of sweeps: design points per second of
/// sweep wall time, and the summed bus-run (heavy) and software-only
/// (light) time of one sweep's points, each as a median over sweeps.
fn end_to_end(sweeps: &[Sweep]) -> BTreeMap<&'static str, f64> {
    let rates: Vec<f64> = sweeps
        .iter()
        .map(|(wall_s, points)| points.len() as f64 / wall_s)
        .collect();
    let summed = |part: fn(&Point) -> f64| -> Vec<f64> {
        sweeps
            .iter()
            .map(|(_, ps)| ps.iter().map(part).sum::<f64>() * 1e3)
            .collect()
    };
    let heavy = summed(|p| (p.end - p.interp_end).as_secs_f64());
    let light = summed(|p| (p.interp_end - p.start).as_secs_f64());
    metrics::timed(stats::median(&rates), &heavy, &light)
}

/// Per-layer pool metrics from the traced sweeps' spans: busy fraction
/// and unattributed worker time per sweep, as medians.
fn pool_metrics(spans: &[Span], workers: usize, per_sweep: usize) -> (f64, f64) {
    let mut busy: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == "point") {
        *busy.entry(s.id / per_sweep as u64).or_default() += s.dur_us();
    }
    let (mut fracs, mut overheads) = (Vec::new(), Vec::new());
    for s in spans.iter().filter(|s| s.name == "campaign::run_with") {
        let capacity = workers as f64 * s.dur_us();
        let used = busy.get(&s.id).copied().unwrap_or(0.0);
        fracs.push(used / capacity);
        overheads.push((capacity - used) / 1e3);
    }
    (stats::median(&fracs), stats::median(&overheads))
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let (setup_reps, min_sweeps) = match cfg.size {
        Size::Full => (25, 6),
        Size::Tiny => (1, 4),
    };
    let (setup_s, db) = timed_setup(setup_reps, || Arc::new(harness::standard_db()));

    let base = 0x8000 + 0x100 * (derive(cfg.seed, 0) % 64);
    let mut configs = IfaceConfig::all_variants(base);
    let mut workloads = standard_workloads();
    shuffle(&mut configs, derive(cfg.seed, 1));
    shuffle(&mut workloads, derive(cfg.seed, 2));
    if cfg.size == Size::Tiny {
        configs.truncate(4);
        workloads.truncate(2);
    }
    let matrix = explore_matrix(&configs, &workloads);
    let per_sweep = configs.len() * workloads.len();
    let opts = CampaignOptions::with_workers("benchmark-jcvm", cfg.workers);
    let tracer = Tracer::new();

    let mut sweeps: [Vec<Sweep>; 2] = [Vec::new(), Vec::new()];
    let mut first: Option<Vec<_>> = None;
    let (mut bus_txns, mut sim_cycles) = (0u64, 0u64);
    let start = Instant::now();
    let mut sweep = 0usize;
    while sweep < min_sweeps || start.elapsed().as_secs_f64() < cfg.seconds {
        let traced = cfg.traced(sweep);
        let points: Mutex<Vec<Point>> = Mutex::new(Vec::with_capacity(per_sweep));
        let next_thread = AtomicUsize::new(1);
        let t = Instant::now();
        let report = run_with(
            &matrix,
            &opts,
            || {
                let thread = next_thread.fetch_add(1, Ordering::Relaxed);
                (ExploreSession::new(&db), thread)
            },
            |(session, thread), point| {
                let config = configs[point.coords[0]];
                let workload = &workloads[point.coords[1]];
                let start = Instant::now();
                let soft_ok = interpret(&config, workload);
                let interp_end = Instant::now();
                let row = catch_unwind(AssertUnwindSafe(|| session.run(config, workload)));
                let end = Instant::now();
                let (row, run_error) = match row {
                    Ok(Ok(row)) => (row, None),
                    Ok(Err(e)) => (failed_row(&config, workload), Some(e.to_string())),
                    Err(_) => (failed_row(&config, workload), Some("panicked".to_owned())),
                };
                points.lock().expect("point sink poisoned").push(Point {
                    index: point.index,
                    thread: *thread,
                    start,
                    interp_end,
                    end,
                    soft_ok,
                    run_error,
                });
                row
            },
        )
        .expect("manifest-less campaign cannot fail on I/O");
        let end = Instant::now();
        let wall_s = (end - t).as_secs_f64();
        let points = points.into_inner().expect("point sink poisoned");

        for p in &points {
            let label = || {
                let c = p.index / workloads.len();
                let w = p.index % workloads.len();
                format!("{} on {}", workloads[w].name, configs[c].label())
            };
            out.op(p.soft_ok && p.run_error.is_none(), || {
                format!(
                    "sweep {sweep}: {} failed (software stack ok: {}, bus run: {:?})",
                    label(),
                    p.soft_ok,
                    p.run_error
                )
            });
        }
        let rows: Vec<ExplorationRow> = report.results.into_iter().flatten().collect();
        out.check(rows.len() == per_sweep, || {
            format!("sweep {sweep} merged {} of {per_sweep} rows", rows.len())
        });
        for row in &rows {
            let expected = workloads
                .iter()
                .find(|w| w.name == row.workload)
                .map(|w| w.expected);
            out.check(Some(row.result) == expected, || {
                format!(
                    "sweep {sweep}: {} on {} returned {}",
                    row.workload, row.config, row.result
                )
            });
        }
        let ids: Vec<_> = rows.iter().map(identity).collect();
        match &first {
            None => {
                bus_txns = rows.iter().map(|r| r.transactions).sum();
                sim_cycles = rows.iter().map(|r| r.cycles).sum();
                first = Some(ids);
            }
            Some(f) => out.check(*f == ids, || {
                format!("sweep {sweep} rows differ from sweep 0")
            }),
        }

        if traced {
            let id = sweep as u64;
            tracer.span("campaign::run_with", id, "", 0, t, end);
            for p in &points {
                let pid = (sweep * per_sweep + p.index) as u64;
                tracer.span("point", pid, "campaign::run_with", p.thread, p.start, p.end);
                tracer.span("SoftStack", pid, "point", p.thread, p.start, p.interp_end);
                tracer.span(
                    "ExploreSession::run",
                    pid,
                    "point",
                    p.thread,
                    p.interp_end,
                    p.end,
                );
            }
        }
        sweeps[usize::from(traced)].push((wall_s, points));
        sweep += 1;
    }

    out.end_to_end = end_to_end(&sweeps[0]);
    out.end_to_end.insert("setup_s", setup_s);
    if cfg.trace {
        let traced = end_to_end(&sweeps[1]);
        let untraced = out.end_to_end.clone();
        out.tracing_overhead(&untraced, &traced);
        out.spans = tracer.take();
        let ms: Vec<f64> = durations(&out.spans, "ExploreSession::run")
            .iter()
            .map(|us| us / 1e3)
            .collect();
        let (busy_frac, overhead_ms) = pool_metrics(&out.spans, cfg.workers, per_sweep);
        let l = &mut out.per_layer;
        l.insert("jcvm.point_p50_ms", stats::median(&ms));
        l.insert("jcvm.point_p99_ms", stats::quantile(&ms, 0.99));
        l.insert(
            "jcvm.interp_us_per_point",
            stats::median(&durations(&out.spans, "SoftStack")),
        );
        l.insert("campaign.busy_frac", busy_frac);
        l.insert("campaign.overhead_ms", overhead_ms);
    }
    let l = &mut out.per_layer;
    l.insert("jcvm.bus_txns", bus_txns as f64);
    l.insert("jcvm.sim_cycles", sim_cycles as f64);
    l.insert("bench.spans", out.spans.len() as f64);
    out
}

/// The row a failed design point contributes to the merge (the failure
/// itself is counted from the runner's record).
fn failed_row(config: &IfaceConfig, workload: &Workload) -> ExplorationRow {
    ExplorationRow {
        config: config.label(),
        workload: workload.name.to_owned(),
        cycles: 0,
        transactions: 0,
        energy_pj: 0.0,
        result: workload.expected.wrapping_add(1),
        attribution: Vec::new(),
    }
}
