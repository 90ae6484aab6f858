//! `table3_mix`: the paper's Table 3 stimulus through layer 1 and layer
//! 2, each with and without energy estimation, single-threaded, with a
//! held-back slice of the same seed through the RTL reference for
//! accuracy.
//!
//! One round runs one chunk of the stimulus through every arm, in an
//! order that rotates each round so host drift does not always land on
//! the same arm. Estimation and span costs are per-round *paired*
//! differences of two arms on the same chunk.

use crate::trace::{Span, Tracer};
use crate::{derive, metrics, stats, timed_setup, Outcome, RunConfig, Size};
use hierbus::harness::{self, perf};
use hierbus_ec::sequences::{random_mix, MixParams, Scenario};
use hierbus_power::CharacterizationDb;
use std::collections::BTreeMap;
use std::time::Instant;

/// Input sizes of one run.
struct Sizes {
    /// Transactions per chunk (one arm call).
    chunk: usize,
    /// Distinct chunks the rounds cycle through.
    chunks: usize,
    /// Transactions in the held-back accuracy slice.
    slice: usize,
    /// Timed RTL runs of the slice per netlist.
    rtl_reps: usize,
    /// Set-ups timed for `setup_s`.
    setup_reps: usize,
    /// Rounds run even when the window is shorter.
    min_rounds: usize,
}

fn sizes(size: Size) -> Sizes {
    match size {
        Size::Full => Sizes {
            chunk: 4_000,
            chunks: 16,
            slice: 2_000,
            rtl_reps: 3,
            setup_reps: 25,
            min_rounds: 40,
        },
        Size::Tiny => Sizes {
            chunk: 120,
            chunks: 2,
            slice: 60,
            rtl_reps: 1,
            setup_reps: 1,
            min_rounds: 4,
        },
    }
}

/// Seed stream index of the held-back slice, far from the chunks'.
const HELD_BACK: u64 = 1 << 20;

/// The Table 3 stimulus: 50% reads, 40% bursts, 30% fetches, no idle.
pub fn stimulus(seed: u64, count: usize) -> Scenario {
    random_mix(
        seed,
        MixParams {
            count,
            read_pct: 50,
            burst_pct: 40,
            fetch_pct: 30,
            max_idle: 0,
            ..MixParams::default()
        },
    )
}

/// The timed arms, in their unrotated order.
const ARMS: [&str; 5] = [
    "perf::layer1",
    "perf::layer1_timing",
    "perf::layer1_observed",
    "perf::layer2",
    "perf::layer2_timing",
];
const L1: usize = 0;
const L1_TIMING: usize = 1;
const L1_OBSERVED: usize = 2;
const L2: usize = 3;
const L2_TIMING: usize = 4;

fn call(arm: usize, chunk: &Scenario, db: &CharacterizationDb) -> u64 {
    match arm {
        L1 => perf::layer1(chunk, db),
        L1_TIMING => perf::layer1_timing(chunk),
        L1_OBSERVED => perf::layer1_observed(chunk, db),
        L2 => perf::layer2(chunk, db),
        _ => perf::layer2_timing(chunk),
    }
}

/// Per chunk: layer-1 cycles, layer-1 energy bits, layer-2 cycles,
/// layer-2 energy bits — through the record-keeping runners, so every
/// chunk's outputs can be compared before and after the timed rounds.
fn outputs(chunks: &[Scenario], db: &CharacterizationDb, out: &mut Outcome) -> Vec<[u64; 4]> {
    chunks
        .iter()
        .enumerate()
        .map(|(k, chunk)| {
            let l1 = harness::run_layer1(chunk, db);
            let l2 = harness::run_layer2(chunk, db, false);
            let n = chunk.ops.len();
            out.op(l1.records.len() == n && l2.records.len() == n, || {
                format!(
                    "chunk {k}: layer 1 completed {} and layer 2 {} of {n} ops",
                    l1.records.len(),
                    l2.records.len()
                )
            });
            [
                l1.cycles,
                l1.energy_pj.to_bits(),
                l2.cycles,
                l2.energy_pj.to_bits(),
            ]
        })
        .collect()
}

/// End-to-end metrics of a set of rounds (arm milliseconds per round).
fn end_to_end(rounds: &[[f64; 5]], chunk: usize) -> BTreeMap<&'static str, f64> {
    let l1: Vec<f64> = rounds.iter().map(|r| r[L1]).collect();
    let l2: Vec<f64> = rounds.iter().map(|r| r[L2]).collect();
    let ops_per_s = chunk as f64 / (stats::median(&l1) / 1e3);
    metrics::timed(ops_per_s, &l1, &l2)
}

/// Per-round arm durations (µs) of the traced rounds, from their spans.
fn traced_rounds(spans: &[Span]) -> Vec<[f64; 5]> {
    let mut by_round: BTreeMap<u64, [f64; 5]> = BTreeMap::new();
    for s in spans {
        if let Some(arm) = ARMS.iter().position(|&a| a == s.name) {
            by_round.entry(s.id).or_insert([0.0; 5])[arm] = s.dur_us();
        }
    }
    by_round.into_values().collect()
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let sz = sizes(cfg.size);
    let mut out = Outcome::default();
    let (setup_s, db) = timed_setup(sz.setup_reps, harness::standard_db);
    let chunks: Vec<Scenario> = (0..sz.chunks as u64)
        .map(|k| stimulus(derive(cfg.seed, k), sz.chunk))
        .collect();
    let slice = stimulus(derive(cfg.seed, HELD_BACK), sz.slice);
    let tracer = Tracer::new();

    // Accuracy against the gate-level reference on the held-back slice.
    let acc = harness::accuracy_summary(std::slice::from_ref(&slice), &db);
    out.check(acc.l1_cycles == acc.ref_cycles, || {
        format!(
            "layer-1 cycles {} differ from RTL cycles {} on the held-back slice",
            acc.l1_cycles, acc.ref_cycles
        )
    });
    let mut rtl_first: [Option<(u64, u64)>; 2] = [None, None];
    for rep in 0..sz.rtl_reps {
        for (i, ideal) in [false, true].into_iter().enumerate() {
            let t = Instant::now();
            let r = harness::run_reference(&slice, ideal);
            let e = Instant::now();
            if cfg.trace {
                let name = if ideal {
                    "run_reference.ideal"
                } else {
                    "run_reference"
                };
                tracer.span(name, rep as u64, "", 0, t, e);
            }
            out.op(r.records.len() == slice.ops.len(), || {
                format!(
                    "RTL completed {} of {} ops",
                    r.records.len(),
                    slice.ops.len()
                )
            });
            let got = (r.cycles, r.energy_pj.to_bits());
            let first = *rtl_first[i].get_or_insert(got);
            out.check(got == first, || {
                format!(
                    "RTL run {rep} (ideal {ideal}) differs from the first: {got:?} vs {first:?}"
                )
            });
        }
    }

    let before = outputs(&chunks, &db, &mut out);

    let mut rounds: [Vec<[f64; 5]>; 2] = [Vec::new(), Vec::new()];
    let start = Instant::now();
    let mut round = 0usize;
    while round < sz.min_rounds || start.elapsed().as_secs_f64() < cfg.seconds {
        let chunk = &chunks[round % chunks.len()];
        let traced = cfg.traced(round);
        let round_start = Instant::now();
        let mut ms = [0.0; 5];
        for j in 0..ARMS.len() {
            let arm = (round + j) % ARMS.len();
            let t = Instant::now();
            let done = call(arm, chunk, &db);
            let e = Instant::now();
            ms[arm] = (e - t).as_secs_f64() * 1e3;
            if traced {
                tracer.span(ARMS[arm], round as u64, "round", 0, t, e);
            }
            out.op(done == chunk.ops.len() as u64, || {
                format!(
                    "{} completed {done} of {} ops in round {round}",
                    ARMS[arm],
                    chunk.ops.len()
                )
            });
        }
        if traced {
            tracer.span("round", round as u64, "", 0, round_start, Instant::now());
        }
        rounds[usize::from(traced)].push(ms);
        round += 1;
    }

    let after = outputs(&chunks, &db, &mut out);
    out.check(before == after, || {
        "chunk cycles or energies changed across rounds".to_owned()
    });

    out.end_to_end = end_to_end(&rounds[0], sz.chunk);
    out.end_to_end.insert("setup_s", setup_s);
    if cfg.trace {
        let traced = end_to_end(&rounds[1], sz.chunk);
        let untraced = out.end_to_end.clone();
        out.tracing_overhead(&untraced, &traced);
        out.spans = tracer.take();
        let arms = traced_rounds(&out.spans);
        let col = |arm: usize| arms.iter().map(|r| r[arm]).collect::<Vec<f64>>();
        let paired = |with: usize, without: usize| {
            let d: Vec<f64> = arms.iter().map(|r| r[with] - r[without]).collect();
            stats::median(&d) * 1e3 / sz.chunk as f64
        };
        let kts = |txns: usize, us: &[f64]| txns as f64 / stats::median(us) * 1e3;
        let rtl = |name: &str| crate::trace::durations(&out.spans, name);
        let l = &mut out.per_layer;
        l.insert("core.tlm1_timing_kts", kts(sz.chunk, &col(L1_TIMING)));
        l.insert("core.tlm2_timing_kts", kts(sz.chunk, &col(L2_TIMING)));
        l.insert("power.layer1_ns_per_txn", paired(L1, L1_TIMING));
        l.insert("power.layer2_ns_per_txn", paired(L2, L2_TIMING));
        l.insert("obs.span_ns_per_txn", paired(L1_OBSERVED, L1));
        l.insert("rtl.kts", kts(sz.slice, &rtl("run_reference")));
        l.insert("rtl.ideal_kts", kts(sz.slice, &rtl("run_reference.ideal")));
    }
    let l = &mut out.per_layer;
    l.insert(
        "core.tlm1_cycles",
        before.iter().map(|c| c[0]).sum::<u64>() as f64,
    );
    l.insert(
        "core.tlm2_cycles",
        before.iter().map(|c| c[2]).sum::<u64>() as f64,
    );
    l.insert("rtl.cycles", acc.ref_cycles as f64);
    l.insert(
        "harness.l1_energy_err_pct",
        acc.l1_energy_error().abs() * 100.0,
    );
    l.insert(
        "harness.l2_energy_err_pct",
        acc.l2_energy_error().abs() * 100.0,
    );
    l.insert(
        "harness.l2_cycle_err_pct",
        acc.l2_cycle_error().abs() * 100.0,
    );
    l.insert("bench.spans", out.spans.len() as f64);
    out
}
