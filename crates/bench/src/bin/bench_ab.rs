//! Paired A/B runner for the repo benchmark (`BENCHMARK.json`).
//!
//! Runs two builds of the benchmark executable — the parent commit's and
//! the change's — in alternating pairs on one workload, then prints, for
//! every end-to-end metric `BENCHMARK.json` declares, each side's median
//! and quartiles, the change of the median, the change's wins out of the
//! pairs, and two verdicts:
//!
//! * `gain`: the change wins at least nine tenths of the pairs (ties
//!   count for neither side) and its median is better than the parent's
//!   by more than the parent's own interquartile range;
//! * `bound`: the change's median is no worse than the parent's by more
//!   than the metric's relative bound.
//!
//! Pair `i` runs seed `seed-base + i` on both sides; an even seed runs
//! the parent first, an odd seed the change, so neither side always
//! meets the host first. A run whose last stdout line reports
//! `correct: false` or `failed > 0` aborts the comparison.
//!
//! ```sh
//! cargo run --release -p hierbus-bench --bin bench_ab -- \
//!     --parent <exe> --change <exe> --workload jcvm_sweep \
//!     --pairs 10 --seconds 40 --seed-base 11
//! ```
//!
//! Run it from inside the repository: `BENCHMARK.json` is found in the
//! nearest ancestor directory. Each pair takes twice `--seconds` plus
//! set-up, so a full comparison takes minutes.

use hierbus_bench::{nearest_ancestor_with, TextTable};
use hierbus_campaign::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

struct Args {
    parent: PathBuf,
    change: PathBuf,
    workload: String,
    pairs: u64,
    seconds: f64,
    seed_base: u64,
}

fn parse_args() -> Result<Args, String> {
    let (mut parent, mut change, mut workload) = (None, None, None);
    let (mut pairs, mut seconds, mut seed_base) = (10u64, 40.0f64, 1u64);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--parent" => parent = Some(PathBuf::from(&value)),
            "--change" => change = Some(PathBuf::from(&value)),
            "--workload" => workload = Some(value),
            "--pairs" => pairs = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--seed-base" => seed_base = value.parse().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if pairs == 0 {
        return Err("--pairs must be at least 1".to_owned());
    }
    Ok(Args {
        parent: parent.ok_or("--parent is required")?,
        change: change.ok_or("--change is required")?,
        workload: workload.ok_or("--workload is required")?,
        pairs,
        seconds,
        seed_base,
    })
}

/// One end-to-end metric as `BENCHMARK.json` declares it.
struct Metric {
    name: String,
    unit: String,
    higher_is_better: bool,
    /// Largest tolerated worsening of the median, relative to the
    /// parent's median.
    bound: f64,
}

fn load_metrics() -> Result<Vec<Metric>, String> {
    let dir = nearest_ancestor_with("BENCHMARK.json")
        .ok_or("no BENCHMARK.json in this directory or above")?;
    let path = dir.join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: missing end_to_end list")?;
    list.iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry missing {k}"));
            let text = |k: &str| {
                field(k)?
                    .as_str()
                    .map(str::to_owned)
                    .ok_or(format!("end_to_end {k} is not a string"))
            };
            Ok(Metric {
                name: text("name")?,
                unit: text("unit")?,
                higher_is_better: match text("better")?.as_str() {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("end_to_end better {other:?}")),
                },
                bound: field("bound")?
                    .as_f64()
                    .ok_or("end_to_end bound is not a number")?,
            })
        })
        .collect()
}

/// Runs one benchmark process and returns its metric values in
/// `metrics` order.
fn run_once(
    exe: &Path,
    workload: &str,
    seed: u64,
    seconds: f64,
    metrics: &[Metric],
) -> Result<Vec<f64>, String> {
    let what = format!("{} seed {seed}", exe.display());
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()
        .map_err(|e| format!("{what}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().rev().find(|l| !l.trim().is_empty());
    let result = last.and_then(|l| Json::parse(l).ok()).ok_or_else(|| {
        format!(
            "{what}: no result line ({})\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        )
    })?;
    let correct = result.get("correct").and_then(Json::as_bool);
    let failed = result.get("failed").and_then(Json::as_u64);
    if correct != Some(true) || failed != Some(0) {
        return Err(format!(
            "{what}: correct {correct:?}, failed {failed:?}\n{}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    metrics
        .iter()
        .map(|m| {
            result
                .get("metrics")
                .and_then(|ms| ms.get(&m.name))
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64)
                .ok_or(format!("{what}: no value for {}", m.name))
        })
        .collect()
}

/// First quartile, median and third quartile, interpolating linearly
/// between order statistics.
#[derive(Clone, Copy)]
struct Quartiles {
    q1: f64,
    median: f64,
    q3: f64,
}

impl Quartiles {
    fn of(values: &[f64]) -> Quartiles {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let at = |q: f64| {
            let pos = q * (v.len() - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        };
        Quartiles {
            q1: at(0.25),
            median: at(0.5),
            q3: at(0.75),
        }
    }
}

/// One metric's comparison over the pairs.
struct Summary {
    parent: Quartiles,
    change: Quartiles,
    /// Change of the median relative to the parent's median.
    delta: f64,
    /// Pairs in which the change read strictly better.
    wins: usize,
    pairs: usize,
    /// The gain rule: ≥ 9/10 wins and a better median by more than the
    /// parent's IQR.
    gain: bool,
    /// The median is no worse than the parent's by more than the bound.
    within_bound: bool,
}

/// Compares index-aligned pairs of runs of one metric.
fn summarize(metric: &Metric, parent: &[f64], change: &[f64]) -> Summary {
    assert_eq!(parent.len(), change.len(), "runs must pair up");
    assert!(!parent.is_empty(), "no runs to summarize");
    let better = |a: f64, b: f64| {
        if metric.higher_is_better {
            a > b
        } else {
            a < b
        }
    };
    let (p, c) = (Quartiles::of(parent), Quartiles::of(change));
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| better(c, p))
        .count();
    let pairs = parent.len();
    let worsening = if metric.higher_is_better {
        p.median - c.median
    } else {
        c.median - p.median
    };
    Summary {
        parent: p,
        change: c,
        delta: (c.median - p.median) / p.median,
        wins,
        pairs,
        gain: wins * 10 >= pairs * 9
            && better(c.median, p.median)
            && (c.median - p.median).abs() > p.q3 - p.q1,
        within_bound: worsening <= metric.bound * p.median.abs(),
    }
}

fn render(metrics: &[Metric], summaries: &[Summary]) -> String {
    let quart = |q: &Quartiles| format!("{:.4} [{:.4}, {:.4}]", q.median, q.q1, q.q3);
    let mut table = TextTable::new([
        "metric",
        "unit",
        "parent median [q1, q3]",
        "change median [q1, q3]",
        "delta",
        "wins",
        "gain",
        "bound",
    ]);
    for (m, s) in metrics.iter().zip(summaries) {
        table.row([
            m.name.clone(),
            m.unit.clone(),
            quart(&s.parent),
            quart(&s.change),
            hierbus_bench::pct(s.delta),
            format!("{}/{}", s.wins, s.pairs),
            (if s.gain { "yes" } else { "no" }).to_owned(),
            (if s.within_bound { "ok" } else { "WORSE" }).to_owned(),
        ]);
    }
    table.render()
}

fn run(args: &Args) -> Result<String, String> {
    let metrics = load_metrics()?;
    let sides = [("parent", &args.parent), ("change", &args.change)];
    let mut runs: [Vec<Vec<f64>>; 2] = [Vec::new(), Vec::new()];
    for i in 0..args.pairs {
        let seed = args.seed_base + i;
        let order = if seed.is_multiple_of(2) {
            [0, 1]
        } else {
            [1, 0]
        };
        for side in order {
            let (name, exe) = sides[side];
            let values = run_once(exe, &args.workload, seed, args.seconds, &metrics)?;
            let shown: Vec<String> = metrics
                .iter()
                .zip(&values)
                .map(|(m, v)| format!("{}={v}", m.name))
                .collect();
            eprintln!(
                "pair {}/{} seed {seed} {name}: {}",
                i + 1,
                args.pairs,
                shown.join(" ")
            );
            runs[side].push(values);
        }
    }
    let column = |runs: &[Vec<f64>], k: usize| runs.iter().map(|r| r[k]).collect::<Vec<_>>();
    let summaries: Vec<Summary> = metrics
        .iter()
        .enumerate()
        .map(|(k, m)| summarize(m, &column(&runs[0], k), &column(&runs[1], k)))
        .collect();
    Ok(format!(
        "workload {}: {} pairs of {} s, seeds {}..={}\n{}",
        args.workload,
        args.pairs,
        args.seconds,
        args.seed_base,
        args.seed_base + args.pairs - 1,
        render(&metrics, &summaries)
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_ab: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bench_ab: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher_is_better: bool) -> Metric {
        Metric {
            name: "m".to_owned(),
            unit: "ms".to_owned(),
            higher_is_better,
            bound: 0.25,
        }
    }

    #[test]
    fn quartiles_interpolate_between_order_statistics() {
        let q = Quartiles::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((q.q1, q.median, q.q3), (2.0, 3.0, 4.0));
        let q = Quartiles::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.75, 2.5, 3.25));
        let q = Quartiles::of(&[7.0]);
        assert_eq!((q.q1, q.median, q.q3), (7.0, 7.0, 7.0));
    }

    #[test]
    fn clear_latency_gain_meets_the_rule() {
        let parent = [10.0, 11.0, 12.0, 10.5, 11.5, 10.0, 11.0, 12.0, 10.5, 11.5];
        let change = [8.0, 8.5, 9.0, 8.2, 8.8, 8.0, 8.5, 9.0, 8.2, 8.8];
        let s = summarize(&metric(false), &parent, &change);
        assert_eq!(s.wins, 10);
        assert_eq!(s.pairs, 10);
        assert!(s.gain);
        assert!(s.within_bound);
        assert_eq!(s.parent.median, 11.0);
        assert_eq!(s.change.median, 8.5);
        assert!((s.delta - (8.5 - 11.0) / 11.0).abs() < 1e-12);
    }

    #[test]
    fn eight_wins_of_ten_is_no_gain() {
        let parent = [10.0; 10];
        let mut change = [5.0; 10];
        change[3] = 10.0; // tie: counts for neither side
        change[7] = 12.0;
        let s = summarize(&metric(false), &parent, &change);
        assert_eq!(s.wins, 8);
        assert!(!s.gain);
    }

    #[test]
    fn median_gap_inside_parent_iqr_is_no_gain() {
        // Every pair won, but by less than the parent's own spread.
        let parent = [100.0, 140.0, 100.0, 140.0, 100.0, 140.0, 100.0, 140.0];
        let change = parent.map(|p| p + 1.0);
        let s = summarize(&metric(true), &parent, &change);
        assert_eq!(s.wins, 8);
        assert_eq!(s.parent.q3 - s.parent.q1, 40.0);
        assert!(!s.gain);
    }

    #[test]
    fn bound_flags_a_worsening_beyond_it() {
        let parent = [100.0; 4];
        let s = summarize(&metric(true), &parent, &[80.0; 4]);
        assert!(s.within_bound, "-20% is inside the 0.25 bound");
        assert!((s.delta + 0.2).abs() < 1e-12);
        let s = summarize(&metric(true), &parent, &[70.0; 4]);
        assert!(!s.within_bound);
        let s = summarize(&metric(false), &parent, &[130.0; 4]);
        assert!(!s.within_bound);
        assert!(!s.gain);
    }
}
