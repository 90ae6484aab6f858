//! Each workload at a tiny size: every named metric is emitted with its
//! unit, the outputs check out, and the exact counts repeat for a seed.

use hierbus_benchmark::metrics::{END_TO_END, PER_LAYER};
use hierbus_benchmark::{result_line, run, Outcome, RunConfig, Size, WORKLOADS};
use hierbus_campaign::Json;

fn tiny(workload: &str, seed: u64, trace: bool) -> Outcome {
    let cfg = RunConfig {
        seed,
        seconds: 0.0,
        trace,
        workers: 2,
        size: Size::Tiny,
    };
    let outcome = run(workload, &cfg).expect("known workload");
    assert!(outcome.correct(), "{workload}: {:?}", outcome.errors);
    outcome
}

/// The metrics object of a result line, as `(name, value, unit)`.
fn printed(outcome: &Outcome, trace: bool) -> Vec<(String, f64, String)> {
    let line = Json::parse(&result_line(outcome, trace)).expect("result line is JSON");
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    assert!(line
        .get("attempted")
        .and_then(Json::as_u64)
        .is_some_and(|n| n > 0));
    assert_eq!(line.get("failed").and_then(Json::as_u64), Some(0));
    let Some(Json::Obj(metrics)) = line.get("metrics") else {
        panic!("no metrics object");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .expect("numeric value");
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            (name.clone(), value, unit.to_owned())
        })
        .collect()
}

fn counts(outcome: &Outcome) -> Vec<(&'static str, f64)> {
    PER_LAYER
        .iter()
        .filter(|m| m.unit == "count" && m.name != "bench.spans")
        .map(|m| {
            (
                m.name,
                outcome.per_layer.get(m.name).copied().unwrap_or(0.0),
            )
        })
        .collect()
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    for &w in WORKLOADS {
        let outcome = tiny(w, 7, false);
        let got = printed(&outcome, false);
        let want: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
        let names: Vec<(&str, &str)> = got
            .iter()
            .map(|(n, _, u)| (n.as_str(), u.as_str()))
            .collect();
        assert_eq!(names, want, "{w}");
        for (name, value, _) in &got {
            assert!(value.is_finite() && *value > 0.0, "{w}: {name} = {value}");
        }
        assert!(
            outcome.spans.is_empty(),
            "{w}: an untraced run records no spans"
        );
    }
}

#[test]
fn traced_runs_print_every_per_layer_metric_and_record_spans() {
    for &w in WORKLOADS {
        let outcome = tiny(w, 7, true);
        let got = printed(&outcome, true);
        let want: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
        let names: Vec<(&str, &str)> = got
            .iter()
            .map(|(n, _, u)| (n.as_str(), u.as_str()))
            .collect();
        assert_eq!(names, want, "{w}");
        assert!(!outcome.spans.is_empty(), "{w}: no spans");
        for s in &outcome.spans {
            assert!(
                s.end_us >= s.start_us,
                "{w}: span {} ends before it starts",
                s.name
            );
        }
        for (name, value, _) in &got {
            assert!(value.is_finite(), "{w}: {name} = {value}");
        }
    }
}

#[test]
fn layer_metrics_of_each_workload_are_measured() {
    let prefixes: [(&str, &[&str]); 3] = [
        (
            "table3_mix",
            &["core.", "power.", "obs.", "rtl.", "harness."],
        ),
        ("jcvm_sweep", &["jcvm.", "campaign."]),
        ("serve_mixed", &["serve."]),
    ];
    for (w, own) in prefixes {
        let outcome = tiny(w, 3, true);
        for m in PER_LAYER
            .iter()
            .filter(|m| own.iter().any(|p| m.name.starts_with(p)))
        {
            let v = outcome.per_layer.get(m.name).copied();
            // Paired differences and residuals may be negative on a
            // tiny run; they must still be measured.
            assert!(
                v.is_some_and(|v| v.is_finite() && v != 0.0),
                "{w}: {} = {v:?}",
                m.name
            );
        }
    }
}

#[test]
fn exact_counts_repeat_for_a_seed() {
    for &w in WORKLOADS {
        let a = counts(&tiny(w, 11, true));
        let b = counts(&tiny(w, 11, false));
        assert_eq!(a, b, "{w}");
    }
}

#[test]
fn table3_counts_change_with_the_seed() {
    let a = counts(&tiny("table3_mix", 11, false));
    let b = counts(&tiny("table3_mix", 12, false));
    for ((name, x), (_, y)) in a.iter().zip(&b) {
        if ["core.", "rtl."].iter().any(|p| name.starts_with(p)) {
            assert_ne!(x, y, "{name} does not depend on the seed");
        }
    }
}

#[test]
fn benchmark_json_lists_the_same_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        json.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |f| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .expect("string field")
                        .to_owned()
                };
                (s("name"), s("unit"))
            })
            .collect()
    };
    let ours = |list: &[hierbus_benchmark::metrics::Metric]| -> Vec<(String, String)> {
        list.iter()
            .map(|m| (m.name.to_owned(), m.unit.to_owned()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), ours(END_TO_END));
    assert_eq!(listed("per_layer"), ours(PER_LAYER));
    let workloads: Vec<String> = json
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_owned()
        })
        .collect();
    assert_eq!(workloads, WORKLOADS);
}
