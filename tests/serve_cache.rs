//! Result-cache behavior through the daemon: hit/miss accounting,
//! LRU eviction at capacity, and byte-identical replay of cached
//! results at every worker count — the serve-side analog of
//! `campaign_determinism.rs`.

use hierbus::serve::{proto, Daemon, DaemonOptions, ScenarioSpec};
use hierbus_campaign::Json;
use hierbus_ec::MixParams;
use hierbus_power::CharacterizationDb;
use std::collections::BTreeMap;
use std::io::Cursor;
use std::sync::Arc;

fn daemon(workers: usize, cache_capacity: usize) -> Daemon {
    Daemon::new(
        Arc::new(CharacterizationDb::uniform()),
        DaemonOptions {
            workers,
            cache_capacity,
            ..DaemonOptions::default()
        },
    )
}

fn run_request(id: &str, specs: &[ScenarioSpec]) -> String {
    Json::Obj(vec![
        ("v".to_owned(), Json::Num(1.0)),
        ("id".to_owned(), Json::Str(id.to_owned())),
        ("op".to_owned(), Json::Str("run".to_owned())),
        (
            "scenarios".to_owned(),
            Json::Arr(specs.iter().map(ScenarioSpec::to_json).collect()),
        ),
    ])
    .to_string_compact()
}

fn specs(n: u64) -> Vec<ScenarioSpec> {
    (0..n)
        .map(|seed| ScenarioSpec::Mix {
            seed,
            params: MixParams {
                count: 40,
                ..MixParams::default()
            },
            waits: None,
        })
        .collect()
}

/// Streams one session and maps every result event to
/// `(request id, scenario index) -> (cached flag, exact result bytes)`.
/// Result events arrive in completion order, so comparisons go through
/// this map, never through stream position.
fn run_session(daemon: &Daemon, script: &str) -> BTreeMap<(String, u64), (bool, String)> {
    let mut output = Vec::new();
    daemon
        .serve(Cursor::new(script.to_owned()), &mut output)
        .expect("in-memory session");
    let mut results = BTreeMap::new();
    for line in String::from_utf8(output).expect("utf-8").lines() {
        let event = Json::parse(line).expect("response line parses");
        if event.get("event").and_then(Json::as_str) != Some("result") {
            continue;
        }
        let req = event.get("req").unwrap().as_str().unwrap().to_owned();
        let index = event.get("index").unwrap().as_u64().unwrap();
        let cached = event.get("cached").unwrap().as_bool().unwrap();
        let bytes = event.get("result").unwrap().to_string_compact();
        let previous = results.insert((req, index), (cached, bytes));
        assert!(previous.is_none(), "duplicate result for one request index");
    }
    results
}

#[test]
fn cached_replay_is_byte_identical_at_1_2_4_workers() {
    let specs = specs(6);
    let script = [run_request("cold", &specs), run_request("warm", &specs)].join("\n");

    let mut all_cold: Vec<Vec<String>> = Vec::new();
    for workers in [1usize, 2, 4] {
        let d = daemon(workers, 64);
        let results = run_session(&d, &script);
        assert_eq!(results.len(), 2 * specs.len());
        let mut cold = Vec::new();
        for i in 0..specs.len() as u64 {
            let (cold_cached, cold_bytes) = &results[&("cold".to_owned(), i)];
            let (warm_cached, warm_bytes) = &results[&("warm".to_owned(), i)];
            assert!(!cold_cached, "first submission must simulate");
            assert!(warm_cached, "resubmission must be served from cache");
            assert_eq!(
                warm_bytes, cold_bytes,
                "cached result differs from fresh run at index {i}, {workers} workers"
            );
            cold.push(cold_bytes.clone());
        }
        all_cold.push(cold);
    }
    // Fresh results are also identical across worker counts — the
    // campaign engine's determinism contract, observed over the wire.
    for other in &all_cold[1..] {
        assert_eq!(other, &all_cold[0], "results differ across worker counts");
    }
}

#[test]
fn hit_and_miss_accounting_through_the_daemon() {
    let d = daemon(2, 64);
    let s = specs(4);
    let script = [
        run_request("a", &s),      // 4 misses
        run_request("b", &s[..2]), // 2 hits
        run_request("c", &s),      // 4 hits
    ]
    .join("\n");
    let mut output = Vec::new();
    let summary = d
        .serve(Cursor::new(script), &mut output)
        .expect("in-memory session");
    assert_eq!(summary.cache_misses, 4);
    assert_eq!(summary.cache_hits, 6);
    assert_eq!(d.cache_len(), 4);
    // The counters are exported through the obs metrics registry.
    let csv = d.metrics_csv();
    assert!(csv.contains("serve.cache.hit,count,6"), "{csv}");
    assert!(csv.contains("serve.cache.miss,count,4"), "{csv}");
    assert!(csv.contains("serve.requests,count,3"), "{csv}");
}

#[test]
fn lru_eviction_at_capacity_recomputes_evicted_scenarios() {
    // Capacity 2, one worker (deterministic completion order). Filling
    // with scenarios 0,1,2 evicts 0; resubmitting 0 misses and in turn
    // evicts 1; scenario 2 — the most recently used — keeps hitting.
    let d = daemon(1, 2);
    let s = specs(3);
    let script = [
        run_request("fill", &s),
        run_request("evicted", &s[..1]),
        run_request("mixed", &s[1..]),
    ]
    .join("\n");
    let results = run_session(&d, &script);
    for i in 0..3 {
        assert!(!results[&("fill".to_owned(), i)].0, "cold fill at {i}");
    }
    assert!(
        !results[&("evicted".to_owned(), 0)].0,
        "evicted scenario must recompute"
    );
    assert!(
        !results[&("mixed".to_owned(), 0)].0,
        "scenario 1 was evicted by the recomputation of scenario 0"
    );
    assert!(
        results[&("mixed".to_owned(), 1)].0,
        "most recently used entry was wrongly evicted"
    );
    // Recomputation reproduces the original bytes exactly.
    assert_eq!(
        results[&("evicted".to_owned(), 0)].1,
        results[&("fill".to_owned(), 0)].1
    );
    assert_eq!(d.cache_len(), 2);
    let csv = d.metrics_csv();
    assert!(csv.contains("serve.cache.eviction,count,3"), "{csv}");
}

#[test]
fn within_request_duplicates_simulate_once() {
    let d = daemon(2, 64);
    let one = specs(1);
    let duplicated = vec![one[0].clone(), one[0].clone(), one[0].clone()];
    let script = run_request("dup", &duplicated);
    let results = run_session(&d, &script);
    assert_eq!(results.len(), 3, "every index gets its result event");
    let bytes: Vec<&String> = (0..3).map(|i| &results[&("dup".to_owned(), i)].1).collect();
    assert_eq!(bytes[0], bytes[1]);
    assert_eq!(bytes[1], bytes[2]);
    assert_eq!(d.cache_len(), 1, "one simulation serves all duplicates");
}

#[test]
fn unknown_named_spec_fails_the_request_even_among_cached_specs() {
    // The names are checked before the cache pass, so the cached specs
    // in front of the bad one must not stream a result either.
    let d = daemon(2, 64);
    let s = specs(3);
    let mut bad = run_request("bad", &s);
    bad.truncate(bad.len() - 2); // drop the closing `]}`
    bad.push_str(r#",{"kind":"named","name":"no_such_scenario"}]}"#);
    let script = [run_request("fill", &s), bad].join("\n");
    let mut output = Vec::new();
    let summary = d
        .serve(Cursor::new(script), &mut output)
        .expect("in-memory session");
    let bad_events: Vec<Json> = String::from_utf8(output)
        .expect("utf-8")
        .lines()
        .map(|l| Json::parse(l).expect("response line parses"))
        .filter(|e| e.get("req").and_then(Json::as_str) == Some("bad"))
        .collect();
    assert_eq!(bad_events.len(), 1, "exactly one event for the bad request");
    assert_eq!(
        bad_events[0].get("event").and_then(Json::as_str),
        Some("error")
    );
    let message = bad_events[0].get("message").unwrap().as_str().unwrap();
    assert!(
        message.starts_with("scenarios[3]: unknown scenario name"),
        "{message}"
    );
    // The failed request never touched the cache.
    assert_eq!((summary.cache_hits, summary.cache_misses), (0, 3));
}

#[test]
fn result_lines_equal_the_serialized_event_at_1_2_4_workers() {
    // Result events splice the cached bytes into the line; the line
    // must equal the whole event serialized with the result parsed into
    // a field, at every worker count and for fresh and cached results.
    let s = specs(6);
    let script = [run_request("cold", &s), run_request("warm", &s)].join("\n");
    for workers in [1usize, 2, 4] {
        let d = daemon(workers, 64);
        let mut output = Vec::new();
        d.serve(Cursor::new(script.clone()), &mut output)
            .expect("in-memory session");
        let mut results = 0;
        for line in String::from_utf8(output).expect("utf-8").lines() {
            let event = Json::parse(line).expect("response line parses");
            if event.get("event").and_then(Json::as_str) != Some("result") {
                continue;
            }
            let req = event.get("req").unwrap().as_str().unwrap();
            let mut fields = proto::event(req, "result");
            for name in ["index", "key", "cached", "result"] {
                fields.push((name.to_owned(), event.get(name).unwrap().clone()));
            }
            assert_eq!(
                line,
                Json::Obj(fields).to_string_compact(),
                "{workers} workers"
            );
            results += 1;
        }
        assert_eq!(results, 2 * s.len(), "{workers} workers");
    }
}

#[test]
fn stats_count_single_and_multi_specs_by_kind() {
    // Hits count too: the counters describe what was asked for, not
    // what was simulated. A rejected request counts nothing.
    let d = daemon(2, 64);
    let run = |id: &str, scenarios: &str| {
        format!(r#"{{"v":2,"id":"{id}","op":"run","scenarios":[{scenarios}]}}"#)
    };
    let mixed = concat!(
        r#"{"kind":"mix","seed":1,"count":40},"#,
        r#"{"kind":"multi","seed":2,"cpu_count":40},"#,
        r#"{"kind":"named","name":"burst_reads"},"#,
        r#"{"kind":"mix","seed":3,"count":40}"#
    );
    let script = [
        run("cold", mixed),
        run("warm", mixed),
        run(
            "bad",
            r#"{"kind":"multi","seed":4},{"kind":"named","name":"nope"}"#,
        ),
        r#"{"v":2,"id":"s","op":"stats"}"#.to_owned(),
    ]
    .join("\n");
    let mut output = Vec::new();
    let summary = d
        .serve(Cursor::new(script), &mut output)
        .expect("in-memory session");
    assert_eq!((summary.cache_hits, summary.cache_misses), (4, 4));
    let text = String::from_utf8(output).expect("utf-8");
    let stats = Json::parse(text.lines().last().unwrap()).expect("stats line parses");
    assert_eq!(stats.get("event").and_then(Json::as_str), Some("stats"));
    let counter = |name: &str| stats.get(name).and_then(Json::as_u64);
    assert_eq!(counter("scenarios"), Some(8));
    assert_eq!(counter("single_scenarios"), Some(6));
    assert_eq!(counter("multi_scenarios"), Some(2));
}

/// A cache index filled by one daemon replays in a fresh daemon over
/// the same database: every result is a hit and its bytes equal the
/// bytes the filling daemon simulated.
#[test]
fn persisted_cache_replays_byte_identical_in_a_new_daemon() {
    let dir = std::env::temp_dir().join("hierbus_serve_cache_replay");
    let _ = std::fs::remove_dir_all(&dir);
    let persistent = || {
        Daemon::new(
            Arc::new(CharacterizationDb::uniform()),
            DaemonOptions {
                workers: 2,
                cache_capacity: 64,
                cache_index: Some(dir.join("cache.json")),
                ..DaemonOptions::default()
            },
        )
    };
    let script = run_request("probe", &specs(5));
    let fill = run_session(&persistent(), &script);
    let replay = run_session(&persistent(), &script);
    assert_eq!(fill.len(), 5);
    for (key, (cached, bytes)) in &fill {
        assert!(!cached, "{key:?}: fill run must simulate");
        let (replay_cached, replay_bytes) = &replay[key];
        assert!(replay_cached, "{key:?}: replay missed the persisted cache");
        assert_eq!(replay_bytes, bytes, "{key:?}: replayed bytes differ");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
