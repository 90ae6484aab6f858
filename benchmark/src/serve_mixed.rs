//! `serve_mixed`: one client in a closed loop (one request
//! outstanding) against an in-process `Daemon` with default options
//! and `nproc` workers, over one long-lived Unix socket pair into
//! `Daemon::serve`.
//!
//! Every `run` request carries 12 × 200-op `mix` and 4 × `multi`
//! (CPU+DMA) specs. Requests alternate between all-new seeds (cold)
//! and an exact repeat of one of the last few cold requests, still in
//! the LRU (warm), so the cache hit ratio is exactly one half.
//!
//! A traced request is additionally replayed, after its `done`, through
//! the public stage functions on the same inputs: `parse_request`,
//! `ScenarioSpec::materialize`, `ScenarioSpec::fingerprint` and, for a
//! cold request, `ServeSession::run_materialized` and the result
//! serializer. Every run, traced or not, also recomputes one result of
//! every 16th cold request through the batch harness.

use crate::trace::{durations, Tracer};
use crate::{derive, metrics, stats, timed_setup, Outcome, RunConfig, Size};
use hierbus::harness;
use hierbus_campaign::CampaignPayload;
use hierbus_power::CharacterizationDb;
use hierbus_serve::{
    parse_request, Daemon, DaemonOptions, LeanResult, Materialized, Op, ServeSession,
};
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Instant;

/// `mix` specs per request.
const MIXES: usize = 12;
/// `multi` specs per request.
const MULTIS: usize = 4;
/// Ops per `mix` spec and CPU ops per `multi` spec.
const OPS: usize = 200;
/// Leading request pairs left out of the latency samples.
const WARMUP_PAIRS: usize = 2;
/// Every this many cold requests, one served result is recomputed
/// through the batch harness, an independent path to the same numbers.
const AUDIT_EVERY: usize = 16;
/// Requests per `ops_per_s` block: short enough that one stalled
/// request spoils a block rather than the whole rate.
const BLOCK: usize = 8;

/// Input sizes of one run.
struct Sizes {
    setup_reps: usize,
    /// The cache counters are read after exactly this many requests,
    /// so they repeat for a seed whatever the window's length.
    stats_after: usize,
    /// Result-cache bound (entries).
    cache_capacity: usize,
    /// Warm requests repeat one of this many most recent cold requests —
    /// fewer than the cache holds, so a repeat always hits.
    recent: usize,
}

fn sizes(size: Size) -> Sizes {
    match size {
        // 80 cold requests insert 1280 entries into the default
        // 1024-entry LRU, so the counters include evictions.
        Size::Full => Sizes {
            setup_reps: 25,
            stats_after: 160,
            cache_capacity: DaemonOptions::default().cache_capacity,
            recent: 8,
        },
        // 4 cold requests overflow a 3-request cache by 16 entries.
        Size::Tiny => Sizes {
            setup_reps: 1,
            stats_after: 8,
            cache_capacity: 3 * (MIXES + MULTIS),
            recent: 1,
        },
    }
}

/// The value of top-level field `name` in a compact JSON event line.
fn field<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let key = format!("\"{name}\":");
    let start = line.find(&key)? + key.len();
    let rest = &line[start..];
    let end = match rest.as_bytes().first()? {
        b'"' => rest[1..].find('"')? + 2,
        b'{' | b'[' => {
            let mut depth = 0usize;
            let mut end = None;
            for (i, b) in rest.bytes().enumerate() {
                match b {
                    b'{' | b'[' => depth += 1,
                    b'}' | b']' => {
                        depth -= 1;
                        if depth == 0 {
                            end = Some(i + 1);
                            break;
                        }
                    }
                    _ => {}
                }
            }
            end?
        }
        _ => rest.find([',', '}']).unwrap_or(rest.len()),
    };
    Some(&rest[..end])
}

/// A cold request, kept while warm requests may repeat it.
struct Cold {
    scenarios: String,
    /// Result bytes by scenario index.
    results: Vec<String>,
}

/// What one request's response stream said.
struct Response {
    /// `(index, cached, key, result bytes)` per `result` event.
    results: Vec<(usize, bool, String, String)>,
    /// Problems: unexpected events, errors, retries, stray ids.
    problems: Vec<String>,
}

/// Reads events for request `id` up to and including its `done`.
fn read_response(reader: &mut impl BufRead, id: &str) -> io::Result<Response> {
    let mut response = Response {
        results: Vec::new(),
        problems: Vec::new(),
    };
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the session",
            ));
        }
        let line = line.trim_end();
        if field(line, "req") != Some(&format!("\"{id}\"")) {
            response
                .problems
                .push(format!("event for another request: {line}"));
            continue;
        }
        match field(line, "event") {
            Some("\"done\"") => return Ok(response),
            Some("\"result\"") => {
                let index = field(line, "index").and_then(|v| v.parse().ok());
                let cached = field(line, "cached");
                let key = field(line, "key");
                let result = field(line, "result");
                match (index, cached, key, result) {
                    (Some(i), Some(c), Some(k), Some(r)) => response.results.push((
                        i,
                        c == "true",
                        k.trim_matches('"').to_owned(),
                        r.to_owned(),
                    )),
                    _ => response.problems.push(format!("malformed result: {line}")),
                }
            }
            _ => response.problems.push(format!("unexpected event: {line}")),
        }
    }
}

/// Cache counters from a `stats` reply: hits, misses, evictions.
fn cache_stats(
    writer: &mut impl Write,
    reader: &mut impl BufRead,
    id: &str,
) -> io::Result<Option<[u64; 3]>> {
    writeln!(writer, "{{\"v\":2,\"id\":\"{id}\",\"op\":\"stats\"}}")?;
    writer.flush()?;
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let num = |name| field(&line, name)?.parse::<f64>().ok().map(|v| v as u64);
    Ok((|| {
        Some([
            num("cache_hits")?,
            num("cache_misses")?,
            num("cache_evictions")?,
        ])
    })())
}

/// The specs of a new cold request, as a JSON array; `next_seed`
/// advances so no spec repeats.
fn cold_scenarios(next_seed: &mut u64, request: u64, seed: u64) -> String {
    let mut kinds: Vec<bool> = (0..MIXES + MULTIS).map(|i| i >= MIXES).collect();
    for i in (1..kinds.len()).rev() {
        let j = (derive(seed ^ request, i as u64) % (i as u64 + 1)) as usize;
        kinds.swap(i, j);
    }
    let specs: Vec<String> = kinds
        .into_iter()
        .map(|multi| {
            let s = *next_seed;
            *next_seed += 1;
            if multi {
                let policy = if derive(seed, s).is_multiple_of(2) { "fixed" } else { "rr" };
                format!("{{\"kind\":\"multi\",\"seed\":{s},\"policy\":\"{policy}\",\"cpu_count\":{OPS}}}")
            } else {
                format!("{{\"kind\":\"mix\",\"seed\":{s},\"count\":{OPS}}}")
            }
        })
        .collect();
    format!("[{}]", specs.join(","))
}

/// Latency samples (ms) of one tracing class, in request order.
#[derive(Default)]
struct Samples {
    cold: Vec<f64>,
    warm: Vec<f64>,
}

/// End-to-end metrics of one tracing class.
fn end_to_end(s: &Samples) -> BTreeMap<&'static str, f64> {
    let all: Vec<f64> = s
        .cold
        .iter()
        .zip(&s.warm)
        .flat_map(|(c, w)| [*c, *w])
        .collect();
    let rates: Vec<f64> = all
        .chunks(BLOCK)
        .map(|b| b.len() as f64 / (b.iter().sum::<f64>() / 1e3))
        .collect();
    metrics::timed(stats::median(&rates), &s.cold, &s.warm)
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let sz = sizes(cfg.size);
    let mut out = Outcome::default();
    let opts = DaemonOptions {
        workers: cfg.workers,
        cache_capacity: sz.cache_capacity,
        ..DaemonOptions::default()
    };
    let (setup_s, (db, daemon)) = timed_setup(sz.setup_reps, || {
        let db = Arc::new(harness::standard_db());
        let daemon = Daemon::new(Arc::clone(&db), opts.clone());
        (db, daemon)
    });
    let db_fp = daemon.db_fingerprint().to_owned();
    let mut session = ServeSession::new(&db);
    let tracer = Tracer::new();
    let (server, client) = UnixStream::pair().expect("socket pair");
    let server_in = BufReader::new(server.try_clone().expect("socket clone"));
    let mut writer = client.try_clone().expect("socket clone");
    let mut reader = BufReader::new(client);

    let mut samples = [Samples::default(), Samples::default()];
    let mut counters = [0u64; 3];
    let mut final_counters = None;
    let mut warm_requests = 0u64;
    let served = std::thread::scope(|scope| {
        let daemon = &daemon;
        let serving = scope.spawn(move || daemon.serve(server_in, server));
        let mut recent: VecDeque<Cold> = VecDeque::new();
        let mut next_seed = derive(cfg.seed, 0) & 0xFFFF_FFFF_0000;
        let start = Instant::now();
        let mut i = 0usize;
        while i < sz.stats_after || i % 2 == 1 || start.elapsed().as_secs_f64() < cfg.seconds {
            let cold = i.is_multiple_of(2);
            let traced = cfg.traced(i / 2);
            let id = format!("{}{i}", if cold { 'c' } else { 'w' });
            let twin = if cold {
                None
            } else {
                Some((derive(cfg.seed ^ 0x5EED, i as u64) % recent.len() as u64) as usize)
            };
            let scenarios = match twin {
                None => cold_scenarios(&mut next_seed, i as u64, cfg.seed),
                Some(t) => recent[t].scenarios.clone(),
            };
            let line =
                format!("{{\"v\":2,\"id\":\"{id}\",\"op\":\"run\",\"scenarios\":{scenarios}}}");

            let t = Instant::now();
            let sent = writeln!(writer, "{line}").and_then(|()| writer.flush());
            let response = sent.and_then(|()| read_response(&mut reader, &id));
            let e = Instant::now();
            let response = match response {
                Ok(r) => r,
                Err(err) => {
                    out.op(false, || format!("request {id}: {err}"));
                    break;
                }
            };
            if i / 2 >= WARMUP_PAIRS {
                let class = &mut samples[usize::from(traced)];
                let ms = (e - t).as_secs_f64() * 1e3;
                if cold {
                    class.cold.push(ms);
                } else {
                    class.warm.push(ms);
                }
            }

            let mut problems = response.problems;
            let mut results = vec![None; MIXES + MULTIS];
            for (index, cached, key, bytes) in response.results {
                if cached == cold {
                    problems.push(format!("result {index} cached: {cached}"));
                }
                match results.get_mut(index) {
                    Some(slot @ None) => *slot = Some((key, bytes)),
                    _ => problems.push(format!("result index {index} unexpected or repeated")),
                }
            }
            let results: Vec<(String, String)> = results.into_iter().flatten().collect();
            if results.len() != MIXES + MULTIS {
                problems.push(format!("{} of {} results", results.len(), MIXES + MULTIS));
            }
            match twin {
                None => recent.push_back(Cold {
                    scenarios,
                    results: results.iter().map(|(_, b)| b.clone()).collect(),
                }),
                Some(t) => {
                    warm_requests += 1;
                    if recent[t].results.iter().ne(results.iter().map(|(_, b)| b)) {
                        problems
                            .push("warm result bytes differ from the cold request's".to_owned());
                    }
                }
            }
            if cold && (i / 2).is_multiple_of(AUDIT_EVERY) {
                let k = (i / 2 / AUDIT_EVERY) % results.len().max(1);
                if let Some((_, served)) = results.get(k) {
                    problems.extend(audit(&line, k, served, &db));
                }
            }
            if recent.len() > sz.recent {
                recent.pop_front();
            }
            if traced {
                let name = if cold { "request.cold" } else { "request.warm" };
                tracer.span(name, i as u64, "", 0, t, e);
                replay(
                    &line,
                    &db_fp,
                    cold,
                    &results,
                    &mut session,
                    &tracer,
                    i as u64,
                    &mut problems,
                );
            }
            out.op(problems.is_empty(), || {
                format!("request {id}: {}", problems.join("; "))
            });

            i += 1;
            if i == sz.stats_after {
                match cache_stats(&mut writer, &mut reader, "stats-prefix") {
                    Ok(Some(c)) => counters = c,
                    other => out.check(false, || format!("stats after {i} requests: {other:?}")),
                }
            }
        }
        final_counters = cache_stats(&mut writer, &mut reader, "stats-final")
            .ok()
            .flatten();
        let bye = writeln!(writer, "{{\"v\":2,\"id\":\"bye\",\"op\":\"shutdown\"}}")
            .and_then(|()| writer.flush())
            .and_then(|()| {
                let mut line = String::new();
                while reader.read_line(&mut line)? > 0 && field(&line, "event") != Some("\"bye\"") {
                    line.clear();
                }
                Ok(line)
            });
        out.check(bye.is_ok_and(|l| !l.is_empty()), || {
            "no bye after shutdown".to_owned()
        });
        serving.join().expect("daemon session panicked")
    });
    match served {
        Ok(summary) => out.check(summary.shutdown, || {
            "session did not end on shutdown".to_owned()
        }),
        Err(e) => out.check(false, || format!("daemon session failed: {e}")),
    }
    let expected = warm_requests * (MIXES + MULTIS) as u64;
    out.check(
        matches!(final_counters, Some([h, m, _]) if h == expected && m == expected),
        || format!("cache counters {final_counters:?}: hits and misses should both be {expected}"),
    );

    out.end_to_end = end_to_end(&samples[0]);
    out.end_to_end.insert("setup_s", setup_s);
    if cfg.trace {
        let traced = end_to_end(&samples[1]);
        let untraced = out.end_to_end.clone();
        out.tracing_overhead(&untraced, &traced);
        out.spans = tracer.take();
        let med = |name: &str| stats::median(&durations(&out.spans, name));
        let parse = med("parse_request");
        let materialize = med("ScenarioSpec::materialize");
        let fingerprint = med("ScenarioSpec::fingerprint");
        let result_json = med("LeanResult::to_json");
        let mix = med("ServeSession::run_materialized.mix");
        let multi = med("ServeSession::run_materialized.multi");
        let front = parse + materialize + fingerprint;
        let execute = (MIXES as f64 * mix + MULTIS as f64 * multi) / cfg.workers as f64;
        let l = &mut out.per_layer;
        l.insert("serve.parse_us", parse);
        l.insert("serve.materialize_us", materialize);
        l.insert("serve.fingerprint_us", fingerprint);
        l.insert("serve.result_json_us", result_json);
        l.insert("serve.session_mix_us", mix);
        l.insert("serve.session_multi_us", multi);
        l.insert(
            "serve.cold_residual_us",
            med("request.cold") - front - result_json - execute,
        );
        l.insert("serve.warm_residual_us", med("request.warm") - front);
        let p99 = |name: &str| stats::quantile(&durations(&out.spans, name), 0.99) / 1e3;
        l.insert("serve.cold_p99_ms", p99("request.cold"));
        l.insert("serve.warm_p99_ms", p99("request.warm"));
    }
    let l = &mut out.per_layer;
    l.insert("serve.cache_hits", counters[0] as f64);
    l.insert("serve.cache_misses", counters[1] as f64);
    l.insert("serve.cache_evictions", counters[2] as f64);
    l.insert("bench.spans", out.spans.len() as f64);
    out
}

/// Recomputes scenario `k` of a request line through
/// `harness::run_layer1` (or its multi-master form) and compares it with
/// the result bytes the daemon served; a problem if they differ.
fn audit(line: &str, k: usize, served: &str, db: &CharacterizationDb) -> Option<String> {
    let spec = match parse_request(line).map(|r| r.op) {
        Ok(Op::Run(specs)) => specs.into_iter().nth(k)?,
        _ => return Some("audited line does not parse as a run".to_owned()),
    };
    let (cycles, energy_pj) = match spec.materialize() {
        Ok(Materialized::Single(s)) => {
            let r = harness::run_layer1(&s, db);
            (r.cycles, r.energy_pj)
        }
        Ok(Materialized::Multi(ms)) => {
            let r = harness::multi::run_layer1(&ms, db, &[]);
            (r.cycles, r.energy_pj)
        }
        Err(e) => return Some(format!("audited spec does not materialize: {e}")),
    };
    let expected = LeanResult { cycles, energy_pj }
        .to_json()
        .to_string_compact();
    (expected != served).then(|| format!("result {k} is {served}, the harness gives {expected}"))
}

/// Replays one request line through the public stage functions, one
/// span per stage, checking each stage agrees with what the daemon
/// answered.
#[allow(clippy::too_many_arguments)]
fn replay(
    line: &str,
    db_fp: &str,
    cold: bool,
    results: &[(String, String)],
    session: &mut ServeSession,
    tracer: &Tracer,
    id: u64,
    problems: &mut Vec<String>,
) {
    let parent = if cold { "request.cold" } else { "request.warm" };
    let t = Instant::now();
    let request = parse_request(line);
    tracer.span("parse_request", id, parent, 0, t, Instant::now());
    let specs = match request {
        Ok(r) => match r.op {
            Op::Run(specs) => specs,
            other => return problems.push(format!("replayed line parsed as {other:?}")),
        },
        Err((_, e)) => return problems.push(format!("replayed line does not parse: {e}")),
    };
    let t = Instant::now();
    let materialized: Result<Vec<Materialized>, String> =
        specs.iter().map(|s| s.materialize()).collect();
    tracer.span(
        "ScenarioSpec::materialize",
        id,
        parent,
        0,
        t,
        Instant::now(),
    );
    let t = Instant::now();
    let keys: Vec<String> = specs.iter().map(|s| s.fingerprint(db_fp)).collect();
    tracer.span(
        "ScenarioSpec::fingerprint",
        id,
        parent,
        0,
        t,
        Instant::now(),
    );
    if keys.iter().ne(results.iter().map(|(k, _)| k)) {
        problems.push("replayed fingerprints differ from the daemon's keys".to_owned());
    }
    let Ok(materialized) = materialized else {
        return problems.push("replayed specs do not materialize".to_owned());
    };
    if !cold {
        return;
    }
    let mut lean = Vec::with_capacity(materialized.len());
    for m in &materialized {
        let name = match m {
            Materialized::Single(_) => "ServeSession::run_materialized.mix",
            Materialized::Multi(_) => "ServeSession::run_materialized.multi",
        };
        let t = Instant::now();
        lean.push(session.run_materialized(m));
        tracer.span(name, id, parent, 0, t, Instant::now());
    }
    let t = Instant::now();
    let bytes: Vec<String> = lean
        .iter()
        .map(|r| r.to_json().to_string_compact())
        .collect();
    tracer.span("LeanResult::to_json", id, parent, 0, t, Instant::now());
    if bytes.iter().ne(results.iter().map(|(_, b)| b)) {
        problems.push("replayed results differ from the daemon's".to_owned());
    }
}
