//! Command line: `hierbus-benchmark --workload <name> --seed <n>
//! --seconds <s> --trace <0|1>`. Prints the run's provenance, then as
//! its last line one JSON object with `correct`, `attempted`, `failed`
//! and the metrics. Exits 1 when a correctness check fails, 2 on a bad
//! command line.

use hierbus_benchmark::{host, result_line, trace, RunConfig, Size, WORKLOADS};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload} (have {WORKLOADS:?})"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hierbus-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        workers: host::nproc(),
        size: Size::Full,
    };
    let mut provenance = host::provenance();
    provenance.push(("workload".to_owned(), args.workload.clone()));
    provenance.push(("seed".to_owned(), args.seed.to_string()));
    provenance.push(("workers".to_owned(), cfg.workers.to_string()));
    let outcome = hierbus_benchmark::run(&args.workload, &cfg).expect("workload name checked");

    for e in &outcome.errors {
        eprintln!("hierbus-benchmark: check failed: {e}");
    }
    if args.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("{}-seed{}.trace.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, trace::chrome_json(&outcome.spans, &provenance)));
        match written {
            Ok(()) => provenance.push(("trace_file".to_owned(), path.display().to_string())),
            Err(e) => eprintln!("hierbus-benchmark: writing {}: {e}", path.display()),
        }
    }
    let host: Vec<String> = provenance
        .iter()
        .map(|(k, v)| {
            format!(
                "\"{}\": \"{}\"",
                trace::json_escape(k),
                trace::json_escape(v)
            )
        })
        .collect();
    println!("{{\"host\": {{{}}}}}", host.join(", "));
    println!("{}", result_line(&outcome, args.trace));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
