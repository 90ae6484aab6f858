//! Host provenance and process memory, read from `/proc`.

/// Worker threads for every pool: the host's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The first `model name` line of `/proc/cpuinfo`.
fn cpu_model(cpuinfo: &str) -> String {
    cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name")?.split_once(':'))
        .map_or_else(|| "unknown".to_owned(), |(_, v)| v.trim().to_owned())
}

/// The packed layer-1 backend the library selects on this host: the
/// `HIERBUS_PACKED_BACKEND` override, else the widest SIMD set the CPU
/// supports, by the library's own detection rule. Derived here rather
/// than asked of the library, so the benchmark does not depend on the
/// packed engine's API.
fn packed_backend() -> String {
    match std::env::var("HIERBUS_PACKED_BACKEND") {
        Ok(v) if !v.is_empty() && v != "auto" => v,
        _ => simd_backend().to_owned(),
    }
}

#[cfg(target_arch = "x86_64")]
fn simd_backend() -> &'static str {
    if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vpopcntdq") {
        "avx512"
    } else if is_x86_feature_detected!("avx2") {
        "avx2"
    } else {
        "scalar"
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn simd_backend() -> &'static str {
    "scalar"
}

/// `key=value` provenance of this run: nproc, CPU model, rustc version,
/// commit, build profile and packed backend.
pub fn provenance() -> Vec<(String, String)> {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    vec![
        ("nproc".to_owned(), nproc().to_string()),
        ("cpu_model".to_owned(), cpu_model(&cpuinfo)),
        ("rustc".to_owned(), env!("BENCH_RUSTC_VERSION").to_owned()),
        ("commit".to_owned(), env!("BENCH_COMMIT").to_owned()),
        ("profile".to_owned(), env!("BENCH_PROFILE").to_owned()),
        ("packed_backend".to_owned(), packed_backend()),
    ]
}

/// Peak resident set size (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
