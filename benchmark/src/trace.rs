//! The benchmark's own span recorder: one span around each call into a
//! layer's public function, kept in memory and written out when the run
//! ends. Spans of one round, design point or request share an `id`;
//! `parent` names the enclosing span of the same id ("" for a root).

use std::sync::Mutex;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer entry point timed, e.g. `core.tlm1_timing`.
    pub name: &'static str,
    /// Round, design point or request this call belongs to.
    pub id: u64,
    /// Name of the enclosing span of the same id; "" for a root.
    pub parent: &'static str,
    /// Start, µs since the run's epoch.
    pub start_us: f64,
    /// End, µs since the run's epoch.
    pub end_us: f64,
    /// Recording thread (0 = the client thread, 1.. = pool workers).
    pub thread: usize,
}

impl Span {
    /// Duration in µs.
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// An in-memory span sink shared by the client thread and pool workers.
/// A disabled tracer records nothing.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// µs since the epoch of `t`.
    fn us(&self, t: Instant) -> f64 {
        t.duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Records a call that ran from `start` to `end`.
    pub fn span(
        &self,
        name: &'static str,
        id: u64,
        parent: &'static str,
        thread: usize,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            name,
            id,
            parent,
            start_us: self.us(start),
            end_us: self.us(end),
            thread,
        };
        self.spans.lock().expect("span sink poisoned").push(span);
    }

    /// Takes every recorded span, in recording order.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span sink poisoned"))
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// Durations (µs) of every span named `name`, in recording order.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_us)
        .collect()
}

/// Escapes a string for a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders spans as a Chrome/Perfetto trace (`ph: "X"` events, one
/// track per thread) with `metadata` holding the run's provenance.
pub fn chrome_json(spans: &[Span], metadata: &[(String, String)]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":\"{}\"}}}}",
            json_escape(s.name),
            s.thread,
            s.start_us,
            s.dur_us(),
            s.id,
            json_escape(s.parent),
        ));
    }
    out.push_str("\n],\"metadata\":{");
    for (i, (k, v)) in metadata.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)));
    }
    out.push_str("}}\n");
    out
}
