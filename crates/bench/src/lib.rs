//! Shared plumbing for the table/figure regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper (see `DESIGN.md` for the index); this library holds the text
//! table formatter and the workload definitions they share, so the
//! binaries stay small and the numbers stay consistent across tables.

use hierbus_campaign::Json;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// A simple aligned text table.
#[derive(Debug, Default, Clone)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Starts a table with the given column headers.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header length).
    ///
    /// # Panics
    ///
    /// Panics on a column-count mismatch.
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "column count mismatch");
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no data rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                let pad = widths[i];
                if i == 0 {
                    let _ = write!(out, "{cell:<pad$}");
                } else {
                    let _ = write!(out, "  {cell:>pad$}");
                }
            }
            out.push('\n');
        };
        fmt_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(&mut out, row);
        }
        out
    }

    /// Renders as CSV (for plotting).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |s: &str| {
            if s.contains(',') {
                format!("\"{s}\"")
            } else {
                s.to_owned()
            }
        };
        let _ = writeln!(
            out,
            "{}",
            self.header
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }
}

/// Times `f` over `reps` repetitions and returns the best (minimum)
/// wall-clock duration — the plain-`std` replacement for the old
/// criterion harness, suitable for the coarse throughput comparisons
/// the tables need.
pub fn time_best<R>(reps: usize, mut f: impl FnMut() -> R) -> std::time::Duration {
    assert!(reps > 0);
    let mut best = std::time::Duration::MAX;
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        let r = f();
        let dt = t0.elapsed();
        std::hint::black_box(r);
        best = best.min(dt);
    }
    best
}

/// Elements-per-second throughput for a measured duration.
pub fn throughput(elements: u64, dt: std::time::Duration) -> f64 {
    elements as f64 / dt.as_secs_f64()
}

/// Returns the results directory (optionally a subdirectory of it),
/// created if missing — the one place every table binary goes through
/// for its output files.
///
/// # Errors
///
/// Any I/O error from creating the directory.
pub fn results_dir(sub: Option<&str>) -> std::io::Result<PathBuf> {
    let mut dir = PathBuf::from("results");
    if let Some(sub) = sub {
        dir.push(sub);
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// The machine-readable perf trajectory file, written at the repo root
/// so future PRs can diff throughput across revisions.
pub const THROUGHPUT_JSON: &str = "BENCH_throughput.json";

/// Absolute location of [`THROUGHPUT_JSON`]: the nearest ancestor
/// directory holding a `Cargo.lock` (the workspace root, whether the
/// writer runs as a bin from the repo root or as a bench with the
/// package directory as cwd), falling back to the current directory.
pub fn throughput_json_path() -> PathBuf {
    nearest_ancestor_with("Cargo.lock").map_or_else(
        || PathBuf::from(THROUGHPUT_JSON),
        |d| d.join(THROUGHPUT_JSON),
    )
}

/// The nearest ancestor of the current directory (itself included) that
/// holds a file named `marker`.
pub fn nearest_ancestor_with(marker: &str) -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join(marker).exists() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Merges `section` into the top-level object of `path` (read-modify-
/// write; other sections are preserved, an unreadable or malformed
/// file is replaced). Keys inside the section come from the caller in
/// a deterministic order.
///
/// # Errors
///
/// Any I/O error from writing the file.
pub fn write_throughput_section(
    path: impl AsRef<Path>,
    section: &str,
    fields: Vec<(String, Json)>,
) -> std::io::Result<()> {
    let path = path.as_ref();
    let mut doc = std::fs::read_to_string(path)
        .ok()
        .and_then(|t| Json::parse(&t).ok())
        .filter(|v| v.as_obj().is_some())
        .unwrap_or(Json::Obj(Vec::new()));
    doc.set(section, Json::Obj(fields));
    std::fs::write(path, doc.to_string_pretty())
}

/// Formats a ratio as a percentage with sign, e.g. `+14.7%`.
pub fn pct(x: f64) -> String {
    format!("{:+.1}%", x * 100.0)
}

/// Formats a count with thousands separators (ASCII underscore).
pub fn grouped(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push('_');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(["model", "cycles"]);
        t.row(["layer 1", "100"]);
        t.row(["layer 2", "100.5"]);
        let s = t.render();
        assert!(s.contains("model"));
        assert!(s.lines().count() == 4);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = TextTable::new(["a", "b"]);
        t.row(["x,y", "1"]);
        assert!(t.to_csv().contains("\"x,y\""));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn row_length_checked() {
        let mut t = TextTable::new(["a"]);
        t.row(["1", "2"]);
    }

    #[test]
    fn throughput_sections_merge_not_clobber() {
        let dir = std::env::temp_dir().join("hierbus_bench_lib_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(THROUGHPUT_JSON);
        let _ = std::fs::remove_file(&path);
        write_throughput_section(
            &path,
            "layers",
            vec![("tlm1_with_kts".to_owned(), Json::Num(85.3))],
        )
        .unwrap();
        write_throughput_section(
            &path,
            "campaign",
            vec![("workers_1".to_owned(), Json::Num(2.0))],
        )
        .unwrap();
        // Rewriting one section keeps the other.
        write_throughput_section(
            &path,
            "layers",
            vec![("tlm1_with_kts".to_owned(), Json::Num(90.0))],
        )
        .unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(
            doc.get("layers")
                .unwrap()
                .get("tlm1_with_kts")
                .unwrap()
                .as_f64(),
            Some(90.0)
        );
        assert_eq!(
            doc.get("campaign")
                .unwrap()
                .get("workers_1")
                .unwrap()
                .as_f64(),
            Some(2.0)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pct_and_grouped() {
        assert_eq!(pct(0.147), "+14.7%");
        assert_eq!(pct(-0.078), "-7.8%");
        assert_eq!(grouped(1234567), "1_234_567");
        assert_eq!(grouped(42), "42");
    }
}
