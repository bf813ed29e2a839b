//! The benchmark harness: code that regenerates every table and figure of
//! the paper's evaluation (§5), plus the ablations DESIGN.md calls out.
//!
//! Each experiment is a function returning an [`ExpTable`] — the same rows
//! the `figures` binary prints — so integration tests can assert the
//! *shapes* (who wins, by how much, where crossovers fall) without parsing
//! text.
//!
//! Run everything:
//!
//! ```bash
//! cargo run -p h2bench --release --bin figures -- all
//! ```
//!
//! or a single experiment (`fig7`, `fig13`, `table1`, `rtt`, `abl-sync`,
//! …). Pass `--quick` to cap the sweeps for smoke runs.

pub mod ablations;
pub mod experiments;
pub mod rtt;
pub mod systems;
pub mod table1;

pub use systems::{build_system, SystemKind};

/// A rendered experiment: id, caption, column headers, data rows.
#[derive(Debug, Clone)]
pub struct ExpTable {
    pub id: &'static str,
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
    /// Free-form notes printed under the table (paper expectations).
    pub notes: Vec<String>,
}

impl ExpTable {
    pub fn new(id: &'static str, title: impl Into<String>) -> Self {
        ExpTable {
            id,
            title: title.into(),
            headers: Vec::new(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Render as an aligned plain-text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i >= widths.len() {
                    widths.push(cell.len());
                } else {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:>width$}", width = widths.get(i).copied().unwrap_or(0)))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(
            &"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(&format!("  note: {note}\n"));
        }
        out
    }

    /// Numeric cell accessor for shape assertions in tests: parses the
    /// cell as f64. Duration cells are normalised to milliseconds
    /// (`"3.21 s"` → 3210.0, `"42 ms"` → 42.0); unitless cells parse as-is.
    pub fn value(&self, row: usize, col: usize) -> f64 {
        let cell = &self.rows[row][col];
        let cleaned: String = cell
            .chars()
            .filter(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
            .collect();
        let v: f64 = cleaned.parse().unwrap_or(f64::NAN);
        if cell.ends_with(" s") {
            v * 1000.0
        } else {
            v // "… ms", percentages, counts
        }
    }
}

/// Milliseconds of a duration as a short string.
pub fn ms(d: std::time::Duration) -> String {
    h2util::fmt::millis(d)
}

/// Raw milliseconds as f64.
pub fn ms_f(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExpTable {
        let mut t = ExpTable::new("figX", "demo");
        t.headers = vec!["n".into(), "time".into()];
        t.rows.push(vec!["10".into(), "42.0 ms".into()]);
        t.rows.push(vec!["100".into(), "3.21 s".into()]);
        t.notes.push("a note".into());
        t
    }

    #[test]
    fn value_normalises_units_to_ms() {
        let t = sample();
        assert_eq!(t.value(0, 0), 10.0);
        assert_eq!(t.value(0, 1), 42.0);
        assert!((t.value(1, 1) - 3210.0).abs() < 1e-9);
    }

    #[test]
    fn render_contains_all_cells_aligned() {
        let r = sample().render();
        assert!(r.contains("== figX — demo =="));
        assert!(r.contains("42.0 ms"));
        assert!(r.contains("3.21 s"));
        assert!(r.contains("note: a note"));
        // Header line present and separator drawn.
        assert!(r.lines().any(|l| l.contains('n') && l.contains("time")));
        assert!(r.lines().any(|l| l.starts_with('-')));
    }

    #[test]
    fn ms_helpers_agree() {
        let d = std::time::Duration::from_millis(350);
        assert_eq!(ms(d), "350 ms");
        assert_eq!(ms_f(d), 350.0);
    }
}
