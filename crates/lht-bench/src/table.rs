//! Result tables: aligned stdout rendering plus CSV persistence.

use std::fmt::Write as _;
use std::fs;
use std::io::{self, Write};
use std::path::Path;

/// A column of [`Table::of`]: its header and the cell it renders.
pub(crate) type Column<'a, R> = (&'a str, &'a dyn Fn(&R) -> String);

/// A simple result table: named columns, rows of formatted cells.
///
/// The experiment binaries print one `Table` per paper sub-figure and
/// persist it under `results/<name>.csv`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub(crate) fn new(title: impl Into<String>, columns: &[&str]) -> Table {
        Table {
            title: title.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// A table with one row per item of `rows`, each column given as
    /// its header and the cell it renders from an item.
    pub(crate) fn of<R>(title: impl Into<String>, rows: &[R], columns: &[Column<'_, R>]) -> Table {
        let headers: Vec<&str> = columns.iter().map(|(header, _)| *header).collect();
        let mut table = Table::new(title, &headers);
        for row in rows {
            table.push_row(columns.iter().map(|(_, cell)| cell(row)).collect());
        }
        table
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the column count.
    pub(crate) fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width must match the header"
        );
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub(crate) fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths[i]))
            .collect();
        let _ = writeln!(out, "{}", header.join("  "));
        let _ = writeln!(out, "{}", "-".repeat(header.join("  ").len()));
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:>w$}", w = widths[i]))
                .collect();
            let _ = writeln!(out, "{}", cells.join("  "));
        }
        out
    }

    /// The tail every experiment shares: prints the rendered table to
    /// `out`, then [`save`](Table::save)s it.
    ///
    /// # Errors
    ///
    /// Propagates write errors from `out` and the filesystem.
    pub(crate) fn emit(&self, out: &mut dyn Write, csv: &str) -> io::Result<()> {
        write!(out, "{}", self.render())?;
        self.save(csv)
    }

    /// Persists the table as `results/<csv>.csv` (creating the
    /// directory) and reports the path on stderr.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub(crate) fn save(&self, csv: &str) -> io::Result<()> {
        let dir = Path::new("results");
        fs::create_dir_all(dir).map_err(named(dir))?;
        let path = dir.join(format!("{csv}.csv"));
        fs::write(&path, self.to_csv()).map_err(named(&path))?;
        eprintln!("wrote {}", path.display());
        Ok(())
    }

    /// Serializes as CSV (header + rows).
    pub(crate) fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.columns.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }
}

/// Names the file in a filesystem error, which `io::Error` does not.
pub(crate) fn named(path: &Path) -> impl Fn(io::Error) -> io::Error + '_ {
    move |e| io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Fig X", &["n", "lht", "pht"]);
        t.push_row(vec!["1024".into(), "1.5".into(), "2.5".into()]);
        t.push_row(vec!["2048".into(), "1.7".into(), "2.9".into()]);
        t
    }

    #[test]
    fn render_aligns_columns() {
        let r = sample().render();
        assert!(r.contains("## Fig X"));
        assert!(r.contains("   n  lht  pht"));
        assert!(r.contains("1024  1.5  2.5"));
    }

    #[test]
    fn of_renders_one_row_per_item_through_each_column() {
        let by_columns = Table::of(
            "Fig X",
            &[(1024, 1.5, 2.5), (2048, 1.7, 2.9)],
            &[
                ("n", &|r| r.0.to_string()),
                ("lht", &|r| format!("{:.1}", r.1)),
                ("pht", &|r| format!("{:.1}", r.2)),
            ],
        );
        assert_eq!(by_columns, sample());
    }

    #[test]
    fn csv_round_trip_shape() {
        let csv = sample().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines, vec!["n,lht,pht", "1024,1.5,2.5", "2048,1.7,2.9"]);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new("t", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }
}
