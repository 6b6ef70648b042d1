//! Result tables: aligned stdout rendering and CSV export.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A named result table (one per figure panel).
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Identifier, e.g. `fig09_capacity`; used as the CSV file stem.
    pub name: String,
    /// Human-readable caption.
    pub caption: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(
        name: impl Into<String>,
        caption: impl Into<String>,
        columns: &[&str],
    ) -> Self {
        Table {
            name: name.into(),
            caption: caption.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the column count.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row width mismatch in {}", self.name);
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "# {} — {}", self.name, self.caption);
        let header: Vec<String> = self
            .columns
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        let _ = writeln!(out, "{}", header.join("  "));
        let _ = writeln!(out, "{}", "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        for row in &self.rows {
            let line: Vec<String> =
                row.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}")).collect();
            let _ = writeln!(out, "{}", line.join("  "));
        }
        out
    }

    /// Writes the table as CSV into `dir/<name>.csv`, creating the
    /// directory if needed.
    ///
    /// # Errors
    ///
    /// Any I/O error from creating the directory or writing the file.
    pub fn write_csv(&self, dir: impl AsRef<Path>) -> io::Result<PathBuf> {
        fs::create_dir_all(dir.as_ref())?;
        let path = dir.as_ref().join(format!("{}.csv", self.name));
        let mut csv = String::new();
        let _ = writeln!(csv, "{}", self.columns.join(","));
        for row in &self.rows {
            let _ = writeln!(csv, "{}", row.join(","));
        }
        fs::write(&path, csv)?;
        Ok(path)
    }
}

/// Formats an `f64` with fixed precision, for table cells.
pub fn fmt(x: f64, decimals: usize) -> String {
    format!("{x:.decimals$}")
}

/// Prints tables to stdout and writes their CSVs under `results/`,
/// relative to the process's working directory (`cargo run` keeps the
/// caller's, so run the binaries from the repository root).
///
/// # Errors
///
/// The first CSV that cannot be written, named in the error; the tables
/// after it are neither printed nor written.
pub fn emit(tables: &[Table]) -> io::Result<()> {
    for t in tables {
        println!("{}", t.render());
        let path = t.write_csv("results").map_err(|e| {
            io::Error::new(e.kind(), format!("failed to write {}: {e}", t.name))
        })?;
        println!("[csv] {}\n", path.display());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("t", "a caption", &["x", "value"]);
        t.push_row(vec!["1".into(), "10.5".into()]);
        t.push_row(vec!["2".into(), "11.25".into()]);
        t
    }

    #[test]
    fn render_contains_everything() {
        let r = sample().render();
        assert!(r.contains("a caption"));
        assert!(r.contains("value"));
        assert!(r.contains("11.25"));
    }

    #[test]
    fn csv_roundtrip() {
        let dir = std::env::temp_dir().join("cos_table_test");
        let path = sample().write_csv(&dir).expect("write");
        let content = std::fs::read_to_string(&path).expect("read");
        assert_eq!(content, "x,value\n1,10.5\n2,11.25\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn csv_into_a_path_that_is_a_file_fails() {
        let file = std::env::temp_dir().join(format!("cos_table_not_a_dir_{}", std::process::id()));
        std::fs::write(&file, "").expect("create file");
        let result = sample().write_csv(&file);
        let _ = std::fs::remove_file(&file);
        assert!(result.is_err(), "wrote a CSV under a plain file");
    }

    #[test]
    fn fmt_precision() {
        assert_eq!(fmt(1.23456, 2), "1.23");
        assert_eq!(fmt(10.0, 0), "10");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_row_panics() {
        sample().push_row(vec!["only one".into()]);
    }
}
