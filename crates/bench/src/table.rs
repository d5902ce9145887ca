//! Plain-text table rendering for experiment reports.

use std::fmt::Display;

/// A simple ASCII table builder: headers, rows, aligned columns.
///
/// # Examples
/// ```
/// use bench::Table;
/// let mut t = Table::new(["n", "rmr"]);
/// t.row(["8", "12"]);
/// let s = t.render();
/// assert!(s.contains("n"));
/// assert!(s.contains("12"));
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new<S: Display, I: IntoIterator<Item = S>>(headers: I) -> Self {
        Table {
            headers: headers.into_iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics if the cell count differs from the header count.
    pub fn row<S: Display, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(|c| c.to_string()).collect();
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
        self
    }

    /// Number of data rows so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no data rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render to a string with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:>width$}", cells[i], width = widths[i]));
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Render and print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(["name", "value"]);
        t.row(["x", "1"]).row(["long-name", "123456"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[1].starts_with('-'));
        assert!(lines[3].contains("123456"));
        // All data lines have equal width.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        Table::new(["a", "b"]).row(["only-one"]);
    }

    #[test]
    fn empty_table_renders_headers() {
        let t = Table::new(["h"]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        // Exactly the header line and its underline, nothing else.
        assert_eq!(t.render(), "h\n-\n");
    }

    #[test]
    fn columns_are_right_aligned() {
        let mut t = Table::new(["col"]);
        t.row(["1"]).row(["1234"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        // Narrow cells are padded on the left up to the widest cell.
        assert_eq!(lines[0], " col");
        assert_eq!(lines[2], "   1");
        assert_eq!(lines[3], "1234");
    }

    #[test]
    fn len_counts_data_rows() {
        let mut t = Table::new(["a", "b"]);
        t.row(["1", "2"]).row(["3", "4"]);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_too_wide_rows() {
        Table::new(["a"]).row(["1", "2"]);
    }
}
