//! Plain-text table rendering for the experiment binaries.

use std::fmt::Write as _;

/// A simple fixed-width text table with a title, a header row and data rows.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new<S: Into<String>>(
        title: impl Into<String>,
        header: impl IntoIterator<Item = S>,
    ) -> Self {
        Table {
            title: title.into(),
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a data row (must have as many cells as the header).
    pub fn add_row<S: Into<String>>(&mut self, row: impl IntoIterator<Item = S>) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Renders the table as a string.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "{}", self.title);
        }
        let sep: String = widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("+");
        let render_row = |cells: &[String]| -> String {
            (0..cols)
                .map(|i| format!(" {:<width$} ", cells[i], width = widths[i]))
                .collect::<Vec<_>>()
                .join("|")
        };
        let _ = writeln!(out, "{}", render_row(&self.header));
        let _ = writeln!(out, "{sep}");
        for row in &self.rows {
            let _ = writeln!(out, "{}", render_row(row));
        }
        out
    }

    /// Prints the rendered table to stdout, followed by a blank line.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// Formats a cost-reduction pair the way the paper's tables do, e.g. `44% / 24%`.
pub fn pct_pair(vs_cilk: f64, vs_hdagg: f64) -> String {
    format!("{:.0}% / {:.0}%", vs_cilk, vs_hdagg)
}

/// Formats a cost ratio with three decimals (the paper's Table 7 style).
pub fn ratio(r: f64) -> String {
    format!("{r:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_title_header_and_rows_with_alignment() {
        let mut t = Table::new("Table X", ["param", "value"]);
        t.add_row(["g = 1", "32% / 20%"]);
        t.add_row(["g = 5", "44%"]);
        let text = t.render();
        assert!(text.contains("Table X"));
        assert!(text.contains("param"));
        assert!(text.contains("32% / 20%"));
        assert_eq!(text.lines().count(), 5);
        // All rendered rows have equal width.
        let lines: Vec<&str> = text.lines().skip(1).collect();
        let widths: Vec<usize> = lines.iter().map(|l| l.len()).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "{widths:?}");
    }

    #[test]
    fn pct_pair_and_ratio_formatting() {
        assert_eq!(pct_pair(44.4, 23.6), "44% / 24%");
        assert_eq!(ratio(0.5689), "0.569");
    }

    #[test]
    #[should_panic]
    fn mismatched_row_width_panics() {
        let mut t = Table::new("", ["a", "b"]);
        t.add_row(["only one"]);
    }
}
