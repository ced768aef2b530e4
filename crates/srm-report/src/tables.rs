//! Fixed-width table rendering in the paper's layout.

use std::fmt::Write as _;

/// A cell: a value with an optional parenthesised deviation (the
/// `463.668 (+369.668)` format of Tables II–IV).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// The reported statistic.
    pub value: f64,
    /// Deviation from the ground truth, if reported.
    pub deviation: Option<f64>,
    /// Number of decimal places.
    pub decimals: usize,
}

impl Cell {
    fn render(&self) -> String {
        match self.deviation {
            Some(d) => format!(
                "{:.*} ({}{:.*})",
                self.decimals,
                self.value,
                if d >= 0.0 { "+" } else { "-" },
                self.decimals,
                d.abs()
            ),
            None => format!("{:.*}", self.decimals, self.value),
        }
    }
}

/// A titled table with row labels and model columns.
///
/// # Examples
///
/// ```
/// use srm_report::Table;
/// let mut t = Table::new("Comparison of WAIC", &["model0", "model1"]);
/// t.row("48days", &[171.812, 168.560]);
/// t.row("67days", &[279.330, 255.040]);
/// let s = t.render();
/// assert!(s.lines().count() >= 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<(String, Vec<Cell>)>,
}

/// Decimal places of every cell, matching the paper.
const DECIMALS: usize = 3;

impl Table {
    /// Creates an empty table.
    ///
    /// # Panics
    ///
    /// Panics if `columns` is empty.
    #[must_use]
    pub fn new(title: &str, columns: &[&str]) -> Self {
        assert!(!columns.is_empty(), "a table needs at least one column");
        Self {
            title: title.to_owned(),
            columns: columns.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row of plain values.
    ///
    /// # Panics
    ///
    /// Panics if `values` does not match the column count.
    pub fn row(&mut self, label: &str, values: &[f64]) {
        assert_eq!(values.len(), self.columns.len(), "column count mismatch");
        let cells = values
            .iter()
            .map(|&v| Cell {
                value: v,
                deviation: None,
                decimals: DECIMALS,
            })
            .collect();
        self.rows.push((label.to_owned(), cells));
    }

    /// Appends a row of `(value, deviation)` pairs — the Tables II–IV
    /// format.
    ///
    /// # Panics
    ///
    /// Panics if `values` does not match the column count.
    pub fn row_with_deviation(&mut self, label: &str, values: &[(f64, f64)]) {
        assert_eq!(values.len(), self.columns.len(), "column count mismatch");
        let cells = values
            .iter()
            .map(|&(v, d)| Cell {
                value: v,
                deviation: Some(d),
                decimals: DECIMALS,
            })
            .collect();
        self.rows.push((label.to_owned(), cells));
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as fixed-width text.
    #[must_use]
    pub fn render(&self) -> String {
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(_, cells)| cells.iter().map(Cell::render).collect())
            .collect();
        let label_width = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .chain(std::iter::once(8))
            .max()
            .unwrap_or(8);
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &rendered {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }

        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        let total: usize = label_width + widths.iter().map(|w| w + 2).sum::<usize>();
        let _ = writeln!(out, "{}", "-".repeat(total));
        let _ = write!(out, "{:label_width$}", "");
        for (name, w) in self.columns.iter().zip(&widths) {
            let _ = write!(out, "  {name:>w$}");
        }
        out.push('\n');
        for ((label, _), row) in self.rows.iter().zip(&rendered) {
            let _ = write!(out, "{label:label_width$}");
            for (cell, w) in row.iter().zip(&widths) {
                let _ = write!(out, "  {cell:>w$}");
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_paper_like_layout() {
        let mut t = Table::new(
            "TABLE I: Comparison of WAIC (Poisson prior)",
            &["model0", "model1", "model2", "model3", "model4"],
        );
        t.row("48days", &[171.812, 168.560, 171.834, 223.083, 174.228]);
        t.row("146days", &[483.698, 401.167, 483.773, 635.581, 485.625]);
        let s = t.render();
        assert!(s.contains("model3"));
        assert!(s.contains("168.560"));
        assert!(s.contains("146days"));
        // All data lines share the same width.
        let lines: Vec<&str> = s.lines().skip(2).collect();
        let widths: Vec<usize> = lines.iter().map(|l| l.len()).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "{widths:?}");
    }

    #[test]
    fn deviation_cells_match_paper_format() {
        let mut t = Table::new("TABLE II", &["model1"]);
        t.row_with_deviation("48days", &[(99.550, 5.550)]);
        t.row_with_deviation("67days", &[(80.789, -13.211)]);
        let s = t.render();
        assert!(s.contains("99.550 (+5.550)"), "{s}");
        assert!(s.contains("80.789 (-13.211)"), "{s}");
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn wrong_arity_panics() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row("r", &[1.0]);
    }

    #[test]
    fn emptiness_queries() {
        let t = Table::new("x", &["a"]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }
}
