//! Result tables: aligned text rendering and CSV export.

use std::fmt;

/// One table cell: a value, a dash (the paper's "—" for configurations
/// that cannot run), or free text.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A numeric value with a fixed number of decimals.
    Num {
        /// The value.
        value: f64,
        /// Decimals to print.
        decimals: usize,
    },
    /// A configuration that cannot run (the paper's "—").
    Dash,
    /// Free text (units, names).
    Text(String),
}

impl Cell {
    /// A number printed with two decimals.
    pub fn num(value: f64) -> Self {
        Cell::Num { value, decimals: 2 }
    }

    /// A number with explicit decimals.
    pub fn num_with(value: f64, decimals: usize) -> Self {
        Cell::Num { value, decimals }
    }

    /// Text cell.
    pub fn text(s: impl Into<String>) -> Self {
        Cell::Text(s.into())
    }

    /// The numeric value, if any.
    pub fn value(&self) -> Option<f64> {
        match self {
            Cell::Num { value, .. } => Some(*value),
            _ => None,
        }
    }

    fn render(&self) -> String {
        match self {
            Cell::Num { value, decimals } => format!("{value:.*}", decimals),
            Cell::Dash => "—".to_string(),
            Cell::Text(s) => s.clone(),
        }
    }
}

impl From<f64> for Cell {
    fn from(v: f64) -> Self {
        Cell::num(v)
    }
}

impl From<Option<f64>> for Cell {
    fn from(v: Option<f64>) -> Self {
        v.map(Cell::num).unwrap_or(Cell::Dash)
    }
}

/// A row whose cell count does not match its table's columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowShapeError {
    /// The table's title.
    pub table: String,
    /// The offending row's label.
    pub label: String,
    /// Data columns the table has.
    pub expected: usize,
    /// Cells the row brought.
    pub got: usize,
}

impl fmt::Display for RowShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "row '{}' brings {} cells but table '{}' has {} data columns",
            self.label, self.got, self.table, self.expected
        )
    }
}

impl std::error::Error for RowShapeError {}

impl From<RowShapeError> for corescope_machine::Error {
    fn from(e: RowShapeError) -> Self {
        corescope_machine::Error::InvalidSpec(e.to_string())
    }
}

/// A labelled results table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Title, e.g. `"Table 2: NAS CG/FT on Longs (seconds)"`.
    pub title: String,
    /// Column headings; the first names the row-label column.
    pub columns: Vec<String>,
    rows: Vec<(String, Vec<Cell>)>,
}

impl Table {
    /// Creates an empty table with the given title and column headings.
    pub fn new(title: impl Into<String>, columns: Vec<String>) -> Self {
        Self { title: title.into(), columns, rows: Vec::new() }
    }

    /// Convenience: headings from string slices.
    pub fn with_columns(title: impl Into<String>, columns: &[&str]) -> Self {
        Self::new(title, columns.iter().map(|s| s.to_string()).collect())
    }

    /// Appends a row.
    ///
    /// # Errors
    ///
    /// Returns [`RowShapeError`] when the cell count does not match the
    /// table's data-column count; the table is left unchanged.
    pub fn push_row(
        &mut self,
        label: impl Into<String>,
        cells: Vec<Cell>,
    ) -> Result<(), RowShapeError> {
        let expected = self.columns.len().saturating_sub(1);
        if cells.len() != expected {
            return Err(RowShapeError {
                table: self.title.clone(),
                label: label.into(),
                expected,
                got: cells.len(),
            });
        }
        self.rows.push((label.into(), cells));
        Ok(())
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Iterates `(label, cells)` rows.
    pub fn rows(&self) -> impl Iterator<Item = (&str, &[Cell])> {
        self.rows.iter().map(|(l, c)| (l.as_str(), c.as_slice()))
    }

    /// The cell at `(row, data-column)`.
    pub fn cell(&self, row: usize, col: usize) -> &Cell {
        &self.rows[row].1[col]
    }

    /// Looks up a value by row label and column heading.
    pub fn value(&self, row_label: &str, column: &str) -> Option<f64> {
        let col = self.columns.iter().skip(1).position(|c| c == column)?;
        let row = self.rows.iter().find(|(l, _)| l == row_label)?;
        row.1.get(col)?.value()
    }

    /// Renders as CSV (RFC-4180-ish; fields containing commas or quotes
    /// are quoted).
    pub fn to_csv(&self) -> String {
        fn field(s: &str) -> String {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        out.push_str(&self.columns.iter().map(|c| field(c)).collect::<Vec<_>>().join(","));
        out.push('\n');
        for (label, cells) in &self.rows {
            let mut line = vec![field(label)];
            line.extend(cells.iter().map(|c| field(&c.render())));
            out.push_str(&line.join(","));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Column widths.
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.chars().count()).collect();
        for (label, cells) in &self.rows {
            widths[0] = widths[0].max(label.chars().count());
            for (i, c) in cells.iter().enumerate() {
                widths[i + 1] = widths[i + 1].max(c.render().chars().count());
            }
        }
        writeln!(f, "{}", self.title)?;
        let head: Vec<String> =
            self.columns.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}", w = w)).collect();
        writeln!(f, "  {}", head.join("  "))?;
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        writeln!(f, "  {}", "-".repeat(total))?;
        for (label, cells) in &self.rows {
            let mut line = vec![format!("{label:>w$}", w = widths[0])];
            for (i, c) in cells.iter().enumerate() {
                line.push(format!("{:>w$}", c.render(), w = widths[i + 1]));
            }
            writeln!(f, "  {}", line.join("  "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::with_columns("Test table", &["rows", "a", "b"]);
        t.push_row("x", vec![Cell::num(1.5), Cell::Dash]).unwrap();
        t.push_row("y", vec![Cell::num_with(2.25, 3), Cell::text("hi")]).unwrap();
        t
    }

    #[test]
    fn lookup_by_label_and_column() {
        let t = sample();
        assert_eq!(t.value("x", "a"), Some(1.5));
        assert_eq!(t.value("x", "b"), None); // dash
        assert_eq!(t.value("z", "a"), None); // no row
        assert_eq!(t.value("x", "c"), None); // no column
    }

    #[test]
    fn display_contains_all_cells() {
        let s = sample().to_string();
        assert!(s.contains("Test table"));
        assert!(s.contains("1.50"));
        assert!(s.contains("2.250"));
        assert!(s.contains("—"));
        assert!(s.contains("hi"));
    }

    #[test]
    fn csv_quotes_special_fields() {
        let mut t = Table::with_columns("t", &["r", "col,with,commas"]);
        t.push_row("a\"b", vec![Cell::num(1.0)]).unwrap();
        let csv = t.to_csv();
        assert!(csv.contains("\"col,with,commas\""));
        assert!(csv.contains("\"a\"\"b\""));
        assert!(csv.lines().count() == 2);
    }

    #[test]
    fn mismatched_row_width_is_a_typed_error() {
        let mut t = Table::with_columns("t", &["r", "a"]);
        let err = t.push_row("x", vec![Cell::num(1.0), Cell::num(2.0)]).unwrap_err();
        assert_eq!((err.expected, err.got), (1, 2));
        assert!(err.to_string().contains("'x'"), "{err}");
        assert_eq!(t.num_rows(), 0, "a rejected row must not be half-applied");
        let engine_err = corescope_machine::Error::from(err);
        assert!(engine_err.to_string().contains("data columns"), "{engine_err}");
        t.push_row("x", vec![Cell::num(1.0)]).unwrap();
        assert_eq!(t.num_rows(), 1);
    }

    #[test]
    fn cell_conversions() {
        assert_eq!(Cell::from(3.0).value(), Some(3.0));
        assert_eq!(Cell::from(None), Cell::Dash);
        assert_eq!(Cell::from(Some(2.0)).value(), Some(2.0));
    }
}
