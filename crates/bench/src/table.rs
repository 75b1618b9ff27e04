//! Plain-text table rendering for the experiment binaries.

/// A simple fixed-width table writer that prints aligned columns to stdout,
/// in the style of the paper's tables.
#[derive(Debug, Default, Clone)]
pub struct TableWriter {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TableWriter {
    /// Create a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        TableWriter {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (cells are converted to strings by the caller).
    pub fn row(&mut self, cells: &[String]) {
        self.rows.push(cells.to_vec());
    }

    /// Append a row of string slices.
    pub fn row_strs(&mut self, cells: &[&str]) {
        self.rows
            .push(cells.iter().map(|s| s.to_string()).collect());
    }

    /// Render the table to a string.
    pub fn render(&self) -> String {
        let columns = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(columns) {
                if cell.len() > widths[i] {
                    widths[i] = cell.len();
                }
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                let width = widths.get(i).copied().unwrap_or(cell.len());
                line.push_str(&format!("{cell:<width$}"));
            }
            line.trim_end().to_string()
        };
        out.push_str(&render_row(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (columns.saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Print the table to stdout with a title.
    pub fn print(&self, title: &str) {
        println!("\n== {title} ==\n{}", self.render());
    }
}

/// Format a float with two decimals (scores are reported "out of 100").
pub fn pct(x: f64) -> String {
    format!("{:.2}", x * 100.0)
}

/// Format a duration given in seconds as whole microseconds.
pub fn micros(seconds: f64) -> String {
    format!("{:.0}", seconds * 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TableWriter::new(&["System", "P", "R", "F1"]);
        t.row_strs(&["KGQAn", "51.13", "38.72", "44.07"]);
        t.row_strs(&["gAnswer", "29.34", "32.68", "29.81"]);
        let rendered = t.render();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("System"));
        assert!(lines[2].starts_with("KGQAn"));
        // All data rows align the first column to the same width.
        assert_eq!(lines[2].find("51.13"), lines[3].find("29.34"));
    }

    #[test]
    fn formats_percentages_and_microseconds() {
        assert_eq!(pct(0.4407), "44.07");
        assert_eq!(micros(0.000_123_4), "123");
        assert_eq!(micros(1.5), "1500000");
    }
}
