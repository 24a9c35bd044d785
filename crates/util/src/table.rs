//! Fixed-width ASCII table printer for the reproduction binaries.
//!
//! The `repro` binary prints tables shaped like the paper's (e.g. Table 1),
//! so that `EXPERIMENTS.md` can show paper-vs-measured side by side.

/// Incrementally builds an aligned ASCII table.
#[derive(Debug, Default, Clone)]
pub struct TableBuilder {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TableBuilder {
    /// Create a table with a title line printed above the header.
    pub fn new(title: impl Into<String>) -> Self {
        TableBuilder {
            title: title.into(),
            header: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Set the column headers.
    pub fn header<S: Into<String>>(mut self, cols: impl IntoIterator<Item = S>) -> Self {
        self.header = cols.into_iter().map(Into::into).collect();
        self
    }

    /// Append one data row. Rows shorter than the header are right-padded.
    pub fn row<S: Into<String>>(&mut self, cols: impl IntoIterator<Item = S>) -> &mut Self {
        self.rows.push(cols.into_iter().map(Into::into).collect());
        self
    }

    /// Render the table to a string (trailing newline included).
    pub fn render(&self) -> String {
        let ncols = self
            .header
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; ncols];
        let measure = |widths: &mut [usize], row: &[String]| {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        };
        measure(&mut widths, &self.header);
        for row in &self.rows {
            measure(&mut widths, row);
        }

        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&self.title);
            out.push('\n');
        }
        let fmt_row = |row: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let empty = String::new();
                let cell = row.get(i).unwrap_or(&empty);
                if i > 0 {
                    line.push_str("  ");
                }
                // Left-align first column, right-align the rest (numbers).
                if i == 0 {
                    line.push_str(&format!("{cell:<w$}"));
                } else {
                    line.push_str(&format!("{cell:>w$}"));
                }
            }
            while line.ends_with(' ') {
                line.pop();
            }
            line
        };
        if !self.header.is_empty() {
            out.push_str(&fmt_row(&self.header, &widths));
            out.push('\n');
            let total: usize = widths.iter().sum::<usize>() + 2 * (ncols.saturating_sub(1));
            out.push_str(&"-".repeat(total));
            out.push('\n');
        }
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Render as comma-separated values (no title), for machine consumption.
    pub fn render_csv(&self) -> String {
        let mut out = String::new();
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        if !self.header.is_empty() {
            out.push_str(
                &self
                    .header
                    .iter()
                    .map(|s| esc(s))
                    .collect::<Vec<_>>()
                    .join(","),
            );
            out.push('\n');
        }
        for row in &self.rows {
            out.push_str(&row.iter().map(|s| esc(s)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = TableBuilder::new("Demo").header(["method", "1 col", "50 col"]);
        t.row(["physical", "108.09", "5382.87"]);
        t.row(["fork", "108.28", "108.28"]);
        let s = t.render();
        assert!(s.starts_with("Demo\n"));
        let lines: Vec<&str> = s.lines().collect();
        // title + header + separator + 2 rows
        assert_eq!(lines.len(), 5);
        // numeric columns right-aligned: both data rows end at same width
        assert_eq!(lines[3].len(), lines[4].len());
        assert!(lines[3].contains("physical"));
    }

    #[test]
    fn csv_escapes() {
        let mut t = TableBuilder::new("x").header(["a", "b"]);
        t.row(["has,comma", "has\"quote"]);
        let csv = t.render_csv();
        assert_eq!(csv, "a,b\n\"has,comma\",\"has\"\"quote\"\n");
    }

    #[test]
    fn empty_table() {
        let t = TableBuilder::new("");
        assert_eq!(t.render(), "");
    }
}
