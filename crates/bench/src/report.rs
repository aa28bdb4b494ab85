//! Minimal text-table reporting used by the paper's reports and `bench_dynamic`.

use std::fmt;

/// A simple aligned text table, in the same visual layout as the paper's
/// tables.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TextTable {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates an empty table with a title.
    pub fn new(title: &str) -> Self {
        TextTable {
            title: title.to_string(),
            headers: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Sets the column headers.
    pub fn headers<I, S>(&mut self, headers: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.headers = headers.into_iter().map(Into::into).collect();
        self
    }

    /// Appends a row.
    pub fn row<I, S>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    fn column_widths(&self) -> Vec<usize> {
        let columns = self
            .headers
            .len()
            .max(self.rows.iter().map(|r| r.len()).max().unwrap_or(0));
        let mut widths = vec![0usize; columns];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        widths
    }
}

impl fmt::Display for TextTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let widths = self.column_widths();
        let total: usize = widths.iter().sum::<usize>() + 3 * widths.len().saturating_sub(1);
        writeln!(f, "{}", self.title)?;
        writeln!(f, "{}", "=".repeat(self.title.len().max(total)))?;
        if !self.headers.is_empty() {
            let header_line: Vec<String> = self
                .headers
                .iter()
                .enumerate()
                .map(|(i, h)| format!("{:width$}", h, width = widths[i]))
                .collect();
            writeln!(f, "{}", header_line.join(" | "))?;
            writeln!(f, "{}", "-".repeat(total))?;
        }
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, cell)| format!("{:width$}", cell, width = widths[i]))
                .collect();
            writeln!(f, "{}", line.join(" | "))?;
        }
        Ok(())
    }
}

/// Formats a large count the way the paper's Table IV does (`4.05e7`).
pub(crate) fn scientific(count: usize) -> String {
    if count == 0 {
        return "0".to_string();
    }
    format!("{:.2e}", count as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_with_aligned_columns() {
        let mut table = TextTable::new("Table X: demo");
        table.headers(["Graph", "EBV", "Ginger"]);
        table.row(["livejournal-like", "1.80", "2.23"]);
        table.row(["twitter-like", "3.59", "4.51"]);
        let rendered = table.to_string();
        assert!(rendered.contains("Table X: demo"));
        assert!(rendered.contains("Graph"));
        assert!(rendered.contains("livejournal-like"));
        // The header and both rows have the separator in the same position.
        let lines: Vec<&str> = rendered.lines().filter(|l| l.contains('|')).collect();
        assert_eq!(lines.len(), 3);
        let positions: Vec<usize> = lines.iter().map(|l| l.find('|').unwrap()).collect();
        assert!(positions.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn scientific_formatting() {
        assert_eq!(scientific(0), "0");
        assert_eq!(scientific(40_500_000), "4.05e7");
        assert_eq!(scientific(16_300), "1.63e4");
    }
}
