//! Aligned text tables (and CSV emission) for experiment reports.

use std::fmt::Write as _;

/// A simple column-aligned table builder.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (cells are any displayable values).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "## {}", self.title);
        }
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    s.push_str("  ");
                }
                let _ = write!(s, "{:>width$}", c, width = widths[i]);
            }
            s
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Render as CSV (headers + rows).
    pub fn to_csv(&self) -> String {
        let esc = |c: &str| {
            if c.contains(',') || c.contains('"') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.to_string()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Print the rendered table to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// Format a float with a sensible number of digits for tables.
pub fn fmt_f(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// Format a fraction as a percentage string.
pub fn fmt_pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// Format a byte size compactly (16, 1K, 64K, 1M).
pub fn fmt_size(bytes: usize) -> String {
    if bytes >= 1 << 20 && bytes.is_multiple_of(1 << 20) {
        format!("{}M", bytes >> 20)
    } else if bytes >= 1 << 10 && bytes.is_multiple_of(1 << 10) {
        format!("{}K", bytes >> 10)
    } else {
        format!("{bytes}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["size", "MB/s"]);
        t.row(vec!["16".into(), "1.5".into()]);
        t.row(vec!["1048576".into(), "118".into()]);
        let s = t.render();
        assert!(s.contains("## demo"));
        assert!(s.contains("size"));
        let lines: Vec<_> = s.lines().collect();
        // Header, separator, two rows (plus title).
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[3].len(), lines[4].len(), "rows aligned");
    }

    #[test]
    fn csv_escapes() {
        let mut t = Table::new("", &["a", "b"]);
        t.row(vec!["x,y".into(), "q\"q".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"q\"\"q\""));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        Table::new("", &["a"]).row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_size(16), "16");
        assert_eq!(fmt_size(1024), "1K");
        assert_eq!(fmt_size(1 << 20), "1M");
        assert_eq!(fmt_pct(0.123), "12.3%");
        assert_eq!(fmt_f(118.4), "118");
        assert_eq!(fmt_f(2.25), "2.2");
        assert_eq!(fmt_f(0.056), "0.056");
    }
}
