//! CSV export for experiment results.

use crate::series::TimeSeries;

/// An in-memory table with CSV (and aligned-text) rendering.
#[derive(Debug, Clone)]
pub struct CsvTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl CsvTable {
    /// A table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        CsvTable {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn push_row(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells.to_vec());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Builds a table from aligned time series (shared time column).
    /// Series are sampled by index: all series must have equal length.
    pub fn from_series(series: &[&TimeSeries]) -> Self {
        assert!(!series.is_empty(), "need at least one series");
        let n = series[0].len();
        assert!(
            series.iter().all(|s| s.len() == n),
            "series must be aligned"
        );
        let mut headers = vec!["time_s".to_string()];
        headers.extend(series.iter().map(|s| s.name().to_string()));
        let mut table = CsvTable {
            headers,
            rows: Vec::new(),
        };
        let columns: Vec<Vec<(pi_core::SimTime, f64)>> =
            series.iter().map(|s| s.iter().collect()).collect();
        for i in 0..n {
            let mut row = vec![format!("{:.3}", columns[0][i].0.as_secs_f64())];
            for col in &columns {
                row.push(format!("{:.6}", col[i].1));
            }
            table.rows.push(row);
        }
        table
    }

    /// Renders as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Renders as an aligned text table for terminal output.
    pub fn to_aligned_text(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let render_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = render_row(&self.headers);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_core::SimTime;

    #[test]
    fn csv_round_trip_shape() {
        let mut t = CsvTable::new(&["masks", "throughput"]);
        t.push_row(&["512".into(), "0.1040".into()]);
        t.push_row(&["8192".into(), "0.0071".into()]);
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "masks,throughput");
        assert_eq!(lines[1], "512,0.1040");
        assert_eq!(lines.len(), 3);
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = CsvTable::new(&["a", "b"]);
        t.push_row(&["only one".to_string()]);
    }

    #[test]
    fn from_series_aligns_columns() {
        let mut a = TimeSeries::new("victim_gbps");
        let mut b = TimeSeries::new("masks");
        for i in 0..5u64 {
            a.push(SimTime::from_secs(i), 1.0 - i as f64 * 0.1);
            b.push(SimTime::from_secs(i), (i * 100) as f64);
        }
        let t = CsvTable::from_series(&[&a, &b]);
        let csv = t.to_csv();
        assert!(csv.starts_with("time_s,victim_gbps,masks\n"));
        assert_eq!(csv.lines().count(), 6);
        assert!(csv.contains("4.000,0.600000,400.000000"));
    }

    #[test]
    fn aligned_text_is_padded() {
        let mut t = CsvTable::new(&["x", "value"]);
        t.push_row(&["1".into(), "2".into()]);
        let txt = t.to_aligned_text();
        let lines: Vec<&str> = txt.lines().collect();
        assert_eq!(lines[0].len(), lines[2].len());
        assert!(lines[1].starts_with('-'));
    }
}
