//! # pi-metrics — measurement toolkit
//!
//! Dependency-free counters, time series, summaries, CSV
//! export and terminal plotting. Every experiment binary in `pi-bench`
//! reports through these types, so the output formats are uniform and
//! the figures are regenerable as CSV + ASCII art.

pub mod agg;
pub mod csv;
pub mod plot;
pub mod series;
pub mod summary;

pub use agg::{degradation_ratio, sum_series};
pub use csv::CsvTable;
pub use plot::ascii_plot;
pub use series::TimeSeries;
pub use summary::Summary;
