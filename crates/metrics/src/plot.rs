//! Terminal plotting — the experiments render each paper figure as
//! ASCII art next to its CSV, so `cargo run -p pi_bench --bin results
//! -- fig3` visually reproduces Fig. 3 in the terminal.

use crate::series::TimeSeries;

/// Renders one or two series as an ASCII line plot.
///
/// The first series uses `*`, the second `o` (overlap `#`). Each series
/// is scaled to its own [min, max] so differently-dimensioned series
/// (Gb/s vs mask counts) share the canvas like Fig. 3's dual axes.
pub fn ascii_plot(series: &[&TimeSeries], width: usize, height: usize) -> String {
    assert!(!series.is_empty() && series.len() <= 2, "1 or 2 series");
    assert!(width >= 16 && height >= 4, "canvas too small");
    let glyphs = ['*', 'o'];
    let mut canvas = vec![vec![' '; width]; height];

    let t_max = series
        .iter()
        .filter_map(|s| s.last().map(|(t, _)| t.as_secs_f64()))
        .fold(0.0, f64::max)
        .max(1e-9);

    for (si, s) in series.iter().enumerate() {
        if s.is_empty() {
            continue;
        }
        let (vmin, vmax) = (s.min(), s.max());
        let span = (vmax - vmin).max(1e-12);
        for (t, v) in s.iter() {
            let x = ((t.as_secs_f64() / t_max) * (width - 1) as f64).round() as usize;
            let y_norm = (v - vmin) / span;
            let y = height - 1 - (y_norm * (height - 1) as f64).round() as usize;
            let cell = &mut canvas[y.min(height - 1)][x.min(width - 1)];
            *cell = if *cell == ' ' || *cell == glyphs[si] {
                glyphs[si]
            } else {
                '#'
            };
        }
    }

    let mut out = String::new();
    for (si, s) in series.iter().enumerate() {
        out.push_str(&format!(
            "{} {}: [{:.3} .. {:.3}]\n",
            glyphs[si],
            s.name(),
            s.min(),
            s.max()
        ));
    }
    for row in canvas {
        out.push('|');
        out.extend(row);
        out.push('\n');
    }
    out.push('+');
    out.push_str(&"-".repeat(width));
    out.push('\n');
    out.push_str(&format!(
        "  0 s{:>width$.1$} s\n",
        t_max,
        1,
        width = width - 4
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_core::SimTime;

    fn ramp(name: &str, n: u64) -> TimeSeries {
        let mut s = TimeSeries::new(name);
        for i in 0..n {
            s.push(SimTime::from_secs(i), i as f64);
        }
        s
    }

    #[test]
    fn plot_contains_glyphs_and_legend() {
        let a = ramp("victim", 50);
        let txt = ascii_plot(&[&a], 40, 10);
        assert!(txt.contains('*'));
        assert!(txt.contains("victim"));
        assert!(txt.lines().count() > 10);
    }

    #[test]
    fn two_series_use_distinct_glyphs() {
        let a = ramp("up", 50);
        let mut b = TimeSeries::new("down");
        for i in 0..50u64 {
            b.push(SimTime::from_secs(i), 49.0 - i as f64);
        }
        let txt = ascii_plot(&[&a, &b], 40, 10);
        assert!(txt.contains('*'));
        assert!(txt.contains('o'));
    }

    #[test]
    fn monotone_series_hits_corners() {
        let a = ramp("r", 100);
        let txt = ascii_plot(&[&a], 30, 8);
        let rows: Vec<&str> = txt.lines().filter(|l| l.starts_with('|')).collect();
        assert_eq!(rows.len(), 8);
        // Increasing ramp: top row has a point near the right edge,
        // bottom row near the left edge.
        assert!(rows[0].trim_end().ends_with('*'));
        assert!(rows[7][1..3].contains('*'));
    }

    #[test]
    #[should_panic(expected = "canvas")]
    fn tiny_canvas_panics() {
        ascii_plot(&[&ramp("x", 5)], 5, 2);
    }
}
