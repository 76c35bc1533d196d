//! Figure series: text and CSV output of the paper's plots.

use std::fmt::Write as _;
use std::io::{self, Write};

/// One labelled curve.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label (e.g. `direct rand`).
    pub label: String,
    /// `(x, y)` points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Builds a series.
    pub fn new(label: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Series { label: label.into(), points }
    }

    /// Linear interpolation of `y` at `x` (clamping outside the domain);
    /// `None` for an empty series. Assumes points sorted by `x`.
    fn y_at(&self, x: f64) -> Option<f64> {
        if self.points.is_empty() {
            return None;
        }
        if x <= self.points[0].0 {
            return Some(self.points[0].1);
        }
        if x >= self.points[self.points.len() - 1].0 {
            return Some(self.points[self.points.len() - 1].1);
        }
        let i = self.points.partition_point(|p| p.0 <= x);
        let (x0, y0) = self.points[i - 1];
        let (x1, y1) = self.points[i];
        if x1 == x0 {
            return Some(y1);
        }
        Some(y0 + (y1 - y0) * (x - x0) / (x1 - x0))
    }
}

/// A figure: several curves plus axis labels.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Figure title (e.g. `Figure 4: CDF of conditional loss probabilities`).
    pub title: String,
    /// X axis label.
    pub xlabel: String,
    /// Y axis label.
    pub ylabel: String,
    /// The curves.
    pub series: Vec<Series>,
}

impl Figure {
    /// Creates an empty figure.
    pub fn new(title: impl Into<String>, xlabel: impl Into<String>, ylabel: impl Into<String>) -> Self {
        Figure {
            title: title.into(),
            xlabel: xlabel.into(),
            ylabel: ylabel.into(),
            series: Vec::new(),
        }
    }

    /// Adds a curve.
    pub fn push(&mut self, s: Series) {
        self.series.push(s);
    }

    /// Samples every curve at the given x grid and renders an aligned
    /// text table (the repro binary's output format).
    pub fn render_text(&self, grid: &[f64]) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        let _ = write!(out, "{:>12}", self.xlabel);
        for s in &self.series {
            let _ = write!(out, " {:>14}", s.label);
        }
        let _ = writeln!(out);
        for &x in grid {
            let _ = write!(out, "{x:>12.3}");
            for s in &self.series {
                match s.y_at(x) {
                    Some(y) => {
                        let _ = write!(out, " {y:>14.4}");
                    }
                    None => {
                        let _ = write!(out, " {:>14}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Writes the raw points as CSV: `series,x,y`.
    pub fn write_csv<W: Write>(&self, mut w: W) -> io::Result<()> {
        writeln!(w, "series,{},{}", self.xlabel, self.ylabel)?;
        for s in &self.series {
            for &(x, y) in &s.points {
                writeln!(w, "{},{},{}", s.label, x, y)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolation_and_clamping() {
        let s = Series::new("a", vec![(0.0, 0.0), (10.0, 1.0)]);
        assert_eq!(s.y_at(-5.0), Some(0.0));
        assert_eq!(s.y_at(5.0), Some(0.5));
        assert_eq!(s.y_at(20.0), Some(1.0));
        assert_eq!(Series::new("e", vec![]).y_at(1.0), None);
    }

    #[test]
    fn duplicate_x_does_not_divide_by_zero() {
        let s = Series::new("a", vec![(1.0, 0.2), (1.0, 0.8), (2.0, 1.0)]);
        let y = s.y_at(1.0).unwrap();
        assert!((0.0..=1.0).contains(&y));
    }

    #[test]
    fn text_rendering_has_all_series() {
        let mut f = Figure::new("Figure X", "x", "frac");
        f.push(Series::new("one", vec![(0.0, 0.0), (1.0, 1.0)]));
        f.push(Series::new("two", vec![(0.0, 0.5), (1.0, 0.5)]));
        let txt = f.render_text(&[0.0, 0.5, 1.0]);
        assert!(txt.contains("Figure X"));
        assert!(txt.contains("one"));
        assert!(txt.contains("two"));
        assert_eq!(txt.lines().count(), 5);
    }

    #[test]
    fn csv_output_is_parseable() {
        let mut f = Figure::new("t", "x", "y");
        f.push(Series::new("s", vec![(1.0, 2.0)]));
        let mut buf = Vec::new();
        f.write_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().nth(1).unwrap().starts_with("s,1,2"));
    }
}
