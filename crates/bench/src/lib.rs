//! # das-bench — the paper's figures as data
//!
//! Every table and figure of the paper's evaluation (§5), and the
//! ablations and extensions beyond it, is a function from a scale
//! divisor to [`Table`]s, registered by name in [`figures::REGISTRY`].
//! One renderer (`Table`'s `Display`) prints them all, through one
//! binary:
//!
//! ```sh
//! cargo run --release -p das-bench --bin figures -- [NAME…] [--scale N]
//! ```
//!
//! | name | reproduces |
//! |------|------------|
//! | `table1` | Table 1 (scheduler feature matrix) |
//! | `fig04`  | Fig. 4 (co-runner interference, throughput vs parallelism; panel (a) adds dHEFT) |
//! | `fig05_06` | Fig. 5 (priority-task distribution) + Fig. 6 (per-core work time) |
//! | `fig07`  | Fig. 7 (DVFS square wave) |
//! | `fig08`  | Fig. 8 (tile size × PTT weight ratio sensitivity) |
//! | `fig09`  | Fig. 9 (K-means iterations under socket interference) |
//! | `fig10`  | Fig. 10 (distributed heat on 4 nodes) |
//! | `ablation_steal` | extra: stealing of critical tasks on/off |
//! | `ablation_ptt_init` | extra: PTT zero-init vs pessimistic init |
//! | `ablation_sampled_search` | extra: sampled vs exhaustive global search |
//! | `ablation_exploration` | extra: periodic exploration vs stale pessimism |
//! | `jobs_throughput` | extra: online multi-job streams (jobs/s, sojourn percentiles) |
//!
//! No name prints every figure. `--scale N` divides the paper-sized
//! task counts by `N`; `1`, the default, is paper-sized. Every number
//! is a deterministic function of the fixed seed and the scale, and
//! `tests/golden.rs` pins all of them at `--scale 20`, bit for bit,
//! against `tests/golden/figures.tsv`.

use std::fmt;

pub mod figures;

/// A registry entry: a figure and its name.
type Named = (&'static str, figures::Figure);

/// One table of a figure: labelled rows of numbers under labelled
/// columns, plus the headline scalars the paper's text reads off it.
#[derive(Clone, Debug, PartialEq)]
pub struct Table {
    /// What the table shows, units included.
    pub title: String,
    /// Header of the row-label column (the figure's x axis).
    pub axis: String,
    /// One label per cell column.
    pub columns: Vec<String>,
    /// `(label, cells)`, one cell per column.
    pub rows: Vec<(String, Vec<f64>)>,
    /// `(name, value)` headline scalars, e.g. a best ratio.
    pub headlines: Vec<(String, f64)>,
}

impl Table {
    /// An empty table.
    pub fn new(
        title: impl Into<String>,
        axis: impl Into<String>,
        columns: impl IntoIterator<Item = impl Into<String>>,
    ) -> Self {
        Table {
            title: title.into(),
            axis: axis.into(),
            columns: columns.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
            headlines: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, label: impl Into<String>, cells: Vec<f64>) {
        self.rows.push((label.into(), cells));
    }

    /// Append a headline scalar.
    pub fn headline(&mut self, name: impl Into<String>, value: f64) {
        self.headlines.push((name.into(), value));
    }

    /// The cells of column `name`, top to bottom.
    ///
    /// # Panics
    /// Panics if the table has no column `name`.
    pub fn column(&self, name: &str) -> Vec<f64> {
        let i = self
            .columns
            .iter()
            .position(|c| c == name)
            .unwrap_or_else(|| panic!("no column {name:?} in {:?}", self.title));
        self.rows.iter().map(|(_, cells)| cells[i]).collect()
    }
}

/// `v` to four significant digits; integral values exactly.
fn number(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        return format!("{v:.0}");
    }
    let magnitude = v.abs().log10().floor() as i32;
    let decimals = (3 - magnitude).clamp(0, 6) as usize;
    format!("{v:.decimals$}")
}

/// The one renderer: `== title ==`, a header, one line per row (labels
/// left-aligned, cells right-aligned), then one `   name = value` line
/// per headline.
impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(_, cells)| cells.iter().map(|&v| number(v)).collect())
            .collect();
        let width = |s: &str| s.chars().count();
        let label_w = self
            .rows
            .iter()
            .map(|(label, _)| width(label))
            .fold(width(&self.axis), usize::max);
        let widths: Vec<usize> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| {
                text.iter()
                    .map(|row| width(&row[i]))
                    .fold(width(c), usize::max)
            })
            .collect();
        let line = |label: &str, cells: &[String]| {
            let mut s = format!("{label:<label_w$}");
            for (cell, w) in cells.iter().zip(&widths) {
                s += &format!("  {cell:>w$}");
            }
            s.trim_end().to_string()
        };
        writeln!(f, "\n== {} ==", self.title)?;
        writeln!(f, "{}", line(&self.axis, &self.columns))?;
        for ((label, _), cells) in self.rows.iter().zip(&text) {
            writeln!(f, "{}", line(label, cells))?;
        }
        for (name, v) in &self.headlines {
            writeln!(f, "   {name} = {}", number(*v))?;
        }
        Ok(())
    }
}

/// The `figures` binary's command line.
pub const USAGE: &str = "usage: figures [NAME...] [--scale N]
  NAME  a figure of das_bench::figures::REGISTRY (default: all of them)
  N     divide the paper's task counts by N >= 1 (default 1, paper-sized)";

/// Parse `argv` (without the program name) into the figures to print,
/// in the order named, and the scale divisor. Rejects a missing,
/// malformed or zero `--scale` value and an unknown figure name.
pub fn parse_args(argv: &[String]) -> Result<(Vec<Named>, usize), String> {
    let (mut named, mut scale) = (Vec::new(), 1);
    let mut argv = argv.iter();
    while let Some(arg) = argv.next() {
        if arg == "--scale" {
            scale = argv
                .next()
                .and_then(|v| v.parse().ok())
                .filter(|&n| n >= 1)
                .ok_or("--scale needs an integer N >= 1")?;
        } else {
            let figure = figures::REGISTRY
                .iter()
                .find(|(name, _)| name == arg)
                .ok_or_else(|| format!("unknown figure or option {arg:?}"))?;
            named.push(*figure);
        }
    }
    if named.is_empty() {
        named = figures::REGISTRY.to_vec();
    }
    Ok((named, scale))
}

/// `n` as a percentage of `total` (0 when `total` is 0).
pub(crate) fn pct(n: usize, total: usize) -> f64 {
    if total == 0 {
        0.0
    } else {
        100.0 * n as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<(Vec<&'static str>, usize), String> {
        let argv: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
        parse_args(&argv).map(|(named, scale)| (named.iter().map(|(n, _)| *n).collect(), scale))
    }

    #[test]
    fn parse_args_reads_scale_and_names() {
        let (all, scale) = parse(&[]).expect("empty argv");
        assert_eq!((all.len(), scale), (figures::REGISTRY.len(), 1));
        assert_eq!(
            parse(&["fig10", "--scale", "20", "table1"]),
            Ok((vec!["fig10", "table1"], 20))
        );
        for bad in [
            &["--scale"][..],
            &["--scale", "x"],
            &["--scale", "0"],
            &["--scale", "-3"],
            &["fig99"],
            &["--sacle", "2"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn render_aligns_cells_to_four_significant_digits() {
        let mut t = Table::new("T", "x", ["a", "bb"]);
        t.row("one", vec![1234.56, 0.0012344]);
        t.row("2", vec![7.0, 42.1234]);
        t.headline("best", 2.0 / 3.0);
        assert_eq!(
            t.to_string(),
            "\n== T ==\nx       a        bb\none  1235  0.001234\n2       7     42.12\n   best = 0.6667\n"
        );
    }

    #[test]
    fn pct_math() {
        assert_eq!(pct(1, 4), 25.0);
        assert_eq!(pct(0, 0), 0.0);
    }
}
