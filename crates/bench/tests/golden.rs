//! The figure pin: every registered figure, run at `--scale 20`, must
//! reproduce `tests/golden/figures.tsv` bit for bit — every cell and
//! every headline, compared as `f64::to_bits`. A mismatch prints one
//! line per cell: figure, table, row, column, old value, new value.
//!
//! Budget: the whole registry at scale 20 takes ≈ 3 s in the debug
//! profile on a 2-vCPU host, 10 s at most. Debug and release builds
//! produce the same bits, so one file serves both profiles.
//!
//! After a change that is *meant* to move figure output, rewrite the
//! file (the rewrite prints the diff it makes) and commit it:
//!
//! ```sh
//! cargo test -p das-bench --test golden -- --ignored
//! ```

use das_bench::figures::REGISTRY;
use std::collections::{BTreeMap, BTreeSet};

/// The scale every pinned figure runs at.
const SCALE: usize = 20;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/figures.tsv");

/// One line per cell and headline:
/// `figure \t table \t row \t column \t bits \t value`. A headline's
/// row is `headline` and its column the headline's name.
fn render() -> String {
    let mut out = String::from("# figure\ttable\trow\tcolumn\tf64 bits\tvalue\n");
    for (name, figure) in REGISTRY {
        for t in figure(SCALE) {
            let cells = t.rows.iter().flat_map(|(row, cells)| {
                let row = row.as_str();
                t.columns
                    .iter()
                    .zip(cells)
                    .map(move |(col, &v)| (row, col, v))
            });
            let headlines = t.headlines.iter().map(|(h, v)| ("headline", h, *v));
            for (row, col, v) in cells.chain(headlines) {
                let (title, bits) = (&t.title, v.to_bits());
                out += &format!("{name}\t{title}\t{row}\t{col}\t{bits:#018x}\t{v:?}\n");
            }
        }
    }
    out
}

/// `figure | table | row | column` → `(bits, value)`.
fn parse(text: &str) -> BTreeMap<String, (String, String)> {
    let mut cells = BTreeMap::new();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let f: Vec<&str> = line.split('\t').collect();
        assert_eq!(f.len(), 6, "malformed golden line {line:?}");
        let cell = (f[4].to_string(), f[5].to_string());
        let duplicate = cells.insert(f[..4].join(" | "), cell);
        assert!(duplicate.is_none(), "duplicate cell {line:?}");
    }
    cells
}

/// `key: old -> new` for every cell whose bits differ, appeared or
/// disappeared.
fn diff(old: &str, new: &str) -> Vec<String> {
    let (old, new) = (parse(old), parse(new));
    let keys: BTreeSet<&String> = old.keys().chain(new.keys()).collect();
    fn value(cell: Option<&(String, String)>) -> &str {
        cell.map_or("(none)", |(_, v)| v)
    }
    let changed = keys
        .into_iter()
        .filter(|k| old.get(*k).map(|c| &c.0) != new.get(*k).map(|c| &c.0));
    changed
        .map(|k| format!("{k}: {} -> {}", value(old.get(k)), value(new.get(k))))
        .collect()
}

#[test]
fn figures_match_golden() {
    let golden = std::fs::read_to_string(GOLDEN).expect("golden file is committed");
    let changed = diff(&golden, &render());
    assert!(
        changed.is_empty(),
        "{} figure cells differ from {GOLDEN} (figure | table | row | column: old -> new):\n{}\n\
         if the change is intended: cargo test -p das-bench --test golden -- --ignored",
        changed.len(),
        changed.join("\n"),
    );
}

#[test]
#[ignore = "rewrites the golden file; run after an intended figure change"]
fn regenerate_golden() {
    let old = std::fs::read_to_string(GOLDEN).unwrap_or_default();
    let new = render();
    for line in diff(&old, &new) {
        println!("{line}");
    }
    std::fs::write(GOLDEN, new).expect("write the golden file");
}
