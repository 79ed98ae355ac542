//! Every `Ordering::Relaxed` in the workspace says why no ordering is
//! needed: `relaxed-ok: <reason>` on its line or in the comment block
//! directly above. Walks the `.rs` files outside `vendor/` and `target/`,
//! skips comment lines and prints the orderings inventory (`--nocapture`).
//! Strings are not masked, so the needles are built at run time.

use std::fs;
use std::path::{Path, PathBuf};

const ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];
const TAG: &str = "relaxed-ok:";

fn rust_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source tree") {
        let path = entry.expect("readable source tree").path();
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        if name.starts_with('.') || name == "target" || path == root.join("vendor") {
            continue;
        } else if path.is_dir() {
            rust_files(root, &path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// The tag with a non-empty reason on line `i`, on the line above, or
/// in the run of comment and attribute lines ending directly above.
fn justified(lines: &[&str], i: usize) -> bool {
    for (k, line) in lines[..=i].iter().rev().enumerate() {
        if let Some(at) = line.find(TAG) {
            return !line[at + TAG.len()..].trim().is_empty();
        }
        let t = line.trim_start();
        if k > 0 && !t.starts_with("//") && !t.starts_with("#[") {
            return false;
        }
    }
    false
}

fn row(counts: &[usize; 5]) -> String {
    let named = (0..5).filter(|&o| counts[o] > 0);
    let named: Vec<_> = named
        .map(|o| format!("{}:{}", ORDERINGS[o], counts[o]))
        .collect();
    named.join(" ")
}

#[test]
fn every_relaxed_ordering_is_justified() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(root, root, &mut files);
    files.sort();
    let needles = ORDERINGS.map(|o| format!("Ordering::{o}"));
    let (mut total, mut bare) = ([0; 5], Vec::new());
    println!("atomic orderings inventory (vendor excluded):");
    for path in &files {
        let rel = path.strip_prefix(root).unwrap().display();
        let text = fs::read_to_string(path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let mut counts = [0; 5];
        for (i, line) in lines.iter().enumerate() {
            let code = line.split("//").next().unwrap_or(line);
            (0..5).for_each(|o| counts[o] += code.matches(needles[o].as_str()).count());
            if code.contains(needles[0].as_str()) && !justified(&lines, i) {
                bare.push(format!("{rel}:{}", i + 1));
            }
        }
        if counts != [0; 5] {
            println!("  {rel:<44} {}", row(&counts));
            (0..5).for_each(|o| total[o] += counts[o]);
        }
    }
    println!("  {:<44} {}", "total", row(&total));
    assert!(bare.is_empty(), "no `{TAG} <reason>` at {bare:?}");
}
