//! das-lint — the workspace determinism & concurrency auditor.
//!
//! Every tier of this workspace stakes correctness on invariants the
//! compiler cannot see: bit-reproducible sim runs, 1-node cluster ≡
//! bare `Simulator`, hand-picked atomic orderings on the ingress/PTT
//! hot paths. This crate makes those invariants machine-checked: a
//! comment/string-aware lexer ([`lexer`]), a crate-scoped rule engine
//! ([`rules`]), and a workspace walker (this module) that classifies
//! every `.rs` file and applies the rules that fit it:
//!
//! 1. **determinism** — no `HashMap`/`HashSet` iteration in the
//!    determinism-critical crates (`das-core`, `das-sim`,
//!    `das-cluster`, `das-msg`) without `// det-ok: <reason>`;
//! 2. **atomics** — every `Ordering::Relaxed` carries
//!    `// relaxed-ok: <reason>`; an orderings inventory is reported.
//!
//! On top of the line-local rules sits the function-graph layer
//! ([`parse`]): per-file extraction of function boundaries, call
//! sites, lock acquisitions and blocking waits/receives, merged into a
//! workspace view by two more rules:
//!
//! 3. **lock-order** — held-lock sets propagate through intra-crate
//!    call edges into a workspace lock-acquisition graph; acquisition
//!    cycles (potential deadlock) and locks held across a blocking
//!    wait/receive are reported unless justified with
//!    `// lock-ok: <reason>`;
//! 4. **blocking** — an unbounded `recv()` in control-plane code
//!    (`das-cluster`, `das-msg`) must become `recv_timeout` /
//!    `recv_backoff` / `try_recv*` or carry `// block-ok: <reason>`
//!    naming the bounding mechanism.
//!
//! Everything a compiler can check is left to it: clippy gates
//! `// SAFETY:` comments, bare `.unwrap()`, intentional panics and the
//! wall-clock / RNG / environment APIs (the workspace `Cargo.toml`
//! lints and `clippy.toml`), and a wildcard-free test pins
//! `RoutePolicy::ALL` to the enum.
//!
//! Run it as `cargo run --release -p das-lint`; it exits non-zero with
//! `file:line` diagnostics on any unjustified violation (`--json` for
//! the machine-readable report). The fixture corpus under
//! `crates/lint/fixtures/` is excluded from the walk (it exists to
//! *contain* violations for the self-tests).

pub mod lexer;
pub mod parse;
pub mod rules;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use lexer::mask;
use rules::{Diagnostic, FileCtx, FileKind, LockEdge, OrderingCounts};

/// What to audit and how to classify it. Paths are relative to `root`.
#[derive(Debug, Clone)]
pub struct Config {
    pub root: PathBuf,
    /// Path prefixes whose files are determinism-critical (rule 1).
    pub det_prefixes: Vec<PathBuf>,
    /// Path prefixes whose files are control-plane code (rule 4).
    pub blocking_prefixes: Vec<PathBuf>,
    /// Path prefixes never walked (vendored deps, build output, the
    /// violation fixtures).
    pub skip_prefixes: Vec<PathBuf>,
}

impl Config {
    /// The workspace configuration: determinism-critical and
    /// control-plane crates and the skip list for this repository.
    pub fn workspace(root: PathBuf) -> Config {
        Config {
            root,
            det_prefixes: ["core", "sim", "cluster", "msg"]
                .iter()
                .map(|c| PathBuf::from(format!("crates/{c}/src")))
                .collect(),
            blocking_prefixes: ["cluster", "msg"]
                .iter()
                .map(|c| PathBuf::from(format!("crates/{c}/src")))
                .collect(),
            skip_prefixes: vec![
                PathBuf::from("vendor"),
                PathBuf::from("target"),
                PathBuf::from("crates/lint/fixtures"),
            ],
        }
    }
}

/// The audit result: sorted diagnostics, the orderings inventory (per
/// relative path), and the workspace lock-acquisition graph.
#[derive(Debug, Default)]
pub struct Report {
    pub diagnostics: Vec<Diagnostic>,
    pub inventory: BTreeMap<PathBuf, OrderingCounts>,
    pub lock_edges: Vec<LockEdge>,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Classify one file (path relative to the workspace root).
pub fn classify(rel: &Path, cfg: &Config) -> FileKind {
    let p = rel.to_string_lossy().replace('\\', "/");
    FileKind {
        det_critical: cfg.det_prefixes.iter().any(|d| rel.starts_with(d)),
        test_file: p.starts_with("tests/") || p.contains("/tests/"),
        control_plane: cfg.blocking_prefixes.iter().any(|d| rel.starts_with(d)),
    }
}

/// Audit a single source text under an explicit classification with
/// the **line-local** rules (1 and 2) only. This is the entry point the
/// fixture self-tests drive directly — and the pass the cross-function
/// fixtures are demonstrably invisible to (see
/// `graph_inversion_is_invisible_to_line_local_rules`).
pub fn audit_source(rel: &Path, source: &str, kind: FileKind) -> (Vec<Diagnostic>, OrderingCounts) {
    let lines = mask(source);
    let ctx = FileCtx::new(rel, &lines, kind);
    let mut diags = rules::rule_determinism(&ctx);
    let (atomics, counts) = rules::rule_atomics(&ctx);
    diags.extend(atomics);
    (diags, counts)
}

/// Extract the function graph of a single source text — the substrate
/// of the cross-function rules (3 and 4).
pub fn graph_source(rel: &Path, source: &str, kind: FileKind) -> parse::FileGraph {
    let lines = mask(source);
    let ctx = FileCtx::new(rel, &lines, kind);
    parse::file_graph(&ctx)
}

/// Recursively collect the `.rs` files below `root`, honouring the
/// skip list. Sorted so the walk (and the report) is deterministic.
fn rust_files(root: &Path, cfg: &Config) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let path = entry?.path();
            let rel = path.strip_prefix(root).unwrap_or(&path);
            if cfg.skip_prefixes.iter().any(|s| rel.starts_with(s)) {
                continue;
            }
            if path
                .file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with('.'))
            {
                continue;
            }
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(rel.to_path_buf());
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Run the full audit over the configured tree: the line-local rules
/// per file and the graph rules over the merged per-crate function
/// graphs.
pub fn run(cfg: &Config) -> std::io::Result<Report> {
    let mut report = Report::default();
    let mut graphs: Vec<(PathBuf, parse::FileGraph)> = Vec::new();
    for rel in rust_files(&cfg.root, cfg)? {
        let source = fs::read_to_string(cfg.root.join(&rel))?;
        let kind = classify(&rel, cfg);
        let (diags, counts) = audit_source(&rel, &source, kind);
        report.diagnostics.extend(diags);
        if counts.total() > 0 {
            report.inventory.insert(rel.clone(), counts);
        }
        let graph = graph_source(&rel, &source, kind);
        report
            .diagnostics
            .extend(rules::rule_blocking(&rel, &graph, kind));
        graphs.push((rel, graph));
    }
    let (lock_diags, lock_edges) = rules::rule_lock_order(&graphs);
    report.diagnostics.extend(lock_diags);
    report.lock_edges = lock_edges;
    report.diagnostics.sort();
    Ok(report)
}

/// Render the orderings inventory as the report block `main` prints.
pub fn render_inventory(inv: &BTreeMap<PathBuf, OrderingCounts>) -> String {
    let mut out = String::from("atomic orderings inventory (code view, vendor excluded):\n");
    let mut total = OrderingCounts::default();
    for (path, counts) in inv {
        out.push_str(&format!("  {:<44}", path.display()));
        for (i, name) in rules::ORDERINGS.iter().enumerate() {
            if counts.0[i] > 0 {
                out.push_str(&format!(" {name}:{}", counts.0[i]));
            }
            total.0[i] += counts.0[i];
        }
        out.push('\n');
    }
    out.push_str(&format!("  {:<44}", "total"));
    for (i, name) in rules::ORDERINGS.iter().enumerate() {
        out.push_str(&format!(" {name}:{}", total.0[i]));
    }
    out.push('\n');
    out
}

/// Locate the workspace root from the lint crate's own manifest dir
/// (`crates/lint` → two levels up).
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint always sits two levels below the workspace root")
        .to_path_buf()
}
