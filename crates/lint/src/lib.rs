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
//! 1. **determinism** — no `Instant::now` / `SystemTime` / `thread_rng`
//!    / `rand::random` / `std::env` reads and no `HashMap`/`HashSet`
//!    iteration in the determinism-critical crates (`das-core`,
//!    `das-sim`, `das-cluster`, `das-msg`) without `// det-ok: <reason>`;
//! 2. **atomics** — every `Ordering::Relaxed` carries
//!    `// relaxed-ok: <reason>`; an orderings inventory is reported;
//! 3. **unsafe** — every `unsafe` is preceded by `// SAFETY:`;
//! 4. **panic** — no bare `.unwrap()` in non-test library code;
//! 5. **contract** — every `RoutePolicy` variant appears in the
//!    differential matrix and every `MetricKind` has a `cluster_top`
//!    row: coverage of tables rustc cannot see (a contract whose
//!    target is a wildcard-free `match` would only repeat the
//!    compiler's exhaustiveness check, so there is none);
//! 6. **fault** — every intentional `panic!`/`panic_any` in
//!    determinism-critical library code (the fault plane's kill
//!    mechanism) carries `// fault-ok: <reason>` naming its catcher.
//!
//! On top of the line-local rules sits the function-graph layer
//! ([`parse`]): per-file extraction of function boundaries, call
//! sites, lock acquisitions and blocking waits/receives, merged into a
//! workspace view by two more rules:
//!
//! 7. **lock-order** — held-lock sets propagate through intra-crate
//!    call edges into a workspace lock-acquisition graph; acquisition
//!    cycles (potential deadlock) and locks held across a blocking
//!    wait/receive are reported unless justified with
//!    `// lock-ok: <reason>`;
//! 8. **blocking** — an unbounded `recv()` in control-plane code
//!    (`das-cluster`, `das-msg`) must become `recv_timeout` /
//!    `recv_backoff` / `try_recv*` or carry `// block-ok: <reason>`
//!    naming the bounding mechanism.
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
use rules::{check_contract, Diagnostic, FileCtx, FileKind, LockEdge, OrderingCounts};

/// A cross-file contract: every variant of `enum_name` (defined in
/// `enum_file`) must be referenced as `Enum::Variant` in `target_file`.
#[derive(Debug, Clone)]
pub struct Contract {
    pub enum_file: PathBuf,
    pub enum_name: String,
    pub target_file: PathBuf,
}

/// What to audit and how to classify it. Paths are relative to `root`.
#[derive(Debug, Clone)]
pub struct Config {
    pub root: PathBuf,
    /// Path prefixes whose files are determinism-critical (rule 1).
    pub det_prefixes: Vec<PathBuf>,
    /// Path prefixes whose files are control-plane code (rule 8).
    pub blocking_prefixes: Vec<PathBuf>,
    /// Path prefixes never walked (vendored deps, build output, the
    /// violation fixtures).
    pub skip_prefixes: Vec<PathBuf>,
    pub contracts: Vec<Contract>,
}

impl Config {
    /// The workspace configuration: determinism-critical crates, skip
    /// list and contract checks for this repository.
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
            contracts: vec![
                Contract {
                    enum_file: PathBuf::from("crates/cluster/src/route.rs"),
                    enum_name: "RoutePolicy".to_string(),
                    target_file: PathBuf::from("tests/cluster_exec.rs"),
                },
                // Every metric family must have a row in the
                // cluster_top dashboard.
                Contract {
                    enum_file: PathBuf::from("crates/core/src/metrics.rs"),
                    enum_name: "MetricKind".to_string(),
                    target_file: PathBuf::from("examples/cluster_top.rs"),
                },
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
    let det_critical = cfg.det_prefixes.iter().any(|d| rel.starts_with(d));
    let control_plane = cfg.blocking_prefixes.iter().any(|d| rel.starts_with(d));
    let test_file = p.starts_with("tests/") || p.contains("/tests/");
    let in_src = p.starts_with("src/") || p.contains("/src/");
    let bin_target = p.ends_with("/main.rs") || p == "src/main.rs" || p.contains("/src/bin/");
    let example = p.starts_with("examples/") || p.contains("/examples/");
    let lib_code = in_src && !bin_target && !example && !test_file;
    FileKind {
        det_critical,
        lib_code,
        test_file,
        control_plane,
    }
}

/// Audit a single source text under an explicit classification with
/// the **line-local** rules (1–4, 6) only. This is the entry point the
/// fixture self-tests drive directly — and the pass the cross-function
/// fixtures are demonstrably invisible to (see
/// `graph_inversion_is_invisible_to_line_local_rules`).
pub fn audit_source(rel: &Path, source: &str, kind: FileKind) -> (Vec<Diagnostic>, OrderingCounts) {
    let lines = mask(source);
    let ctx = FileCtx::new(rel, &lines, kind);
    let mut diags = rules::rule_determinism(&ctx);
    let (atomics, counts) = rules::rule_atomics(&ctx);
    diags.extend(atomics);
    diags.extend(rules::rule_unsafe(&ctx));
    diags.extend(rules::rule_panic(&ctx));
    diags.extend(rules::rule_fault(&ctx));
    (diags, counts)
}

/// Extract the function graph of a single source text — the substrate
/// of the cross-function rules (7 and 8).
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
/// per file, the graph rules over the merged per-crate function
/// graphs, and the cross-file contracts.
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
    for c in &cfg.contracts {
        let enum_src = fs::read_to_string(cfg.root.join(&c.enum_file))?;
        let target_src = fs::read_to_string(cfg.root.join(&c.target_file))?;
        report.diagnostics.extend(check_contract(
            &c.enum_file,
            &mask(&enum_src),
            &c.enum_name,
            &c.target_file,
            &mask(&target_src),
        ));
    }
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
