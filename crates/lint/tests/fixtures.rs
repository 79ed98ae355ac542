//! Fixture-based self-tests of the das-lint rule engine.
//!
//! Every negative fixture under `crates/lint/fixtures/` contains known
//! violations at known lines; these tests pin the exact `(line, rule)`
//! set each one must produce — both that the violations ARE caught and
//! that the justified/exempt lines are NOT. The final test runs the
//! full workspace audit: it is the same gate CI runs, so deleting any
//! justification comment in the tree turns `cargo test` red too.

use std::path::{Path, PathBuf};

use das_lint::rules::{
    rule_blocking, rule_lock_order, FileKind, LockEdge, RULE_ATOMICS, RULE_BLOCKING,
    RULE_DETERMINISM, RULE_LOCK_ORDER,
};
use das_lint::{audit_source, graph_source, Config};

const DET_LIB: FileKind = FileKind {
    det_critical: true,
    test_file: false,
    control_plane: false,
};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path).expect("fixture file exists")
}

/// Audit one fixture and return its `(line, rule)` findings, sorted.
fn audit(name: &str, kind: FileKind) -> Vec<(usize, &'static str)> {
    let src = fixture(name);
    let (diags, _) = audit_source(Path::new(name), &src, kind);
    let mut got: Vec<_> = diags.iter().map(|d| (d.line, d.rule)).collect();
    got.sort();
    got
}

#[test]
fn det_map_iter_flags_hash_iteration_not_justified_drain() {
    let got = audit("det_map_iter.rs", DET_LIB);
    // Line 11: entries.values(). Line 22: `for … in &self.seen`.
    // Line 16 (entries.drain) is justified by the det-ok above it.
    assert_eq!(got, vec![(11, RULE_DETERMINISM), (22, RULE_DETERMINISM)]);
}

#[test]
fn det_rules_do_not_fire_outside_critical_crates() {
    let kind = FileKind {
        det_critical: false,
        test_file: false,
        control_plane: false,
    };
    assert_eq!(audit("det_map_iter.rs", kind), vec![]);
}

#[test]
fn relaxed_bare_flags_every_unannotated_site() {
    let got = audit("relaxed_bare.rs", DET_LIB);
    assert_eq!(got, vec![(5, RULE_ATOMICS), (10, RULE_ATOMICS)]);
}

#[test]
fn relaxed_mixed_accepts_same_line_and_preceding_annotations() {
    let got = audit("relaxed_mixed.rs", DET_LIB);
    assert_eq!(got, vec![(5, RULE_ATOMICS)]);
}

#[test]
fn relaxed_inventory_counts_orderings() {
    let src = fixture("relaxed_bare.rs");
    let (_, counts) = audit_source(Path::new("relaxed_bare.rs"), &src, DET_LIB);
    // ORDERINGS = [Relaxed, Acquire, Release, AcqRel, SeqCst]
    assert_eq!(counts.0, [2, 1, 0, 0, 0]);
}

#[test]
fn clean_fixture_is_clean_under_strictest_classification() {
    assert_eq!(audit("clean.rs", DET_LIB), vec![]);
}

// ---------------------------------------------------------------------
// Graph-layer fixtures: rules 3 (lock-order), 4 (blocking).
// ---------------------------------------------------------------------

/// Control-plane library code: the classification rule 4 fires on.
const CONTROL: FileKind = FileKind {
    det_critical: false,
    test_file: false,
    control_plane: true,
};

/// Run the lock-order pass over one fixture as its own single-file
/// crate; returns the sorted `(line, rule)` findings plus the graph.
fn lock_audit(name: &str) -> (Vec<(usize, &'static str)>, Vec<LockEdge>) {
    let src = fixture(name);
    let graph = graph_source(Path::new(name), &src, DET_LIB);
    let (diags, edges) = rule_lock_order(&[(PathBuf::from(name), graph)]);
    let mut got: Vec<_> = diags.iter().map(|d| (d.line, d.rule)).collect();
    got.sort();
    (got, edges)
}

/// Run the blocking pass over one fixture under `kind`.
fn blocking_audit(name: &str, kind: FileKind) -> Vec<(usize, &'static str)> {
    let src = fixture(name);
    let graph = graph_source(Path::new(name), &src, kind);
    let diags = rule_blocking(Path::new(name), &graph, kind);
    let mut got: Vec<_> = diags.iter().map(|d| (d.line, d.rule)).collect();
    got.sort();
    got
}

#[test]
fn lock_cycle_reports_both_inversion_sites() {
    // forward: alpha -> beta at line 9; backward: beta -> alpha via a
    // multi-line chain whose `lock` token lands on line 18. Each edge
    // closes the cycle, so both sites are reported.
    let (got, edges) = lock_audit("lock_cycle.rs");
    assert_eq!(got, vec![(9, RULE_LOCK_ORDER), (18, RULE_LOCK_ORDER)]);
    assert_eq!(edges.len(), 2);
    assert!(edges.iter().all(|e| !e.justified));
}

#[test]
fn graph_inversion_is_invisible_to_line_local_rules() {
    // Each function takes one lock directly and the other through a
    // helper call: no single line shows two locks, so the line-local
    // pass (rules 1 and 2) sees nothing at all…
    let src = fixture("lock_inversion_xfn.rs");
    let (line_local, _) = audit_source(Path::new("lock_inversion_xfn.rs"), &src, DET_LIB);
    assert_eq!(line_local, vec![]);
    // …while the graph pass propagates held sets through the call
    // edges and reports the cycle at both call sites.
    let (got, _) = lock_audit("lock_inversion_xfn.rs");
    assert_eq!(got, vec![(10, RULE_LOCK_ORDER), (21, RULE_LOCK_ORDER)]);
}

#[test]
fn locks_held_across_blocking_calls_are_flagged() {
    // Line 10: recv under the stats guard. Line 18: condvar wait with
    // two guards live — the waited guard (`inner`) is exempt, `outer`
    // is not. The outer->inner acquisition is an edge but no cycle.
    let (got, edges) = lock_audit("lock_across_wait.rs");
    assert_eq!(got, vec![(10, RULE_LOCK_ORDER), (18, RULE_LOCK_ORDER)]);
    assert_eq!(edges.len(), 1);
    assert_eq!(
        (edges[0].from.as_str(), edges[0].to.as_str()),
        ("outer", "inner")
    );
}

#[test]
fn lock_ok_suppresses_diagnostics_but_keeps_edges() {
    // The same inversion and held-across-recv shapes as the positive
    // fixtures, each justified: no findings, but the graph still
    // reports both edges (marked justified) for the JSON artifact.
    let (got, edges) = lock_audit("lock_ok.rs");
    assert_eq!(got, vec![]);
    assert_eq!(edges.len(), 2);
    assert!(edges.iter().all(|e| e.justified));
}

#[test]
fn scoped_and_dropped_guards_produce_no_edges() {
    // Scope exit, explicit `drop(g)` and within-statement temporaries
    // all release before the next acquisition or blocking call.
    let (got, edges) = lock_audit("lock_scoped.rs");
    assert_eq!(got, vec![]);
    assert_eq!(edges, vec![]);
}

#[test]
fn unbounded_recv_flagged_on_control_plane_only() {
    // Line 9: the idle-loop recv; line 15: the spec-pump recv.
    let got = blocking_audit("block_recv.rs", CONTROL);
    assert_eq!(got, vec![(9, RULE_BLOCKING), (15, RULE_BLOCKING)]);
    // The same file outside the control plane is out of scope.
    assert_eq!(blocking_audit("block_recv.rs", DET_LIB), vec![]);
}

#[test]
fn justified_and_bounded_receives_are_clean() {
    assert_eq!(blocking_audit("block_ok.rs", CONTROL), vec![]);
    assert_eq!(blocking_audit("block_bounded.rs", CONTROL), vec![]);
}

/// The real gate: the workspace itself must audit clean. This is what
/// makes deleting any justification comment turn CI red twice over —
/// once through `cargo run -p das-lint`, once through `cargo test`.
#[test]
fn workspace_audits_clean() {
    let cfg = Config::workspace(das_lint::workspace_root());
    let report = das_lint::run(&cfg).expect("workspace tree is readable");
    let rendered: Vec<String> = report.diagnostics.iter().map(|d| d.to_string()).collect();
    assert!(
        report.is_clean(),
        "das-lint found violations:\n{}",
        rendered.join("\n")
    );
}
