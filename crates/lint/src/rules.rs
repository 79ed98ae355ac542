//! The rule set of `das-lint`.
//!
//! Every rule works on the masked per-line views from [`crate::lexer`]:
//! pattern matches run against the code view (so prose and log strings
//! cannot trip them), justification annotations are read from the
//! comment view. A justification is `// <tag> <reason>` with a
//! non-empty reason, on the flagged line or the line directly above it.
//!
//! Rules 1–4 and 6 are line-local; rule 5 (cross-file contracts) is a
//! standalone check over an enum definition and a target file. Rules
//! 7 and 8 are the graph layer: they consume [`crate::parse`]'s
//! per-function extraction — rule 7 (lock-order) over the whole
//! workspace at once, rule 8 (blocking) per control-plane file.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

use crate::lexer::{find_token, has_token, tokens, LineInfo};
use crate::parse::{FileGraph, FnInfo};

/// One `file:line` finding. Ordered by (file, line, rule) for stable
/// report output.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    pub file: PathBuf,
    pub line: usize,
    pub rule: &'static str,
    pub msg: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.msg
        )
    }
}

pub const RULE_DETERMINISM: &str = "determinism";
pub const RULE_ATOMICS: &str = "atomics";
pub const RULE_UNSAFE: &str = "unsafe";
pub const RULE_PANIC: &str = "panic";
pub const RULE_CONTRACT: &str = "contract";
pub const RULE_FAULT: &str = "fault";
pub const RULE_LOCK_ORDER: &str = "lock-order";
pub const RULE_BLOCKING: &str = "blocking";

/// Every rule name, for stable zero-filled per-rule counts in reports.
pub const RULES: &[&str] = &[
    RULE_DETERMINISM,
    RULE_ATOMICS,
    RULE_UNSAFE,
    RULE_PANIC,
    RULE_CONTRACT,
    RULE_FAULT,
    RULE_LOCK_ORDER,
    RULE_BLOCKING,
];

/// How a file is classified for rule applicability.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileKind {
    /// Rule 1 applies (determinism-critical crate source).
    pub det_critical: bool,
    /// Rule 4 applies (library code: not tests, examples or bin
    /// targets).
    pub lib_code: bool,
    /// The whole file is test code (`tests/`): rules 1 and 4 never
    /// apply, rules 2 and 3 still do.
    pub test_file: bool,
    /// Rule 8 applies (dispatcher/cluster control-plane source, where
    /// an unbounded receive wedges the tier on a lost peer).
    pub control_plane: bool,
}

/// Per-file analysis context: masked lines plus the `#[cfg(test)]`
/// region map.
pub struct FileCtx<'a> {
    pub path: &'a Path,
    pub lines: &'a [LineInfo],
    pub kind: FileKind,
    in_test_region: Vec<bool>,
}

impl<'a> FileCtx<'a> {
    pub fn new(path: &'a Path, lines: &'a [LineInfo], kind: FileKind) -> Self {
        let in_test_region = if kind.test_file {
            vec![true; lines.len()]
        } else {
            test_regions(lines)
        };
        FileCtx {
            path,
            lines,
            kind,
            in_test_region,
        }
    }

    /// Is the 0-based line inside a `#[cfg(test)]` region (or is the
    /// whole file test code)? The graph layer skips such functions.
    pub fn is_test_line(&self, idx: usize) -> bool {
        self.in_test_region.get(idx).copied().unwrap_or(false)
    }

    /// Is the 0-based line justified by `tag`? Same lookup the
    /// line-local rules use; the graph layer resolves justifications
    /// at extraction time so the cross-file passes stay pure data.
    pub fn justified_line(&self, idx: usize, tag: &str) -> bool {
        justified(self, idx, tag)
    }

    fn diag(&self, idx: usize, rule: &'static str, msg: String) -> Diagnostic {
        Diagnostic {
            file: self.path.to_path_buf(),
            line: idx + 1,
            rule,
            msg,
        }
    }
}

/// Mark every line inside a `#[cfg(test)] mod … { … }` region. The
/// attribute must be followed by a `mod` within a few lines (so a
/// `#[cfg(test)]` on a lone item does not swallow the rest of the
/// file); the region extends to the matching close brace.
fn test_regions(lines: &[LineInfo]) -> Vec<bool> {
    let mut marked = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        if lines[i].code.contains("#[cfg(test)]") {
            let has_mod = (i..lines.len().min(i + 4)).any(|j| has_token(&lines[j].code, "mod"));
            if !has_mod {
                marked[i] = true;
                i += 1;
                continue;
            }
            // Brace-match from the first `{` at or after the attribute.
            let mut depth: i64 = 0;
            let mut opened = false;
            let mut j = i;
            while j < lines.len() {
                marked[j] = true;
                for c in lines[j].code.chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                if opened && depth <= 0 {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    marked
}

/// Extract the reason following `tag` in a comment, if present.
fn annotation<'c>(comment: &'c str, tag: &str) -> Option<&'c str> {
    comment.find(tag).map(|at| comment[at + tag.len()..].trim())
}

/// Is line `idx` justified by `tag` with a non-empty reason? The tag
/// may sit on the flagged line itself, on the line directly above, or
/// anywhere in the contiguous comment-only block ending directly above
/// — justification comments are prose and often wrap across lines.
fn justified(ctx: &FileCtx<'_>, idx: usize, tag: &str) -> bool {
    if let Some(reason) = annotation(&ctx.lines[idx].comment, tag) {
        return !reason.is_empty();
    }
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let l = &ctx.lines[j];
        if let Some(reason) = annotation(&l.comment, tag) {
            return !reason.is_empty();
        }
        // The line directly above is always inspected; past it, only a
        // contiguous run of pure comment lines (or attribute lines,
        // e.g. a scoped clippy `#[allow]` riding with the
        // justification) keeps the search alive — any other code line
        // or fully blank line ends the block.
        let code = l.code.trim();
        let comment_only = code.is_empty() && !l.comment.is_empty();
        let attribute = code.starts_with("#[") || code.starts_with("#![");
        if !comment_only && !attribute {
            return false;
        }
    }
    false
}

// ---------------------------------------------------------------------
// Rule 1: determinism
// ---------------------------------------------------------------------

/// Sources of nondeterminism that must never appear unjustified in a
/// determinism-critical crate. Matched as whole tokens in code.
const DET_PATTERNS: &[(&str, &str)] = &[
    ("Instant::now", "wall-clock read"),
    ("SystemTime", "wall-clock type"),
    ("thread_rng", "OS-seeded RNG"),
    ("rand::random", "OS-seeded RNG"),
    ("std::env", "environment read"),
    ("env::var", "environment read"),
];

/// Map-iteration methods whose order is unspecified for hash maps.
const MAP_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
];

pub const DET_TAG: &str = "det-ok:";

/// Rule 1: forbid nondeterminism sources and `HashMap`/`HashSet`
/// iteration in determinism-critical code unless `// det-ok: <reason>`.
pub fn rule_determinism(ctx: &FileCtx<'_>) -> Vec<Diagnostic> {
    if !ctx.kind.det_critical {
        return Vec::new();
    }
    let mut out = Vec::new();
    let maps = map_idents(ctx.lines);
    for (idx, line) in ctx.lines.iter().enumerate() {
        if ctx.is_test_line(idx) {
            continue;
        }
        for (pat, what) in DET_PATTERNS {
            if has_token(&line.code, pat) && !justified(ctx, idx, DET_TAG) {
                out.push(ctx.diag(
                    idx,
                    RULE_DETERMINISM,
                    format!("`{pat}` ({what}) in determinism-critical code; remove it or justify with `// det-ok: <reason>`"),
                ));
            }
        }
        for m in for_loop_iterations(&line.code, &maps) {
            if !justified(ctx, idx, DET_TAG) {
                out.push(ctx.diag(
                    idx,
                    RULE_DETERMINISM,
                    format!("iteration over hash-ordered `{m}` in determinism-critical code; sort at the emission point or justify with `// det-ok: <reason>`"),
                ));
            }
        }
    }
    // Method-call iteration is matched on a file-wide token stream so
    // multi-line builder chains (`self\n.route\n.drain()`) are caught.
    let stream: Vec<(usize, String)> = ctx
        .lines
        .iter()
        .enumerate()
        .filter(|(i, _)| !ctx.is_test_line(*i))
        .flat_map(|(i, l)| tokens(&l.code).into_iter().map(move |t| (i, t)))
        .collect();
    for i in 2..stream.len() {
        if MAP_ITER_METHODS.contains(&stream[i].1.as_str())
            && stream[i - 1].1 == "."
            && maps.contains(&stream[i - 2].1)
            && stream.get(i + 1).map(|t| t.1.as_str()) == Some("(")
        {
            let idx = stream[i].0;
            if !justified(ctx, idx, DET_TAG) {
                out.push(ctx.diag(
                    idx,
                    RULE_DETERMINISM,
                    format!(
                        "iteration over hash-ordered `{}.{}()` in determinism-critical code; sort at the emission point or justify with `// det-ok: <reason>`",
                        stream[i - 2].1,
                        stream[i].1
                    ),
                ));
            }
        }
    }
    out
}

/// Collect identifiers declared with a `HashMap`/`HashSet` type in this
/// file: `let` bindings (`let m = HashMap::new()`, `let m: HashMap<…>`)
/// and `name: …HashMap<…>` declarations (struct fields, fn params) —
/// walking back over wrapper tokens so `slots: Mutex<HashMap<…>>`
/// still captures `slots`. A single-file heuristic: idents declared in
/// one file and iterated in another are out of scope (see DESIGN.md).
fn map_idents(lines: &[LineInfo]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for line in lines {
        let toks = tokens(&line.code);
        let Some(pos) = toks.iter().position(|t| t == "HashMap" || t == "HashSet") else {
            continue;
        };
        if let Some(let_pos) = toks.iter().position(|t| t == "let") {
            let mut k = let_pos + 1;
            if toks.get(k).map(String::as_str) == Some("mut") {
                k += 1;
            }
            if let Some(id) = toks.get(k).filter(|t| is_ident(t)) {
                out.insert(id.clone());
            }
        }
        // Walk back from the map token over type-position tokens
        // (paths, wrappers like `Mutex<`, references) to a `:` and take
        // the ident before it: covers struct fields and fn params.
        let mut k = pos;
        while k > 0 {
            let t = toks[k - 1].as_str();
            if t == "::" || t == "<" || t == "&" || (is_ident(t) && t != "let") {
                k -= 1;
            } else {
                break;
            }
        }
        if k > 1 && toks[k - 1] == ":" && is_ident(&toks[k - 2]) {
            out.insert(toks[k - 2].clone());
        }
    }
    out
}

/// Find `for … in &m` loops on one code line, for `m` in the
/// declared-map set (method-call iteration is handled on the file-wide
/// token stream by [`rule_determinism`]).
fn for_loop_iterations(code: &str, maps: &BTreeSet<String>) -> Vec<String> {
    if maps.is_empty() {
        return Vec::new();
    }
    let toks = tokens(code);
    let mut hits = Vec::new();
    // `for pat in <path>` where <path> is a plain place expression
    // ending in a declared map ident.
    if toks.first().map(String::as_str) == Some("for") {
        if let Some(in_pos) = toks.iter().position(|t| t == "in") {
            let expr: Vec<&str> = toks[in_pos + 1..]
                .iter()
                .take_while(|t| *t != "{")
                .map(String::as_str)
                .collect();
            let place_like = !expr.is_empty()
                && expr
                    .iter()
                    .all(|t| *t == "&" || *t == "mut" || *t == "." || is_ident(t));
            if place_like {
                if let Some(last) = expr.iter().rev().find(|t| is_ident(t)) {
                    if maps.contains(*last) {
                        hits.push(format!("for … in {last}"));
                    }
                }
            }
        }
    }
    hits
}

fn is_ident(t: &str) -> bool {
    t.chars()
        .next()
        .is_some_and(|c| c.is_alphabetic() || c == '_')
}

// ---------------------------------------------------------------------
// Rule 2: atomics discipline
// ---------------------------------------------------------------------

pub const RELAXED_TAG: &str = "relaxed-ok:";

/// All orderings tracked by the inventory report.
pub const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Per-file count of each `Ordering::…` use, for the inventory report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OrderingCounts(pub [usize; 5]);

impl OrderingCounts {
    pub fn total(&self) -> usize {
        self.0.iter().sum()
    }
}

/// Rule 2: every `Ordering::Relaxed` needs `// relaxed-ok: <reason>`.
/// Applies everywhere, test code included — a test that asserts on a
/// relaxed counter is still making a memory-ordering claim.
pub fn rule_atomics(ctx: &FileCtx<'_>) -> (Vec<Diagnostic>, OrderingCounts) {
    let mut out = Vec::new();
    let mut counts = OrderingCounts::default();
    for (idx, line) in ctx.lines.iter().enumerate() {
        for (oi, name) in ORDERINGS.iter().enumerate() {
            let needle = format!("Ordering::{name}");
            let mut rest = line.code.as_str();
            while let Some(at) = find_token(rest, &needle) {
                counts.0[oi] += 1;
                rest = &rest[at + needle.len()..];
            }
        }
        if has_token(&line.code, "Ordering::Relaxed") && !justified(ctx, idx, RELAXED_TAG) {
            out.push(ctx.diag(
                idx,
                RULE_ATOMICS,
                "`Ordering::Relaxed` without `// relaxed-ok: <reason>`; state why no ordering is needed or strengthen it".to_string(),
            ));
        }
    }
    (out, counts)
}

// ---------------------------------------------------------------------
// Rule 3: unsafe hygiene
// ---------------------------------------------------------------------

pub const SAFETY_TAG: &str = "SAFETY:";

/// Rule 3: every `unsafe` block/fn/impl must carry a `// SAFETY:`
/// comment on the same line or in the contiguous comment/attribute
/// block directly above it.
pub fn rule_unsafe(ctx: &FileCtx<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (idx, line) in ctx.lines.iter().enumerate() {
        if !has_token(&line.code, "unsafe") {
            continue;
        }
        if safety_documented(ctx, idx) {
            continue;
        }
        out.push(ctx.diag(
            idx,
            RULE_UNSAFE,
            "`unsafe` without a preceding `// SAFETY:` argument".to_string(),
        ));
    }
    out
}

/// Same-line `SAFETY:` comment, or walk up through the contiguous
/// block of comment-only / attribute-only lines above. A rustdoc
/// `# Safety` section (the `unsafe fn` documentation convention) is
/// accepted too.
fn safety_documented(ctx: &FileCtx<'_>, idx: usize) -> bool {
    let has_tag = |l: &LineInfo| l.comment.contains(SAFETY_TAG) || l.comment.contains("# Safety");
    if has_tag(&ctx.lines[idx]) {
        return true;
    }
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let l = &ctx.lines[j];
        let code = l.code.trim();
        let passthrough = code.is_empty() || code.starts_with("#[") || code.starts_with("#![");
        if !passthrough {
            return false;
        }
        if has_tag(l) {
            return true;
        }
        if code.is_empty() && l.comment.is_empty() {
            // A fully blank line ends the contiguous block.
            return false;
        }
    }
    false
}

// ---------------------------------------------------------------------
// Rule 4: panic policy
// ---------------------------------------------------------------------

pub const UNWRAP_TAG: &str = "unwrap-ok:";

/// Rule 4: bare `.unwrap()` in non-test library code must become
/// `.expect("<invariant>")` or carry `// unwrap-ok: <reason>`.
pub fn rule_panic(ctx: &FileCtx<'_>) -> Vec<Diagnostic> {
    if !ctx.kind.lib_code {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (idx, line) in ctx.lines.iter().enumerate() {
        if ctx.is_test_line(idx) {
            continue;
        }
        if line.code.contains(".unwrap()") && !justified(ctx, idx, UNWRAP_TAG) {
            out.push(ctx.diag(
                idx,
                RULE_PANIC,
                "bare `.unwrap()` in library code; use `.expect(\"<invariant>\")` or justify with `// unwrap-ok: <reason>`".to_string(),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------
// Rule 5: cross-file contract checks
// ---------------------------------------------------------------------

/// Parse the variant names (and their 1-based lines) of `enum <name>`
/// from masked lines. Handles tuple, struct and unit variants plus
/// attributes; nested braces inside struct variants are skipped.
pub fn enum_variants(lines: &[LineInfo], name: &str) -> Vec<(String, usize)> {
    let mut start = None;
    for (idx, line) in lines.iter().enumerate() {
        if has_token(&line.code, "enum") && has_token(&line.code, name) {
            start = Some(idx);
            break;
        }
    }
    let Some(start) = start else {
        return Vec::new();
    };
    let mut variants = Vec::new();
    let mut brace: i64 = 0;
    let mut paren: i64 = 0;
    let mut angle: i64 = 0;
    let mut opened = false;
    let mut expecting = false;
    let mut in_attr: i64 = 0;
    'outer: for (idx, line) in lines.iter().enumerate().skip(start) {
        let toks = tokens(&line.code);
        let mut t = 0;
        while t < toks.len() {
            let tok = toks[t].as_str();
            if in_attr > 0 {
                match tok {
                    "[" => in_attr += 1,
                    "]" => in_attr -= 1,
                    _ => {}
                }
                t += 1;
                continue;
            }
            match tok {
                "#" => {
                    // Attribute: skip its bracket group.
                    if toks.get(t + 1).map(String::as_str) == Some("[") {
                        in_attr = 1;
                        t += 2;
                        continue;
                    }
                }
                "{" => {
                    brace += 1;
                    if !opened {
                        opened = true;
                        expecting = true;
                    }
                }
                "}" => {
                    brace -= 1;
                    if opened && brace == 0 {
                        break 'outer;
                    }
                }
                "(" => paren += 1,
                ")" => paren -= 1,
                "<" => angle += 1,
                ">" => angle -= 1,
                "," => {
                    if opened && brace == 1 && paren == 0 && angle == 0 {
                        expecting = true;
                    }
                }
                _ => {
                    if opened
                        && expecting
                        && brace == 1
                        && paren == 0
                        && angle == 0
                        && is_ident(tok)
                        && tok.chars().next().is_some_and(char::is_uppercase)
                    {
                        variants.push((tok.to_string(), idx + 1));
                        expecting = false;
                    }
                }
            }
            t += 1;
        }
    }
    variants
}

/// Rule 5: every variant of `enum_name` (defined in `enum_lines` of
/// `enum_path`) must be referenced as `enum_name::Variant` in
/// `target_lines`. Missing variants are reported at their definition
/// line so the diagnostic points at the code that grew.
pub fn check_contract(
    enum_path: &Path,
    enum_lines: &[LineInfo],
    enum_name: &str,
    target_path: &Path,
    target_lines: &[LineInfo],
) -> Vec<Diagnostic> {
    let variants = enum_variants(enum_lines, enum_name);
    let mut out = Vec::new();
    if variants.is_empty() {
        out.push(Diagnostic {
            file: enum_path.to_path_buf(),
            line: 1,
            rule: RULE_CONTRACT,
            msg: format!("could not locate `enum {enum_name}` (contract check is stale)"),
        });
        return out;
    }
    for (v, line) in variants {
        let needle = format!("{enum_name}::{v}");
        let referenced = target_lines.iter().any(|l| has_token(&l.code, &needle));
        if !referenced {
            out.push(Diagnostic {
                file: enum_path.to_path_buf(),
                line,
                rule: RULE_CONTRACT,
                msg: format!(
                    "variant `{needle}` has no reference in {}; extend the mapping/matrix there",
                    target_path.display()
                ),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------
// Rule 6: intentional-panic policy (fault plane)
// ---------------------------------------------------------------------

pub const FAULT_TAG: &str = "fault-ok:";

/// Rule 6: an *intentional* panic — a `panic!` or `panic_any` call in
/// determinism-critical library code — must justify itself with
/// `// fault-ok: <reason>`. These panics are the fault plane's kill
/// mechanism (a node-agent dies by panicking so the spawn wrapper's
/// failure path is the one and only death path); any such site must
/// say who catches it and how the failure is surfaced, so a stray
/// debugging `panic!` cannot masquerade as fault injection. Matched on
/// the token stream so `std::panic::catch_unwind` (the *catcher*) is
/// not confused with the macro.
pub fn rule_fault(ctx: &FileCtx<'_>) -> Vec<Diagnostic> {
    if !ctx.kind.det_critical || !ctx.kind.lib_code {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (idx, line) in ctx.lines.iter().enumerate() {
        if ctx.is_test_line(idx) {
            continue;
        }
        let toks = tokens(&line.code);
        let intentional = toks.iter().enumerate().any(|(i, t)| {
            t == "panic_any" || (t == "panic" && toks.get(i + 1).map(String::as_str) == Some("!"))
        });
        if intentional && !justified(ctx, idx, FAULT_TAG) {
            out.push(ctx.diag(
                idx,
                RULE_FAULT,
                "intentional panic in determinism-critical library code; state who catches it with `// fault-ok: <reason>`".to_string(),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------
// Rule 7: lock-order (the call-graph pass)
// ---------------------------------------------------------------------

pub const LOCK_TAG: &str = "lock-ok:";

/// One edge of the workspace lock-acquisition graph: `to` was acquired
/// (directly, or transitively through a call) while `from` was held.
/// Lock identity is (crate, receiver base name) — see DESIGN.md for
/// what that approximation can and cannot distinguish.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockEdge {
    pub krate: String,
    pub from: String,
    pub to: String,
    pub file: PathBuf,
    pub line: usize,
    /// The site carries a `// lock-ok: <reason>` justification; the
    /// edge is reported in the graph but excluded from cycle search.
    pub justified: bool,
}

/// The crate a workspace-relative path belongs to; fixture files (no
/// `crates/` prefix) each form their own single-file "crate".
fn crate_of(rel: &Path) -> String {
    let comps: Vec<String> = rel
        .iter()
        .map(|c| c.to_string_lossy().into_owned())
        .collect();
    if comps.len() >= 2 && comps[0] == "crates" {
        comps[1].clone()
    } else if comps.len() >= 2 {
        comps[0].clone()
    } else {
        rel.file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default()
    }
}

/// Rule 7: build the workspace lock-acquisition graph and report
/// (a) acquisition-order cycles — potential deadlock — and (b) locks
/// held across a blocking wait/receive, either directly or through a
/// call to a function that transitively blocks unbounded. Held-lock
/// sets propagate through intra-crate call edges resolved by callee
/// name; a call sharing the enclosing function's name is skipped as a
/// delegation wrapper (`Ingress::wait` → `backend.exec.wait(…)`), so
/// trait-object indirection cannot alias a function onto itself.
pub fn rule_lock_order(files: &[(PathBuf, FileGraph)]) -> (Vec<Diagnostic>, Vec<LockEdge>) {
    let mut crates: BTreeMap<String, Vec<(&Path, &FnInfo)>> = BTreeMap::new();
    for (path, g) in files {
        let k = crate_of(path);
        for f in &g.fns {
            crates.entry(k.clone()).or_default().push((path, f));
        }
    }
    let mut diags: BTreeSet<Diagnostic> = BTreeSet::new();
    let mut edges: Vec<LockEdge> = Vec::new();
    for (krate, fns) in &crates {
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, (_, f)) in fns.iter().enumerate() {
            by_name.entry(f.name.as_str()).or_default().push(i);
        }
        // Fixpoint: the set of locks each function (transitively)
        // acquires, and whether it (transitively) blocks unbounded.
        let mut acq: Vec<BTreeSet<String>> = fns
            .iter()
            .map(|(_, f)| f.acquires.iter().map(|a| a.lock.clone()).collect())
            .collect();
        let mut blocks: Vec<bool> = fns
            .iter()
            .map(|(_, f)| f.blocking.iter().any(|b| !b.bounded))
            .collect();
        loop {
            let mut changed = false;
            for (i, (_, f)) in fns.iter().enumerate() {
                for c in &f.calls {
                    if c.callee == f.name {
                        continue;
                    }
                    let Some(ts) = by_name.get(c.callee.as_str()) else {
                        continue;
                    };
                    for &ti in ts {
                        if ti == i {
                            continue;
                        }
                        if !blocks[i] && blocks[ti] {
                            blocks[i] = true;
                            changed = true;
                        }
                        let add: Vec<String> = acq[ti]
                            .iter()
                            .filter(|l| !acq[i].contains(*l))
                            .cloned()
                            .collect();
                        if !add.is_empty() {
                            acq[i].extend(add);
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        let mut crate_edges: Vec<LockEdge> = Vec::new();
        for (path, f) in fns {
            for a in &f.acquires {
                for h in &a.held {
                    crate_edges.push(LockEdge {
                        krate: krate.clone(),
                        from: h.clone(),
                        to: a.lock.clone(),
                        file: path.to_path_buf(),
                        line: a.line,
                        justified: a.lock_ok,
                    });
                }
            }
            for c in &f.calls {
                if c.held.is_empty() || c.callee == f.name {
                    continue;
                }
                let Some(ts) = by_name.get(c.callee.as_str()) else {
                    continue;
                };
                let mut reach: BTreeSet<&String> = BTreeSet::new();
                let mut callee_blocks = false;
                for &ti in ts {
                    reach.extend(acq[ti].iter());
                    callee_blocks |= blocks[ti];
                }
                for h in &c.held {
                    for l in &reach {
                        crate_edges.push(LockEdge {
                            krate: krate.clone(),
                            from: h.clone(),
                            to: (*l).clone(),
                            file: path.to_path_buf(),
                            line: c.line,
                            justified: c.lock_ok,
                        });
                    }
                }
                if callee_blocks && !c.lock_ok {
                    diags.insert(Diagnostic {
                        file: path.to_path_buf(),
                        line: c.line,
                        rule: RULE_LOCK_ORDER,
                        msg: format!(
                            "lock(s) `{}` held across call to `{}`, which blocks on an unbounded wait/recv; release before the call or justify with `// lock-ok: <reason>`",
                            c.held.join("`, `"),
                            c.callee
                        ),
                    });
                }
            }
            for b in &f.blocking {
                let held: Vec<&String> = b
                    .held
                    .iter()
                    .filter(|l| Some(*l) != b.exempt.as_ref())
                    .collect();
                if held.is_empty() || b.lock_ok {
                    continue;
                }
                let names: Vec<&str> = held.iter().map(|s| s.as_str()).collect();
                diags.insert(Diagnostic {
                    file: path.to_path_buf(),
                    line: b.line,
                    rule: RULE_LOCK_ORDER,
                    msg: format!(
                        "lock(s) `{}` held across blocking `{}()`; every contender stalls for the wait — release before blocking or justify with `// lock-ok: <reason>`",
                        names.join("`, `"),
                        b.method
                    ),
                });
            }
        }
        crate_edges.sort();
        crate_edges.dedup();
        // Cycle search over the unjustified edges: edge A→B closes a
        // cycle iff B reaches A. Reported at every participating site.
        let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for e in crate_edges.iter().filter(|e| !e.justified) {
            adj.entry(e.from.as_str())
                .or_default()
                .insert(e.to.as_str());
        }
        for e in crate_edges.iter().filter(|e| !e.justified) {
            if e.from == e.to {
                diags.insert(Diagnostic {
                    file: e.file.clone(),
                    line: e.line,
                    rule: RULE_LOCK_ORDER,
                    msg: format!(
                        "`{}` acquired while a guard of `{}` is already held (self-deadlock for a non-reentrant mutex); drop the guard first or justify with `// lock-ok: <reason>`",
                        e.to, e.from
                    ),
                });
            } else if let Some(path) = lock_path(&adj, &e.to, &e.from) {
                let cycle = std::iter::once(e.from.as_str())
                    .chain(path.iter().copied())
                    .chain(std::iter::once(e.from.as_str()))
                    .collect::<Vec<_>>()
                    .join(" -> ");
                diags.insert(Diagnostic {
                    file: e.file.clone(),
                    line: e.line,
                    rule: RULE_LOCK_ORDER,
                    msg: format!(
                        "acquiring `{}` while holding `{}` completes the lock-order cycle {cycle}; potential deadlock — fix the acquisition order or justify with `// lock-ok: <reason>`",
                        e.to, e.from
                    ),
                });
            }
        }
        edges.extend(crate_edges);
    }
    edges.sort();
    (diags.into_iter().collect(), edges)
}

/// BFS path `from` → `to` over the acquisition graph (nodes inclusive,
/// starting at `from`), or `None` when unreachable.
fn lock_path<'g>(
    adj: &BTreeMap<&'g str, BTreeSet<&'g str>>,
    from: &str,
    to: &str,
) -> Option<Vec<&'g str>> {
    let (&start, _) = adj.get_key_value(from)?;
    let mut parent: BTreeMap<&str, &str> = BTreeMap::new();
    let mut queue = std::collections::VecDeque::from([start]);
    parent.insert(start, start);
    while let Some(n) = queue.pop_front() {
        if n == to {
            let mut path = vec![n];
            let mut cur = n;
            while parent[cur] != cur {
                cur = parent[cur];
                path.push(cur);
            }
            path.reverse();
            return Some(path);
        }
        for &next in adj.get(n).into_iter().flatten() {
            if !parent.contains_key(next) {
                parent.insert(next, n);
                queue.push_back(next);
            }
        }
    }
    None
}

// ---------------------------------------------------------------------
// Rule 8: blocking discipline on the control plane
// ---------------------------------------------------------------------

pub const BLOCK_TAG: &str = "block-ok:";

/// Rule 8: an unbounded `recv()` in control-plane code wedges its
/// thread forever when the peer dies — exactly the hang the cluster's
/// fault plane exists to rule out. Every such site must use a bounded
/// variant (`recv_timeout`, `recv_backoff`, `try_recv*`) or carry
/// `// block-ok: <reason>` naming the mechanism that bounds the wait.
pub fn rule_blocking(path: &Path, graph: &FileGraph, kind: FileKind) -> Vec<Diagnostic> {
    if !kind.control_plane || kind.test_file {
        return Vec::new();
    }
    let mut out = Vec::new();
    for f in &graph.fns {
        for b in &f.blocking {
            if b.method == "recv" && !b.block_ok {
                out.push(Diagnostic {
                    file: path.to_path_buf(),
                    line: b.line,
                    rule: RULE_BLOCKING,
                    msg: format!(
                        "unbounded `recv()` in control-plane fn `{}`; a lost peer wedges this thread forever — use `recv_timeout`/`recv_backoff`/`try_recv` or justify with `// block-ok: <reason>` naming the bounding mechanism",
                        f.name
                    ),
                });
            }
        }
    }
    out
}
