//! The function-graph layer of `das-lint`.
//!
//! Sits between the masking lexer ([`crate::lexer`]) and the
//! cross-function rules ([`crate::rules`]): from a file's masked token
//! stream it extracts function boundaries, an intra-crate call graph
//! (call sites by callee name), and the per-function concurrency
//! events the lock-order and blocking rules reason about —
//!
//! * **acquisitions** — `.lock()` / `.read()` / `.write()` method
//!   calls, classified as *held guards* (`let g = m.lock();`, live to
//!   the end of the enclosing brace block or an explicit `drop(g)`) or
//!   *temporaries* (`m.lock().push(x)`, released within the statement);
//! * **blocking sites** — `Condvar`-style waits (`.wait(&mut g)`,
//!   `.wait_for`, `.wait_while`), executor-style waits (`.wait(claim)`,
//!   `.wait()`), and receives (`.recv`, `.recv_timeout`,
//!   `.recv_backoff`) — each recorded with the set of locks held at
//!   the site;
//! * **calls** — `ident(`-shaped call sites with the held-lock set,
//!   resolved later (by name, within one crate) so held sets propagate
//!   through call edges.
//!
//! This is a heuristic model, not an alias analysis — see DESIGN.md
//! § Static analysis for the soundness caveats (name-based lock
//! identity, closures attributed to the enclosing function, `if let`
//! guard bindings treated as temporaries).

use crate::lexer::{is_ident, token_stream};
use crate::rules::{FileCtx, BLOCK_TAG, LOCK_TAG};

/// Methods that acquire a `Mutex`/`RwLock` guard.
const LOCK_METHODS: &[&str] = &["lock", "read", "write"];
/// Methods that block the calling thread until signalled.
const WAIT_METHODS: &[&str] = &["wait", "wait_for", "wait_while"];
/// Methods that block the calling thread on a message arrival.
const RECV_METHODS: &[&str] = &["recv", "recv_timeout", "recv_backoff"];
/// The blocking methods that bound their own wait.
const BOUNDED_METHODS: &[&str] = &["wait_for", "recv_timeout", "recv_backoff"];

/// Tokens that look like calls but are control flow or item syntax.
const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "fn", "let", "mut", "move", "in",
    "as", "ref", "break", "continue", "where", "impl", "pub", "use", "mod", "struct", "enum",
    "trait", "type", "const", "static", "crate", "self", "Self", "super", "unsafe", "dyn", "async",
    "await",
];

/// One lock acquisition inside a function body.
#[derive(Debug, Clone)]
pub struct AcqEvent {
    /// Lock identity: the receiver's base name (`self.backend.lock()`
    /// → `backend`, `partials[ci].lock()` → `partials`).
    pub lock: String,
    /// 1-based source line of the acquiring method token.
    pub line: usize,
    /// Locks already held (by live guards) when this one is acquired.
    pub held: Vec<String>,
    /// The site carries a `// lock-ok: <reason>` justification.
    pub lock_ok: bool,
}

/// One blocking call inside a function body.
#[derive(Debug, Clone)]
pub struct BlockEvent {
    /// The blocking method name (`wait`, `recv`, `recv_backoff`, …).
    pub method: String,
    /// 1-based source line of the method token.
    pub line: usize,
    /// The method bounds its own wait (`wait_for`, `recv_timeout`, …).
    pub bounded: bool,
    /// Locks held (by live guards) at the site.
    pub held: Vec<String>,
    /// Condvar-style `wait(&mut g)`: the lock whose guard is handed to
    /// the wait (released while parked, so exempt from "held across").
    pub exempt: Option<String>,
    pub lock_ok: bool,
    /// The site carries a `// block-ok: <reason>` justification.
    pub block_ok: bool,
}

/// One `callee(...)` call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallEvent {
    pub callee: String,
    /// 1-based source line of the callee token.
    pub line: usize,
    /// Locks held (by live guards) at the call.
    pub held: Vec<String>,
    pub lock_ok: bool,
}

/// One function: its name, definition line and concurrency events.
#[derive(Debug, Clone)]
pub struct FnInfo {
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    pub acquires: Vec<AcqEvent>,
    pub blocking: Vec<BlockEvent>,
    pub calls: Vec<CallEvent>,
}

/// Everything the graph layer extracts from one file. Functions inside
/// `#[cfg(test)]` regions (or test files) are excluded.
#[derive(Debug, Clone, Default)]
pub struct FileGraph {
    pub fns: Vec<FnInfo>,
}

/// A live guard binding during body simulation.
struct Guard {
    var: String,
    lock: String,
    /// Brace depth at the binding; the guard dies when the body walk
    /// leaves this depth.
    depth: i64,
}

/// Extract the function graph of one file.
pub fn file_graph(ctx: &FileCtx<'_>) -> FileGraph {
    let toks = token_stream(ctx.lines);
    let mut fns = Vec::new();
    for (name, fn_line, body) in fn_bodies(&toks) {
        if ctx.is_test_line(fn_line) {
            continue;
        }
        fns.push(extract_fn(ctx, name, fn_line, body));
    }
    FileGraph { fns }
}

/// One `fn name … { body }` item found in a token stream: the name,
/// the 0-based line of the `fn` token, and the body token slice
/// (including the outer braces).
type FnBody<'t> = (String, usize, &'t [(usize, String)]);

/// Scan a token stream for `fn name … { body }` items. Nested items
/// are absorbed into the enclosing function — close enough for a
/// call/lock survey.
fn fn_bodies(toks: &[(usize, String)]) -> Vec<FnBody<'_>> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].1 != "fn" {
            i += 1;
            continue;
        }
        // `fn` pointer types (`fn(usize) -> bool`) have no name token.
        let Some(name) = toks
            .get(i + 1)
            .map(|t| t.1.as_str())
            .filter(|t| is_ident(t))
        else {
            i += 1;
            continue;
        };
        let fn_line = toks[i].0;
        // Find the body `{` at bracket depth 0; a `;` first means a
        // bodyless declaration. Return types never contain braces, so
        // paren/bracket depth is enough.
        let mut j = i + 2;
        let mut depth = 0i64;
        let mut body_start = None;
        while j < toks.len() {
            match toks[j].1.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => {
                    body_start = Some(j);
                    break;
                }
                ";" if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let Some(bs) = body_start else {
            i = j + 1;
            continue;
        };
        let mut brace = 0i64;
        let mut k = bs;
        while k < toks.len() {
            match toks[k].1.as_str() {
                "{" => brace += 1,
                "}" => brace -= 1,
                _ => {}
            }
            if brace == 0 {
                break;
            }
            k += 1;
        }
        let end = k.min(toks.len() - 1);
        out.push((name.to_string(), fn_line, &toks[bs..=end]));
        i = end + 1;
    }
    out
}

/// Walk one function body, simulating guard lifetimes, and record the
/// acquisition / blocking / call events.
fn extract_fn(ctx: &FileCtx<'_>, name: String, fn_line: usize, body: &[(usize, String)]) -> FnInfo {
    let mut info = FnInfo {
        name,
        line: fn_line + 1,
        acquires: Vec::new(),
        blocking: Vec::new(),
        calls: Vec::new(),
    };
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0i64;
    let mut stmt_start = 0usize;
    let mut t = 0;
    while t < body.len() {
        let tok = body[t].1.as_str();
        let line = body[t].0;
        match tok {
            "{" => {
                depth += 1;
                stmt_start = t + 1;
            }
            "}" => {
                depth -= 1;
                guards.retain(|g| g.depth <= depth);
                stmt_start = t + 1;
            }
            ";" => stmt_start = t + 1,
            _ => {
                let prev = if t > 0 { body[t - 1].1.as_str() } else { "" };
                let next = body.get(t + 1).map(|x| x.1.as_str()).unwrap_or("");
                if next != "(" || !is_ident(tok) {
                    t += 1;
                    continue;
                }
                if prev == "." && LOCK_METHODS.contains(&tok) {
                    let lock = receiver_base(body, t - 1);
                    let held: Vec<String> = guards.iter().map(|g| g.lock.clone()).collect();
                    info.acquires.push(AcqEvent {
                        lock: lock.clone(),
                        line: line + 1,
                        held,
                        lock_ok: ctx.justified_line(line, LOCK_TAG),
                    });
                    if let Some(var) = guard_binding(body, stmt_start, t + 1) {
                        guards.retain(|g| g.var != var);
                        guards.push(Guard { var, lock, depth });
                    }
                } else if prev == "."
                    && (WAIT_METHODS.contains(&tok) || RECV_METHODS.contains(&tok))
                {
                    let exempt = waited_guard(body, t + 1)
                        .and_then(|v| guards.iter().find(|g| g.var == v))
                        .map(|g| g.lock.clone());
                    info.blocking.push(BlockEvent {
                        method: tok.to_string(),
                        line: line + 1,
                        bounded: BOUNDED_METHODS.contains(&tok),
                        held: guards.iter().map(|g| g.lock.clone()).collect(),
                        exempt,
                        lock_ok: ctx.justified_line(line, LOCK_TAG),
                        block_ok: ctx.justified_line(line, BLOCK_TAG),
                    });
                } else if tok == "drop" {
                    // `drop(g)` releases the guard early.
                    if let Some(v) = body.get(t + 2).map(|x| x.1.as_str()) {
                        if body.get(t + 3).map(|x| x.1.as_str()) == Some(")") {
                            guards.retain(|g| g.var != v);
                        }
                    }
                } else if !KEYWORDS.contains(&tok)
                    && !tok.chars().next().is_some_and(char::is_numeric)
                {
                    // Only call shapes that name-based intra-crate
                    // resolution can trust: `self.foo(…)`,
                    // `Self::foo(…)` and bare `foo(…)`. A method on any
                    // other receiver (`guard.push(…)`, `shards.len()`,
                    // `backend.exec.wait(…)`) is a call on *another
                    // type* — resolving it by bare name would alias
                    // std container methods onto local functions.
                    let resolvable = if prev == "." {
                        receiver_base(body, t - 1) == "self"
                    } else if prev == "::" {
                        t >= 2 && body[t - 2].1 == "Self"
                    } else {
                        true
                    };
                    if resolvable {
                        info.calls.push(CallEvent {
                            callee: tok.to_string(),
                            line: line + 1,
                            held: guards.iter().map(|g| g.lock.clone()).collect(),
                            lock_ok: ctx.justified_line(line, LOCK_TAG),
                        });
                    }
                }
            }
        }
        t += 1;
    }
    info
}

/// The base name of a method receiver: `dot_idx` points at the `.`
/// before the method token; walk left, skipping one `[...]` / `(...)`
/// group, to the nearest identifier. `self.nodes[node].errs.lock()` →
/// `errs`; `partials[ci].lock()` → `partials`.
fn receiver_base(body: &[(usize, String)], dot_idx: usize) -> String {
    let mut k = dot_idx;
    while k > 0 {
        k -= 1;
        match body[k].1.as_str() {
            close @ ("]" | ")") => {
                let open = if close == "]" { "[" } else { "(" };
                let mut d = 0i64;
                loop {
                    let t = body[k].1.as_str();
                    if t == close {
                        d += 1;
                    } else if t == open {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    if k == 0 {
                        break;
                    }
                    k -= 1;
                }
                // Continue walking left from before the open bracket.
            }
            t if is_ident(t) => return t.to_string(),
            _ => break,
        }
    }
    "<expr>".to_string()
}

/// If the statement starting at `stmt_start` is `let [mut] var = …`
/// and the acquisition whose argument list opens at `open_idx` is the
/// statement's whole right-hand side (modulo a trailing `.expect(…)`
/// or `?`), the binding is a live guard named `var`. Anything else —
/// further method calls on the guard, `if let` scrutinees, struct
/// literals — is treated as a temporary released within the statement.
/// `let _ = …` drops immediately and is likewise a temporary.
fn guard_binding(body: &[(usize, String)], stmt_start: usize, open_idx: usize) -> Option<String> {
    let s = &body[stmt_start..];
    let mut k = 0;
    if s.first()?.1 != "let" {
        return None;
    }
    k += 1;
    if s.get(k)?.1 == "mut" {
        k += 1;
    }
    let var = s.get(k)?.1.clone();
    if !is_ident(&var) || var == "_" {
        return None;
    }
    if s.get(k + 1)?.1 != "=" {
        return None;
    }
    // Match the acquisition's `(...)`, then allow `.expect(...)` and
    // `?` before requiring the statement to end.
    let mut j = skip_group(body, open_idx)? + 1;
    loop {
        match body.get(j).map(|x| x.1.as_str()) {
            Some("?") => j += 1,
            Some(".") if body.get(j + 1).map(|x| x.1.as_str()) == Some("expect") => {
                j = skip_group(body, j + 2)? + 1;
            }
            Some(";") => return Some(var),
            _ => return None,
        }
    }
}

/// Given `open_idx` at a `(`, return the index of its matching `)`.
fn skip_group(body: &[(usize, String)], open_idx: usize) -> Option<usize> {
    if body.get(open_idx)?.1 != "(" {
        return None;
    }
    let mut d = 0i64;
    let mut j = open_idx;
    while j < body.len() {
        match body[j].1.as_str() {
            "(" => d += 1,
            ")" => {
                d -= 1;
                if d == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Condvar-style wait detection: `open_idx` at the `(` of a wait call;
/// a first argument of `&mut g` names the guard handed to the wait.
fn waited_guard(body: &[(usize, String)], open_idx: usize) -> Option<String> {
    if body.get(open_idx)?.1 != "(" || body.get(open_idx + 1)?.1 != "&" {
        return None;
    }
    let mut k = open_idx + 2;
    if body.get(k)?.1 == "mut" {
        k += 1;
    }
    let var = &body.get(k)?.1;
    is_ident(var).then(|| var.to_string())
}
