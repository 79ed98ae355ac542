//! A small comment/string-aware lexer for Rust source.
//!
//! The rule engine never wants a full AST — it wants to answer "does
//! this *code* (not a comment, not a string literal) mention token X on
//! line N, and what does the *comment* on line N say?". So the lexer
//! produces, per line, two parallel views:
//!
//! * `code` — the source line with comment text and string/char literal
//!   *contents* replaced by spaces (delimiters kept). Pattern matches
//!   against this view cannot false-positive on prose or log messages.
//! * `comment` — the concatenated comment text of the line (doc and
//!   plain, line and block), which is where justification annotations
//!   (`det-ok:`, `relaxed-ok:`, `lock-ok:`, …) live.
//!
//! The state machine understands nested block comments, string escapes,
//! raw strings (`r"…"`, `r#"…"#`, byte variants) and the char-literal /
//! lifetime ambiguity (`'a'` vs `'static`). That is everything the rule
//! set needs; it is deliberately not a general tokenizer.

/// One source line, split into its code view and its comment view.
#[derive(Debug, Clone, Default)]
pub struct LineInfo {
    /// Code with comments and literal contents masked to spaces.
    pub code: String,
    /// Comment text (both `//` and `/* */`) appearing on this line.
    pub comment: String,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    Code,
    LineComment,
    /// Nested block comments: Rust block comments nest, so we track depth.
    BlockComment(u32),
    Str,
    /// Raw string with `n` leading hashes (`r##"…"##` has `n == 2`).
    RawStr(u32),
}

/// Split `source` into per-line code/comment views.
pub fn mask(source: &str) -> Vec<LineInfo> {
    let chars: Vec<char> = source.chars().collect();
    let mut lines = Vec::new();
    let mut cur = LineInfo::default();
    let mut state = State::Code;
    let mut i = 0;

    // Helper: close out a line on '\n'.
    macro_rules! newline {
        () => {{
            lines.push(std::mem::take(&mut cur));
            if state == State::LineComment {
                state = State::Code;
            }
        }};
    }

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            newline!();
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                if c == '/' && chars.get(i + 1) == Some(&'/') {
                    state = State::LineComment;
                    cur.code.push_str("  ");
                    i += 2;
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::BlockComment(1);
                    cur.code.push_str("  ");
                    i += 2;
                } else if c == '"' {
                    state = State::Str;
                    cur.code.push('"');
                    i += 1;
                } else if is_raw_str_start(&chars, i) {
                    // Consume the prefix (`r`, `br`, hashes) up to and
                    // including the opening quote.
                    let mut hashes = 0;
                    while chars[i] != '"' {
                        if chars[i] == '#' {
                            hashes += 1;
                        }
                        cur.code.push(chars[i]);
                        i += 1;
                    }
                    cur.code.push('"');
                    i += 1;
                    state = State::RawStr(hashes);
                } else if c == '\'' && is_char_literal(&chars, i) {
                    // Mask the char literal contents, keep the quotes.
                    cur.code.push('\'');
                    i += 1;
                    while i < chars.len() && chars[i] != '\'' && chars[i] != '\n' {
                        if chars[i] == '\\' {
                            cur.code.push(' ');
                            i += 1;
                            if i < chars.len() && chars[i] != '\n' {
                                cur.code.push(' ');
                                i += 1;
                            }
                        } else {
                            cur.code.push(' ');
                            i += 1;
                        }
                    }
                    if i < chars.len() && chars[i] == '\'' {
                        cur.code.push('\'');
                        i += 1;
                    }
                } else {
                    cur.code.push(c);
                    i += 1;
                }
            }
            State::LineComment => {
                cur.comment.push(c);
                cur.code.push(' ');
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == '*' && chars.get(i + 1) == Some(&'/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    cur.code.push_str("  ");
                    i += 2;
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::BlockComment(depth + 1);
                    cur.code.push_str("  ");
                    i += 2;
                } else {
                    cur.comment.push(c);
                    cur.code.push(' ');
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    if chars.get(i + 1) == Some(&'\n') {
                        // String line-continuation: keep line accounting.
                        newline!();
                        i += 2;
                    } else {
                        cur.code.push_str("  ");
                        i += 2; // escape sequence: skip the escaped char too
                    }
                } else if c == '"' {
                    cur.code.push('"');
                    state = State::Code;
                    i += 1;
                } else {
                    cur.code.push(' ');
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' && raw_str_closes(&chars, i, hashes) {
                    cur.code.push('"');
                    for _ in 0..hashes {
                        cur.code.push('#');
                    }
                    i += 1 + hashes as usize;
                    state = State::Code;
                } else {
                    cur.code.push(' ');
                    i += 1;
                }
            }
        }
    }
    // Final line without trailing newline.
    if !cur.code.is_empty() || !cur.comment.is_empty() {
        lines.push(cur);
    }
    lines
}

/// Is `chars[i]` the start of a raw-string prefix (`r"`, `r#"`, `br"`)?
fn is_raw_str_start(chars: &[char], i: usize) -> bool {
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return false;
    }
    // An identifier ending in `r` (e.g. `var"`) must not match: the
    // char before `i` must not be part of an identifier.
    if i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_') {
        return false;
    }
    j += 1;
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

/// Does the raw string with `hashes` hashes close at the `"` at `i`?
fn raw_str_closes(chars: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'))
}

/// Disambiguate `'a'` (char literal) from `'static` (lifetime): a char
/// literal is `'` + one (possibly escaped) char + `'`.
fn is_char_literal(chars: &[char], i: usize) -> bool {
    match chars.get(i + 1) {
        Some('\\') => true,
        Some(_) => chars.get(i + 2) == Some(&'\''),
        None => false,
    }
}

/// Does `code` contain `token` as a whole word (not an identifier
/// substring)? `token` itself may contain `::` path separators.
pub fn has_token(code: &str, token: &str) -> bool {
    find_token(code, token).is_some()
}

/// Byte offset of the first whole-word occurrence of `token` in `code`.
pub fn find_token(code: &str, token: &str) -> Option<usize> {
    let bytes = code.as_bytes();
    let mut start = 0;
    while let Some(pos) = code[start..].find(token) {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let end = at + token.len();
        let after_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            return Some(at);
        }
        start = at + 1;
    }
    None
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Is the token (from [`tokens`]) an identifier or keyword?
pub fn is_ident(t: &str) -> bool {
    t.chars()
        .next()
        .is_some_and(|c| c.is_alphabetic() || c == '_')
}

/// Tokenize a masked code line into identifier and punctuation tokens
/// (string/char delimiters come through as punctuation; contents are
/// already spaces). Multi-char operators are not glued except `::`,
/// which the rules need for path matching.
pub fn tokens(code: &str) -> Vec<String> {
    let chars: Vec<char> = code.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c.is_whitespace() {
            i += 1;
        } else if c.is_alphanumeric() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            out.push(chars[start..i].iter().collect());
        } else if c == ':' && chars.get(i + 1) == Some(&':') {
            out.push("::".to_string());
            i += 2;
        } else {
            out.push(c.to_string());
            i += 1;
        }
    }
    out
}

/// Flatten the whole file into one token stream, each token tagged
/// with its 0-based line index. This is the substrate the graph layer
/// ([`crate::parse`]) works on: item boundaries, call sites and lock
/// acquisitions all span lines, so per-line matching cannot see them.
pub fn token_stream(lines: &[LineInfo]) -> Vec<(usize, String)> {
    lines
        .iter()
        .enumerate()
        .flat_map(|(i, l)| tokens(&l.code).into_iter().map(move |t| (i, t)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_comments_are_split_out() {
        let l = mask("let x = 1; // Instant::now would be bad\n");
        assert!(!has_token(&l[0].code, "Instant::now"));
        assert!(l[0].comment.contains("Instant::now"));
        assert!(has_token(&l[0].code, "let"));
    }

    #[test]
    fn string_contents_are_masked() {
        let l = mask("let s = \"Instant::now inside\"; s.unwrap()\n");
        assert!(!l[0].code.contains("Instant::now"));
        assert!(l[0].code.contains(".unwrap()"));
    }

    #[test]
    fn nested_block_comments_and_multiline() {
        let l = mask("a /* one /* two */ still */ b\n/* open\nInstant::now\n*/ c\n");
        assert!(has_token(&l[0].code, "a") && has_token(&l[0].code, "b"));
        assert!(!l[2].code.contains("Instant::now"));
        assert!(l[2].comment.contains("Instant::now"));
        assert!(has_token(&l[3].code, "c"));
    }

    #[test]
    fn raw_strings_and_hashes() {
        let l = mask("let p = r#\"thread_rng() \"quoted\" \"#; x()\n");
        assert!(!l[0].code.contains("thread_rng"));
        assert!(l[0].code.contains("x()"));
    }

    #[test]
    fn char_literal_vs_lifetime() {
        let l = mask("fn f<'a>(x: &'a str) { let q = 'q'; let e = '\\''; }\n");
        assert!(l[0].code.contains("'a"), "lifetime survives masking");
        assert!(!l[0].code.contains('q') || !l[0].code.contains("'q'"));
    }

    #[test]
    fn escaped_quote_does_not_terminate_string() {
        let l = mask("let s = \"a\\\"b.unwrap()\"; t()\n");
        assert!(!l[0].code.contains(".unwrap()"));
        assert!(l[0].code.contains("t()"));
    }

    #[test]
    fn token_boundaries_respected() {
        assert!(has_token("x.unwrap()", "unwrap"));
        assert!(!has_token("x.unwrap_or(0)", "unwrap"));
        assert!(has_token("Ordering::Relaxed", "Ordering::Relaxed"));
        assert!(!has_token("MyOrdering::Relaxedish", "Ordering::Relaxed"));
    }
}
