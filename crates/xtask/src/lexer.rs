//! A minimal line-oriented Rust lexer for the audit pass.
//!
//! The audit rules are substring checks, so false positives from string
//! literals, comments, and `#[cfg(test)]` code would make the pass
//! useless. This module splits a source file into per-line views where
//! string/char-literal contents and comment bodies are blanked to spaces
//! (preserving byte columns), comment text is captured separately (for
//! `audit:allow` annotations), and lines inside `#[cfg(test)]` items are
//! marked so rules can skip them. It is not a full lexer — raw strings,
//! nested block comments, and lifetimes-vs-char-literals are handled, but
//! exotic macros that rewrite token trees are out of scope.

/// One source line, pre-processed for rule matching.
#[derive(Debug, Default)]
pub struct Line {
    /// Source text with string/char contents and comments blanked to
    /// spaces. Byte columns match the original line.
    pub code: String,
    /// Concatenated comment text found on this line (`//` and `/* */`).
    pub comment: String,
    /// True when the line sits inside a `#[cfg(test)]`-gated item.
    pub is_test: bool,
}

enum State {
    Normal,
    /// Inside a string literal; `raw_hashes` is `Some(n)` for `r##"…"##`.
    Str {
        raw_hashes: Option<usize>,
        escape: bool,
    },
    LineComment,
    BlockComment {
        depth: usize,
    },
}

/// Split `src` into audit-ready [`Line`]s.
pub fn lex(src: &str) -> Vec<Line> {
    let chars: Vec<char> = src.chars().collect();
    let mut lines: Vec<Line> = Vec::new();
    let mut code = String::new();
    let mut comment = String::new();
    let mut state = State::Normal;
    let mut i = 0;

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if matches!(state, State::LineComment) {
                state = State::Normal;
            }
            lines.push(Line {
                code: std::mem::take(&mut code),
                comment: std::mem::take(&mut comment),
                is_test: false,
            });
            i += 1;
            continue;
        }
        match state {
            State::Normal => {
                if c == '/' && chars.get(i + 1) == Some(&'/') {
                    state = State::LineComment;
                    i += 2;
                    continue;
                }
                if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::BlockComment { depth: 1 };
                    code.push_str("  ");
                    i += 2;
                    continue;
                }
                if c == '"' {
                    state = State::Str {
                        raw_hashes: None,
                        escape: false,
                    };
                    code.push('"');
                    i += 1;
                    continue;
                }
                if c == 'r' {
                    // Possible raw string r"…" / r#"…"#; `br` arrives here
                    // too because the `b` was consumed as plain code.
                    let mut j = i + 1;
                    let mut hashes = 0;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if chars.get(j) == Some(&'"') {
                        for _ in i..=j {
                            code.push(' ');
                        }
                        state = State::Str {
                            raw_hashes: Some(hashes),
                            escape: false,
                        };
                        i = j + 1;
                        continue;
                    }
                }
                if c == '\'' {
                    if chars.get(i + 1) == Some(&'\\') {
                        // Escaped char literal: blank through the closing quote.
                        code.push('\'');
                        i += 1;
                        let mut esc = false;
                        while i < chars.len() && chars[i] != '\n' {
                            let d = chars[i];
                            i += 1;
                            if esc {
                                esc = false;
                                code.push(' ');
                            } else if d == '\\' {
                                esc = true;
                                code.push(' ');
                            } else if d == '\'' {
                                code.push('\'');
                                break;
                            } else {
                                code.push(' ');
                            }
                        }
                        continue;
                    }
                    if chars.get(i + 2) == Some(&'\'') && chars.get(i + 1) != Some(&'\'') {
                        // Simple char literal 'x'.
                        code.push('\'');
                        code.push(' ');
                        code.push('\'');
                        i += 3;
                        continue;
                    }
                    // Otherwise a lifetime: fall through as plain code.
                }
                code.push(c);
                i += 1;
            }
            State::Str {
                raw_hashes: None,
                escape,
            } => {
                i += 1;
                if escape {
                    state = State::Str {
                        raw_hashes: None,
                        escape: false,
                    };
                    code.push(' ');
                } else if c == '\\' {
                    state = State::Str {
                        raw_hashes: None,
                        escape: true,
                    };
                    code.push(' ');
                } else if c == '"' {
                    state = State::Normal;
                    code.push('"');
                } else {
                    code.push(' ');
                }
            }
            State::Str {
                raw_hashes: Some(n),
                ..
            } => {
                if c == '"' && (0..n).all(|k| chars.get(i + 1 + k) == Some(&'#')) {
                    for _ in 0..=n {
                        code.push(' ');
                    }
                    i += 1 + n;
                    state = State::Normal;
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
            State::LineComment => {
                comment.push(c);
                i += 1;
            }
            State::BlockComment { depth } => {
                if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::BlockComment { depth: depth + 1 };
                    i += 2;
                } else if c == '*' && chars.get(i + 1) == Some(&'/') {
                    state = if depth == 1 {
                        State::Normal
                    } else {
                        State::BlockComment { depth: depth - 1 }
                    };
                    i += 2;
                } else {
                    comment.push(c);
                    i += 1;
                }
            }
        }
    }
    if !code.is_empty() || !comment.is_empty() {
        lines.push(Line {
            code,
            comment,
            is_test: false,
        });
    }
    mark_tests(&mut lines);
    lines
}

/// Byte offset of a test-gating `#[cfg(…)]` attribute on this line, if any.
/// Matches `#[cfg(test)]` and compositions like `#[cfg(all(test,
/// not(loom)))]`, but not `#[cfg(not(test))]` or `#[cfg_attr(test, …)]`.
fn find_test_attr(code: &str) -> Option<usize> {
    let p = code.find("#[cfg(")?;
    let close = code[p..].find(']')? + p;
    let attr = &code[p..close];
    if attr.contains("test") && !attr.contains("not(test") {
        Some(p)
    } else {
        None
    }
}

/// Mark every line belonging to a `#[cfg(test)]`-gated item: from the
/// attribute through the matching close brace of the item's body (or
/// through the terminating `;` for body-less items).
fn mark_tests(lines: &mut [Line]) {
    let mut l = 0;
    while l < lines.len() {
        let Some(pos) = find_test_attr(&lines[l].code) else {
            l += 1;
            continue;
        };
        let mut depth = 0i64;
        let mut entered = false;
        let mut end = lines.len() - 1;
        'scan: for (li, line) in lines.iter().enumerate().skip(l) {
            let start = if li == l { pos } else { 0 };
            for ch in line.code[start..].chars() {
                match ch {
                    '{' => {
                        depth += 1;
                        entered = true;
                    }
                    '}' => {
                        depth -= 1;
                        if entered && depth == 0 {
                            end = li;
                            break 'scan;
                        }
                    }
                    ';' if !entered && depth == 0 => {
                        end = li;
                        break 'scan;
                    }
                    _ => {}
                }
            }
        }
        for line in &mut lines[l..=end] {
            line.is_test = true;
        }
        l = end + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked() {
        let lines = lex("let x = \"Instant::now\"; // SystemTime\nlet y = 1;\n");
        assert!(!lines[0].code.contains("Instant::now"));
        assert!(!lines[0].code.contains("SystemTime"));
        assert!(lines[0].comment.contains("SystemTime"));
        assert_eq!(lines[1].code, "let y = 1;");
    }

    #[test]
    fn columns_survive_blanking() {
        let lines = lex("call(\"ab\", Instant::now());\n");
        assert_eq!(
            lines[0].code.find("Instant::now"),
            "call(\"ab\", ".len().into()
        );
    }

    #[test]
    fn block_comments_span_lines_and_nest() {
        let lines = lex("a /* one /* two */ still */ b\n/* open\nInstant::now\n*/ c\n");
        assert!(lines[0].code.contains('a') && lines[0].code.contains('b'));
        assert!(!lines[2].code.contains("Instant::now"));
        assert!(lines[2].comment.contains("Instant::now"));
        assert!(lines[3].code.contains('c'));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let lines = lex("fn f<'a>(x: &'a str) { let q = '\"'; let n = '\\n'; }\n");
        assert!(lines[0].code.contains("fn f<'a>(x: &'a str)"));
        assert!(!lines[0].code.contains('\\'));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let lines = lex("let r = r#\"has \"quotes\" and HashMap\"#; HashSet\n");
        assert!(!lines[0].code.contains("HashMap"));
        assert!(lines[0].code.contains("HashSet"));
    }

    #[test]
    fn cfg_test_blocks_are_marked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn after() {}\n";
        let lines = lex(src);
        let flags: Vec<bool> = lines.iter().map(|l| l.is_test).collect();
        assert_eq!(flags, [false, true, true, true, true, false]);
    }

    #[test]
    fn cfg_all_test_is_marked_but_not_test_is_not() {
        let lines =
            lex("#[cfg(all(test, not(loom)))]\nmod tests {\n}\n#[cfg(not(test))]\nfn live() {}\n");
        assert!(lines[0].is_test && lines[1].is_test && lines[2].is_test);
        assert!(!lines[3].is_test && !lines[4].is_test);
    }

    #[test]
    fn bodyless_test_item_marks_through_semicolon() {
        let lines = lex("#[cfg(test)]\nmod tests;\nfn live() {}\n");
        assert!(lines[0].is_test && lines[1].is_test);
        assert!(!lines[2].is_test);
    }
}
