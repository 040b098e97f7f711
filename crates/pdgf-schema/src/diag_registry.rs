//! The diagnostic registry stays in step with the codes the analyzer
//! and the abstract interpreter emit.
//!
//! `analyze.rs` and `absint.rs` each list their stable codes in a
//! module-doc table (`` | `E001` | summary | ``). Read as one namespace,
//! every code a non-test line emits (`"E001"`) must have a row, and every
//! row must have an emission site, so the tables cannot drift from what
//! `pdgf validate` and `pdgf explain` report. Test code, comments and
//! backticked prose outside a table row count for neither side.

use std::collections::BTreeMap;

/// Every `[EW]NNN` code in `line` that sits between two `delim` bytes.
fn codes(line: &str, delim: u8) -> impl Iterator<Item = &str> {
    line.as_bytes()
        .windows(6)
        .enumerate()
        .filter(move |(_, w)| {
            w[0] == delim
                && matches!(w[1], b'E' | b'W')
                && w[2..5].iter().all(u8::is_ascii_digit)
                && w[5] == delim
        })
        .map(move |(i, _)| &line[i + 1..i + 5])
}

/// The registry drift of `(file, source)` pairs: one message per code
/// emitted without a row or documented without an emission, at the
/// code's first site. A file's test module closes it (clippy's
/// `items_after_test_module` keeps it last), so scanning stops there.
fn drift(sources: &[(&str, &str)]) -> Vec<String> {
    let mut emitted = BTreeMap::new();
    let mut documented = BTreeMap::new();
    for (file, src) in sources {
        for (n, line) in src.lines().enumerate() {
            let code_line = line.trim_start();
            if code_line.starts_with("#[cfg(test)]") || code_line.starts_with("#[cfg(all(test") {
                break;
            }
            let at = || format!("{file}:{}", n + 1);
            if code_line.starts_with("//!") || code_line.starts_with("///") {
                for code in codes(line, b'`') {
                    if line.contains(&format!("| `{code}` |")) {
                        documented.entry(code).or_insert_with(at);
                    }
                }
            } else if !code_line.starts_with("//") {
                for code in codes(line, b'"') {
                    emitted.entry(code).or_insert_with(at);
                }
            }
        }
    }
    let unlisted = emitted
        .iter()
        .filter(|(code, _)| !documented.contains_key(*code))
        .map(|(code, at)| format!("{at}: `{code}` is emitted but has no registry row"));
    let stale = documented
        .iter()
        .filter(|(code, _)| !emitted.contains_key(*code))
        .map(|(code, at)| format!("{at}: registry row for `{code}` has no emission site"));
    unlisted.chain(stale).collect()
}

#[test]
fn real_tree_registry_is_in_sync() {
    let sources = [
        ("analyze.rs", include_str!("analyze.rs")),
        ("absint.rs", include_str!("absint.rs")),
    ];
    let drift = drift(&sources);
    assert!(drift.is_empty(), "registry drift:\n{}", drift.join("\n"));
}

#[test]
fn matched_registry_is_clean() {
    let src = "//! | `E001` | duplicate table |\nfn f() { diag(\"E001\"); }\n";
    assert!(drift(&[("a.rs", src)]).is_empty());
}

#[test]
fn emitted_without_row_is_reported_at_the_emission_site() {
    let src = "//! | `E001` | duplicate table |\nfn f() { diag(\"E001\");\n    diag(\"E099\"); }\n";
    assert_eq!(
        drift(&[("a.rs", src)]),
        ["a.rs:3: `E099` is emitted but has no registry row"]
    );
}

#[test]
fn stale_row_is_reported_at_the_doc_line() {
    let src = "//! | `E001` | real |\n//! | `W099` | stale |\nfn f() { diag(\"E001\"); }\n";
    assert_eq!(
        drift(&[("a.rs", src)]),
        ["a.rs:2: registry row for `W099` has no emission site"]
    );
}

#[test]
fn emission_counts_across_files_and_duplicates_report_once() {
    let doc = "//! | `E040` | pk |\n//! | `E041` | fk |\n";
    let emit = "fn f() { diag(\"E040\"); diag(\"E041\"); diag(\"E040\"); }\n";
    assert!(drift(&[("doc.rs", doc), ("emit.rs", emit)]).is_empty());
    let twice = "fn f() { diag(\"E099\"); }\nfn g() { diag(\"E099\"); }\n";
    let other = "fn h() { diag(\"E099\"); }\n";
    assert_eq!(drift(&[("a.rs", twice), ("b.rs", other)]).len(), 1);
}

#[test]
fn test_code_comments_and_prose_do_not_count() {
    // An emission in a test module does not satisfy a row, a quoted code
    // in a comment is not an emission, and backticked prose outside a
    // table row is not documentation.
    let src = "//! | `E001` | real |\n//! see `E007` for background\nfn f() { diag(\"E001\"); }\n\
               // diag(\"E777\") sketch\n#[cfg(test)]\nmod tests {\n    fn t() { diag(\"W055\"); }\n}\n";
    assert!(drift(&[("a.rs", src)]).is_empty());
    let test_only = "//! | `W055` | test-only |\n#[cfg(all(test, not(loom)))]\nmod tests {\n\
                     fn t() { diag(\"W055\"); }\n}\n";
    assert_eq!(drift(&[("a.rs", test_only)]).len(), 1);
}
