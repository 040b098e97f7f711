//! Diagnostic-registry meta-lint: the analyzer and the abstract
//! interpreter each carry a doc-comment table listing every stable
//! diagnostic code they emit. This pass cross-checks the two directions
//! over both files as one namespace: a code emitted from non-test code
//! must have a registry row (`| `CODE` |` in a doc comment), and a
//! registry row must correspond to a code that is actually emitted.
//! Either mismatch is an audit violation, so the tables in
//! `analyze.rs`/`absint.rs` can never silently drift from the codes
//! `pdgf validate` and `pdgf explain` report.

use std::path::Path;

use crate::{lexer, Violation};

/// The files that define diagnostic codes and their registry tables.
pub const DIAG_SOURCES: &[&str] = &[
    "crates/pdgf-schema/src/analyze.rs",
    "crates/pdgf-schema/src/absint.rs",
];

/// A diagnostic code together with where it was seen.
struct Seen {
    code: String,
    path: String,
    line: usize,
    col: usize,
}

/// Find every `[EW]NNN` code in `hay` wrapped in `delim` (a quote for
/// emission sites, a backtick for registry rows), as `(code, byte_col)`.
fn delimited_codes(hay: &str, delim: u8) -> Vec<(String, usize)> {
    let bytes = hay.as_bytes();
    let mut found = Vec::new();
    let mut i = 0;
    while i + 5 < bytes.len() {
        if bytes[i] == delim
            && (bytes[i + 1] == b'E' || bytes[i + 1] == b'W')
            && bytes[i + 2].is_ascii_digit()
            && bytes[i + 3].is_ascii_digit()
            && bytes[i + 4].is_ascii_digit()
            && bytes[i + 5] == delim
        {
            found.push((hay[i + 1..i + 5].to_string(), i + 1));
            i += 6;
        } else {
            i += 1;
        }
    }
    found
}

/// Scan one source file for emitted codes (quoted string literals on
/// non-test, non-comment lines) and documented codes (registry table
/// rows in doc comments).
fn scan_source(path: &str, src: &str, emitted: &mut Vec<Seen>, documented: &mut Vec<Seen>) {
    let lexed = lexer::lex(src);
    for (idx, raw) in src.lines().enumerate() {
        let line = idx + 1;
        let trimmed = raw.trim_start();
        if trimmed.starts_with("//!") || trimmed.starts_with("///") {
            for (code, col) in delimited_codes(raw, b'`') {
                // Only table rows count as registry entries; a code
                // mentioned in backticked prose is not documentation.
                if raw.contains(&format!("| `{code}` |")) {
                    documented.push(Seen {
                        code,
                        path: path.to_string(),
                        line,
                        col: col + 1,
                    });
                }
            }
            continue;
        }
        if trimmed.starts_with("//") || lexed.get(idx).is_some_and(|l| l.is_test) {
            continue;
        }
        for (code, col) in delimited_codes(raw, b'"') {
            emitted.push(Seen {
                code,
                path: path.to_string(),
                line,
                col: col + 1,
            });
        }
    }
}

/// Cross-check emitted vs documented codes over a set of pre-read
/// sources, pushing one violation per missing direction per code.
fn audit_registry(sources: &[(&str, String)], out: &mut Vec<Violation>) {
    let mut emitted = Vec::new();
    let mut documented = Vec::new();
    for (path, src) in sources {
        scan_source(path, src, &mut emitted, &mut documented);
    }
    let mut reported = std::collections::BTreeSet::new();
    for e in &emitted {
        if documented.iter().any(|d| d.code == e.code) || !reported.insert(&e.code) {
            continue;
        }
        out.push(Violation {
            path: e.path.clone(),
            line: e.line,
            col: e.col,
            rule: "diag-registry",
            needle: e.code.clone(),
            message: format!("diagnostic `{}` is emitted but has no registry row", e.code),
            help: "add a `| `CODE` | summary |` row to the diagnostic registry table \
                   in the module docs of analyze.rs or absint.rs",
        });
    }
    for d in &documented {
        if emitted.iter().any(|e| e.code == d.code) || !reported.insert(&d.code) {
            continue;
        }
        out.push(Violation {
            path: d.path.clone(),
            line: d.line,
            col: d.col,
            rule: "diag-registry",
            needle: d.code.clone(),
            message: format!(
                "registry row for `{}` has no matching emission site",
                d.code
            ),
            help: "remove the stale registry row, or emit the code from non-test code",
        });
    }
}

/// Read the diagnostic source files under `root` and run the registry
/// cross-check, appending any violations to `out`.
pub fn check(root: &Path, out: &mut Vec<Violation>) -> std::io::Result<()> {
    let mut sources = Vec::new();
    for rel in DIAG_SOURCES {
        sources.push((*rel, std::fs::read_to_string(root.join(rel))?));
    }
    audit_registry(&sources, out);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn violations(sources: &[(&str, &str)]) -> Vec<Violation> {
        let owned: Vec<(&str, String)> = sources
            .iter()
            .map(|(p, s)| (*p, (*s).to_string()))
            .collect();
        let mut out = Vec::new();
        audit_registry(&owned, &mut out);
        out
    }

    #[test]
    fn matched_registry_is_clean() {
        let src = "//! | `E001` | duplicate table |\nfn f() { diag(\"E001\"); }\n";
        assert!(violations(&[("a.rs", src)]).is_empty());
    }

    #[test]
    fn emitted_without_row_is_reported_at_the_emission_site() {
        let src =
            "//! | `E001` | duplicate table |\nfn f() { diag(\"E001\");\n    diag(\"E099\"); }\n";
        let v = violations(&[("a.rs", src)]);
        assert_eq!(v.len(), 1);
        assert_eq!(
            (v[0].rule, &v[0].needle, v[0].line, v[0].col),
            ("diag-registry", &"E099".to_string(), 3, 11)
        );
        assert!(v[0].message.contains("no registry row"));
    }

    #[test]
    fn stale_row_is_reported_at_the_doc_line() {
        let src = "//! | `E001` | real |\n//! | `W099` | stale |\nfn f() { diag(\"E001\"); }\n";
        let v = violations(&[("a.rs", src)]);
        assert_eq!(v.len(), 1);
        assert_eq!((&v[0].needle, v[0].line), (&"W099".to_string(), 2));
        assert!(v[0].message.contains("no matching emission"));
    }

    #[test]
    fn emission_counts_across_files_and_duplicates_report_once() {
        // Documented in one file, emitted only from the other: clean.
        let doc = "//! | `E040` | pk |\n//! | `E041` | fk |\n";
        let emit = "fn f() { diag(\"E040\"); diag(\"E041\"); diag(\"E040\"); }\n";
        assert!(violations(&[("doc.rs", doc), ("emit.rs", emit)]).is_empty());
        // An undocumented code emitted twice yields a single violation.
        let emit2 = "fn f() { diag(\"E099\"); }\nfn g() { diag(\"E099\"); }\n";
        assert_eq!(violations(&[("emit.rs", emit2)]).len(), 1);
    }

    #[test]
    fn test_code_comments_and_prose_do_not_count() {
        // Emission inside #[cfg(test)] does not satisfy a registry row,
        // a quoted code in a comment is not an emission, and backticked
        // prose outside a table row is not documentation.
        let src = "//! | `E001` | real |\n//! see `E007` for background\nfn f() { diag(\"E001\"); }\n// diag(\"E777\") sketch\n#[cfg(test)]\nmod tests {\n    fn t() { diag(\"W055\"); }\n}\n";
        assert!(violations(&[("a.rs", src)]).is_empty());
        // ...so a row whose only emission is test code is stale.
        let stale = "//! | `W055` | test-only |\n#[cfg(test)]\nmod tests {\n    fn t() { diag(\"W055\"); }\n}\n";
        assert_eq!(violations(&[("a.rs", stale)]).len(), 1);
    }

    #[test]
    fn real_tree_registry_is_in_sync() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .unwrap()
            .parent()
            .unwrap();
        let mut v = Vec::new();
        check(root, &mut v).expect("diagnostic sources readable");
        let msgs: Vec<String> = v
            .iter()
            .map(|v| format!("{}:{} {}", v.path, v.line, v.message))
            .collect();
        assert!(msgs.is_empty(), "registry drift:\n{}", msgs.join("\n"));
    }
}
