//! `cargo xtask audit` — the workspace determinism lint pass.
//!
//! Walks every library source file in the workspace (crate `src/` trees
//! plus the umbrella `src/`), lexes each one just enough to blank strings,
//! comments, and `#[cfg(test)]` code, and enforces the audit rules from
//! [`rules`]: no randomized-order collections in deterministic crates, no
//! wall-clock reads outside the observational allowlist, no std formatting
//! in the hot path, no panicking unwraps in worker-facing library code.
//!
//! Violations print rustc-style and fail the process with exit code 1, so
//! `scripts/check.sh` and CI treat them as hard errors. A line can opt out
//! with `// audit:allow(<rule>) <reason>` on the line itself or a comment
//! directly above it; an allow with an unknown rule or no reason is itself
//! a violation. `--format json` emits one machine-readable object.
//!
//! On top of the per-line rules, the pass cross-checks the diagnostic
//! registry ([`registry`]): every `E`/`W` code the schema analyzer or the
//! abstract interpreter emits must have a row in its module-doc registry
//! table, and every row must match a live emission site.

mod lexer;
mod registry;
mod rules;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One audit violation, ready for either output format.
struct Violation {
    path: String,
    line: usize,
    col: usize,
    rule: &'static str,
    needle: String,
    message: String,
    help: &'static str,
}

/// An `audit:allow(rule) reason` annotation parsed from comment text.
#[derive(Clone)]
struct Allow {
    rule: String,
    reason: String,
}

fn parse_allow(comment: &str) -> Option<Allow> {
    let start = comment.find("audit:allow(")?;
    let rest = &comment[start + "audit:allow(".len()..];
    let close = rest.find(')')?;
    Some(Allow {
        rule: rest[..close].trim().to_string(),
        reason: rest[close + 1..].trim().to_string(),
    })
}

/// Audit one file's source text. `path` is workspace-relative with `/`
/// separators and is used for rule scoping and reporting. Returns the
/// number of well-formed allow sites, so suppressions stay visible in
/// the report even when they produce no violation.
fn audit_source(path: &str, src: &str, out: &mut Vec<Violation>) -> usize {
    let mut allow_sites = 0;
    let lines = lexer::lex(src);
    // An allow annotation covers its own line and carries forward across
    // comment-only/blank lines to the next line that has code.
    let mut carried: Option<Allow> = None;
    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        if let Some(a) = parse_allow(&line.comment) {
            match (rules::rule_by_id(&a.rule), a.reason.is_empty()) {
                (None, _) => out.push(Violation {
                    path: path.to_string(),
                    line: lineno,
                    col: 1,
                    rule: "allow-syntax",
                    needle: format!("audit:allow({})", a.rule),
                    message: format!("`audit:allow({})` names an unknown rule", a.rule),
                    help: "known rules: hash-collections, wall-clock, std-fmt, unwrap, \
                           columnar-cell-alloc, seed-discipline, sync-facade",
                }),
                (Some(_), true) => out.push(Violation {
                    path: path.to_string(),
                    line: lineno,
                    col: 1,
                    rule: "allow-syntax",
                    needle: format!("audit:allow({})", a.rule),
                    message: format!(
                        "`audit:allow({})` has no justification; write the reason after the `)`",
                        a.rule
                    ),
                    help: "an unexplained exemption defeats the audit trail",
                }),
                (Some(_), false) => {
                    allow_sites += 1;
                    carried = Some(a);
                }
            }
        }
        if !line.is_test {
            for rule in rules::RULES {
                if !(rule.applies)(path) {
                    continue;
                }
                for needle in rule.needles {
                    let mut from = 0;
                    while let Some(rel) = line.code[from..].find(needle) {
                        let col = from + rel + 1;
                        from += rel + needle.len();
                        if carried.as_ref().is_some_and(|a| a.rule == rule.id) {
                            continue;
                        }
                        out.push(Violation {
                            path: path.to_string(),
                            line: lineno,
                            col,
                            rule: rule.id,
                            needle: (*needle).to_string(),
                            message: format!("`{}`: {}", needle, rule.summary),
                            help: rule.help,
                        });
                    }
                }
            }
        }
        if !line.code.trim().is_empty() {
            carried = None;
        }
    }
    allow_sites
}

/// Collect the workspace-relative paths the audit covers: `crates/*/src`
/// trees (excluding xtask itself) plus the umbrella `src/`. Shims, tests,
/// benches, and examples are out of scope by construction.
fn collect_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    for entry in std::fs::read_dir(&crates_dir)? {
        let entry = entry?;
        if !entry.file_type()?.is_dir() || entry.file_name() == "xtask" {
            continue;
        }
        let src = entry.path().join("src");
        if src.is_dir() {
            walk_rs(&src, &mut files)?;
        }
    }
    let umbrella = root.join("src");
    if umbrella.is_dir() {
        walk_rs(&umbrella, &mut files)?;
    }
    files.sort();
    Ok(files)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if entry.file_type()?.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn print_json(violations: &[Violation], files_scanned: usize, allow_sites: usize) {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"ok\":{},\"files_scanned\":{},\"allow_sites\":{},\"violations\":[",
        violations.is_empty(),
        files_scanned,
        allow_sites
    );
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"col\":{},\"needle\":\"{}\",\"message\":\"{}\"}}",
            json_escape(v.rule),
            json_escape(&v.path),
            v.line,
            v.col,
            json_escape(&v.needle),
            json_escape(&v.message),
        );
    }
    s.push_str("]}");
    println!("{s}");
}

fn print_human(violations: &[Violation], files_scanned: usize, allow_sites: usize) {
    for v in violations {
        eprintln!("error[audit/{}]: {}", v.rule, v.message);
        eprintln!("  --> {}:{}:{}", v.path, v.line, v.col);
        eprintln!("   = help: {}", v.help);
        eprintln!();
    }
    if violations.is_empty() {
        eprintln!(
            "audit: {files_scanned} files scanned, no violations, {allow_sites} allow site(s)"
        );
    } else {
        eprintln!(
            "audit: {files_scanned} files scanned, {} violation{} found, {allow_sites} allow site(s)",
            violations.len(),
            if violations.len() == 1 { "" } else { "s" }
        );
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: cargo xtask <audit [--format human|json] | bless>");
    ExitCode::from(2)
}

/// The `models/bad/` fixtures whose `pdgf validate --format json` reports
/// are pinned byte for byte under `crates/pdgf/tests/golden/`: the
/// abstract-interpreter corpus (`e04*`/`w01*`) and the seed-lineage
/// corpus (`e05*`/`w02*`).
fn golden_fixture(name: &str) -> bool {
    ["e04", "w01", "e05", "w02"]
        .iter()
        .any(|p| name.starts_with(p))
}

/// Read every audited file as `(workspace-relative path, source)`.
fn read_workspace(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let files = collect_files(root)?;
    let mut out = Vec::with_capacity(files.len());
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        out.push((rel, std::fs::read_to_string(file)?));
    }
    Ok(out)
}

/// `cargo xtask bless` — regenerate the byte-pinned golden reports by
/// running `pdgf validate --format json` over every golden fixture with
/// the repo root as working directory (matching the integration tests'
/// invocation exactly, so the echoed model path is machine-independent).
fn bless(root: &Path) -> ExitCode {
    let bad = root.join("models/bad");
    let golden_dir = root.join("crates/pdgf/tests/golden");
    let mut fixtures: Vec<String> = match std::fs::read_dir(&bad) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.ends_with(".xml") && golden_fixture(n))
            .collect(),
        Err(e) => {
            eprintln!("bless: cannot read {}: {e}", bad.display());
            return ExitCode::from(2);
        }
    };
    fixtures.sort();
    if let Err(e) = std::fs::create_dir_all(&golden_dir) {
        eprintln!("bless: cannot create {}: {e}", golden_dir.display());
        return ExitCode::from(2);
    }
    for name in &fixtures {
        let model = format!("models/bad/{name}");
        // Error fixtures exit non-zero by design; only a missing binary
        // or an empty report is a bless failure.
        let out = match std::process::Command::new("cargo")
            .current_dir(root)
            .args(["run", "-q", "-p", "pdgf", "--bin", "pdgf", "--"])
            .args(["validate", "--model", &model, "--format", "json"])
            .output()
        {
            Ok(out) => out,
            Err(e) => {
                eprintln!("bless: cannot run pdgf validate: {e}");
                return ExitCode::from(2);
            }
        };
        if out.stdout.is_empty() {
            eprintln!(
                "bless: {model} produced no JSON report:\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            return ExitCode::FAILURE;
        }
        let golden = golden_dir.join(name.replace(".xml", ".json"));
        if let Err(e) = std::fs::write(&golden, &out.stdout) {
            eprintln!("bless: cannot write {}: {e}", golden.display());
            return ExitCode::from(2);
        }
        eprintln!("bless: wrote {}", golden.display());
    }
    eprintln!("bless: {} golden report(s) regenerated", fixtures.len());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str);
    if !matches!(command, Some("audit") | Some("bless")) {
        return usage();
    }
    let mut json = false;
    let mut rest = args[1..].iter();
    while let Some(a) = rest.next() {
        match a.as_str() {
            "--format" if command == Some("audit") => match rest.next().map(String::as_str) {
                Some("json") => json = true,
                Some("human") => json = false,
                _ => return usage(),
            },
            _ => return usage(),
        }
    }

    // `cargo xtask` runs from the workspace root; CARGO_MANIFEST_DIR makes
    // a direct `cargo run -p xtask` from a subdirectory work too.
    let root = std::env::var("CARGO_MANIFEST_DIR")
        .map(|d| {
            Path::new(&d)
                .parent()
                .and_then(Path::parent)
                .map(Path::to_path_buf)
                .unwrap_or_else(|| PathBuf::from("."))
        })
        .unwrap_or_else(|_| PathBuf::from("."));

    if command == Some("bless") {
        return bless(&root);
    }

    let inputs = match read_workspace(&root) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("audit: cannot walk workspace sources: {e}");
            return ExitCode::from(2);
        }
    };
    let mut violations = Vec::new();
    let mut allow_sites = 0;
    for (rel, src) in &inputs {
        allow_sites += audit_source(rel, src, &mut violations);
    }
    if let Err(e) = registry::check(&root, &mut violations) {
        eprintln!("audit: cannot read diagnostic sources: {e}");
        return ExitCode::from(2);
    }
    if json {
        print_json(&violations, inputs.len(), allow_sites);
    } else {
        print_human(&violations, inputs.len(), allow_sites);
    }
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn audit_str(path: &str, src: &str) -> Vec<Violation> {
        let mut v = Vec::new();
        audit_source(path, src, &mut v);
        v
    }

    #[test]
    fn seeded_wall_clock_violation_is_reported_with_position() {
        let src = "use std::time::Instant;\nfn f() {\n    let t = Instant::now();\n}\n";
        let v = audit_str("crates/pdgf-gen/src/runtime.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].rule, v[0].line, v[0].col), ("wall-clock", 3, 13));
    }

    #[test]
    fn allow_on_previous_comment_line_suppresses() {
        let src = "fn f() {\n    // audit:allow(wall-clock) stats only; never reaches output\n    let t = Instant::now();\n    let u = Instant::now();\n}\n";
        let v = audit_str("crates/pdgf-gen/src/runtime.rs", src);
        // The allow covers only the first code line after it.
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 4);
    }

    #[test]
    fn allow_carries_across_a_wrapped_comment() {
        let src = "fn f() {\n    // audit:allow(unwrap) accessor used by tests only;\n    // formatters emit valid UTF-8 by contract\n    let s = x.expect(\"utf8\");\n}\n";
        assert!(audit_str("crates/pdgf-output/src/sink.rs", src).is_empty());
    }

    #[test]
    fn allow_for_a_different_rule_does_not_suppress() {
        let src = "// audit:allow(unwrap) wrong rule\nlet t = Instant::now();\n";
        let v = audit_str("crates/pdgf-gen/src/lib.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "wall-clock");
    }

    #[test]
    fn valid_allow_sites_are_counted() {
        let src =
            "fn f() {\n    // audit:allow(wall-clock) stats only\n    let t = Instant::now();\n}\n";
        let mut v = Vec::new();
        let n = audit_source("crates/pdgf-gen/src/runtime.rs", src, &mut v);
        assert!(v.is_empty());
        assert_eq!(n, 1);
        // A malformed allow is a violation, not a counted site.
        let mut v = Vec::new();
        let n = audit_source(
            "crates/pdgf-gen/src/lib.rs",
            "// audit:allow(wall-clock)\n",
            &mut v,
        );
        assert_eq!((n, v.len()), (0, 1));
    }

    #[test]
    fn unknown_rule_and_missing_reason_are_violations() {
        let v = audit_str(
            "crates/pdgf-gen/src/lib.rs",
            "// audit:allow(bogus) whatever\n",
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "allow-syntax");
        let v = audit_str("crates/pdgf-gen/src/lib.rs", "// audit:allow(wall-clock)\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "allow-syntax");
    }

    #[test]
    fn strings_comments_and_tests_do_not_trip_rules() {
        let src = "fn f() { let s = \"Instant::now\"; } // Instant::now\n#[cfg(test)]\nmod tests {\n    fn t() { let _ = std::collections::HashMap::<u8, u8>::new(); }\n}\n";
        assert!(audit_str("crates/pdgf-prng/src/lib.rs", src).is_empty());
    }

    #[test]
    fn rules_respect_path_scope() {
        let src = "fn f() { let m = HashMap::new(); }\n";
        assert_eq!(audit_str("crates/pdgf-gen/src/x.rs", src).len(), 1);
        assert!(audit_str("crates/dbsynth/src/x.rs", src).is_empty());
        let fmt = "fn f(s: &str) -> String { s.to_string() }\n";
        assert_eq!(audit_str("crates/pdgf-output/src/fmtfast.rs", fmt).len(), 1);
        assert!(audit_str("crates/pdgf-output/src/sink.rs", fmt).is_empty());
        let unwrap = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert_eq!(audit_str("crates/pdgf/src/serve.rs", unwrap).len(), 1);
        assert_eq!(audit_str("crates/pdgf/src/serve/http.rs", unwrap).len(), 1);
        assert!(audit_str("crates/pdgf/src/project.rs", unwrap).is_empty());
        let lock = "use std::sync::{Mutex, PoisonError};\n";
        assert_eq!(audit_str("crates/pdgf-output/src/pool.rs", lock).len(), 2);
        assert!(audit_str("crates/pdgf-schema/src/sync.rs", lock).is_empty());
    }

    #[test]
    fn workspace_is_clean_end_to_end() {
        // The real tree must pass its own audit; this is the in-process
        // twin of the `cargo xtask audit` CI gate.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .unwrap()
            .parent()
            .unwrap();
        let files = collect_files(root).unwrap();
        assert!(
            files.len() > 30,
            "walker found too few files: {}",
            files.len()
        );
        let mut v = Vec::new();
        for f in &files {
            let rel = f
                .strip_prefix(root)
                .unwrap()
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            audit_source(&rel, &std::fs::read_to_string(f).unwrap(), &mut v);
        }
        registry::check(root, &mut v).unwrap();
        let msgs: Vec<String> = v
            .iter()
            .map(|v| format!("{}:{}:{} {} {}", v.path, v.line, v.col, v.rule, v.needle))
            .collect();
        assert!(msgs.is_empty(), "audit violations:\n{}", msgs.join("\n"));
    }
}
