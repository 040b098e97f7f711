//! End-to-end tests for `pdgf validate`: the `models/bad/` corpus must
//! fail with its documented stable diagnostic code in `--format json`
//! output, and the shipped good models must validate clean.

use std::path::PathBuf;
use std::process::Command;

fn model_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

fn validate_json(rel: &str) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pdgf"))
        .args(["validate", "--model"])
        .arg(model_path(rel))
        .args(["--format", "json"])
        .output()
        .expect("run pdgf validate");
    let stdout = String::from_utf8(out.stdout).expect("json output is UTF-8");
    (out.status.success(), stdout)
}

/// `pdgf validate --format json` with the model given as a repo-relative
/// path and the repo root as the working directory, so the echoed
/// `"model"` key (and thus the whole report) is machine-independent.
fn validate_json_rel(rel: &str) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pdgf"))
        .current_dir(model_path("."))
        .args(["validate", "--model", rel, "--format", "json"])
        .output()
        .expect("run pdgf validate");
    let stdout = String::from_utf8(out.stdout).expect("json output is UTF-8");
    (out.status.success(), stdout)
}

/// One row per corpus file: the analyzer's documented stable code for
/// that defect class, and whether it is an error (non-zero exit) or a
/// warning (exit 0, diagnostic still reported).
const CORPUS: &[(&str, &str, bool)] = &[
    // Structural analyzer (E0xx below 040).
    ("models/bad/unknown_reference.xml", "E010", true),
    ("models/bad/zipf_theta.xml", "E020", true),
    ("models/bad/cycle.xml", "E013", true),
    ("models/bad/zero_fields.xml", "E002", true),
    ("models/bad/bad_size.xml", "E030", true),
    // Abstract interpreter (E040+/W010+).
    ("models/bad/e040_nonunique_pk.xml", "E040", true),
    ("models/bad/e041_fk_domain_escape.xml", "E041", true),
    ("models/bad/e042_sequence_overflow.xml", "E042", true),
    ("models/bad/e043_dict_index_wrap.xml", "E043", true),
    ("models/bad/e044_text_into_numeric.xml", "E044", true),
    ("models/bad/w010_unbounded_width.xml", "W010", false),
    ("models/bad/w011_fk_parent_not_unique.xml", "W011", false),
    ("models/bad/w012_mixed_branch_kinds.xml", "W012", false),
    // Abstract interpreter, closure and draw checks (E052/W020+).
    ("models/bad/e052_ref_into_empty.xml", "E052", true),
    ("models/bad/w020_draw_budget.xml", "W020", false),
    ("models/bad/w021_deep_closure.xml", "W021", false),
];

#[test]
fn bad_corpus_fails_with_stable_codes() {
    for &(model, code, is_error) in CORPUS {
        let (ok, json) = validate_json(model);
        assert_eq!(
            ok, !is_error,
            "{model}: wrong exit for severity, got:\n{json}"
        );
        assert!(
            json.contains(&format!("\"code\":\"{code}\"")),
            "{model}: expected diagnostic code {code}, got:\n{json}"
        );
        let severity = if is_error { "error" } else { "warning" };
        assert!(
            json.contains(&format!("\"ok\":{}", !is_error))
                && json.contains(&format!("\"severity\":\"{severity}\"")),
            "{model}: malformed report:\n{json}"
        );
    }
}

#[test]
fn absint_corpus_matches_golden_reports() {
    // The interpreter fixtures each pin the full
    // machine-readable report byte for byte — codes, locations, and
    // messages are all API. After an intentional message change, run
    // `BLESS=1 cargo test -p pdgf --test validate` to rewrite them.
    let bless = std::env::var_os("BLESS").is_some_and(|v| v == "1");
    for &(model, code, _) in CORPUS {
        let name = model.trim_start_matches("models/bad/");
        if !(name.starts_with("e04")
            || name.starts_with("w01")
            || name.starts_with("e05")
            || name.starts_with("w02"))
        {
            continue;
        }
        let golden_path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(name.replace(".xml", ".json"));
        let (_, json) = validate_json_rel(model);
        if bless {
            std::fs::write(&golden_path, &json)
                .unwrap_or_else(|e| panic!("write {}: {e}", golden_path.display()));
            continue;
        }
        let golden = std::fs::read_to_string(&golden_path)
            .unwrap_or_else(|e| panic!("read {}: {e}", golden_path.display()));
        assert_eq!(
            json.trim_end(),
            golden.trim_end(),
            "{model}: report drifted from golden {} ({code})",
            golden_path.display()
        );
    }
}

#[test]
fn cycle_report_names_the_cycle() {
    let (_, json) = validate_json("models/bad/cycle.xml");
    assert!(
        json.contains("reference cycle: a -> b -> a"),
        "cycle message should spell out the path, got:\n{json}"
    );
}

#[test]
fn shipped_models_validate_clean() {
    for model in ["models/tpch.xml", "models/ssb.xml"] {
        let (ok, json) = validate_json(model);
        assert!(ok, "{model} should validate, got:\n{json}");
        assert!(
            json.contains("\"ok\":true") && json.contains("\"errors\":0"),
            "{model}: malformed report:\n{json}"
        );
    }
}

/// JSON mode is machine-facing: the exit code must still signal failure
/// when the report carries error-level diagnostics, for validate and
/// explain alike. A clean model must exit 0 in every mode.
#[test]
fn json_mode_exit_codes_track_error_diagnostics() {
    for cmd in ["validate", "explain"] {
        for (model, should_fail) in [
            ("models/bad/e052_ref_into_empty.xml", true),
            ("models/bad/w020_draw_budget.xml", false),
            ("models/tpch.xml", false),
        ] {
            let out = Command::new(env!("CARGO_BIN_EXE_pdgf"))
                .args([cmd, "--model"])
                .arg(model_path(model))
                .args(["--format", "json"])
                .output()
                .expect("run pdgf");
            assert_eq!(
                out.status.success(),
                !should_fail,
                "{cmd} {model}: wrong exit code, stdout:\n{}",
                String::from_utf8_lossy(&out.stdout)
            );
        }
    }
}

#[test]
fn human_mode_still_prints_ok_summary() {
    let out = Command::new(env!("CARGO_BIN_EXE_pdgf"))
        .args(["validate", "--model"])
        .arg(model_path("models/bad/cycle.xml"))
        .output()
        .expect("run pdgf validate");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error[E013]") && stderr.contains("reference cycle"),
        "human mode should print rustc-style diagnostics, got:\n{stderr}"
    );
}
