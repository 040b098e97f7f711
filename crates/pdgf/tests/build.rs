//! `Pdgf::build` on hostile models: every `models/bad/` file either builds
//! or returns an error, and a build error names itself once.

use std::path::PathBuf;

use pdgf::Pdgf;

fn bad_models() -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../models/bad");
    let mut models: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("models/bad is readable")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "xml"))
        .collect();
    models.sort();
    models
}

fn stem(path: &std::path::Path) -> String {
    path.file_stem()
        .expect("file name")
        .to_string_lossy()
        .into_owned()
}

/// The build runs the abstract interpreter on whatever model it is given;
/// no bad model may panic it. Models with structural errors are rejected;
/// the interpreter's findings (E04x, W0xx) stay `validate`'s job, so
/// those models still build.
#[test]
fn bad_models_build_or_fail_without_panicking() {
    let (mut built, mut failed) = (Vec::new(), Vec::new());
    for path in bad_models() {
        let result = std::panic::catch_unwind(|| Pdgf::from_xml_file(&path)?.build());
        match result {
            Ok(Ok(_)) => built.push(stem(&path)),
            Ok(Err(_)) => failed.push(stem(&path)),
            Err(_) => panic!("building {} panicked", path.display()),
        }
    }
    assert_eq!(
        built,
        [
            "e040_nonunique_pk",
            "e041_fk_domain_escape",
            "e042_sequence_overflow",
            "e043_dict_index_wrap",
            "e044_text_into_numeric",
            "w011_fk_parent_not_unique",
            "w012_mixed_branch_kinds",
            "w020_draw_budget",
            "w021_deep_closure",
        ]
    );
    assert_eq!(
        failed,
        [
            "bad_size",
            "cycle",
            "e052_ref_into_empty",
            "unknown_reference",
            "w010_unbounded_width",
            "zero_fields",
            "zipf_theta",
        ]
    );
}

#[test]
fn build_errors_carry_their_prefix_once() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../models/bad/cycle.xml");
    let err = Pdgf::from_xml_file(&path)
        .expect("cycle.xml parses")
        .build()
        .err()
        .expect("a reference cycle fails the build")
        .to_string();
    assert_eq!(err.matches("build error:").count(), 1, "{err}");
    assert!(err.contains("reference cycle: a -> b -> a"), "{err}");
}
