//! The model files shipped in `models/`. `models/tpch.xml` and
//! `models/ssb.xml` are the models' only definition (`workloads::tpch`
//! and `workloads::ssb` embed them), so they must be in canonical form and
//! directly usable: parse, build, generate. The comment Markov binary
//! they reference is likewise the model itself: `workloads::corpus`
//! embeds it, and `tests/fingerprints.rs` pins the text generated from it.

use dbsynth_suite::pdgf::schema::config;
use dbsynth_suite::pdgf::{OutputFormat, Pdgf};

fn repo_path(rel: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// The shipped files are in the XML writer's canonical form: parsing and
/// writing each one gives back the same bytes. This keeps the writer
/// covered on full models, and keeps comments and hand formatting out of
/// the files.
#[test]
fn shipped_xml_roundtrips_byte_for_byte() {
    for file in ["models/tpch.xml", "models/ssb.xml"] {
        let shipped = std::fs::read_to_string(repo_path(file)).expect("model is checked in");
        let parsed = config::from_xml_string(&shipped).expect("model parses");
        assert_eq!(
            config::to_xml_string(&parsed),
            shipped,
            "{file} does not round-trip"
        );
    }
}

#[test]
fn shipped_models_generate_out_of_the_box() {
    // Exactly what a user of the CLI does: load the XML from disk with
    // resources resolving next to it.
    let project = Pdgf::from_xml_file(repo_path("models/tpch.xml"))
        .expect("shipped model parses")
        .set_property("SF", "0.0002")
        .workers(0)
        .build()
        .expect("shipped model builds");
    let csv = project
        .table_to_string("lineitem", OutputFormat::Csv)
        .expect("generates");
    assert_eq!(csv.lines().count(), 1_200);

    // SSB's smallest dimension (supplier, 2000 × SF) needs SF ≥ 0.001 to
    // stay non-empty.
    let ssb_project = Pdgf::from_xml_file(repo_path("models/ssb.xml"))
        .expect("shipped SSB model parses")
        .set_property("SF", "0.001")
        .workers(0)
        .build()
        .expect("shipped SSB model builds");
    let csv = ssb_project
        .table_to_string("lineorder", OutputFormat::Csv)
        .expect("generates");
    assert_eq!(csv.lines().count(), 6_000);
}
