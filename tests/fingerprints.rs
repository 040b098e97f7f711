//! Frozen output fingerprints: the oracle that does not share a line of
//! code with the generators.
//!
//! The row oracle (`zoo::oracle_bytes`) and the columnar engine run the
//! same per-kind cell kernels, so comparing them cannot notice a kernel
//! whose draws changed. These tests can: they pin the FNV-1a-64 hash of
//! the full engine output of the generator zoo at three update epochs and
//! of every shipped model, in all four formats. A changed hash means a
//! changed byte; it is never re-pinned to make a refactor pass.

mod zoo;

use dbsynth_suite::pdgf::{OutputFormat, Pdgf};
use pdgf_gen::{MapResolver, SchemaRuntime};
use pdgf_output::MemorySink;
use pdgf_runtime::{generate_table_range, RunConfig};
use zoo::generator_zoo;

/// FNV-1a-64 over `bytes`, continuing from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Hash of every table of `rt` at `update`, whole and framed, in schema
/// order, through the engine's inline path.
fn fingerprint(rt: &SchemaRuntime, update: u32, format: OutputFormat) -> u64 {
    let formatter = format.formatter();
    let config = RunConfig::new().workers(0);
    let mut hash = FNV_OFFSET;
    for (table, t) in rt.tables().iter().enumerate() {
        let mut sink = MemorySink::new();
        generate_table_range(
            rt,
            table as u32,
            update,
            0..t.size,
            formatter.as_ref(),
            &mut sink,
            &config,
            None,
        )
        .expect("generate");
        hash = fnv1a(hash, &sink.into_inner());
    }
    hash
}

fn repo_path(rel: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// Compare every `(label, format, hash)` with its pinned value and
/// report all mismatches at once.
fn check(rt: &SchemaRuntime, label: &str, update: u32, pinned: &[(OutputFormat, u64)]) {
    let mut wrong = Vec::new();
    for &(format, want) in pinned {
        let got = fingerprint(rt, update, format);
        if got != want {
            wrong.push(format!(
                "{label} update={update} {}: got {got:#018x}, pinned {want:#018x}",
                format.extension()
            ));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

use OutputFormat::{Csv, Json, Sql, Xml};

#[test]
fn generator_zoo_bytes_are_pinned_across_update_epochs() {
    let rt = SchemaRuntime::build(&generator_zoo(), &MapResolver::new()).expect("zoo builds");
    let pinned: [(u32, [(OutputFormat, u64); 4]); 3] = [
        (
            0,
            [
                (Csv, 0xbd79_77ae_f3e0_d155),
                (Json, 0x896c_eafb_a7c3_ddde),
                (Xml, 0xa105_dc50_11a9_ea0d),
                (Sql, 0xd45f_3b5b_823e_e18e),
            ],
        ),
        (
            1,
            [
                (Csv, 0xae2d_04d0_eb65_f36b),
                (Json, 0xb514_9740_34c0_ed1e),
                (Xml, 0x6e33_2484_f792_10c1),
                (Sql, 0xdbeb_8fdc_7861_3cda),
            ],
        ),
        (
            3,
            [
                (Csv, 0x4101_e470_c184_4168),
                (Json, 0x1059_bcd3_5693_bfa9),
                (Xml, 0x226f_e8a2_8691_ec1e),
                (Sql, 0x66d3_3a35_36a0_e3c3),
            ],
        ),
    ];
    for (update, formats) in pinned {
        check(&rt, "zoo", update, &formats);
    }
}

#[test]
fn shipped_tpch_bytes_are_pinned() {
    let project = Pdgf::from_xml_file(repo_path("models/tpch.xml"))
        .expect("shipped model parses")
        .set_property("SF", "0.0002")
        .build()
        .expect("builds");
    check(
        project.runtime(),
        "tpch SF=0.0002",
        0,
        &[
            (Csv, 0x5133_f702_ea3c_c005),
            (Json, 0xb8ec_e270_46a5_9ce8),
            (Xml, 0xeece_45a6_acf6_4b66),
            (Sql, 0xbe02_0267_e718_1cef),
        ],
    );
}

#[test]
fn shipped_ssb_bytes_are_pinned() {
    let project = Pdgf::from_xml_file(repo_path("models/ssb.xml"))
        .expect("shipped model parses")
        .set_property("SF", "0.001")
        .build()
        .expect("builds");
    check(
        project.runtime(),
        "ssb SF=0.001",
        0,
        &[
            (Csv, 0xa368_d801_f1f5_d1dc),
            (Json, 0x44a2_face_d545_eabe),
            (Xml, 0xc6a7_d046_9b90_87a3),
            (Sql, 0xc795_7c9d_5f4a_f86c),
        ],
    );
}

/// SF 0.1 is the smallest scale at which BigBench's `store` table
/// (`10 * SF` rows) holds a whole row.
#[test]
fn bigbench_bytes_are_pinned() {
    let project = dbsynth_suite::workloads::bigbench::project(0.1)
        .build()
        .expect("builds");
    check(
        project.runtime(),
        "bigbench SF=0.1",
        0,
        &[
            (Csv, 0x0f43_7a3d_b02c_f3b6),
            (Json, 0x169a_66cf_571e_a91a),
            (Xml, 0x643a_ef8f_374e_7e31),
            (Sql, 0xf75b_5874_3229_c30b),
        ],
    );
}
