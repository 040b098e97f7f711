//! Frozen output fingerprints: the oracle that does not share a line of
//! code with the generators.
//!
//! The row oracle (`zoo::oracle_bytes`) and the columnar engine run the
//! same per-kind cell kernels, so comparing them cannot notice a kernel
//! whose draws changed. These tests can: they pin the FNV-1a-64 hash of
//! the full engine output of the generator zoo at three update epochs and
//! of every shipped model, in all four formats, and of the CDC change
//! files the update black box writes. A changed hash means a changed
//! byte; it is never re-pinned to make a refactor pass.

mod zoo;

use dbsynth_suite::pdgf::{OutputFormat, Pdgf, PdgfProject};
use pdgf_gen::{MapResolver, SchemaRuntime};
use pdgf_output::MemorySink;
use pdgf_runtime::{generate_table_range, RunConfig, UpdateConfig};
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

/// Hash of one table of `rt` at epoch 0 in `format`, whole.
fn table_fingerprint(rt: &SchemaRuntime, name: &str, format: OutputFormat) -> u64 {
    let (table, t) = rt.table_by_name(name).expect("table exists");
    let mut sink = MemorySink::new();
    generate_table_range(
        rt,
        table,
        0,
        0..t.size,
        format.formatter().as_ref(),
        &mut sink,
        &RunConfig::new().workers(0),
        None,
    )
    .expect("generate");
    fnv1a(FNV_OFFSET, &sink.into_inner())
}

/// SSB as `workloads::ssb` projects it: all five tables of the uniform
/// model at SF 0.01 as CSV, and the Zipf-skewed variant's `lineorder`
/// (θ = 0.8), the one table the skew changes.
#[test]
fn ssb_tables_are_pinned() {
    use dbsynth_suite::workloads::ssb;
    let uniform = ssb::project(0.01).build().expect("ssb builds");
    check(
        uniform.runtime(),
        "ssb SF=0.01",
        0,
        &[(Csv, 0x2fa0_9d00_2d92_59da)],
    );

    let skewed = ssb::project_skewed(0.01, 0.8)
        .build()
        .expect("skewed ssb builds");
    let got = table_fingerprint(skewed.runtime(), "lineorder", Csv);
    assert_eq!(
        got, 0x0016_41ff_9b7e_8cf3,
        "skewed ssb SF=0.01 lineorder csv: got {got:#018x}"
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

/// The Markov comment columns at scales where every cut to the declared
/// width occurs: every TPC-H table at SF 0.002 as CSV (`ps_comment` cells
/// cut at 199 chars, and cuts that land exactly on a word end), and
/// BigBench's `product_reviews` at SF 1 as JSON (5,000 reviews of 5–60
/// words in a 500-char column).
#[test]
fn markov_columns_are_pinned() {
    let tpch = dbsynth_suite::workloads::tpch::project(0.002)
        .build()
        .expect("tpch builds");
    check(
        tpch.runtime(),
        "tpch SF=0.002",
        0,
        &[(Csv, 0xda67_6361_301a_b256)],
    );

    let bigbench = dbsynth_suite::workloads::bigbench::project(1.0)
        .build()
        .expect("bigbench builds");
    let rt = bigbench.runtime();
    let (table, reviews) = rt.table_by_name("product_reviews").expect("reviews");
    let mut sink = MemorySink::new();
    generate_table_range(
        rt,
        table,
        0,
        0..reviews.size,
        Json.formatter().as_ref(),
        &mut sink,
        &RunConfig::new().workers(0),
        None,
    )
    .expect("generate");
    let got = fnv1a(FNV_OFFSET, &sink.into_inner());
    assert_eq!(
        got, 0x9e86_ebc4_b4e9_0e11,
        "bigbench SF=1 product_reviews json: got {got:#018x}"
    );
}

/// `(file, hash)` of every `<table>.u<epoch>.sql` change file that
/// `generate_updates_to_dir` writes for `project` at epochs 1–3, in the
/// order it writes them.
fn cdc_fingerprints(project: &PdgfProject, label: &str) -> Vec<(String, u64)> {
    let dir = std::env::temp_dir().join(format!("pdgf-cdc-pin-{label}-{}", std::process::id()));
    let files = project
        .generate_updates_to_dir(&dir, 3, UpdateConfig::default())
        .expect("change files write");
    let hashes = files
        .iter()
        .map(|(table, epoch, _)| {
            let name = format!("{table}.u{epoch}.sql");
            let bytes = std::fs::read(dir.join(&name)).expect("change file reads");
            (name, fnv1a(FNV_OFFSET, &bytes))
        })
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    hashes
}

/// A project's pinned change files: `(file name, FNV-1a hash)`.
type CdcPins<'a> = &'a [(&'a str, u64)];

/// The CDC bytes: one hash per (table, epoch) change file under the
/// default `UpdateConfig`, for the zoo and for TPC-H SF 0.001. (A table
/// whose epochs change nothing writes an empty file: TPC-H's 5-row
/// `region` hashes to the FNV offset.)
#[test]
fn cdc_change_files_are_pinned() {
    let zoo = Pdgf::from_schema(generator_zoo())
        .build()
        .expect("zoo builds");
    let tpch = dbsynth_suite::workloads::tpch::project(0.001)
        .build()
        .expect("tpch builds");
    let pinned: [(&str, &PdgfProject, CdcPins); 2] = [
        (
            "zoo",
            &zoo,
            &[
                ("parent.u1.sql", 0x3487_38e5_7ae8_f590),
                ("parent.u2.sql", 0xfecb_17f7_1b18_b4a9),
                ("parent.u3.sql", 0x6658_de77_1d49_c781),
                ("kitchen.u1.sql", 0x7f30_a5fa_861b_1fcf),
                ("kitchen.u2.sql", 0x0edc_4781_6e65_9950),
                ("kitchen.u3.sql", 0x4247_f382_9839_445b),
            ],
        ),
        (
            "tpch",
            &tpch,
            &[
                ("region.u1.sql", FNV_OFFSET),
                ("region.u2.sql", FNV_OFFSET),
                ("region.u3.sql", FNV_OFFSET),
                ("nation.u1.sql", 0x98b1_3efb_ef02_c96c),
                ("nation.u2.sql", 0x70f3_e019_1d6f_338a),
                ("nation.u3.sql", 0xa217_aff2_d333_9113),
                ("supplier.u1.sql", 0x212e_4e40_d8b3_8959),
                ("supplier.u2.sql", 0x3c93_4032_4e4d_f929),
                ("supplier.u3.sql", 0x0ca3_11da_e887_20ed),
                ("customer.u1.sql", 0x2314_2434_37e3_3659),
                ("customer.u2.sql", 0xe83d_b559_e863_518c),
                ("customer.u3.sql", 0x51b1_0bc2_c70c_f7b3),
                ("part.u1.sql", 0xcfae_ef4c_1580_b643),
                ("part.u2.sql", 0xd1c3_8a80_ccc3_0599),
                ("part.u3.sql", 0xcb78_4dc5_3cb7_1cf5),
                ("partsupp.u1.sql", 0x2aea_dd30_6c6b_d94e),
                ("partsupp.u2.sql", 0x9146_3a24_5f86_c9dc),
                ("partsupp.u3.sql", 0xe256_dca0_5d95_250a),
                ("orders.u1.sql", 0x929a_4eda_a6aa_32cd),
                ("orders.u2.sql", 0x4096_16d3_277c_d150),
                ("orders.u3.sql", 0xfbcc_6636_1974_93a5),
                ("lineitem.u1.sql", 0xf12a_7bed_b407_1565),
                ("lineitem.u2.sql", 0x8992_8880_fbdd_b86a),
                ("lineitem.u3.sql", 0x72da_7292_fccc_1d69),
            ],
        ),
    ];
    let mut wrong = Vec::new();
    for (label, project, want) in pinned {
        let got = cdc_fingerprints(project, label);
        let names: Vec<&str> = got.iter().map(|(name, _)| name.as_str()).collect();
        let want_names: Vec<&str> = want.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, want_names, "{label}: change files");
        for ((name, hash), (_, pin)) in got.iter().zip(want) {
            if hash != pin {
                wrong.push(format!(
                    "{label} {name}: got {hash:#018x}, pinned {pin:#018x}"
                ));
            }
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
