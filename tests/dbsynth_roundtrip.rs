//! The headline DBSynth workflow, tested end to end on the IMDb-style
//! source: extract → save/load model files → generate → load → validate.

use dbsynth_suite::dbsynth::{
    compare_databases, generate_into, load_model_dir, save_model_dir, ExtractionOptions, Extractor,
    SamplingOptions,
};
use dbsynth_suite::minidb::sql::query;
use dbsynth_suite::minidb::{Database, SampleStrategy};
use dbsynth_suite::pdgf::OutputFormat;
use dbsynth_suite::workloads::imdb;

fn source() -> Database {
    imdb::build(2015, 600)
}

fn elaborate_options() -> ExtractionOptions {
    ExtractionOptions {
        stats: true,
        sampling: Some(SamplingOptions {
            strategy: SampleStrategy::Full,
            dict_max_distinct: 32,
        }),
        seed: 7,
        histogram_buckets: 16,
        use_histograms: true,
        infer_foreign_keys: false,
    }
}

#[test]
fn full_roundtrip_preserves_statistics() {
    let original = source();
    let model = Extractor::new(&original, elaborate_options())
        .extract("imdb")
        .expect("extraction");
    let mut synthetic = Database::new();
    let report = generate_into(&mut synthetic, &model, 1.0).expect("generate+load");
    assert_eq!(
        report.total_rows() as usize,
        original
            .table_names()
            .iter()
            .map(|n| original.table(n).expect("table").row_count())
            .sum::<usize>()
    );

    let fidelity = compare_databases(&original, &synthetic, 1.0).expect("compare");
    assert!(
        fidelity.max_null_delta() < 0.06,
        "{}",
        fidelity.to_summary_string()
    );
    assert!(
        fidelity.max_mean_rel_error() < 0.15,
        "{}",
        fidelity.to_summary_string()
    );
    assert!(
        fidelity.all_ranges_contained(),
        "{}",
        fidelity.to_summary_string()
    );

    // Categorical domains survive: genres are exactly the source's set.
    let orig_genres = query(
        &original,
        "SELECT m_genre, COUNT(*) FROM movies GROUP BY m_genre",
    )
    .expect("orig genres");
    let syn_genres = query(
        &synthetic,
        "SELECT m_genre, COUNT(*) FROM movies GROUP BY m_genre",
    )
    .expect("syn genres");
    let to_set = |r: &dbsynth_suite::minidb::sql::QueryResult| {
        r.rows
            .iter()
            .map(|row| row[0].to_string())
            .collect::<std::collections::BTreeSet<_>>()
    };
    assert_eq!(to_set(&orig_genres), to_set(&syn_genres));
}

#[test]
fn scaling_up_multiplies_rows_and_keeps_referential_integrity() {
    let original = source();
    let model = Extractor::new(&original, elaborate_options())
        .extract("imdb")
        .expect("extraction");
    let mut synthetic = Database::new();
    generate_into(&mut synthetic, &model, 3.0).expect("generate+load");
    assert_eq!(
        synthetic.table("movies").expect("movies").row_count(),
        1_800
    );
    // Foreign keys were re-pointed at the *scaled* parent domain.
    let orphans = query(
        &synthetic,
        "SELECT COUNT(*) FROM cast_info WHERE ci_movie < 1 OR ci_movie > 1800",
    )
    .expect("orphans");
    assert_eq!(orphans.rows[0][0].as_i64(), Some(0));
    let joined = query(
        &synthetic,
        "SELECT COUNT(*) FROM cast_info JOIN movies ON cast_info.ci_movie = movies.m_id",
    )
    .expect("join");
    let cast = query(&synthetic, "SELECT COUNT(*) FROM cast_info").expect("count");
    assert_eq!(joined.rows[0][0], cast.rows[0][0]);
}

#[test]
fn model_directory_roundtrip_is_faithful() {
    let original = source();
    let model = Extractor::new(&original, elaborate_options())
        .extract("imdb")
        .expect("extraction");
    let dir = std::env::temp_dir().join(format!("roundtrip-it-{}", std::process::id()));
    save_model_dir(&model, &dir).expect("save model dir");

    // Files exist with the paper's layout.
    assert!(dir.join("model.xml").exists());
    assert!(
        model.markov_models.keys().all(|p| dir.join(p).exists()),
        "markov binaries written"
    );
    assert!(
        model.dictionaries.keys().all(|p| dir.join(p).exists()),
        "dictionaries written"
    );

    let from_disk = load_model_dir(&dir)
        .expect("load model dir")
        .workers(0)
        .build()
        .expect("build from disk");
    let from_memory = dbsynth_suite::dbsynth::workflow::pdgf_from_model(&model)
        .workers(0)
        .build()
        .expect("build from memory");
    for table in ["movies", "persons", "cast_info"] {
        assert_eq!(
            from_disk
                .table_to_string(table, OutputFormat::Csv)
                .expect("disk render"),
            from_memory
                .table_to_string(table, OutputFormat::Csv)
                .expect("mem render"),
            "{table}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn histogram_extraction_preserves_skew_that_uniform_bounds_lose() {
    use dbsynth_suite::minidb::{ColumnDef, TableDef};
    use pdgf_schema::{SqlType, Value};

    // A heavily skewed numeric column: 90% of amounts below 100, a thin
    // tail reaching ~10,000.
    let mut original = Database::new();
    original
        .create_table(
            TableDef::new("sales")
                .column(ColumnDef::new("s_id", SqlType::BigInt).primary_key())
                .column(ColumnDef::new("s_amount", SqlType::Integer).not_null()),
        )
        .expect("create");
    for i in 0..2_000i64 {
        let amount = if i % 10 == 9 {
            100 + (i % 100) * 99
        } else {
            i % 100
        };
        original
            .insert("sales", vec![Value::Long(i + 1), Value::Long(amount)])
            .expect("insert");
    }
    let small_fraction = |db: &Database| {
        let t = db.table("sales").expect("sales");
        let idx = t.def().column_index("s_amount").expect("column");
        let small = t
            .column(idx)
            .filter(|v| v.as_i64().unwrap_or(0) < 100)
            .count();
        small as f64 / t.row_count() as f64
    };
    let original_frac = small_fraction(&original);
    assert!(original_frac > 0.85, "setup: {original_frac}");

    let synth_with = |use_histograms: bool| {
        // Equi-width histograms trade resolution for size; 128 buckets
        // give ~77-unit buckets over this 10k range, enough to keep the
        // low-value mass where it belongs.
        let opts = ExtractionOptions {
            use_histograms,
            histogram_buckets: 128,
            ..elaborate_options()
        };
        let model = Extractor::new(&original, opts)
            .extract("skew")
            .expect("extract");
        let mut target = Database::new();
        generate_into(&mut target, &model, 1.0).expect("generate");
        small_fraction(&target)
    };

    let with_hist = synth_with(true);
    let without_hist = synth_with(false);
    // Equi-width buckets blur the CDF by up to one bucket's mass at an
    // arbitrary cutoff, so allow that; uniform over [0, ~10000] puts only
    // ~1-15% below 100 and must be far worse.
    assert!(
        (with_hist - original_frac).abs() < 0.2,
        "histogram generation lost the skew: {with_hist} vs {original_frac}"
    );
    assert!(
        without_hist < 0.25,
        "uniform baseline unexpectedly skewed: {without_hist}"
    );
    assert!(
        (with_hist - original_frac).abs() * 3.0 < (without_hist - original_frac).abs(),
        "histograms must clearly beat min/max bounds: {with_hist} vs {without_hist} \
         (target {original_frac})"
    );
}

#[test]
fn schema_only_extraction_still_generates_plausible_data() {
    // Without sampling, the keyword rule engine must carry text columns.
    let original = source();
    let model = Extractor::new(&original, ExtractionOptions::schema_only(3))
        .extract("imdb")
        .expect("schema-only extraction");
    let mut synthetic = Database::new();
    generate_into(&mut synthetic, &model, 1.0).expect("generate+load");
    assert_eq!(synthetic.table("movies").expect("movies").row_count(), 600);
    // p_name matched the "name" keyword rule: two capitalized words.
    let t = synthetic.table("persons").expect("persons");
    let name_idx = t.def().column_index("p_name").expect("column");
    for v in t.column(name_idx).take(20) {
        let name = v.as_text().expect("non-null name");
        assert_eq!(name.split(' ').count(), 2, "rule-generated name: {name}");
    }
}
