//! The full DBSynth story on an IMDb-style database — the paper's
//! Section 5 demonstration as a runnable program:
//!
//! 1. host an "original" movie database (the IMDb stand-in),
//! 2. basic schema extraction (no table access),
//! 3. elaborate extraction (min/max, NULL probabilities, Markov samples),
//! 4. inspect and *edit* the generated model (the demo's "how the model
//!    can be changed or adapted"),
//! 5. generate synthetic data into a target database at 2× scale,
//! 6. verify by running the same SQL on both databases.
//!
//! ```text
//! cargo run --release --example synthesize_from_db
//! ```

use dbsynth_suite::dbsynth::{
    compare_databases, generate_into, ExtractionOptions, Extractor, SamplingOptions,
};
use dbsynth_suite::minidb::sql::query;
use dbsynth_suite::minidb::{Database, SampleStrategy};
use dbsynth_suite::pdgf::schema::config;
use dbsynth_suite::workloads::imdb;

fn main() {
    // 1. The "deployed database" a vendor could never ship to a customer.
    let source = imdb::build(2015, 1_500);
    println!(
        "original database: {} movies, {} persons, {} cast rows",
        source.table("movies").expect("movies").row_count(),
        source.table("persons").expect("persons").row_count(),
        source.table("cast_info").expect("cast").row_count()
    );

    // 2. Basic extraction: only catalog metadata.
    let basic = Extractor::new(&source, ExtractionOptions::schema_only(7))
        .extract("imdb")
        .expect("basic extraction");
    println!(
        "\nbasic extraction produced a {}-table model (no data was read)",
        basic.schema.tables.len()
    );

    // 3. Elaborate extraction: statistics + sampling.
    let mut model = Extractor::new(
        &source,
        ExtractionOptions {
            stats: true,
            sampling: Some(SamplingOptions {
                strategy: SampleStrategy::Fraction { p: 0.5, seed: 42 },
                dict_max_distinct: 32,
            }),
            seed: 7,
            histogram_buckets: 16,
            use_histograms: true,
            infer_foreign_keys: false,
        },
    )
    .extract("imdb")
    .expect("elaborate extraction");
    println!(
        "elaborate extraction: {} dictionaries, {} Markov models, phases: \
         schema {:.1}ms, stats {:.1}ms, sampling {:.1}ms",
        model.dictionaries.len(),
        model.markov_models.len(),
        (model.report.schema_info + model.report.table_sizes).as_secs_f64() * 1e3,
        (model.report.null_probabilities + model.report.min_max).as_secs_f64() * 1e3,
        model.report.sampling.as_secs_f64() * 1e3,
    );

    // 4. The model is an ordinary PDGF configuration — print an excerpt
    //    and adapt it by hand (the demo edits the generated XML).
    let xml = config::to_xml_string(&model.schema);
    println!("\ngenerated model excerpt:");
    for line in xml.lines().take(12) {
        println!("  {line}");
    }
    // Refine a correlation the automatic pass could not detect: movie
    // years in the source skew modern, so narrow the year generator.
    let movies = model
        .schema
        .tables
        .iter_mut()
        .find(|t| t.name == "movies")
        .expect("movies table");
    if let Some(idx) = movies.field_index("m_year") {
        use dbsynth_suite::pdgf::schema::{Expr, GeneratorSpec};
        movies.fields[idx].generator = GeneratorSpec::Long {
            min: Expr::parse("1960").expect("literal"),
            max: Expr::parse("2024").expect("literal"),
        };
        println!("\nedited the model: m_year now Long[1960, 2024]");
    }

    // 5. Generate into the target at double scale.
    let mut target = Database::new();
    let report = generate_into(&mut target, &model, 2.0).expect("generate + load");
    println!(
        "\nloaded {} synthetic rows into the target database",
        report.total_rows()
    );

    // 6. Side-by-side SQL verification.
    println!("\nSQL verification (original | synthetic at 2x):");
    for sql in [
        "SELECT COUNT(*) FROM movies",
        "SELECT m_genre, COUNT(*) AS n FROM movies GROUP BY m_genre ORDER BY n DESC LIMIT 3",
        "SELECT MIN(m_year), MAX(m_year) FROM movies",
        "SELECT COUNT(*) FROM cast_info WHERE ci_role = 'director'",
    ] {
        let orig = query(&source, sql).expect("original query");
        let syn = query(&target, sql).expect("synthetic query");
        println!("\n  {sql}");
        let o = orig.to_table_string();
        let s = syn.to_table_string();
        for (l, r) in o.lines().zip(s.lines().chain(std::iter::repeat(""))) {
            println!("    {l:<40} | {r}");
        }
    }

    let fidelity = compare_databases(&source, &target, 2.0).expect("comparison");
    println!(
        "\nfidelity: max NULL-fraction delta {:.4}, max relative mean error {:.4}, \
         ranges contained: {}",
        fidelity.max_null_delta(),
        fidelity.max_mean_rel_error(),
        fidelity.all_ranges_contained()
    );
    println!(
        "(the m_year range deviates by design — we widened it in step 4; that the \
         fidelity report flags exactly this column shows the verification working)"
    );
}
