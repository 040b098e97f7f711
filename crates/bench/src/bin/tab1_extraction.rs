//! Table E1 (§4, final experiment) — DBSynth metadata extraction timings.
//!
//! "Using a TPC-H database with scale factor 1 loaded in a PostgreSQL
//! DBMS, it takes 600 ms to get the schema information, 1.3 s to get the
//! table sizes, 600 ms to get NULL probabilities, 10 seconds to get all
//! min and max constraints, and between 800 ms (0.001% samples) and 200 s
//! (100% samples) to retrieve data for the Markov chains. These results
//! indicate an interactive response time for data model generation."
//!
//! We load a TPC-H data set (generated by our own PDGF model) into the
//! minidb substrate and time the same phases, sweeping the Markov sample
//! fraction. Expected shape: schema ≪ stats ≪ full-sample Markov, with
//! Markov time growing with the sample fraction; small-sample extraction
//! stays interactive.
//!
//! The phase split is the extractor's own [`ExtractionReport`] — it
//! cannot be taken from outside — so every configuration is extracted
//! [`REPEATS`] times and each phase reported as median and quartiles.
//!
//! Knobs: `TAB1_SF` (default 0.01 → 60k lineitems).

use std::time::Duration;

use bench::{banner, cell, check, knob};
use benchmark::Summary;
use dbsynth::{ExtractionOptions, ExtractionReport, Extractor, SamplingOptions};
use minidb::{Database, SampleStrategy};
use pdgf::Pdgf;
use workloads::tpch;

/// Extractions per configuration.
const REPEATS: usize = 5;

/// The phase timings of [`REPEATS`] extractions with `options`.
fn extract_repeatedly(db: &Database, options: &ExtractionOptions) -> Vec<ExtractionReport> {
    (0..REPEATS)
        .map(|_| {
            Extractor::new(db, options.clone())
                .extract("tpch")
                .expect("extraction")
                .report
        })
        .collect()
}

/// Seconds of one phase over the repeats.
fn phase(reports: &[ExtractionReport], pick: impl Fn(&ExtractionReport) -> Duration) -> Summary {
    let seconds: Vec<f64> = reports.iter().map(|r| pick(r).as_secs_f64()).collect();
    Summary::of(&seconds)
}

/// Load the generated TPC-H data into minidb via the translator.
fn load_source(sf: f64) -> Database {
    let project = Pdgf::from_schema(tpch::schema(12_456_789))
        .resolver(tpch::resolver())
        .set_property("SF", &format!("{sf}"))
        .workers(0)
        .build()
        .expect("tpch model builds");
    let mut db = Database::new();
    dbsynth::load_generated(&mut db, project.schema(), project.runtime())
        .expect("generated rows satisfy DDL");
    db
}

fn main() {
    banner(
        "Table E1: DBSynth metadata extraction phases on TPC-H",
        "schema 0.6s / sizes 1.3s / NULLs 0.6s / min-max 10s / Markov 0.8s–200s \
         by sample fraction; interactive for small samples (PostgreSQL, SF 1)",
    );
    let sf: f64 = knob("TAB1_SF", 0.01);
    println!("loading TPC-H SF={sf} into minidb…");
    let db = load_source(sf);
    let total_rows: usize = db
        .table_names()
        .iter()
        .map(|n| db.table(n).expect("table exists").row_count())
        .sum();
    println!("loaded {total_rows} rows\n");

    // Phase timings at full sampling.
    let schema_only = extract_repeatedly(&db, &ExtractionOptions::schema_only(1));
    let stats_options = ExtractionOptions {
        stats: true,
        sampling: None,
        seed: 1,
        histogram_buckets: 16,
        use_histograms: true,
        infer_foreign_keys: false,
    };
    let with_stats = extract_repeatedly(&db, &stats_options);
    let schema_info = phase(&schema_only, |r| r.schema_info);
    let table_sizes = phase(&schema_only, |r| r.table_sizes);
    let null_probabilities = phase(&with_stats, |r| r.null_probabilities);
    let min_max = phase(&with_stats, |r| r.min_max);
    println!("{:<28} {:>30}", "phase", "seconds [q1–q3]");
    for (name, s) in [
        ("schema information", &schema_info),
        ("table sizes", &table_sizes),
        ("NULL probabilities", &null_probabilities),
        ("min/max constraints", &min_max),
    ] {
        println!("{name:<28} {:>30}", cell(s, 1.0, 4));
    }

    // Markov sampling sweep (the paper's 0.001% → 100%).
    println!(
        "\n{:>12} {:>30} {:>14}",
        "sample %", "markov s [q1–q3]", "rows sampled"
    );
    let sampling_options = |strategy, dict_max_distinct| ExtractionOptions {
        stats: false,
        sampling: Some(SamplingOptions {
            strategy,
            dict_max_distinct,
        }),
        ..stats_options.clone()
    };
    let fractions = [0.00001, 0.001, 0.01, 0.1, 1.0];
    let mut times = Vec::new();
    for &p in &fractions {
        let runs = extract_repeatedly(
            &db,
            &sampling_options(SampleStrategy::Fraction { p, seed: 42 }, 64),
        );
        let sampling = phase(&runs, |r| r.sampling);
        println!(
            "{:>12} {:>30} {:>14}",
            format!("{}%", p * 100.0),
            cell(&sampling, 1.0, 4),
            runs[0].sampled_rows
        );
        times.push(sampling.median);
    }

    // Shape checks, on the medians.
    let schema_s = schema_info.median + table_sizes.median;
    let stats_s = null_probabilities.median + min_max.median;
    check(
        "schema-faster-than-stats",
        schema_s < stats_s,
        &format!("schema+sizes {schema_s:.4}s vs stats {stats_s:.4}s"),
    );
    check(
        "markov-time-grows-with-sample",
        times.last().expect("sweep ran") > times.first().expect("sweep ran"),
        &format!(
            "0.001% sample {:.4}s vs 100% sample {:.4}s ({:.0}x)",
            times[0],
            times[times.len() - 1],
            times[times.len() - 1] / times[0].max(1e-9)
        ),
    );
    check(
        "small-sample-is-interactive",
        times[1] < 2.0,
        &format!("0.1% sample extraction took {:.3}s", times[1]),
    );

    // Show the learned comment model scale (paper: "the comment field
    // model contains 1500 words and 95 starting states").
    let full = Extractor::new(&db, sampling_options(SampleStrategy::Full, 8))
        .extract("tpch")
        .expect("full extraction");
    if let Some((path, model)) = full
        .markov_models
        .iter()
        .find(|(p, _)| p.contains("l_comment"))
    {
        println!(
            "\nlearned model {path}: {} words, {} starting states (paper: 1500 words, 95 starts)",
            model.word_count(),
            model.start_state_count()
        );
    }
}
