//! The DBSynth command line interface: the paper's workflow as commands.
//!
//! The "source database" is a directory in minidb's flat exchange format
//! (`schema.sql` + one `<table>.csv` per table) — the stand-in for a JDBC
//! connection string.
//!
//! ```text
//! dbsynth seed-source --out <dir> [--movies N]    # create a demo source DB
//! dbsynth extract  --source <dir> --out <modeldir>
//!                  [--schema-only] [--sample FRACTION] [--seed N]
//! dbsynth generate --model <modeldir> --target <dir> [--scale SF]
//! dbsynth roundtrip --source <dir> [--scale SF] [--sample FRACTION]
//! ```

use std::process::ExitCode;

use dbsynth::{
    compare_databases, generate_into, load_database_dir, load_generated, load_model_dir,
    save_database_dir, save_model_dir, ExtractionOptions, Extractor, SamplingOptions,
};
use minidb::{Database, SampleStrategy};

struct Args {
    source: Option<String>,
    out: Option<String>,
    model: Option<String>,
    target: Option<String>,
    scale: f64,
    sample: Option<f64>,
    schema_only: bool,
    infer_fks: bool,
    seed: u64,
    movies: u64,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: dbsynth <seed-source|extract|generate|roundtrip> [options]\n\
         \n\
         seed-source: --out <dir> [--movies N]\n\
         extract:     --source <dir> --out <modeldir> [--schema-only]\n\
         \u{20}            [--sample FRACTION] [--infer-fks] [--seed N]\n\
         generate:    --model <modeldir> --target <dir> [--scale SF]\n\
         roundtrip:   --source <dir> [--scale SF] [--sample FRACTION]\n"
    );
    ExitCode::from(2)
}

fn parse_args(mut argv: std::env::Args) -> Result<(String, Args), String> {
    let command = argv.next().ok_or("missing command")?;
    let mut args = Args {
        source: None,
        out: None,
        model: None,
        target: None,
        scale: 1.0,
        sample: None,
        schema_only: false,
        infer_fks: false,
        seed: 12_456_789,
        movies: 2_000,
    };
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| -> Result<String, String> {
            argv.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--source" => args.source = Some(value("--source")?),
            "--out" => args.out = Some(value("--out")?),
            "--model" => args.model = Some(value("--model")?),
            "--target" => args.target = Some(value("--target")?),
            "--scale" => args.scale = value("--scale")?.parse().map_err(|_| "bad --scale")?,
            "--sample" => {
                args.sample = Some(value("--sample")?.parse().map_err(|_| "bad --sample")?)
            }
            "--schema-only" => args.schema_only = true,
            "--infer-fks" => args.infer_fks = true,
            "--seed" => args.seed = value("--seed")?.parse().map_err(|_| "bad --seed")?,
            "--movies" => args.movies = value("--movies")?.parse().map_err(|_| "bad --movies")?,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok((command, args))
}

fn options_for(args: &Args) -> ExtractionOptions {
    if args.schema_only {
        return ExtractionOptions::schema_only(args.seed);
    }
    let strategy = match args.sample {
        Some(p) if p < 1.0 => SampleStrategy::Fraction { p, seed: args.seed },
        _ => SampleStrategy::Full,
    };
    ExtractionOptions {
        stats: true,
        sampling: Some(SamplingOptions {
            strategy,
            dict_max_distinct: 64,
        }),
        seed: args.seed,
        histogram_buckets: 16,
        use_histograms: true,
        infer_foreign_keys: args.infer_fks,
    }
}

fn run(command: &str, args: &Args) -> Result<(), String> {
    match command {
        "seed-source" => {
            let out = args.out.as_ref().ok_or("--out is required")?;
            let db = workloads::imdb::build(args.seed, args.movies);
            save_database_dir(&db, out).map_err(|e| e.to_string())?;
            println!(
                "wrote demo source ({} movies) to {out}",
                db.table("movies").map_err(|e| e.to_string())?.row_count()
            );
            Ok(())
        }
        "extract" => {
            let source = args.source.as_ref().ok_or("--source is required")?;
            let out = args.out.as_ref().ok_or("--out is required")?;
            let db = load_database_dir(source).map_err(|e| e.to_string())?;
            let model = Extractor::new(&db, options_for(args))
                .extract("extracted")
                .map_err(|e| e.to_string())?;
            save_model_dir(&model, out).map_err(|e| e.to_string())?;
            let r = &model.report;
            println!(
                "extracted {} tables → {out}\n\
                 phases: schema {:.1}ms, sizes {:.1}ms, NULLs {:.1}ms, min/max {:.1}ms, \
                 sampling {:.1}ms ({} rows)\n\
                 resources: {} dictionaries, {} markov models",
                model.schema.tables.len(),
                r.schema_info.as_secs_f64() * 1e3,
                r.table_sizes.as_secs_f64() * 1e3,
                r.null_probabilities.as_secs_f64() * 1e3,
                r.min_max.as_secs_f64() * 1e3,
                r.sampling.as_secs_f64() * 1e3,
                r.sampled_rows,
                model.dictionaries.len(),
                model.markov_models.len(),
            );
            Ok(())
        }
        "generate" => {
            let model_dir = args.model.as_ref().ok_or("--model is required")?;
            let target = args.target.as_ref().ok_or("--target is required")?;
            let project = load_model_dir(model_dir)
                .map_err(|e| e.to_string())?
                .set_property("SF", &format!("{}", args.scale))
                .build()
                .map_err(|e| e.to_string())?;
            // Generate into an in-memory target, then persist as a
            // database directory (schema.sql + CSVs).
            let mut db = Database::new();
            let loaded = load_generated(&mut db, project.schema(), project.runtime())
                .map_err(|e| e.to_string())?;
            for (table, rows) in loaded {
                println!("{table:<20} {rows:>12} rows");
            }
            save_database_dir(&db, target).map_err(|e| e.to_string())?;
            println!("wrote synthetic database to {target}");
            Ok(())
        }
        "roundtrip" => {
            let source = args.source.as_ref().ok_or("--source is required")?;
            let db = load_database_dir(source).map_err(|e| e.to_string())?;
            let model = Extractor::new(&db, options_for(args))
                .extract("roundtrip")
                .map_err(|e| e.to_string())?;
            let mut target = Database::new();
            generate_into(&mut target, &model, args.scale).map_err(|e| e.to_string())?;
            let report = compare_databases(&db, &target, args.scale).map_err(|e| e.to_string())?;
            println!("{}", report.to_summary_string());
            println!(
                "max NULL delta {:.4} | max mean error {:.4} | ranges contained: {}",
                report.max_null_delta(),
                report.max_mean_rel_error(),
                report.all_ranges_contained()
            );
            Ok(())
        }
        _ => Err(format!("unknown command {command:?}")),
    }
}

fn main() -> ExitCode {
    let mut argv = std::env::args();
    argv.next();
    let (command, args) = match parse_args(argv) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    match run(&command, &args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            if e.contains("unknown command") {
                return usage();
            }
            ExitCode::FAILURE
        }
    }
}
