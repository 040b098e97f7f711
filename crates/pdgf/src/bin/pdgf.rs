//! The PDGF command line interface.
//!
//! The paper: "all previously specified properties of a model and format
//! (e.g., scale factors, table sizes, probabilities) can be changed in
//! the command line interface."
//!
//! ```text
//! pdgf generate --model tpch.xml --out out/ [--format csv|json|xml|sql]
//!               [--workers N] [--package-rows N] [--seed N] [-p NAME=EXPR]...
//!               [--node I --nodes N] [--progress] [--metrics-out run.jsonl]
//! pdgf preview  --model tpch.xml --table lineitem [--rows 10] [-p ...]
//! pdgf info     --model tpch.xml [-p ...]
//! pdgf validate --model tpch.xml [--format json] [-p NAME=EXPR]...
//! pdgf explain  --model tpch.xml [--scale N] [--format json] [-p ...]
//! pdgf serve    --model tpch.xml --addr 127.0.0.1:7411 [--workers N]
//!               [--package-rows N] [--window N] [--max-request-rows N]
//!               [--max-connections N] [--http-port N]
//!               [--metrics-out run.jsonl] [-p ...]
//! pdgf serve    --model tpch=tpch.xml --model ssb=ssb.xml --addr ... (registry)
//! pdgf fetch    --addr HOST:PORT --table t --start A --end B [--format csv]
//!               [--update N] [--out FILE] [--http] [--model NAME]
//! pdgf fetch    --addr HOST:PORT --table t --row N [--format csv]
//! pdgf fetch    --addr HOST:PORT --stats|--info|--ping
//! ```
//!
//! `--progress` keeps a single refreshing status line on stderr (percent,
//! rows, MB/s, ETA). `--metrics-out` streams the run's telemetry events
//! as JSONL to a file, followed by one `metrics_snapshot` summary record.
//! `serve` keeps one worker pool alive and answers row-range and
//! point-lookup requests on demand (see DESIGN.md, "On-the-fly serving");
//! repeatable `--model NAME=PATH` serves several models from one pool,
//! and `--http-port` adds the HTTP/1.1 front end next to the TCP
//! protocol. `fetch` is the matching client; `--http` speaks to the
//! HTTP listener instead of the TCP one, and `--model` addresses one
//! model of a multi-model server.

use std::io::Write as _;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pdgf::output::json_escape;
use pdgf::runtime::package::node_shard;
use pdgf::runtime::{ServeConfig, Telemetry};
use pdgf::{
    FetchRequest, ModelRegistry, OutputFormat, Pdgf, PdgfError, ServeClient, Server, ServerOptions,
};

struct Args {
    model: Option<String>,
    models: Vec<String>,
    out: Option<String>,
    format: OutputFormat,
    workers: Option<usize>,
    package_rows: Option<u64>,
    seed: Option<u64>,
    table: Option<String>,
    rows: u64,
    node: usize,
    nodes: usize,
    props: Vec<(String, String)>,
    progress: bool,
    metrics_out: Option<String>,
    scale: Option<String>,
    addr: Option<String>,
    start: Option<u64>,
    end: Option<u64>,
    row: Option<u64>,
    update: u32,
    window: Option<usize>,
    max_request_rows: Option<u64>,
    max_connections: Option<usize>,
    http_port: Option<u16>,
    http: bool,
    stats: bool,
    info: bool,
    ping: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: pdgf <generate|preview|info|validate|explain|serve|fetch> [options]\n\
         \n\
         generate options: --out <dir> --format csv|json|xml|sql --workers N\n\
         \u{20}                 --package-rows N --seed N -p NAME=EXPR\n\
         \u{20}                 --node I --nodes N   (write only node I's shard of N)\n\
         \u{20}                 --progress           (status line with ETA on stderr)\n\
         \u{20}                 --metrics-out <file> (telemetry event stream as JSONL)\n\
         preview options:  --table <name> --rows N\n\
         explain options:  --scale N (override the SF property) --format json\n\
         serve options:    --model <file.xml> --addr HOST:PORT --workers N\n\
         \u{20}                 --model NAME=PATH (repeatable: multi-model registry)\n\
         \u{20}                 --http-port N (HTTP/1.1 front end beside the TCP protocol)\n\
         \u{20}                 --package-rows N --window N (per-request in-flight packages)\n\
         \u{20}                 --max-request-rows N --max-connections N\n\
         \u{20}                 --metrics-out <file> (request event stream as JSONL)\n\
         fetch options:    --addr HOST:PORT --table <name> --start A --end B\n\
         \u{20}                 --row N (point lookup) --update N --format csv|json|xml|sql\n\
         \u{20}                 --http (HTTP transport) --model NAME (multi-model server)\n\
         \u{20}                 --out <file> (default stdout) --stats --info --ping\n"
    );
    ExitCode::from(2)
}

fn parse_args(mut argv: std::env::Args) -> Result<(String, Args), String> {
    let command = argv.next().ok_or("missing command")?;
    let mut args = Args {
        model: None,
        models: Vec::new(),
        out: None,
        format: OutputFormat::Csv,
        workers: None,
        package_rows: None,
        seed: None,
        table: None,
        rows: 10,
        node: 0,
        nodes: 1,
        props: Vec::new(),
        progress: false,
        metrics_out: None,
        scale: None,
        addr: None,
        start: None,
        end: None,
        row: None,
        update: 0,
        window: None,
        max_request_rows: None,
        max_connections: None,
        http_port: None,
        http: false,
        stats: false,
        info: false,
        ping: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| -> Result<String, String> {
            argv.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--model" => {
                let v = value("--model")?;
                if args.model.is_none() {
                    args.model = Some(v.clone());
                }
                args.models.push(v);
            }
            "--out" => args.out = Some(value("--out")?),
            "--format" => {
                args.format = match value("--format")?.as_str() {
                    "csv" => OutputFormat::Csv,
                    "json" => OutputFormat::Json,
                    "xml" => OutputFormat::Xml,
                    "sql" => OutputFormat::Sql,
                    other => return Err(format!("unknown format {other:?}")),
                }
            }
            "--workers" => {
                args.workers = Some(value("--workers")?.parse().map_err(|_| "bad --workers")?)
            }
            "--package-rows" => {
                args.package_rows = Some(
                    value("--package-rows")?
                        .parse()
                        .map_err(|_| "bad --package-rows")?,
                )
            }
            "--seed" => args.seed = Some(value("--seed")?.parse().map_err(|_| "bad --seed")?),
            "--table" => args.table = Some(value("--table")?),
            "--node" => args.node = value("--node")?.parse().map_err(|_| "bad --node")?,
            "--nodes" => args.nodes = value("--nodes")?.parse().map_err(|_| "bad --nodes")?,
            "--rows" => args.rows = value("--rows")?.parse().map_err(|_| "bad --rows")?,
            "--progress" => args.progress = true,
            "--metrics-out" => args.metrics_out = Some(value("--metrics-out")?),
            "--scale" => args.scale = Some(value("--scale")?),
            "--addr" => args.addr = Some(value("--addr")?),
            "--start" => args.start = Some(value("--start")?.parse().map_err(|_| "bad --start")?),
            "--end" => args.end = Some(value("--end")?.parse().map_err(|_| "bad --end")?),
            "--row" => args.row = Some(value("--row")?.parse().map_err(|_| "bad --row")?),
            "--update" => args.update = value("--update")?.parse().map_err(|_| "bad --update")?,
            "--window" => {
                args.window = Some(value("--window")?.parse().map_err(|_| "bad --window")?)
            }
            "--max-request-rows" => {
                args.max_request_rows = Some(
                    value("--max-request-rows")?
                        .parse()
                        .map_err(|_| "bad --max-request-rows")?,
                )
            }
            "--max-connections" => {
                args.max_connections = Some(
                    value("--max-connections")?
                        .parse()
                        .map_err(|_| "bad --max-connections")?,
                )
            }
            "--http-port" => {
                args.http_port = Some(
                    value("--http-port")?
                        .parse()
                        .map_err(|_| "bad --http-port")?,
                )
            }
            "--http" => args.http = true,
            "--stats" => args.stats = true,
            "--info" => args.info = true,
            "--ping" => args.ping = true,
            "-p" => {
                let kv = value("-p")?;
                let (k, v) = kv
                    .split_once('=')
                    .ok_or_else(|| format!("-p expects NAME=EXPR, got {kv:?}"))?;
                args.props.push((k.to_string(), v.to_string()));
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok((command, args))
}

fn make_builder(args: &Args) -> Result<Pdgf, PdgfError> {
    let model = args
        .model
        .as_ref()
        .ok_or_else(|| PdgfError::Config("--model is required".into()))?;
    let mut builder = Pdgf::from_xml_file(model)?;
    for (k, v) in &args.props {
        builder = builder.set_property(k, v);
    }
    if let Some(scale) = &args.scale {
        builder = builder.set_property("SF", scale);
    }
    if let Some(seed) = args.seed {
        builder = builder.seed(seed);
    }
    if let Some(workers) = args.workers {
        builder = builder.workers(workers);
    }
    if let Some(rows) = args.package_rows {
        builder = builder.package_rows(rows);
    }
    Ok(builder)
}

fn build_project(args: &Args) -> Result<pdgf::PdgfProject, PdgfError> {
    make_builder(args)?.build()
}

fn main() -> ExitCode {
    let mut argv = std::env::args();
    argv.next(); // program name
    let (command, args) = match parse_args(argv) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let result = match command.as_str() {
        "generate" => cmd_generate(&args),
        "preview" => cmd_preview(&args),
        "info" => cmd_info(&args),
        "validate" => cmd_validate(&args),
        "explain" => cmd_explain(&args),
        "serve" => cmd_serve(&args),
        "fetch" => cmd_fetch(&args),
        _ => {
            return usage();
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Spawn the `--progress` ticker: a single `\r`-refreshing status line on
/// stderr with percent done, rows, throughput and an ETA extrapolated
/// from the telemetry's elapsed time and row fraction.
fn spawn_progress_ticker(
    telemetry: Telemetry,
    total_rows: u64,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        while !stop.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(200));
            let s = telemetry.progress();
            let pct = if total_rows > 0 {
                100.0 * s.rows as f64 / total_rows as f64
            } else {
                100.0
            };
            let eta = if s.rows > 0 && s.rows < total_rows {
                s.elapsed_secs * (total_rows - s.rows) as f64 / s.rows as f64
            } else {
                0.0
            };
            eprint!(
                "\r{pct:>5.1}% | {:>12}/{} rows | {:>8.1} MB/s | ETA {eta:>6.1}s ",
                s.rows, total_rows, s.throughput_mb_s
            );
            let _ = std::io::stderr().flush();
        }
    })
}

/// `generate`: the whole project, or — with `--node i --nodes N` — this
/// node's shard of it. Either run takes the one telemetry handle that
/// `--progress` and `--metrics-out` read.
fn cmd_generate(args: &Args) -> Result<(), PdgfError> {
    let project = build_project(args)?;
    let out = args
        .out
        .as_ref()
        .ok_or_else(|| PdgfError::Config("--out is required for generate".into()))?;
    // The rows this node generates: every table's shard (the whole table
    // for `--node 0 --nodes 1`; an out-of-range pair is rejected below).
    let shard_rows = |size: u64| {
        let shard = node_shard(size, args.node, args.nodes);
        shard.end - shard.start
    };
    let total_rows: u64 = if args.node < args.nodes {
        let tables = project.runtime().tables();
        tables.iter().map(|t| shard_rows(t.size)).sum()
    } else {
        0
    };

    let telemetry = (args.progress || args.metrics_out.is_some()).then(Telemetry::new);
    let stop = Arc::new(AtomicBool::new(false));
    let ticker = telemetry
        .clone()
        .filter(|_| args.progress)
        .map(|t| spawn_progress_ticker(t, total_rows, Arc::clone(&stop)));
    let writer = telemetry.as_ref().and_then(|t| {
        let path = args.metrics_out.clone()?;
        let subscriber = t.subscribe();
        Some(std::thread::spawn(
            move || -> std::io::Result<std::fs::File> {
                let mut file = std::fs::File::create(&path)?;
                while let Some(event) = subscriber.recv() {
                    writeln!(file, "{}", event.to_json())?;
                }
                Ok(file)
            },
        ))
    });

    let shard = (args.nodes > 1 || args.node > 0).then_some((args.node, args.nodes));
    let summary = project
        .generate_to_dir(out, args.format, shard, telemetry.as_ref())
        .map(|report| {
            let total = format!(
                "{} rows, {:.2} MB in {:.2} s ({:.1} MB/s)\n",
                report.total_rows(),
                report.total_bytes() as f64 / 1e6,
                report.seconds,
                report.throughput_mb_s()
            );
            if shard.is_some() {
                return format!("node {}/{}: {total}", args.node, args.nodes);
            }
            let mut text = String::new();
            for t in &report.tables {
                text.push_str(&format!(
                    "{:<16} {:>12} rows {:>14.2} MB {:>10.2} s\n",
                    t.table,
                    t.rows,
                    t.bytes as f64 / 1e6,
                    t.seconds
                ));
            }
            text.push_str(&format!("total: {total}"));
            text
        });

    stop.store(true, Ordering::Relaxed);
    if let Some(t) = ticker {
        let _ = t.join();
        eprintln!();
    }
    if let Some(t) = &telemetry {
        t.close();
        if let Some(w) = writer {
            let mut file = w
                .join()
                .map_err(|_| PdgfError::Config("metrics writer thread panicked".into()))??;
            // One trailing summary record so the file is self-contained.
            writeln!(file, "{}", t.metrics().to_json())?;
        }
    }

    print!("{}", summary?);
    Ok(())
}

fn cmd_preview(args: &Args) -> Result<(), PdgfError> {
    let project = build_project(args)?;
    let table = args
        .table
        .as_ref()
        .ok_or_else(|| PdgfError::Config("--table is required for preview".into()))?;
    let (idx, t) = project
        .runtime()
        .table_by_name(table)
        .ok_or_else(|| PdgfError::Config(format!("unknown table {table:?}")))?;
    let headers: Vec<&str> = t.columns.iter().map(|c| c.name.as_str()).collect();
    println!("{}", headers.join(" | "));
    let _ = idx;
    for row in project.preview(table, args.rows)? {
        let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
        println!("{}", cells.join(" | "));
    }
    Ok(())
}

fn cmd_info(args: &Args) -> Result<(), PdgfError> {
    let project = build_project(args)?;
    let rt = project.runtime();
    println!("project: {} (seed {})", rt.name(), rt.seed());
    println!("properties:");
    for (name, value) in rt.properties() {
        println!("  {name} = {value}");
    }
    println!("tables:");
    for t in rt.tables() {
        println!(
            "  {:<20} {:>14} rows, {} columns",
            t.name,
            t.size,
            t.columns.len()
        );
    }
    Ok(())
}

fn json_opt(v: &Option<String>) -> String {
    match v {
        Some(s) => format!("\"{}\"", json_escape(s)),
        None => "null".to_string(),
    }
}

/// Run the deep model analyzer and report every diagnostic.
///
/// Human mode prints `warning[Wxxx]`/`error[Exxx]` lines to stderr and, on
/// a clean model, compiles it and prints the `OK:` summary. `--format
/// json` prints one machine-readable object on stdout with stable
/// diagnostic codes (see `pdgf_schema::analyze`) and never compiles the
/// runtime. Both modes exit non-zero when the model has errors.
fn cmd_validate(args: &Args) -> Result<(), PdgfError> {
    let builder = make_builder(args)?;
    let analysis = builder.analyze()?;
    let errors = analysis.error_count();
    let warnings = analysis.warning_count();

    if args.format == OutputFormat::Json {
        let mut s = String::new();
        s.push_str(&format!(
            "{{\"model\":{},\"ok\":{},\"errors\":{errors},\"warnings\":{warnings},\"diagnostics\":[",
            json_opt(&args.model),
            errors == 0,
        ));
        for (i, d) in analysis.diagnostics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"severity\":\"{}\",\"code\":\"{}\",\"table\":{},\"field\":{},\"message\":\"{}\"}}",
                d.severity.name(),
                d.code,
                json_opt(&d.table),
                json_opt(&d.field),
                json_escape(&d.message),
            ));
        }
        s.push_str("]}");
        println!("{s}");
        if errors > 0 {
            return Err(PdgfError::Config(format!(
                "model failed validation with {errors} error(s)"
            )));
        }
        return Ok(());
    }

    for d in &analysis.diagnostics {
        eprintln!("{d}");
    }
    if errors > 0 {
        return Err(PdgfError::Config(format!(
            "model failed validation with {errors} error(s), {warnings} warning(s)"
        )));
    }
    let project = builder.build()?;
    println!(
        "OK: {} tables, {} total rows at current properties",
        project.runtime().tables().len(),
        project
            .runtime()
            .tables()
            .iter()
            .map(|t| t.size)
            .sum::<u64>()
    );
    Ok(())
}

fn fmt_bound(b: Option<u64>) -> String {
    match b {
        Some(n) => n.to_string(),
        None => "?".to_string(),
    }
}

fn fmt_mb(b: Option<u64>) -> String {
    match b {
        Some(n) => format!("{:.2} MB", n as f64 / 1e6),
        None => "unbounded".to_string(),
    }
}

/// Statically explain the generation run: dependency order, package and
/// worker plan, and proven upper bounds on output bytes per format —
/// derived from the abstract interpreter, without generating data.
///
/// `--scale N` overrides the model's `SF` property; `--format json`
/// prints one deterministic machine-readable object on stdout. Exits
/// non-zero when the model has errors (the plan would be meaningless).
fn cmd_explain(args: &Args) -> Result<(), PdgfError> {
    let builder = make_builder(args)?;
    let report = builder.explain()?;

    if args.format == OutputFormat::Json {
        println!("{}", report.to_json(args.model.as_deref().unwrap_or("")));
    } else {
        for d in &report.diagnostics {
            eprintln!("{d}");
        }
        if report.ok {
            println!("generation order: {}", report.generation_order.join(" -> "));
            println!(
                "plan: {} workers, {} rows/package",
                report.workers, report.package_rows
            );
            println!(
                "{:<20} {:>14} {:>9}   max B/row (csv/json/xml/sql)",
                "table", "rows", "packages"
            );
            for t in &report.tables {
                println!(
                    "{:<20} {:>14} {:>9}   {}/{}/{}/{}",
                    t.name,
                    t.rows,
                    t.packages,
                    fmt_bound(t.max_row_bytes.csv),
                    fmt_bound(t.max_row_bytes.json),
                    fmt_bound(t.max_row_bytes.xml),
                    fmt_bound(t.max_row_bytes.sql),
                );
                // Per-column proven rendered widths: where the row's
                // bytes come from, as a share of the table's summed
                // column bounds (format framing excluded).
                let total: u64 = t
                    .columns
                    .iter()
                    .filter_map(|c| c.profile.width.bound())
                    .map(u64::from)
                    .sum();
                for c in &t.columns {
                    match c.profile.width.bound() {
                        Some(w) if total > 0 => println!(
                            "  . {:<16} <= {:>6} B  {:>5.1}% of row",
                            c.name,
                            w,
                            100.0 * f64::from(w) / total as f64
                        ),
                        Some(w) => println!("  . {:<16} <= {:>6} B", c.name, w),
                        None => println!("  . {:<16}    unbounded", c.name),
                    }
                }
            }
            println!(
                "predicted output <= csv {}, json {}, xml {}, sql {}",
                fmt_mb(report.total_bytes.csv),
                fmt_mb(report.total_bytes.json),
                fmt_mb(report.total_bytes.xml),
                fmt_mb(report.total_bytes.sql),
            );
        }
    }
    if !report.ok {
        return Err(PdgfError::Config(format!(
            "model failed static analysis with {} error(s)",
            report.errors()
        )));
    }
    Ok(())
}

/// Start the on-the-fly row server: one persistent worker pool answering
/// range and point-lookup requests over the loaded model(s), forever.
/// Prints `listening on ADDR` once the socket is bound (the CI smoke job
/// waits on that line) and `http on ADDR` when `--http-port` attached
/// the HTTP front end. `--metrics-out` streams request-scoped telemetry
/// events as JSONL while the server runs.
fn cmd_serve(args: &Args) -> Result<(), PdgfError> {
    let addr = args
        .addr
        .as_ref()
        .ok_or_else(|| PdgfError::Config("--addr is required for serve".into()))?;

    // One plain `--model PATH` keeps the original single-model flow
    // (CLI property/seed overrides apply) under the name "default";
    // `NAME=PATH` entries go through the registry's gated loader
    // (analyze, then build, before the pool starts).
    let registry = if args.models.iter().any(|m| m.contains('=')) {
        let mut registry = ModelRegistry::new();
        for entry in &args.models {
            let (name, path) = entry.split_once('=').ok_or_else(|| {
                PdgfError::Config(format!(
                    "--model {entry:?}: a multi-model registry needs NAME=PATH for every entry"
                ))
            })?;
            registry = registry.load_file(name, path)?;
        }
        registry
    } else {
        let project = build_project(args)?;
        ModelRegistry::new().register("default", project)?
    };

    let mut config = ServeConfig::new();
    if let Some(workers) = args.workers {
        config = config.workers(workers);
    }
    if let Some(rows) = args.package_rows {
        config = config.package_rows(rows);
    }
    if let Some(window) = args.window {
        config = config.window(window);
    }
    if let Some(max) = args.max_request_rows {
        config = config.max_request_rows(max);
    }
    let mut builder = ServerOptions::builder().config(config);
    if let Some(max) = args.max_connections {
        builder = builder.max_connections(max);
    }
    let options = builder
        .build()
        .map_err(|e| PdgfError::Config(e.to_string()))?;

    let telemetry = args.metrics_out.as_ref().map(|_| Telemetry::new());
    let _writer = telemetry.as_ref().and_then(|t| {
        let path = args.metrics_out.clone()?;
        let subscriber = t.subscribe();
        Some(std::thread::spawn(move || -> std::io::Result<()> {
            let mut file = std::fs::File::create(&path)?;
            while let Some(event) = subscriber.recv() {
                writeln!(file, "{}", event.to_json())?;
            }
            Ok(())
        }))
    });

    let mut server = Server::bind_registry(registry, addr, options, telemetry.as_ref())?;
    if let Some(port) = args.http_port {
        let ip = server.local_addr()?.ip();
        server = server.with_http((ip, port))?;
    }
    println!("listening on {}", server.local_addr()?);
    if let Some(http) = server.http_addr() {
        println!("http on {http}");
    }
    let _ = std::io::stdout().flush();
    server.run();
    Ok(())
}

/// The `serve` protocol client: fetch a row range or one row to stdout
/// (or `--out`), or query `--info`/`--stats`/`--ping`. `--http` uses the
/// HTTP transport; either transport follows server-issued resume cursors
/// transparently, so a fetch wider than the server's request cap still
/// arrives whole.
fn cmd_fetch(args: &Args) -> Result<(), PdgfError> {
    let addr = args
        .addr
        .as_ref()
        .ok_or_else(|| PdgfError::Config("--addr is required for fetch".into()))?;
    let mut client = if args.http {
        ServeClient::connect_http(addr.as_str())?
    } else {
        ServeClient::connect(addr.as_str())?
    };
    let fail = |e: pdgf::ServeError| PdgfError::Config(e.to_string());

    if args.ping {
        client.ping().map_err(fail)?;
        println!("pong");
        return Ok(());
    }
    if args.info {
        let payload = match &args.model {
            Some(model) => client.info_of(model).map_err(fail)?,
            None => client.info().map_err(fail)?,
        };
        println!("{payload}");
        return Ok(());
    }
    if args.stats {
        println!("{}", client.stats().map_err(fail)?);
        return Ok(());
    }

    let table = args
        .table
        .as_ref()
        .ok_or_else(|| PdgfError::Config("--table is required for fetch".into()))?;
    let mut req = if let Some(row) = args.row {
        FetchRequest::row(table, row)
    } else {
        let start = args
            .start
            .ok_or_else(|| PdgfError::Config("--start/--end or --row required".into()))?;
        let end = args
            .end
            .ok_or_else(|| PdgfError::Config("--start/--end or --row required".into()))?;
        FetchRequest::range(table, start, end.saturating_sub(start))
    };
    req = req.format(args.format).update(args.update);
    if let Some(model) = &args.model {
        req = req.model(model);
    }
    let bytes: Vec<u8> = client.fetch(req).map_err(fail)?;
    match &args.out {
        Some(path) => std::fs::write(path, &bytes)?,
        None => {
            let mut stdout = std::io::stdout().lock();
            stdout.write_all(&bytes)?;
            stdout.flush()?;
        }
    }
    Ok(())
}
