//! Integration tests for the `pdgf` command line interface.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pdgf"))
}

fn model_file(dir: &PathBuf) -> PathBuf {
    let doc = r#"<?xml version="1.0" encoding="UTF-8"?>
<schema name="cli">
  <seed>12456789</seed>
  <rng name="PdgfDefaultRandom"/>
  <property name="SF" type="double">1</property>
  <table name="t">
    <size>20 * ${SF}</size>
    <field name="id" type="BIGINT" primary="true"><gen_IdGenerator/></field>
    <field name="v" type="INTEGER">
      <gen_LongGenerator><min>0</min><max>9</max></gen_LongGenerator>
    </field>
  </table>
</schema>"#;
    std::fs::create_dir_all(dir).expect("temp dir");
    let path = dir.join("model.xml");
    std::fs::write(&path, doc).expect("write model");
    path
}

fn workdir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pdgf-cli-{tag}-{}", std::process::id()))
}

#[test]
fn generate_writes_csv_files() {
    let dir = workdir("gen");
    let model = model_file(&dir);
    let out = dir.join("out");
    let output = bin()
        .args([
            "generate",
            "--model",
            model.to_str().expect("utf8 path"),
            "--out",
            out.to_str().expect("utf8 path"),
            "--workers",
            "2",
            "-p",
            "SF=2",
        ])
        .output()
        .expect("binary runs");
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let csv = std::fs::read_to_string(out.join("t.csv")).expect("output exists");
    assert_eq!(csv.lines().count(), 40, "SF=2 doubles the 20 rows");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("total: 40 rows"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn node_shards_concatenate_to_the_single_node_file() {
    let dir = workdir("shard");
    let model = model_file(&dir);
    let whole = dir.join("whole");
    let output = bin()
        .args([
            "generate",
            "--model",
            model.to_str().expect("utf8 path"),
            "--out",
            whole.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("binary runs");
    assert!(output.status.success());
    let reference = std::fs::read(whole.join("t.csv")).expect("output exists");

    let shards = dir.join("shards");
    let mut concat = Vec::new();
    for node in 0..3 {
        let output = bin()
            .args([
                "generate",
                "--model",
                model.to_str().expect("utf8 path"),
                "--out",
                shards.to_str().expect("utf8 path"),
                "--node",
                &node.to_string(),
                "--nodes",
                "3",
            ])
            .output()
            .expect("binary runs");
        assert!(
            output.status.success(),
            "{}",
            String::from_utf8_lossy(&output.stderr)
        );
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(stdout.contains(&format!("node {node}/3:")), "{stdout}");
        concat
            .extend(std::fs::read(shards.join(format!("t.part{node}.csv"))).expect("shard exists"));
    }
    assert_eq!(concat, reference);

    // Out-of-range node is rejected.
    let output = bin()
        .args([
            "generate",
            "--model",
            model.to_str().expect("utf8 path"),
            "--out",
            shards.to_str().expect("utf8 path"),
            "--node",
            "3",
            "--nodes",
            "3",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(1));
    std::fs::remove_dir_all(&dir).ok();
}

/// 32 nodes over 20 rows: most shards own no rows, yet every node writes
/// its part file, so `cat t.part{0..31}.xml` is the whole document.
#[test]
fn every_node_writes_every_part_even_past_the_row_count() {
    let dir = workdir("shard32");
    let model = model_file(&dir);
    let generate = |out: &PathBuf, shard: &[&str]| {
        let output = bin()
            .args([
                "generate",
                "--model",
                model.to_str().expect("utf8 path"),
                "--format",
                "xml",
                "--out",
                out.to_str().expect("utf8 path"),
            ])
            .args(shard)
            .output()
            .expect("binary runs");
        assert!(
            output.status.success(),
            "{}",
            String::from_utf8_lossy(&output.stderr)
        );
    };
    let whole = dir.join("whole");
    generate(&whole, &[]);
    let shards = dir.join("shards");
    let mut concat = Vec::new();
    for node in 0..32 {
        generate(&shards, &["--node", &node.to_string(), "--nodes", "32"]);
        let part = shards.join(format!("t.part{node}.xml"));
        concat.extend(std::fs::read(&part).unwrap_or_else(|e| panic!("{part:?}: {e}")));
    }
    assert_eq!(
        String::from_utf8_lossy(&concat),
        std::fs::read_to_string(whole.join("t.xml")).expect("whole output")
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn preview_prints_rows_and_headers() {
    let dir = workdir("preview");
    let model = model_file(&dir);
    let output = bin()
        .args([
            "preview",
            "--model",
            model.to_str().expect("utf8 path"),
            "--table",
            "t",
            "--rows",
            "3",
        ])
        .output()
        .expect("binary runs");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.starts_with("id | v\n"), "{stdout}");
    assert_eq!(stdout.lines().count(), 4, "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn info_and_validate_report_the_model() {
    let dir = workdir("info");
    let model = model_file(&dir);
    let output = bin()
        .args(["info", "--model", model.to_str().expect("utf8 path")])
        .output()
        .expect("binary runs");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("project: cli (seed 12456789)"), "{stdout}");
    assert!(stdout.contains("SF = 1"), "{stdout}");

    let output = bin()
        .args(["validate", "--model", model.to_str().expect("utf8 path")])
        .output()
        .expect("binary runs");
    assert!(output.status.success());
    assert!(String::from_utf8_lossy(&output.stdout).contains("OK: 1 tables"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn seed_override_changes_output() {
    let dir = workdir("seed");
    let model = model_file(&dir);
    let run = |seed: &str| -> String {
        let out = dir.join(format!("out-{seed}"));
        let output = bin()
            .args([
                "generate",
                "--model",
                model.to_str().expect("utf8 path"),
                "--out",
                out.to_str().expect("utf8 path"),
                "--seed",
                seed,
            ])
            .output()
            .expect("binary runs");
        assert!(output.status.success());
        std::fs::read_to_string(out.join("t.csv")).expect("output exists")
    };
    assert_ne!(run("1"), run("2"));
    assert_eq!(run("3"), run("3"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_out_writes_event_jsonl_and_summary() {
    let dir = workdir("metrics");
    let model = model_file(&dir);
    let out = dir.join("out");
    let metrics = dir.join("run.jsonl");
    let output = bin()
        .args([
            "generate",
            "--model",
            model.to_str().expect("utf8 path"),
            "--out",
            out.to_str().expect("utf8 path"),
            "--workers",
            "2",
            "--metrics-out",
            metrics.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("binary runs");
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let jsonl = std::fs::read_to_string(&metrics).expect("metrics file written");
    let lines: Vec<&str> = jsonl.lines().collect();
    assert!(
        lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')),
        "every line is a JSON object: {jsonl}"
    );
    assert!(lines[0].contains("\"event\":\"run_started\""), "{jsonl}");
    assert!(
        lines.iter().any(|l| l.contains("\"event\":\"package_completed\"")
            && l.contains("\"table\":\"t\"")),
        "{jsonl}"
    );
    assert!(
        lines
            .iter()
            .any(|l| l.contains("\"event\":\"run_finished\"")),
        "{jsonl}"
    );
    let last = lines.last().expect("nonempty");
    assert!(last.contains("\"event\":\"metrics_snapshot\""), "{jsonl}");
    assert!(last.contains("\"utilization\":"), "{jsonl}");
    assert!(last.contains("\"p99_ns\":"), "{jsonl}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite of the serve PR's bugfix sweep: a run that dies on a sink
/// error must still flush the terminal telemetry — the JSONL ends with
/// the `metrics_snapshot` summary record instead of truncating.
#[test]
fn metrics_out_flushes_snapshot_when_the_run_fails() {
    let dir = workdir("metrics-fail");
    let model = model_file(&dir);
    let out = dir.join("out");
    // Block the table's output file with a directory of the same name so
    // sink creation fails mid-run.
    std::fs::create_dir_all(out.join("t.csv")).expect("blocking dir");
    let metrics = dir.join("run.jsonl");
    let output = bin()
        .args([
            "generate",
            "--model",
            model.to_str().expect("utf8 path"),
            "--out",
            out.to_str().expect("utf8 path"),
            "--metrics-out",
            metrics.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(1), "run must fail");
    let jsonl = std::fs::read_to_string(&metrics).expect("metrics file written despite failure");
    let last = jsonl.lines().last().expect("nonempty");
    assert!(
        last.contains("\"event\":\"metrics_snapshot\""),
        "terminal snapshot missing: {jsonl}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Shard mode takes the same observers as a whole-project run: a shard
/// with `--metrics-out` (and `--progress`) writes a terminated event
/// stream plus the summary record, prints no "ignored" note, and its data
/// file is byte-equal to the same shard generated without the flags.
#[test]
fn shard_run_takes_metrics_out_like_any_other_run() {
    let dir = workdir("shard-metrics");
    let model = model_file(&dir);
    let metrics = dir.join("shard.jsonl");
    let shard = |out: &str, observed: bool| {
        let out = dir.join(out);
        let mut cmd = bin();
        cmd.args(["generate", "--model", model.to_str().expect("utf8 path")])
            .args(["--out", out.to_str().expect("utf8 path")])
            .args(["--workers", "2", "--node", "1", "--nodes", "3"]);
        if observed {
            cmd.args(["--progress", "--metrics-out"]).arg(&metrics);
        }
        let output = cmd.output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
        assert!(output.status.success(), "{stderr}");
        assert!(!stderr.contains("ignored"), "{stderr}");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(stdout.contains("node 1/3: 7 rows"), "{stdout}");
        std::fs::read(out.join("t.part1.csv")).expect("shard exists")
    };
    assert_eq!(shard("plain", false), shard("observed", true));

    let jsonl = std::fs::read_to_string(&metrics).expect("metrics file written");
    let lines: Vec<&str> = jsonl.lines().collect();
    assert!(lines[0].contains("\"event\":\"run_started\""), "{jsonl}");
    assert!(
        lines[0].contains("\"total_rows\":7"),
        "the shard's rows: {jsonl}"
    );
    assert!(
        lines[lines.len() - 2].contains("\"event\":\"run_finished\""),
        "{jsonl}"
    );
    let last = lines.last().expect("nonempty");
    assert!(last.contains("\"event\":\"metrics_snapshot\""), "{jsonl}");
    std::fs::remove_dir_all(&dir).ok();
}

/// End-to-end over real processes: `pdgf serve` + `pdgf fetch`. The
/// concatenated fetched shards must be byte-equal to `pdgf generate`'s
/// file, and the JSON endpoints must answer.
#[test]
fn serve_and_fetch_roundtrip_matches_generate() {
    let dir = workdir("serve");
    let model = model_file(&dir);
    let out = dir.join("out");
    let output = bin()
        .args([
            "generate",
            "--model",
            model.to_str().expect("utf8 path"),
            "--out",
            out.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("binary runs");
    assert!(output.status.success());
    let reference = std::fs::read(out.join("t.csv")).expect("output exists");

    let mut server = bin()
        .args([
            "serve",
            "--model",
            model.to_str().expect("utf8 path"),
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--package-rows",
            "7",
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("server starts");
    // The server prints `listening on ADDR` once bound.
    let addr = {
        use std::io::BufRead as _;
        let stdout = server.stdout.take().expect("piped stdout");
        let mut line = String::new();
        std::io::BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read banner");
        line.trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected banner {line:?}"))
            .to_string()
    };

    let fetch = |extra: &[&str]| -> std::process::Output {
        let mut cmd = bin();
        cmd.args(["fetch", "--addr", &addr]);
        cmd.args(extra);
        cmd.output().expect("fetch runs")
    };

    // Shards concatenate to the generated file; --out writes to a file.
    let mut concat = Vec::new();
    for (start, end) in [("0", "13"), ("13", "20")] {
        let shard = dir.join(format!("shard-{start}.csv"));
        let output = fetch(&[
            "--table",
            "t",
            "--start",
            start,
            "--end",
            end,
            "--out",
            shard.to_str().expect("utf8 path"),
        ]);
        assert!(
            output.status.success(),
            "{}",
            String::from_utf8_lossy(&output.stderr)
        );
        concat.extend(std::fs::read(&shard).expect("shard written"));
    }
    assert_eq!(concat, reference, "fetched shards != generate output");

    // Point lookup to stdout is the row's line of the file.
    let output = fetch(&["--table", "t", "--row", "5"]);
    assert!(output.status.success());
    let line_5 = String::from_utf8(reference.clone())
        .expect("utf8 csv")
        .lines()
        .nth(5)
        .expect("20 rows")
        .to_string();
    assert_eq!(
        String::from_utf8_lossy(&output.stdout),
        format!("{line_5}\n")
    );

    // JSON endpoints.
    let output = fetch(&["--info"]);
    assert!(output.status.success());
    assert!(
        String::from_utf8_lossy(&output.stdout).contains("\"schema\":\"cli\""),
        "{}",
        String::from_utf8_lossy(&output.stdout)
    );
    let output = fetch(&["--stats"]);
    assert!(output.status.success());
    assert!(
        String::from_utf8_lossy(&output.stdout).contains("\"completed\":"),
        "{}",
        String::from_utf8_lossy(&output.stdout)
    );
    let output = fetch(&["--ping"]);
    assert!(output.status.success());

    // Request errors surface as nonzero fetch exits, server keeps going.
    let output = fetch(&["--table", "nope", "--start", "0", "--end", "1"]);
    assert_eq!(output.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&output.stderr).contains("unknown table"),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let output = fetch(&["--ping"]);
    assert!(output.status.success(), "server survived the bad request");

    server.kill().expect("stop server");
    let _ = server.wait();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn progress_flag_reports_to_stderr_without_changing_output() {
    let dir = workdir("progress");
    let model = model_file(&dir);
    let plain = dir.join("plain");
    let output = bin()
        .args([
            "generate",
            "--model",
            model.to_str().expect("utf8 path"),
            "--out",
            plain.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("binary runs");
    assert!(output.status.success());
    let reference = std::fs::read(plain.join("t.csv")).expect("output exists");

    let observed = dir.join("observed");
    let output = bin()
        .args([
            "generate",
            "--model",
            model.to_str().expect("utf8 path"),
            "--out",
            observed.to_str().expect("utf8 path"),
            "--progress",
        ])
        .output()
        .expect("binary runs");
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert_eq!(
        std::fs::read(observed.join("t.csv")).expect("output exists"),
        reference,
        "--progress does not change the bytes"
    );

    // Shard mode reports progress too, against the shard's own rows.
    let shards = dir.join("shards");
    let output = bin()
        .args([
            "generate",
            "--model",
            model.to_str().expect("utf8 path"),
            "--out",
            shards.to_str().expect("utf8 path"),
            "--node",
            "0",
            "--nodes",
            "2",
            "--progress",
        ])
        .output()
        .expect("binary runs");
    assert!(output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("/10 rows"), "{stderr}");
    assert!(!stderr.contains("ignored"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_invocations_fail_cleanly() {
    // Unknown command → usage, exit code 2.
    let output = bin().arg("frobnicate").output().expect("binary runs");
    assert_eq!(output.status.code(), Some(2));

    // Missing model → error, exit code 1.
    let output = bin()
        .args(["generate", "--out", "/tmp/x"])
        .output()
        .expect("runs");
    assert_eq!(output.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&output.stderr).contains("--model"));

    // Nonexistent model file.
    let output = bin()
        .args(["validate", "--model", "/nonexistent/m.xml"])
        .output()
        .expect("runs");
    assert_eq!(output.status.code(), Some(1));

    // Out-of-range values reach no run: a message, exit code 1, no panic.
    let dir = workdir("bad");
    let model = model_file(&dir);
    let model = model.to_str().expect("utf8 path");
    let out = dir.join("out");
    let out = out.to_str().expect("utf8 path");
    for (args, message) in [
        (
            ["serve", "--addr", "127.0.0.1:0", "--package-rows", "0"],
            "--package-rows",
        ),
        (
            ["generate", "--out", out, "--package-rows", "0"],
            "--package-rows",
        ),
        (["generate", "--out", out, "--nodes", "0"], "node"),
        // An address without a port, so a server the check misses exits
        // with another message instead of serving.
        (
            ["serve", "--addr", "127.0.0.1", "--window", "0"],
            "--window",
        ),
        (
            ["serve", "--addr", "127.0.0.1", "--workers", "0"],
            "--workers",
        ),
    ] {
        let output = bin()
            .args(args)
            .args(["--model", model])
            .output()
            .expect("runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
