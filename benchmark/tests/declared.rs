//! `BENCHMARK.json` and the binary must name the same workloads and
//! metrics, with the same units, and the file must stay inside the limits
//! the driver's contract puts on it.

use benchmark::host::repo_root;
use benchmark::json::Json;
use benchmark::spec::{Workload, END_TO_END, PER_LAYER, RUN_SECONDS};

fn benchmark_json() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json exceeds 64 KiB");
    Json::parse(&text).unwrap()
}

fn text<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("entry {entry:?} has no string {key}"))
}

fn entries<'a>(file: &'a Json, key: &str) -> &'a [Json] {
    file.get(key).and_then(Json::as_arr).unwrap()
}

#[test]
fn the_file_has_exactly_the_contract_keys() {
    let file = benchmark_json();
    let keys: Vec<&str> = file.as_obj().unwrap().iter().map(|(k, _)| &**k).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        file.get("run_seconds").and_then(Json::as_f64),
        Some(RUN_SECONDS)
    );
    let paths: Vec<&str> = entries(&file, "paths")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let command: Vec<&str> = entries(&file, "command")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert!(command.len() <= 32 && command.iter().all(|a| a.len() <= 200));
    assert!(command.contains(&"benchmark/Cargo.toml"));
    assert!(!command
        .iter()
        .any(|a| a.starts_with('/') || a.contains("..")));
}

#[test]
fn workloads_match_the_binary() {
    let file = benchmark_json();
    let declared: Vec<&str> = entries(&file, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    let emitted: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(declared, emitted);
    for w in entries(&file, "workloads") {
        assert_eq!(
            w.as_obj().unwrap().len(),
            2,
            "a workload has a name and a why"
        );
        let why = text(w, "why");
        assert!(why.len() <= 200 && !why.contains('\n'), "{why:?}");
    }
}

/// `(name, unit)` of every entry of a metric list, after checking each
/// entry's keys and direction.
fn metric_list<'a>(file: &'a Json, key: &str, bounded: bool) -> Vec<(&'a str, &'a str)> {
    entries(file, key)
        .iter()
        .map(|m| {
            assert_eq!(
                m.as_obj().unwrap().len(),
                if bounded { 4 } else { 3 },
                "{m:?}"
            );
            assert!(["lower", "higher"].contains(&text(m, "better")), "{m:?}");
            let unit = text(m, "unit");
            assert!(unit.len() <= 16, "{unit}");
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            if bounded {
                let bound = m.get("bound").and_then(Json::as_f64).unwrap();
                assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
            }
            (text(m, "name"), unit)
        })
        .collect()
}

#[test]
fn end_to_end_metrics_match_the_binary() {
    let file = benchmark_json();
    assert_eq!(metric_list(&file, "end_to_end", true), END_TO_END);
    let setup = entries(&file, "end_to_end")
        .iter()
        .find(|m| text(m, "name") == "setup_s")
        .expect("setup_s is required");
    assert_eq!((text(setup, "unit"), text(setup, "better")), ("s", "lower"));
    // Set-up time gets the largest bound.
    let bound = |m: &Json| m.get("bound").and_then(Json::as_f64).unwrap();
    assert!(entries(&file, "end_to_end")
        .iter()
        .all(|m| bound(m) <= bound(setup)));
}

#[test]
fn per_layer_metrics_match_the_binary() {
    let file = benchmark_json();
    assert_eq!(metric_list(&file, "per_layer", false), PER_LAYER);
}
