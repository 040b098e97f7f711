//! Consistent query-workload generation — the paper's Section 7 roadmap
//! ("we will generate the queries consistently using PDGF … our tool will
//! then also be able to directly execute the query without ever
//! generating the data"):
//!
//! 1. build the TPC-H model,
//! 2. derive a deterministic query workload from it (parameters drawn so
//!    every lookup hits data that will exist),
//! 3. answer what can be answered *analytically*, with no data,
//! 4. then actually generate + load the data and verify the answers.
//!
//! ```text
//! cargo run --release --example benchmark_workload
//! ```

use dbsynth_suite::dbsynth::{
    analytic_answer, generate_queries, load_generated, Answer, QueryGenConfig, QueryKind,
};
use dbsynth_suite::minidb::sql::query;
use dbsynth_suite::minidb::Database;
use dbsynth_suite::workloads::tpch;

fn main() {
    let project = tpch::project(0.001)
        .workers(2)
        .build()
        .expect("tpch builds");
    let schema = project.schema();
    let rt = project.runtime();

    // 2. The workload.
    let cfg = QueryGenConfig {
        seed: 20_150_531,
        count: 24,
        range_selectivity: 0.15,
    };
    let workload = generate_queries(schema, rt, &cfg);
    println!("generated {} queries; first few:", workload.len());
    for q in workload.iter().take(5) {
        println!("  [{:?}] {}", q.kind, q.sql);
    }

    // 3. Answers without data.
    println!("\nanalytic answers (no data generated yet):");
    let mut analytic = Vec::new();
    for q in &workload {
        let a = analytic_answer(schema, rt, q);
        analytic.push(a);
        match a {
            Answer::Exact(n) => println!("  exact    {n:>10}  {}", q.sql),
            Answer::Expected(n) => println!("  expected {n:>10.1}  {}", q.sql),
            Answer::Unknown => {}
        }
    }

    // 4. Generate, load, verify.
    let mut db = Database::new();
    load_generated(&mut db, schema, rt).expect("rows satisfy DDL");
    println!("\nloaded the data; verifying:");
    let (mut exact_ok, mut expected_ok, mut total_checked) = (0, 0, 0);
    for (q, a) in workload.iter().zip(&analytic) {
        let measured = query(&db, &q.sql)
            .expect("query executes")
            .rows
            .first()
            .and_then(|r| r.first())
            .and_then(|v| v.as_i64())
            .unwrap_or(-1);
        match a {
            Answer::Exact(n) => {
                total_checked += 1;
                assert_eq!(measured as u64, *n, "exact answer wrong for {}", q.sql);
                exact_ok += 1;
            }
            Answer::Expected(n) => {
                total_checked += 1;
                let sigma = n.max(1.0).sqrt() * 4.0 + 10.0;
                assert!(
                    (measured as f64 - n).abs() < sigma,
                    "expected {n}±{sigma}, measured {measured} for {}",
                    q.sql
                );
                expected_ok += 1;
            }
            Answer::Unknown => {
                let _ = measured; // executed, but no analytic baseline
            }
        }
    }
    println!(
        "  {exact_ok} exact answers verified, {expected_ok} expectations within 4σ \
         ({total_checked} of {} queries had analytic answers)",
        workload.len()
    );
    let kinds: std::collections::HashSet<QueryKind> = workload.iter().map(|q| q.kind).collect();
    println!("  query classes exercised: {kinds:?}");
}
