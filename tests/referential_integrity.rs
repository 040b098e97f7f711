//! End-to-end referential integrity: generated data loaded into the
//! minidb substrate must join cleanly — the consistency the paper's
//! "reference computation" strategy guarantees without ever reading
//! generated data.

use dbsynth_suite::dbsynth::load_generated;
use dbsynth_suite::minidb::sql::{execute, query};
use dbsynth_suite::minidb::Database;
use dbsynth_suite::pdgf::runtime::UpdateConfig;
use dbsynth_suite::workloads::{bigbench, tpch};
use pdgf_schema::Value;

/// Generate a project's tables straight into a fresh minidb.
fn load_project(project: &dbsynth_suite::pdgf::PdgfProject) -> Database {
    let mut db = Database::new();
    load_generated(&mut db, project.schema(), project.runtime()).expect("rows satisfy DDL");
    db
}

#[test]
fn tpch_foreign_keys_join_without_orphans() {
    let project = tpch::project(0.0005)
        .workers(0)
        .build()
        .expect("tpch builds");
    let db = load_project(&project);

    // Every lineitem joins to an order; the join count equals lineitem's
    // row count exactly (no orphans, keys unique on the parent side).
    let li_count = query(&db, "SELECT COUNT(*) FROM lineitem")
        .expect("count")
        .rows[0][0]
        .clone();
    let joined = query(
        &db,
        "SELECT COUNT(*) FROM lineitem JOIN orders ON lineitem.l_orderkey = orders.o_orderkey",
    )
    .expect("join")
    .rows[0][0]
        .clone();
    assert_eq!(li_count, joined);

    // Orders → customer → nation → region chains resolve completely.
    let chain = query(
        &db,
        "SELECT COUNT(*) FROM orders \
         JOIN customer ON orders.o_custkey = customer.c_custkey \
         JOIN nation ON customer.c_nationkey = nation.n_nationkey \
         JOIN region ON nation.n_regionkey = region.r_regionkey",
    )
    .expect("chain join")
    .rows[0][0]
        .clone();
    let o_count = query(&db, "SELECT COUNT(*) FROM orders")
        .expect("count")
        .rows[0][0]
        .clone();
    assert_eq!(chain, o_count);
}

#[test]
fn tpch_business_queries_return_sane_shapes() {
    let project = tpch::project(0.0005)
        .workers(2)
        .build()
        .expect("tpch builds");
    let db = load_project(&project);

    // A pricing-summary-flavoured aggregation (Q1-like).
    let q1 = query(
        &db,
        "SELECT l_returnflag, l_linestatus, COUNT(*) AS n, SUM(l_quantity) AS qty \
         FROM lineitem GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus",
    )
    .expect("q1");
    assert!(
        (3..=6).contains(&q1.rows.len()),
        "R/A/N × O/F combinations: got {}",
        q1.rows.len()
    );

    // Per-segment customer counts cover all five segments.
    let seg = query(
        &db,
        "SELECT c_mktsegment, COUNT(*) FROM customer GROUP BY c_mktsegment",
    )
    .expect("segments");
    assert_eq!(seg.rows.len(), 5);

    // Date predicates work on generated dates.
    let dated = query(
        &db,
        "SELECT COUNT(*) FROM orders WHERE o_orderdate >= '1995-01-01' AND \
         o_orderdate < '1996-01-01'",
    )
    .expect("dated");
    let n = dated.rows[0][0].as_i64().expect("count");
    let total = query(&db, "SELECT COUNT(*) FROM orders")
        .expect("count")
        .rows[0][0]
        .as_i64()
        .expect("count");
    // Uniform over ~6.6 years: one year holds roughly 15%.
    let frac = n as f64 / total as f64;
    assert!((0.10..0.22).contains(&frac), "1995 fraction {frac}");
}

#[test]
fn bigbench_reviews_reference_items_and_customers() {
    let project = bigbench::project(0.05)
        .workers(0)
        .build()
        .expect("bigbench builds");
    let db = load_project(&project);
    let reviews = query(&db, "SELECT COUNT(*) FROM product_reviews")
        .expect("count")
        .rows[0][0]
        .clone();
    let joined = query(
        &db,
        "SELECT COUNT(*) FROM product_reviews \
         JOIN item ON product_reviews.pr_item = item.i_item_id \
         JOIN customer ON product_reviews.pr_user = customer.c_customer_id",
    )
    .expect("join")
    .rows[0][0]
        .clone();
    assert_eq!(reviews, joined);
}

#[test]
fn generated_sql_format_loads_through_the_sql_engine() {
    // The SQL output format must be executable DDL+DML: build the target
    // through INSERT statements only.
    let project = tpch::project(0.0001)
        .workers(0)
        .build()
        .expect("tpch builds");
    let mut db = Database::new();
    dbsynth_suite::dbsynth::translate::create_target_tables(&mut db, project.schema())
        .expect("DDL applies");
    let inserts = project
        .table_to_string("region", dbsynth_suite::pdgf::OutputFormat::Sql)
        .expect("sql render");
    for stmt in inserts.lines() {
        execute(&mut db, stmt).expect("insert executes");
    }
    let n = query(&db, "SELECT COUNT(*) FROM region")
        .expect("count")
        .rows[0][0]
        .clone();
    assert_eq!(n, Value::Long(5));
    let names = query(&db, "SELECT r_name FROM region ORDER BY r_regionkey").expect("names");
    assert_eq!(names.rows[0][0], Value::text("AFRICA"));
    assert_eq!(names.rows[4][0], Value::text("MIDDLE EAST"));
}

/// Every DELETE and UPDATE in a CDC change file addresses one row: loaded
/// at epoch 0, each epoch-1 predicate of TPC-H matches at most one row. A
/// table with no primary key (`lineitem`, `partsupp`) has no key to
/// address a row by, so its change files hold inserts only.
#[test]
fn cdc_predicates_match_at_most_one_row() {
    let project = tpch::project(0.001)
        .workers(0)
        .build()
        .expect("tpch builds");
    let db = load_project(&project);
    let dir = std::env::temp_dir().join(format!("cdc-predicates-{}", std::process::id()));
    let files = project
        .generate_updates_to_dir(&dir, 1, UpdateConfig::default())
        .expect("change files write");
    let mut checked = 0;
    for (table, epoch, _) in files {
        let sql = std::fs::read_to_string(dir.join(format!("{table}.u{epoch}.sql")))
            .expect("change file reads");
        for stmt in sql.lines().filter(|s| !s.starts_with("INSERT")) {
            let at = stmt
                .rfind(" WHERE ")
                .expect("DELETE/UPDATE has a predicate");
            let predicate = stmt[at..].trim_end_matches(';');
            let matched = query(&db, &format!("SELECT COUNT(*) FROM {table}{predicate}"))
                .expect("predicate runs")
                .rows[0][0]
                .as_i64()
                .expect("count");
            assert!(matched <= 1, "{table}: {matched} rows match {stmt:?}");
            checked += 1;
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    assert!(checked > 0, "no DELETE or UPDATE was checked");
}
