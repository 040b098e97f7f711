//! The Star Schema Benchmark as a PDGF model.
//!
//! The paper lists SSB among the benchmarks PDGF implemented ("PDGF has
//! been successfully used to implement a variety of benchmarks, e.g.,
//! TPC-H, the Star Schema Benchmark, TPC-DI, and BigBench") and cites the
//! authors' skewed-SSB work ("Variations of the Star Schema Benchmark to
//! Test Data Skew in Database Management Systems", ICPE 2013). Both live
//! here: [`schema`] parses the classic uniform SSB from `models/ssb.xml`,
//! its only definition, and [`schema_skewed`] derives the skew variant
//! where dimension references follow a Zipf distribution — the feature
//! those variations exist to exercise.
//!
//! Modelling choices the file encodes:
//! - `date_dim` holds 7 years of days (2,556 rows) whatever the scale
//!   factor, as in SSB.
//! - Its row `k` is day `k` of that span: `d_year`, `d_month` and
//!   `d_weekday` derive from the key by formula.
//! - `lo_comment` draws from TPC-H's comment Markov model, the same
//!   resource file as `l_comment`.

use pdgf_gen::MapResolver;
use pdgf_schema::model::{GeneratorSpec, RefDistribution};
use pdgf_schema::Schema;

/// The classic (uniform) Star Schema Benchmark of `models/ssb.xml` with
/// its seed set to `seed`.
pub fn schema(seed: u64) -> Schema {
    let mut s = pdgf_schema::config::from_xml_string(include_str!("../../../models/ssb.xml"))
        .expect("models/ssb.xml parses");
    s.seed = seed;
    s
}

/// The skewed SSB variant: `lineorder`'s references to `customer`, `part`
/// and `supplier` follow a Zipf distribution with exponent `theta`,
/// concentrating sales on popular customers/parts/suppliers. Order dates
/// stay uniform over `date_dim`.
pub fn schema_skewed(seed: u64, theta: f64) -> Schema {
    let mut s = schema(seed);
    let lineorder = s.tables.iter_mut().find(|t| t.name == "lineorder");
    for field in &mut lineorder.expect("ssb has lineorder").fields {
        if let GeneratorSpec::Reference {
            table,
            distribution,
            ..
        } = &mut field.generator
        {
            if table != "date_dim" {
                *distribution = RefDistribution::Zipf { theta };
            }
        }
    }
    s
}

/// Resolver carrying the comment model.
pub fn resolver() -> MapResolver {
    crate::tpch::resolver()
}

/// Ready-to-build uniform-SSB project at `sf`.
pub fn project(sf: f64) -> pdgf::Pdgf {
    pdgf::Pdgf::from_schema(schema(19_920_601))
        .resolver(resolver())
        .set_property("SF", &format!("{sf}"))
}

/// Ready-to-build skewed-SSB project at `sf`.
pub fn project_skewed(sf: f64, theta: f64) -> pdgf::Pdgf {
    pdgf::Pdgf::from_schema(schema_skewed(19_920_601, theta))
        .resolver(resolver())
        .set_property("SF", &format!("{sf}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_variants_validate() {
        schema(1).validate().unwrap();
        schema_skewed(1, 0.8).validate().unwrap();
    }

    #[test]
    fn fact_references_resolve_to_dimensions() {
        let project = project(0.001).workers(0).build().unwrap();
        let rt = project.runtime();
        let (lo_idx, lo) = rt.table_by_name("lineorder").unwrap();
        assert_eq!(lo.size, 6_000);
        let (_, customer) = rt.table_by_name("customer").unwrap();
        let (_, date_dim) = rt.table_by_name("date_dim").unwrap();
        assert_eq!(date_dim.size, 2_556, "date dimension does not scale");
        for row in (0..lo.size).step_by(131) {
            let c = rt.value(lo_idx, 1, 0, row).as_i64().unwrap();
            assert!((1..=customer.size as i64).contains(&c));
            let d = rt.value(lo_idx, 4, 0, row).as_i64().unwrap();
            assert!((1..=2556).contains(&d));
        }
    }

    #[test]
    fn skewed_variant_concentrates_sales() {
        let uniform = project(0.002).workers(0).build().unwrap();
        let skewed = project_skewed(0.002, 0.8).workers(0).build().unwrap();
        let hot_count = |p: &pdgf::PdgfProject| {
            let rt = p.runtime();
            let (lo_idx, lo) = rt.table_by_name("lineorder").unwrap();
            let mut counts = std::collections::HashMap::new();
            for row in 0..lo.size {
                *counts
                    .entry(rt.value(lo_idx, 2, 0, row).as_i64().unwrap())
                    .or_insert(0u64) += 1;
            }
            counts.values().copied().max().unwrap()
        };
        let hot_uniform = hot_count(&uniform);
        let hot_skewed = hot_count(&skewed);
        assert!(
            hot_skewed > hot_uniform * 5,
            "skew not visible: uniform hottest {hot_uniform}, skewed hottest {hot_skewed}"
        );
    }

    #[test]
    fn date_dimension_formulas_are_calendar_like() {
        let project = project(0.001).workers(0).build().unwrap();
        let rt = project.runtime();
        let (d_idx, _) = rt.table_by_name("date_dim").unwrap();
        // First day: 1992, month 1, weekday 1.
        assert_eq!(rt.value(d_idx, 1, 0, 0).as_i64(), Some(1992));
        assert_eq!(rt.value(d_idx, 2, 0, 0).as_i64(), Some(1));
        // Last day of the 7-year span is in 1998.
        assert_eq!(rt.value(d_idx, 1, 0, 2555).as_i64(), Some(1998));
        for row in [0u64, 100, 2000] {
            let m = rt.value(d_idx, 2, 0, row).as_i64().unwrap();
            assert!((1..=12).contains(&m));
            let w = rt.value(d_idx, 3, 0, row).as_i64().unwrap();
            assert!((1..=7).contains(&w));
        }
    }
}
