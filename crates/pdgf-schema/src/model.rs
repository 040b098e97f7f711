//! The schema model: the in-memory form of a PDGF project configuration.
//!
//! A [`Schema`] corresponds to one `<schema>` XML document (Listing 1 of
//! the paper): project seed, PRNG choice, properties, and tables whose
//! fields each carry a [`GeneratorSpec`] — a *description* of how values
//! are produced. The executable generator pipeline is built from these
//! specs by `pdgf-gen`.

use crate::expr::Expr;
use crate::props::PropertyBag;
use crate::types::SqlType;
use crate::value::{Date, Value};
use std::collections::BTreeMap;
use std::fmt;

/// How a reference generator picks parent rows.
#[derive(Debug, Clone, PartialEq)]
pub enum RefDistribution {
    /// Uniform over all parent rows.
    Uniform,
    /// Zipf-skewed over parent rows (popular parents referenced more).
    Zipf {
        /// Skew exponent in `[0, 1)`.
        theta: f64,
    },
    /// Bijective assignment via a keyed permutation: child row `i` maps to
    /// parent `perm(i mod parent_size)`, guaranteeing near-equal fan-in.
    Permutation,
}

/// Source of a dictionary's entries.
#[derive(Debug, Clone, PartialEq)]
pub enum DictSource {
    /// Entries carried inline in the model: `(text, weight)`.
    Inline {
        /// Dictionary entries with sampling weights.
        entries: Vec<(String, f64)>,
    },
    /// Entries stored in an external dictionary file (one `weight<TAB>text`
    /// per line), as produced by DBSynth's data extraction.
    File(String),
}

/// Source of a Markov chain text model.
#[derive(Debug, Clone, PartialEq)]
pub enum MarkovSource {
    /// Serialized model carried inline (textsynth text serialization).
    Inline(String),
    /// Model stored in an external file, as in the paper's
    /// `markov/l_comment_markovSamples.bin`.
    File(String),
}

/// Date/timestamp output formats understood by formatted generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DateFormat {
    /// `YYYY-MM-DD` (SQL literal form).
    #[default]
    Iso,
    /// `MM/DD/YYYY` — the paper's Figure 9 example ("11/30/2014").
    SlashMdy,
    /// `DD.MM.YYYY`.
    DotDmy,
}

impl DateFormat {
    /// Configuration name.
    pub fn name(self) -> &'static str {
        match self {
            DateFormat::Iso => "iso",
            DateFormat::SlashMdy => "MM/dd/yyyy",
            DateFormat::DotDmy => "dd.MM.yyyy",
        }
    }

    /// Parse a configuration name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "iso" | "yyyy-MM-dd" => Some(DateFormat::Iso),
            "MM/dd/yyyy" => Some(DateFormat::SlashMdy),
            "dd.MM.yyyy" => Some(DateFormat::DotDmy),
            _ => None,
        }
    }

    /// Render a date in this format.
    pub fn render(self, date: Date) -> String {
        let mut out = String::new();
        self.render_into(date, &mut out);
        out
    }

    /// Render a date in this format, appending to `out` without clearing
    /// it (so columnar text arenas can be filled in place).
    pub fn render_into(self, date: Date, out: &mut String) {
        use std::fmt::Write as _;
        let (y, m, d) = date.to_ymd();
        let _ = match self {
            DateFormat::Iso => write!(out, "{y:04}-{m:02}-{d:02}"),
            DateFormat::SlashMdy => write!(out, "{m:02}/{d:02}/{y:04}"),
            DateFormat::DotDmy => write!(out, "{d:02}.{m:02}.{y:04}"),
        };
    }
}

/// Description of a field value generator.
///
/// Simple generators produce values directly; meta generators
/// (`Null`, `Sequential`, `Probability`) wrap sub-generators, enabling the
/// paper's "functional definition of complex values and dependencies using
/// simple building blocks".
#[derive(Debug, Clone, PartialEq)]
pub enum GeneratorSpec {
    /// Unique key values: row number + 1, optionally scrambled through a
    /// keyed permutation (unique but unordered).
    Id {
        /// Emit keys in pseudo-random order instead of sequentially.
        permute: bool,
    },
    /// Uniform integer in `[min, max]` (expressions over properties).
    Long {
        /// Inclusive lower bound.
        min: Expr,
        /// Inclusive upper bound.
        max: Expr,
    },
    /// Uniform double in `[min, max)`, optionally rounded to `decimals`
    /// places at generation time.
    Double {
        /// Inclusive lower bound.
        min: Expr,
        /// Exclusive upper bound.
        max: Expr,
        /// Round to this many decimal places if set.
        decimals: Option<u8>,
    },
    /// Fixed-point decimal uniform in `[min, max]` at the given scale.
    Decimal {
        /// Inclusive lower bound (interpreted at `scale`).
        min: Expr,
        /// Inclusive upper bound (interpreted at `scale`).
        max: Expr,
        /// Digits right of the decimal point.
        scale: u8,
    },
    /// Uniform date in `[min, max]`.
    DateRange {
        /// Earliest date.
        min: Date,
        /// Latest date.
        max: Date,
        /// Output format; non-ISO formats force eager text rendering
        /// (Figure 9's expensive "Date (formatted)" case).
        format: DateFormat,
    },
    /// Uniform timestamp in `[min, max]` (seconds since epoch).
    TimestampRange {
        /// Earliest timestamp.
        min: i64,
        /// Latest timestamp.
        max: i64,
    },
    /// Random alphanumeric string with length uniform in
    /// `[min_len, max_len]`.
    RandomString {
        /// Minimum length.
        min_len: u32,
        /// Maximum length.
        max_len: u32,
    },
    /// Boolean that is `true` with the given probability.
    RandomBool {
        /// Probability of `true`.
        true_prob: f64,
    },
    /// Draw entries from a dictionary, uniformly or weight-proportional.
    Dict {
        /// Where the entries come from.
        source: DictSource,
        /// Honor per-entry weights (alias-method sampling) instead of
        /// drawing uniformly.
        weighted: bool,
    },
    /// Deterministically map row `r` to dictionary entry `r mod len` —
    /// for enumeration tables whose names are fixed per key (TPC-H's
    /// region and nation).
    DictByRow {
        /// Where the entries come from.
        source: DictSource,
    },
    /// Free text from a Markov chain model (DBSynth-built or curated).
    Markov {
        /// Where the model comes from.
        source: MarkovSource,
        /// Minimum words per value.
        min_words: u32,
        /// Maximum words per value.
        max_words: u32,
    },
    /// Recompute a value of another table's field for a consistent
    /// foreign-key reference (the paper's "reference computation").
    Reference {
        /// Referenced table name.
        table: String,
        /// Referenced field name.
        field: String,
        /// How parent rows are selected.
        distribution: RefDistribution,
    },
    /// Meta: emit NULL with `probability`, else delegate to `inner`.
    Null {
        /// Probability of NULL in `[0, 1]`.
        probability: f64,
        /// Wrapped generator.
        inner: Box<GeneratorSpec>,
    },
    /// A single constant value (never varies, cache-friendly).
    Static {
        /// The constant.
        value: Value,
    },
    /// Meta: concatenate the textual renderings of sub-generators.
    Sequential {
        /// Sub-generators evaluated left to right.
        parts: Vec<GeneratorSpec>,
        /// Separator placed between parts.
        separator: String,
    },
    /// Meta: pick one branch by probability (weights must sum to ~1).
    Probability {
        /// `(probability, generator)` branches.
        branches: Vec<(f64, GeneratorSpec)>,
    },
    /// Arithmetic over properties and the current row number (exposed as
    /// `${ROW}`), e.g. `${ROW} % 7 + 1`.
    Formula {
        /// The formula.
        expr: Expr,
        /// Round and emit as integer instead of double.
        as_long: bool,
    },
    /// Numeric values distributed per an extracted equi-width histogram:
    /// a bucket is drawn weight-proportionally, then a value uniformly
    /// within it. DBSynth emits this when the source database's
    /// statistics include histograms, reproducing skew that plain
    /// min/max bounds lose.
    HistogramNumeric {
        /// Bucket boundaries: `bounds[i]..bounds[i+1]` is bucket `i`
        /// (so `len == weights.len() + 1`, strictly increasing).
        bounds: Vec<f64>,
        /// Per-bucket weights (relative frequencies).
        weights: Vec<f64>,
        /// How values are emitted.
        output: HistogramOutput,
    },
}

/// Output type of a [`GeneratorSpec::HistogramNumeric`] generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistogramOutput {
    /// Round to integer ([`Value::Long`]).
    Long,
    /// Raw double.
    Double,
    /// Fixed-point decimal at the given scale (bounds are *scaled*
    /// values, e.g. dollars, not cents).
    Decimal(u8),
}

impl HistogramOutput {
    /// Configuration name.
    pub fn name(self) -> String {
        match self {
            HistogramOutput::Long => "long".to_string(),
            HistogramOutput::Double => "double".to_string(),
            HistogramOutput::Decimal(s) => format!("decimal:{s}"),
        }
    }

    /// Parse a configuration name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "long" => Some(HistogramOutput::Long),
            "double" => Some(HistogramOutput::Double),
            other => other
                .strip_prefix("decimal:")
                .and_then(|d| d.parse().ok())
                .map(HistogramOutput::Decimal),
        }
    }
}

impl GeneratorSpec {
    /// The `gen_*` element name used in XML configurations.
    pub fn xml_name(&self) -> &'static str {
        match self {
            GeneratorSpec::Id { .. } => "gen_IdGenerator",
            GeneratorSpec::Long { .. } => "gen_LongGenerator",
            GeneratorSpec::Double { .. } => "gen_DoubleGenerator",
            GeneratorSpec::Decimal { .. } => "gen_DecimalGenerator",
            GeneratorSpec::DateRange { .. } => "gen_DateGenerator",
            GeneratorSpec::TimestampRange { .. } => "gen_TimestampGenerator",
            GeneratorSpec::RandomString { .. } => "gen_RandomStringGenerator",
            GeneratorSpec::RandomBool { .. } => "gen_RandomBoolGenerator",
            GeneratorSpec::Dict { .. } => "gen_DictListGenerator",
            GeneratorSpec::DictByRow { .. } => "gen_DictByRowGenerator",
            GeneratorSpec::Markov { .. } => "gen_MarkovChainGenerator",
            GeneratorSpec::Reference { .. } => "gen_DefaultReferenceGenerator",
            GeneratorSpec::Null { .. } => "gen_NullGenerator",
            GeneratorSpec::Static { .. } => "gen_StaticValueGenerator",
            GeneratorSpec::Sequential { .. } => "gen_SequentialGenerator",
            GeneratorSpec::Probability { .. } => "gen_ProbabilityGenerator",
            GeneratorSpec::Formula { .. } => "gen_FormulaGenerator",
            GeneratorSpec::HistogramNumeric { .. } => "gen_HistogramGenerator",
        }
    }

    /// Visit this spec and every nested sub-spec.
    pub fn walk(&self, visit: &mut dyn FnMut(&GeneratorSpec)) {
        visit(self);
        match self {
            GeneratorSpec::Null { inner, .. } => inner.walk(visit),
            GeneratorSpec::Sequential { parts, .. } => {
                for p in parts {
                    p.walk(visit);
                }
            }
            GeneratorSpec::Probability { branches } => {
                for (_, g) in branches {
                    g.walk(visit);
                }
            }
            _ => {}
        }
    }
}

/// A column definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// Column name.
    pub name: String,
    /// SQL type.
    pub sql_type: SqlType,
    /// Declared display width (defaults to the type's display size).
    pub size: u32,
    /// Part of the primary key?
    pub primary: bool,
    /// Value generator description.
    pub generator: GeneratorSpec,
}

impl Field {
    /// Field with the type's default display size.
    pub fn new(name: &str, sql_type: SqlType, generator: GeneratorSpec) -> Self {
        Self {
            name: name.to_string(),
            sql_type,
            size: sql_type.display_size(),
            primary: false,
            generator,
        }
    }

    /// Mark as primary key.
    pub fn primary(mut self) -> Self {
        self.primary = true;
        self
    }
}

/// A table definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Table name.
    pub name: String,
    /// Row count formula (usually scale-factor linear, but "any formula
    /// can be used", per the paper).
    pub size: Expr,
    /// Columns in declaration order.
    pub fields: Vec<Field>,
}

impl Table {
    /// New table with a size formula parsed from `size_source`.
    pub fn new(name: &str, size_source: &str) -> Self {
        Self {
            name: name.to_string(),
            size: Expr::parse(size_source).expect("invalid size expression"),
            fields: Vec::new(),
        }
    }

    /// Append a field (builder style).
    pub fn field(mut self, field: Field) -> Self {
        self.fields.push(field);
        self
    }

    /// Index of a field by name.
    pub fn field_index(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// Row count under already-resolved properties.
    pub fn rows(&self, props: &BTreeMap<String, f64>) -> Result<u64, SchemaError> {
        let v = self
            .size
            .eval(&|n| props.get(n).copied())
            .map_err(|e| SchemaError(format!("table {}: {e}", self.name)))?;
        if !v.is_finite() || v < 0.0 {
            return Err(SchemaError(format!(
                "table {}: size {v} is not a row count",
                self.name
            )));
        }
        Ok(v.round() as u64)
    }
}

/// A complete PDGF project model.
#[derive(Debug, Clone)]
pub struct Schema {
    /// Project name.
    pub name: String,
    /// Project seed — "changing the seed will modify every value of the
    /// generated data set".
    pub seed: u64,
    /// PRNG implementation name (e.g. `PdgfDefaultRandom`).
    pub rng: String,
    /// Scale properties.
    pub properties: PropertyBag,
    /// Tables in declaration order.
    pub tables: Vec<Table>,
}

/// Schema validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaError(pub String);

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "schema error: {}", self.0)
    }
}

impl std::error::Error for SchemaError {}

impl Schema {
    /// New empty schema with PDGF's default PRNG.
    pub fn new(name: &str, seed: u64) -> Self {
        Self {
            name: name.to_string(),
            seed,
            rng: "PdgfDefaultRandom".to_string(),
            properties: PropertyBag::new(),
            tables: Vec::new(),
        }
    }

    /// Append a table (builder style).
    pub fn table(mut self, table: Table) -> Self {
        self.tables.push(table);
        self
    }

    /// Index of a table by name.
    pub fn table_index(&self, name: &str) -> Option<usize> {
        self.tables.iter().position(|t| t.name == name)
    }

    /// Look up a table by name.
    pub fn table_by_name(&self, name: &str) -> Option<&Table> {
        self.tables.iter().find(|t| t.name == name)
    }

    /// Resolved row count of a table under the current properties.
    pub fn table_size(&self, table: &Table) -> Result<u64, SchemaError> {
        let props = self
            .properties
            .resolve_all()
            .map_err(|e| SchemaError(e.to_string()))?;
        table.rows(&props)
    }

    /// Structural validation: unique names, resolvable sizes, references
    /// pointing at real fields and forming no cycles, probabilities in
    /// range.
    ///
    /// This is a thin wrapper over the full analyzer ([`Schema::analyze`]
    /// in [`crate::analyze`]): the first error-severity diagnostic
    /// becomes the [`SchemaError`]; warnings never fail validation.
    pub fn validate(&self) -> Result<(), SchemaError> {
        match self.analyze().first_error() {
            Some(d) => Err(SchemaError(d.message.clone())),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lineitem_like() -> Schema {
        let mut s = Schema::new("tpch", 12_456_789);
        s.properties.define("SF", "1").unwrap();
        s.properties
            .define("lineitem_size", "6000000 * ${SF}")
            .unwrap();
        s.table(
            Table::new("partsupp", "800000 * ${SF}").field(
                Field::new(
                    "ps_partkey",
                    SqlType::BigInt,
                    GeneratorSpec::Id { permute: false },
                )
                .primary(),
            ),
        )
        .table(
            Table::new("lineitem", "${lineitem_size}")
                .field(
                    Field::new(
                        "l_orderkey",
                        SqlType::BigInt,
                        GeneratorSpec::Id { permute: false },
                    )
                    .primary(),
                )
                .field(Field::new(
                    "l_partkey",
                    SqlType::BigInt,
                    GeneratorSpec::Reference {
                        table: "partsupp".to_string(),
                        field: "ps_partkey".to_string(),
                        distribution: RefDistribution::Uniform,
                    },
                ))
                .field(Field::new(
                    "l_comment",
                    SqlType::Varchar(44),
                    GeneratorSpec::Null {
                        probability: 0.0,
                        inner: Box::new(GeneratorSpec::Markov {
                            source: MarkovSource::File(
                                "markov/l_comment_markovSamples.bin".to_string(),
                            ),
                            min_words: 1,
                            max_words: 10,
                        }),
                    },
                )),
        )
    }

    #[test]
    fn listing1_shape_validates() {
        let s = lineitem_like();
        s.validate().unwrap();
        assert_eq!(s.table_index("lineitem"), Some(1));
        let li = s.table_by_name("lineitem").unwrap();
        assert_eq!(s.table_size(li).unwrap(), 6_000_000);
        assert_eq!(li.field_index("l_comment"), Some(2));
        assert_eq!(li.fields[0].size, 19, "BIGINT display size as in Listing 1");
    }

    #[test]
    fn scale_factor_scales_sizes() {
        let mut s = lineitem_like();
        s.properties.override_value("SF", "0.01").unwrap();
        let li = s.table_by_name("lineitem").unwrap();
        assert_eq!(s.table_size(li).unwrap(), 60_000);
    }

    #[test]
    fn unknown_reference_target_fails_validation() {
        let mut s = lineitem_like();
        s.tables[1].fields[1].generator = GeneratorSpec::Reference {
            table: "nope".to_string(),
            field: "x".to_string(),
            distribution: RefDistribution::Uniform,
        };
        assert!(s.validate().is_err());
        s.tables[1].fields[1].generator = GeneratorSpec::Reference {
            table: "partsupp".to_string(),
            field: "nope".to_string(),
            distribution: RefDistribution::Uniform,
        };
        assert!(s.validate().is_err());
    }

    #[test]
    fn self_reference_is_rejected() {
        let mut s = lineitem_like();
        s.tables[1].fields[1].generator = GeneratorSpec::Reference {
            table: "lineitem".to_string(),
            field: "l_orderkey".to_string(),
            distribution: RefDistribution::Uniform,
        };
        assert!(s.validate().is_err());
    }

    #[test]
    fn mutual_reference_cycle_fails_validation() {
        // a -> b -> a: neither table self-references, but generating
        // either requires the other. Historically this passed validation
        // and only failed when the runtime was built.
        let make_ref = |table: &str| GeneratorSpec::Reference {
            table: table.to_string(),
            field: "id".to_string(),
            distribution: RefDistribution::Uniform,
        };
        let s = Schema::new("cyc", 1)
            .table(
                Table::new("a", "10")
                    .field(
                        Field::new("id", SqlType::BigInt, GeneratorSpec::Id { permute: false })
                            .primary(),
                    )
                    .field(Field::new("fk", SqlType::BigInt, make_ref("b"))),
            )
            .table(
                Table::new("b", "10")
                    .field(
                        Field::new("id", SqlType::BigInt, GeneratorSpec::Id { permute: false })
                            .primary(),
                    )
                    .field(Field::new("fk", SqlType::BigInt, make_ref("a"))),
            );
        let err = s.validate().expect_err("mutual cycle must fail validate");
        assert!(err.0.contains("cycle"), "{}", err.0);
    }

    #[test]
    fn bad_probabilities_fail_validation() {
        let mut s = lineitem_like();
        s.tables[1].fields[2].generator = GeneratorSpec::Null {
            probability: 1.5,
            inner: Box::new(GeneratorSpec::Static { value: Value::Null }),
        };
        assert!(s.validate().is_err());

        s.tables[1].fields[2].generator = GeneratorSpec::Probability {
            branches: vec![
                (
                    0.5,
                    GeneratorSpec::Static {
                        value: Value::Long(1),
                    },
                ),
                (
                    0.2,
                    GeneratorSpec::Static {
                        value: Value::Long(2),
                    },
                ),
            ],
        };
        assert!(s.validate().is_err(), "probabilities must sum to 1");
    }

    #[test]
    fn duplicate_names_fail_validation() {
        let mut s = lineitem_like();
        let dup = s.tables[0].clone();
        s.tables.push(dup);
        assert!(s.validate().is_err());

        let mut s2 = lineitem_like();
        let f = s2.tables[1].fields[0].clone();
        s2.tables[1].fields.push(f);
        assert!(s2.validate().is_err());
    }

    #[test]
    fn nested_meta_generators_are_validated() {
        let mut s = lineitem_like();
        // Invalid generator hidden two levels deep.
        s.tables[1].fields[2].generator = GeneratorSpec::Null {
            probability: 0.1,
            inner: Box::new(GeneratorSpec::Sequential {
                parts: vec![GeneratorSpec::RandomString {
                    min_len: 5,
                    max_len: 2,
                }],
                separator: " ".to_string(),
            }),
        };
        assert!(s.validate().is_err());
    }

    #[test]
    fn negative_size_is_rejected() {
        let mut s = lineitem_like();
        s.properties.override_value("SF", "-1").unwrap();
        assert!(s.validate().is_err());
    }

    #[test]
    fn date_format_rendering() {
        let d = Date::from_ymd(2014, 11, 30);
        assert_eq!(DateFormat::Iso.render(d), "2014-11-30");
        assert_eq!(DateFormat::SlashMdy.render(d), "11/30/2014");
        assert_eq!(DateFormat::DotDmy.render(d), "30.11.2014");
        for f in [DateFormat::Iso, DateFormat::SlashMdy, DateFormat::DotDmy] {
            assert_eq!(DateFormat::parse(f.name()), Some(f));
        }
    }

    #[test]
    fn walk_visits_nested_specs() {
        let spec = GeneratorSpec::Null {
            probability: 0.1,
            inner: Box::new(GeneratorSpec::Sequential {
                parts: vec![
                    GeneratorSpec::Static {
                        value: Value::Long(1),
                    },
                    GeneratorSpec::Probability {
                        branches: vec![(
                            1.0,
                            GeneratorSpec::Static {
                                value: Value::Long(2),
                            },
                        )],
                    },
                ],
                separator: String::new(),
            }),
        };
        let mut count = 0;
        spec.walk(&mut |_| count += 1);
        assert_eq!(count, 5);
    }

    #[test]
    fn xml_names_are_stable() {
        assert_eq!(
            GeneratorSpec::Id { permute: false }.xml_name(),
            "gen_IdGenerator"
        );
        assert_eq!(
            GeneratorSpec::Markov {
                source: MarkovSource::File("x".into()),
                min_words: 1,
                max_words: 2
            }
            .xml_name(),
            "gen_MarkovChainGenerator"
        );
    }
}
