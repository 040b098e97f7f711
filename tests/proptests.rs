//! Property-based tests on cross-crate invariants.

use proptest::prelude::*;

use std::sync::{Arc, OnceLock};

use pdgf_gen::generator::{Cell, CellOut};
use pdgf_gen::meta::TruncateGenerator;
use pdgf_gen::text::MarkovChainGenerator;
use pdgf_gen::{ColumnCtx, GenScratch, Generator, SchemaRuntime};
use pdgf_prng::{mix64, Alias, FeistelPermutation, PdgfDefaultRandom, PdgfRng, SeedTree, Zipf};
use pdgf_schema::value::{Date, Value};
use pdgf_schema::{ColumnVec, Expr, Field, GeneratorSpec, Schema, SqlType, Table};
use textsynth::{MarkovBuilder, MarkovModel};

proptest! {
    /// A Feistel permutation is a bijection on any domain.
    #[test]
    fn feistel_is_bijective(n in 1u64..5_000, seed in any::<u64>()) {
        let p = FeistelPermutation::new(n, seed);
        let mut seen = vec![false; n as usize];
        for x in 0..n {
            let y = p.permute(x);
            prop_assert!(y < n);
            prop_assert!(!seen[y as usize], "collision at {x}");
            seen[y as usize] = true;
            prop_assert_eq!(p.invert(y), x);
        }
    }

    /// The batched cycle walk is `permute` element by element, on domains
    /// up to 2^26 (either side of the round table's 2^24 cap), for a
    /// window of inputs starting anywhere and wrapping at the domain.
    #[test]
    fn permute_batch_is_permute(
        bits in 0u32..=26,
        raw in any::<u64>(),
        seed in any::<u64>(),
        start in 0u64..u64::MAX - 700,
        len in 0u64..700,
    ) {
        let n = 1 + raw % (1u64 << bits);
        let p = FeistelPermutation::new(n, seed);
        let window = start..start + len;
        let want: Vec<u64> = window.clone().map(|x| p.permute(x % n)).collect();
        let mut xs: Vec<u64> = window.clone().map(|x| x % n).collect();
        let mut pending = Vec::new();
        p.permute_batch(&mut xs, &mut pending);
        prop_assert_eq!(&xs, &want, "n {} seed {}", n, seed);
        p.permute_window(window, &mut xs, &mut pending);
        prop_assert_eq!(xs, want, "n {} seed {}", n, seed);
    }

    /// Cached and uncached seed derivation always agree.
    #[test]
    fn seed_tree_cache_is_transparent(
        seed in any::<u64>(),
        table in 0u32..4,
        column in 0u32..6,
        update in 0u32..8,
        row in any::<u64>(),
    ) {
        let tree = SeedTree::new(seed, &[6, 6, 6, 6]);
        let coord = pdgf_prng::FieldCoord { table, column, update, row };
        prop_assert_eq!(
            tree.field_seed(coord),
            SeedTree::field_seed_uncached(seed, coord)
        );
    }

    /// Alias tables never draw zero-weight entries and stay in range.
    #[test]
    fn alias_respects_support(weights in prop::collection::vec(0.0f64..10.0, 1..40), seed in any::<u64>()) {
        let alias = Alias::new(&weights);
        let mut rng = PdgfDefaultRandom::seed_from(seed);
        let any_positive = weights.iter().any(|&w| w > 0.0);
        for _ in 0..200 {
            let i = alias.sample_index(&mut || rng.next_u64());
            prop_assert!(i < weights.len());
            if any_positive {
                prop_assert!(weights[i] > 0.0, "drew zero-weight entry {i}");
            }
        }
    }

    /// Expression parse → display → parse is a fixpoint, and evaluation
    /// agrees between the original and the reprinted tree.
    #[test]
    fn expr_display_roundtrips(
        a in -1000i64..1000,
        b in 1i64..1000,
        c in 1i64..100,
    ) {
        let src = format!("({a} + {b}) * {c} + max({b}, {c}) - min({a}, 2) % {b}");
        let e1 = Expr::parse(&src).expect("valid source");
        let e2 = Expr::parse(&e1.to_string()).expect("reprint parses");
        let env = |_: &str| None;
        prop_assert_eq!(e1.eval(&env).expect("evaluates"), e2.eval(&env).expect("evaluates"));
    }

    /// Dates roundtrip through (y, m, d) decomposition over a wide range.
    #[test]
    fn dates_roundtrip(days in -200_000i32..200_000) {
        let d = Date(days);
        let (y, m, dd) = d.to_ymd();
        prop_assert_eq!(Date::from_ymd(y, m, dd), d);
        // And through the ISO text form when the year is positive.
        if y > 0 {
            prop_assert_eq!(Date::parse_iso(&d.to_string()), Some(d));
        }
    }

    /// sql_cmp is a total order: antisymmetric and transitive on a
    /// sampled set of mixed values.
    #[test]
    fn value_order_is_total(
        longs in prop::collection::vec(any::<i32>(), 0..5),
        doubles in prop::collection::vec(-1e6f64..1e6, 0..5),
        texts in prop::collection::vec("[a-z]{0,6}", 0..5),
    ) {
        let mut values: Vec<Value> = Vec::new();
        values.push(Value::Null);
        values.extend(longs.iter().map(|&v| Value::Long(i64::from(v))));
        values.extend(doubles.iter().map(|&v| Value::Double(v)));
        values.extend(texts.iter().map(|t| Value::text(t.clone())));
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.sql_cmp(b));
        for w in sorted.windows(2) {
            prop_assert_ne!(w[0].sql_cmp(&w[1]), std::cmp::Ordering::Greater);
        }
        for v in &values {
            prop_assert_eq!(v.sql_cmp(v), std::cmp::Ordering::Equal);
        }
    }

    /// minidb CSV export/import roundtrips arbitrary text content,
    /// including delimiters, quotes, and newlines.
    #[test]
    fn minidb_csv_roundtrips_hostile_text(texts in prop::collection::vec(".{0,20}", 1..20)) {
        use dbsynth_suite::minidb::{ColumnDef, Database, TableDef};
        let mut db = Database::new();
        db.create_table(
            TableDef::new("t")
                .column(ColumnDef::new("id", SqlType::BigInt).primary_key())
                .column(ColumnDef::new("s", SqlType::Varchar(64))),
        ).expect("create");
        for (i, t) in texts.iter().enumerate() {
            // Skip values the textual NULL convention cannot represent.
            if t.is_empty() { continue; }
            db.insert("t", vec![Value::Long(i as i64), Value::text(t.clone())]).expect("insert");
        }
        let rows_before = db.table("t").expect("t").rows().to_vec();
        let csv = db.export_csv("t").expect("export");
        let mut db2 = Database::new();
        db2.create_table(db.table("t").expect("t").def().clone()).expect("create");
        db2.load_csv_str("t", &csv).expect("reimport");
        prop_assert_eq!(db2.table("t").expect("t").rows(), rows_before.as_slice());
    }

    /// The scheduler produces identical bytes for any worker count and
    /// package size (randomized configuration).
    #[test]
    fn scheduler_output_invariant(
        workers in 0usize..5,
        package_rows in 1u64..500,
        rows in 1u64..800,
        seed in any::<u64>(),
    ) {
        use pdgf_gen::{MapResolver, SchemaRuntime};
        use pdgf_output::{CsvFormatter, MemorySink};
        use pdgf_runtime::{generate_table_range, RunConfig};

        let schema = Schema::new("prop", seed).table(
            Table::new("t", &rows.to_string())
                .field(Field::new("id", SqlType::BigInt, GeneratorSpec::Id { permute: true }))
                .field(Field::new(
                    "v",
                    SqlType::Integer,
                    GeneratorSpec::Long {
                        min: Expr::parse("0").expect("lit"),
                        max: Expr::parse("999").expect("lit"),
                    },
                )),
        );
        let rt = SchemaRuntime::build(&schema, &MapResolver::new()).expect("build");
        let render = |w: usize, pkg: u64| {
            let mut sink = MemorySink::new();
            generate_table_range(
                &rt, 0, 0, 0..rows,
                &CsvFormatter::new(), &mut sink,
                &RunConfig::new().workers(w).package_rows(pkg), None,
            ).expect("generate");
            sink.as_str().to_string()
        };
        let reference = render(0, 10_000);
        prop_assert_eq!(render(workers, package_rows), reference);
    }

    /// Arbitrary XML element trees roundtrip through the writer/parser.
    #[test]
    fn xml_trees_roundtrip(
        names in prop::collection::vec("[a-z][a-z0-9_]{0,8}", 1..6),
        attr_vals in prop::collection::vec(".{0,12}", 0..4),
        text in ".{0,20}",
    ) {
        use pdgf_schema::xml::XmlNode;
        let mut root = XmlNode::new(&names[0]);
        for (i, v) in attr_vals.iter().enumerate() {
            root = root.attr(&format!("a{i}"), v);
        }
        for n in &names[1..] {
            root = root.child(XmlNode::new(n).with_text(text.clone()));
        }
        let doc = root.to_document();
        let parsed = XmlNode::parse(&doc).expect("own output parses");
        // Text content is whitespace-trimmed by the parser; normalize.
        let mut expected = root.clone();
        for c in &mut expected.children {
            c.text = c.text.trim().to_string();
        }
        prop_assert_eq!(parsed, expected);
    }

    /// Every SqlType renders to DDL that parses back to itself.
    #[test]
    fn sql_types_roundtrip(p in 1u8..30, s_in in 0u8..30, n in 1u32..2000) {
        use pdgf_schema::SqlType;
        let s = s_in.min(p);
        for ty in [
            SqlType::Boolean,
            SqlType::SmallInt,
            SqlType::Integer,
            SqlType::BigInt,
            SqlType::Decimal(p, s),
            SqlType::Real,
            SqlType::Double,
            SqlType::Char(n),
            SqlType::Varchar(n),
            SqlType::Date,
            SqlType::Time,
            SqlType::Timestamp,
        ] {
            prop_assert_eq!(SqlType::parse(&ty.to_string()), Some(ty));
        }
    }

    /// Decimal display ↔ CSV-cell parse is lossless at any scale.
    #[test]
    fn decimal_cells_roundtrip(unscaled in -1_000_000_000i64..1_000_000_000, scale in 0u8..6) {
        use dbsynth_suite::minidb::Database;
        let v = Value::decimal(unscaled, scale);
        let text = v.to_string();
        let parsed = Database::parse_cell(&text, SqlType::Decimal(18, scale))
            .expect("canonical form parses");
        prop_assert_eq!(parsed, v);
    }

    /// LIKE pattern matching agrees with a regex oracle on wildcard-free
    /// patterns plus simple % forms.
    #[test]
    fn like_agrees_with_substring_oracle(hay in "[a-c]{0,10}", needle in "[a-c]{0,3}") {
        use dbsynth_suite::minidb::sql::exec::like_match;
        prop_assert_eq!(like_match(&needle, &hay), hay == needle);
        let contains_pattern = format!("%{needle}%");
        prop_assert_eq!(like_match(&contains_pattern, &hay), hay.contains(&needle));
        let prefix_pattern = format!("{needle}%");
        prop_assert_eq!(like_match(&prefix_pattern, &hay), hay.starts_with(&needle));
        let suffix_pattern = format!("%{needle}");
        prop_assert_eq!(like_match(&suffix_pattern, &hay), hay.ends_with(&needle));
    }

    /// The XML parser never panics on arbitrary input — it returns
    /// structured errors for garbage.
    #[test]
    fn xml_parser_never_panics(input in ".{0,200}") {
        use pdgf_schema::xml::XmlNode;
        let _ = XmlNode::parse(&input);
    }

    /// The SQL lexer/parser never panic on arbitrary input.
    #[test]
    fn sql_parser_never_panics(input in ".{0,200}") {
        let _ = dbsynth_suite::minidb::sql::parse::parse(&input);
    }

    /// The expression parser never panics on arbitrary input.
    #[test]
    fn expr_parser_never_panics(input in ".{0,100}") {
        let _ = pdgf_schema::Expr::parse(&input);
    }

    /// Markov model text deserialization never panics on arbitrary input.
    #[test]
    fn markov_text_parser_never_panics(input in ".{0,300}") {
        let _ = textsynth::MarkovModel::from_text(&input);
    }

    /// Markov models roundtrip through the binary format for arbitrary
    /// corpora.
    #[test]
    fn markov_binary_roundtrips(corpus in prop::collection::vec("[a-d]{1,3}( [a-d]{1,3}){0,5}", 1..12), seed in any::<u64>()) {
        use textsynth::{MarkovBuilder, MarkovModel};
        let mut b = MarkovBuilder::new();
        for s in &corpus {
            b.feed(s);
        }
        let Ok(model) = b.build() else { return Ok(()); };
        let back = MarkovModel::from_bytes(&model.to_bytes()).expect("roundtrip");
        let mut r1 = PdgfDefaultRandom::seed_from(seed);
        let mut r2 = PdgfDefaultRandom::seed_from(seed);
        prop_assert_eq!(
            model.generate(&mut || r1.next_u64(), 12),
            back.generate(&mut || r2.next_u64(), 12)
        );
    }
}

/// A model no text corpus yields, written in the binary `*.bin` layout:
/// an empty word, words holding spaces (inside, leading and trailing),
/// a multi-byte one and a dead end (`plain`).
fn odd_words_model() -> MarkovModel {
    let words = ["", "two words", " lead", "tail ", "plain", "é b"];
    let n = words.len() as u32;
    let mut bytes = b"PMKV\x01\x00".to_vec();
    let put = |bytes: &mut Vec<u8>, v: u32| bytes.extend_from_slice(&v.to_le_bytes());
    put(&mut bytes, n);
    for w in words {
        put(&mut bytes, w.len() as u32);
        bytes.extend_from_slice(w.as_bytes());
    }
    put(&mut bytes, n);
    for id in 0..n {
        put(&mut bytes, id);
        bytes.extend_from_slice(&1f64.to_le_bytes());
    }
    for from in 0..n {
        let next: Vec<u32> = (0..n).filter(|&to| from != 4 && to != from).collect();
        put(&mut bytes, next.len() as u32);
        for to in next {
            put(&mut bytes, to);
            bytes.extend_from_slice(&f64::from(1 + to).to_le_bytes());
        }
    }
    MarkovModel::from_bytes(&bytes).expect("well-formed model")
}

/// The models the capped Markov property runs over: the TPC-H comment
/// model; multi-byte words; words of 16 bytes or more, next to words of
/// 15 and 16 bytes; a word longer than every limit; and
/// [`odd_words_model`].
fn cut_models() -> &'static [Arc<MarkovModel>] {
    static MODELS: OnceLock<Vec<Arc<MarkovModel>>> = OnceLock::new();
    MODELS.get_or_init(|| {
        let mut rng = PdgfDefaultRandom::seed_from(0xC0DE);
        let mut fed = |vocab: Vec<String>| {
            let mut b = MarkovBuilder::new();
            for _ in 0..300 {
                let len = 1 + rng.next_bounded(8);
                let sentence: Vec<&str> = (0..len)
                    .map(|_| vocab[rng.next_bounded(vocab.len() as u64) as usize].as_str())
                    .collect();
                b.feed(&sentence.join(" "));
            }
            Arc::new(b.build().expect("non-empty corpus"))
        };
        let words = |list: &[&str]| list.iter().map(|w| w.to_string()).collect::<Vec<_>>();
        vec![
            Arc::new(dbsynth_suite::workloads::corpus::tpch_comment_model()),
            fed((0..40)
                .map(|i| format!("w{i}é{}", i % 7))
                .chain(words(&["日本語", "ü"]))
                .collect()),
            fed(words(&[
                "abcdefghijklmno",
                "abcdefghijklmnop",
                "incomprehensibilities",
                "counterrevolutionaries",
                "of",
                "a",
                "quick",
            ])),
            fed(["x".repeat(520), "y".repeat(70)]
                .into_iter()
                .chain(words(&["ab", "c", "defg"]))
                .collect()),
            Arc::new(odd_words_model()),
        ]
    })
}

/// The draws of a capped cell whose uncapped twin made `uncapped` draws
/// from `rng`: one for the word count, one for the start, then one
/// successor per word, except that the loop stops before the successor
/// of the first word that takes the text past `limit` chars.
fn capped_draws(
    model: &MarkovModel,
    mut rng: PdgfDefaultRandom,
    uncapped: u64,
    limit: usize,
) -> u64 {
    let Some(words) = uncapped.checked_sub(2) else {
        return uncapped;
    };
    rng.next_u64();
    let chars = |j: &u64| {
        let mut r = rng.clone();
        let mut text = String::new();
        model.generate_into(|| r.next_u64(), *j as u32, &mut text);
        text.chars().count()
    };
    let fit = (1..=words)
        .collect::<Vec<_>>()
        .partition_point(|j| chars(j) <= limit) as u64;
    if fit < words {
        fit + 2
    } else {
        uncapped
    }
}

proptest! {
    /// A Markov column cut to its width while it is written equals the
    /// uncapped column cut by `TruncateGenerator`, through `fill_column`
    /// and `emit_cell`, at every limit of 1..=60, 79, 199 and 500; and a
    /// capped cell stops drawing right after the word that overflows.
    #[test]
    fn capped_markov_cuts_like_truncate(
        model in 0usize..5,
        limit in 0usize..63,
        min_words in 0u32..6,
        extra_words in 0u32..80,
        seed in any::<u64>(),
        first_row in 0u64..1_000_000_000_000,
    ) {
        let limit = (1..=60).chain([79, 199, 500]).nth(limit).expect("63 limits");
        let model = &cut_models()[model];
        let max_words = min_words + extra_words;
        let capped = MarkovChainGenerator::new(Arc::clone(model), min_words, max_words).capped(limit);
        let uncapped: Arc<dyn Generator> =
            Arc::new(MarkovChainGenerator::new(Arc::clone(model), min_words, max_words));
        let cut = TruncateGenerator::new(Arc::clone(&uncapped), limit);
        let runtime = SchemaRuntime::empty_for_tests();
        let ctx = ColumnCtx { runtime: &runtime, update_seed: seed, width_hint: None, first_draw: 0 };
        let rows = first_row..first_row + 24;
        let (mut got, mut want) = (ColumnVec::default(), ColumnVec::default());
        capped.fill_column(&ctx, rows.clone(), &mut got, &mut GenScratch::default());
        cut.fill_column(&ctx, rows.clone(), &mut want, &mut GenScratch::default());
        let point = |g: &dyn Generator, row: u64| {
            let mut rng = ctx.cell_rng(row);
            let mut out = ColumnVec::default();
            g.emit_cell(Cell { rng: &mut rng, row, runtime: &runtime, out: CellOut::Column(&mut out) });
            (out.value(0), rng.draws())
        };
        for (i, row) in rows.enumerate() {
            prop_assert_eq!(got.value(i), want.value(i), "row {} limit {}", row, limit);
            let (cell, draws) = point(&capped, row);
            prop_assert_eq!(cell, point(&cut, row).0, "row {} limit {}", row, limit);
            let uncapped_draws = point(uncapped.as_ref(), row).1;
            prop_assert_eq!(
                draws,
                capped_draws(model, ctx.cell_rng(row), uncapped_draws, limit),
                "row {} limit {}", row, limit
            );
        }
    }
}

/// Gray et al.'s Zipf rank of `draw`, recomputed from the sampler's public
/// constants with the same `f64` operations, so it is the rank
/// `Zipf::sample_rank` must return for every draw.
fn gray_rank(zipf: &Zipf, theta: f64, draw: u64) -> u64 {
    let n = zipf.domain();
    let (zetan, zeta2) = (zipf.zetan(), zipf.zeta2());
    let alpha = 1.0 / (1.0 - theta);
    let eta = if n <= 2 {
        0.0
    } else {
        (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan)
    };
    let u = (draw >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    let uz = u * zetan;
    if uz < 1.0 {
        return 1;
    }
    if uz < 1.0 + 0.5f64.powf(theta) && n >= 2 {
        return 2;
    }
    let rank = 1.0 + (n as f64) * (eta * u - eta + 1.0).powf(alpha);
    (rank as u64).clamp(1, n)
}

proptest! {
    /// `Zipf::sample_rank` is Gray et al.'s formula for any domain around
    /// the rank table's bound, any skew, and draws uniform, within 2^17
    /// draws of where a rank begins (where the table hands over to the
    /// formula) and within 8 (where rounding moves the rank's step).
    #[test]
    fn zipf_rank_is_grays_formula(
        n in 1u64..70_000,
        theta in 0.0f64..0.995,
        seed in any::<u64>(),
    ) {
        let zipf = Zipf::new(n, theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta))
            / (1.0 - zipf.zeta2() / zipf.zetan());
        for i in 0..32u64 {
            let [a, b] = [mix64(seed ^ (2 * i)), mix64(seed ^ (2 * i + 1))];
            let draw = if i % 4 == 0 || n < 2 {
                a
            } else {
                // Where rank r begins: `u · zetan = 1` for rank 2, the
                // formula's inverse beyond.
                let r = 2 + a % (n - 1);
                let u = if r == 2 {
                    1.0 / zipf.zetan()
                } else {
                    1.0 - (1.0 - ((r - 1) as f64 / n as f64).powf(1.0 - theta)) / eta
                };
                let first = (u * (1u64 << 53) as f64) as u64;
                let spread = if i % 2 == 0 { 1 << 17 } else { 8 };
                let m = (first + (b >> 11) % (2 * spread)).saturating_sub(spread);
                m.min((1 << 53) - 1) << 11 | (b & 0x7FF)
            };
            prop_assert_eq!(
                zipf.sample_rank(&mut || draw),
                gray_rank(&zipf, theta, draw),
                "n {} θ {} draw {:#x}", n, theta, draw
            );
        }
    }
}
