//! The rule-based keyword system.
//!
//! "DBSynth also features a rule based system that searches for key words
//! in the schema information and adds predefined generation rules to the
//! data model. For example, numeric columns with name key or id will be
//! generated with an ID generator." This module holds those rules plus
//! the predefined high-level generator constructs the paper mentions for
//! the no-sampling fallback ("predefined generators for URLs, addresses,
//! etc.").

use pdgf_schema::model::{DictSource, GeneratorSpec};
use pdgf_schema::{Expr, SqlType};

/// Built-in first names for `name`-like columns.
pub const FIRST_NAMES: &[&str] = &[
    "James",
    "Mary",
    "Robert",
    "Patricia",
    "John",
    "Jennifer",
    "Michael",
    "Linda",
    "David",
    "Elizabeth",
    "William",
    "Barbara",
    "Richard",
    "Susan",
    "Joseph",
    "Jessica",
    "Thomas",
    "Sarah",
    "Charles",
    "Karen",
    "Christopher",
    "Lisa",
    "Daniel",
    "Nancy",
];

/// Built-in family names.
pub const LAST_NAMES: &[&str] = &[
    "Smith",
    "Johnson",
    "Williams",
    "Brown",
    "Jones",
    "Garcia",
    "Miller",
    "Davis",
    "Rodriguez",
    "Martinez",
    "Hernandez",
    "Lopez",
    "Gonzalez",
    "Wilson",
    "Anderson",
    "Thomas",
    "Taylor",
    "Moore",
    "Jackson",
    "Martin",
    "Lee",
    "Perez",
    "Thompson",
];

/// Built-in city names.
pub const CITIES: &[&str] = &[
    "Toronto",
    "Passau",
    "Melbourne",
    "Berlin",
    "Chicago",
    "Lyon",
    "Osaka",
    "Porto",
    "Austin",
    "Zurich",
    "Nairobi",
    "Lima",
    "Oslo",
    "Graz",
    "Dublin",
    "Seattle",
];

/// Built-in street names for address construction.
pub const STREETS: &[&str] = &[
    "Main Street",
    "Oak Avenue",
    "Maple Drive",
    "Cedar Lane",
    "Pine Road",
    "College Street",
    "King Street",
    "Queen Street",
    "Park Avenue",
    "Lake Road",
];

/// Built-in mail/URL domains.
pub const DOMAINS: &[&str] = &[
    "example.com",
    "mail.test",
    "web.example",
    "corp.example",
    "db.test",
    "data.example",
];

fn dict_of(words: &[&str]) -> GeneratorSpec {
    GeneratorSpec::Dict {
        source: DictSource::Inline {
            entries: words.iter().map(|w| (w.to_string(), 1.0)).collect(),
        },
        weighted: false,
    }
}

fn expr(n: u32) -> Expr {
    Expr::Num(f64::from(n))
}

/// The keyword rule engine.
#[derive(Debug, Default, Clone)]
pub struct RuleEngine;

impl RuleEngine {
    /// New engine with the built-in rule set.
    pub fn new() -> Self {
        Self
    }

    /// Is this column an ID column by name ("numeric columns with name
    /// key or id will be generated with an ID generator")?
    pub fn is_id_column(&self, column: &str, sql_type: SqlType) -> bool {
        if !sql_type.is_integer() {
            return false;
        }
        let lower = column.to_ascii_lowercase();
        lower == "id"
            || lower == "key"
            || lower.ends_with("_id")
            || lower.ends_with("_key")
            || lower.ends_with("key")
            || lower.ends_with("id")
    }

    /// A predefined high-level generator for a column name, if one of the
    /// keyword rules matches (`names`, `addresses`, `comment`, …).
    pub fn high_level_generator(&self, column: &str, sql_type: SqlType) -> Option<GeneratorSpec> {
        if !sql_type.is_text() {
            return None;
        }
        let max_len = match sql_type {
            SqlType::Char(n) | SqlType::Varchar(n) => n,
            _ => unreachable!("checked is_text"),
        };
        let lower = column.to_ascii_lowercase();
        let has =
            |kw: &str| lower == kw || lower.ends_with(&format!("_{kw}")) || lower.contains(kw);

        if has("firstname") || has("first_name") {
            return Some(dict_of(FIRST_NAMES));
        }
        if has("lastname") || has("last_name") || has("surname") {
            return Some(dict_of(LAST_NAMES));
        }
        if has("name") {
            // Full name: first + last.
            return Some(GeneratorSpec::Sequential {
                parts: vec![dict_of(FIRST_NAMES), dict_of(LAST_NAMES)],
                separator: " ".to_string(),
            });
        }
        if has("city") {
            return Some(dict_of(CITIES));
        }
        if has("address") || has("street") {
            // "42 Oak Avenue".
            return Some(GeneratorSpec::Sequential {
                parts: vec![
                    GeneratorSpec::Long {
                        min: expr(1),
                        max: expr(9999),
                    },
                    dict_of(STREETS),
                ],
                separator: " ".to_string(),
            });
        }
        if has("email") || has("mail") {
            return Some(GeneratorSpec::Sequential {
                parts: vec![
                    GeneratorSpec::RandomString {
                        min_len: 4,
                        max_len: 10,
                    },
                    GeneratorSpec::Static {
                        value: pdgf_schema::Value::text("@"),
                    },
                    dict_of(DOMAINS),
                ],
                separator: String::new(),
            });
        }
        if has("url") || has("website") || has("homepage") {
            return Some(GeneratorSpec::Sequential {
                parts: vec![
                    GeneratorSpec::Static {
                        value: pdgf_schema::Value::text("https://"),
                    },
                    dict_of(DOMAINS),
                    GeneratorSpec::Static {
                        value: pdgf_schema::Value::text("/"),
                    },
                    GeneratorSpec::RandomString {
                        min_len: 4,
                        max_len: 12,
                    },
                ],
                separator: String::new(),
            });
        }
        if has("phone") || has("telephone") || has("fax") {
            return Some(GeneratorSpec::Sequential {
                parts: vec![
                    GeneratorSpec::Long {
                        min: expr(100),
                        max: expr(999),
                    },
                    GeneratorSpec::Long {
                        min: expr(100),
                        max: expr(999),
                    },
                    GeneratorSpec::Long {
                        min: expr(1000),
                        max: expr(9999),
                    },
                ],
                separator: "-".to_string(),
            });
        }
        if has("comment") || has("description") || has("remark") || has("note") {
            // Without samples there is no Markov model to learn, so fall
            // back to bounded random words from the built-in corpus.
            let max_words = (max_len / 8).clamp(1, 12);
            return Some(GeneratorSpec::Markov {
                source: pdgf_schema::model::MarkovSource::Inline(builtin_comment_model_text()),
                min_words: 1,
                max_words,
            });
        }
        None
    }
}

/// A small built-in comment-text Markov model (TPC-H-flavoured verb/noun
/// soup), serialized in the textsynth text format, for unsampled comment
/// columns.
pub fn builtin_comment_model_text() -> String {
    let samples = [
        "carefully final deposits sleep quickly",
        "furiously regular requests haggle blithely",
        "quickly special packages wake across the ideas",
        "final accounts nag carefully",
        "blithely ironic theodolites integrate slyly",
        "regular deposits boost about the pending foxes",
        "carefully bold requests sleep furiously",
        "express instructions cajole quickly along the accounts",
        "silent platelets detect slyly",
        "pending packages haggle against the regular deposits",
    ];
    let mut builder = textsynth::MarkovBuilder::new();
    for s in samples {
        builder.feed(s);
    }
    #[allow(clippy::expect_used, reason = "the corpus is a constant")]
    let model = builder.build().expect("built-in corpus is non-empty");
    model.to_text()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_detection_matches_paper_examples() {
        let e = RuleEngine::new();
        assert!(e.is_id_column("l_orderkey", SqlType::BigInt));
        assert!(e.is_id_column("id", SqlType::Integer));
        assert!(e.is_id_column("customer_id", SqlType::BigInt));
        assert!(e.is_id_column("key", SqlType::SmallInt));
        assert!(
            !e.is_id_column("l_orderkey", SqlType::Varchar(10)),
            "non-numeric"
        );
        assert!(!e.is_id_column("quantity", SqlType::BigInt));
    }

    #[test]
    fn name_rules_produce_dictionary_generators() {
        let e = RuleEngine::new();
        let g = e
            .high_level_generator("c_name", SqlType::Varchar(25))
            .unwrap();
        assert!(matches!(g, GeneratorSpec::Sequential { .. }));
        let g = e
            .high_level_generator("first_name", SqlType::Varchar(25))
            .unwrap();
        assert!(matches!(g, GeneratorSpec::Dict { .. }));
        let g = e
            .high_level_generator("city", SqlType::Varchar(25))
            .unwrap();
        assert!(matches!(g, GeneratorSpec::Dict { .. }));
    }

    #[test]
    fn address_email_url_phone_rules() {
        let e = RuleEngine::new();
        for col in ["c_address", "street", "email", "website", "phone"] {
            let g = e.high_level_generator(col, SqlType::Varchar(64));
            assert!(g.is_some(), "{col} should match a rule");
            assert!(matches!(g.unwrap(), GeneratorSpec::Sequential { .. }));
        }
    }

    #[test]
    fn comment_rule_uses_builtin_markov() {
        let e = RuleEngine::new();
        let g = e
            .high_level_generator("l_comment", SqlType::Varchar(44))
            .unwrap();
        match g {
            GeneratorSpec::Markov {
                min_words,
                max_words,
                source,
            } => {
                assert_eq!(min_words, 1);
                assert!(max_words >= 1);
                let pdgf_schema::model::MarkovSource::Inline(text) = source else {
                    panic!("expected inline model")
                };
                assert!(textsynth::MarkovModel::from_text(&text).is_ok());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn non_text_and_unknown_names_fall_through() {
        let e = RuleEngine::new();
        assert!(e.high_level_generator("c_name", SqlType::BigInt).is_none());
        assert!(e
            .high_level_generator("zzz_quant", SqlType::Varchar(10))
            .is_none());
    }

    #[test]
    fn builtin_model_generates_text() {
        let model = textsynth::MarkovModel::from_text(&builtin_comment_model_text()).unwrap();
        assert!(model.word_count() > 20);
        assert!(model.start_state_count() >= 5);
    }
}
