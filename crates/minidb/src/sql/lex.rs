//! SQL tokenizer.

use std::fmt;

/// A SQL token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Keyword or identifier (uppercased keywords are matched by the
    /// parser; the original spelling is preserved).
    Ident(String),
    /// Numeric literal (integer flag preserved).
    Number {
        /// The literal text.
        text: String,
    },
    /// String literal (quotes removed, `''` unescaped).
    Str(String),
    /// Punctuation / operator.
    Sym(&'static str),
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Number { text } => write!(f, "{text}"),
            Token::Str(s) => write!(f, "'{s}'"),
            Token::Sym(s) => write!(f, "{s}"),
        }
    }
}

/// Tokenize SQL text. Comments (`-- ...`) are skipped.
pub fn lex(input: &str) -> Result<Vec<Token>, String> {
    let bytes = input.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        if c == b'-' && bytes.get(i + 1) == Some(&b'-') {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        if c.is_ascii_alphabetic() || c == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            out.push(Token::Ident(input[start..i].to_string()));
            continue;
        }
        if c.is_ascii_digit() || (c == b'.' && bytes.get(i + 1).is_some_and(u8::is_ascii_digit)) {
            let start = i;
            while i < bytes.len()
                && (bytes[i].is_ascii_digit()
                    || bytes[i] == b'.'
                    || bytes[i] == b'e'
                    || bytes[i] == b'E'
                    || ((bytes[i] == b'+' || bytes[i] == b'-')
                        && matches!(bytes[i - 1], b'e' | b'E')))
            {
                i += 1;
            }
            out.push(Token::Number {
                text: input[start..i].to_string(),
            });
            continue;
        }
        if c == b'\'' {
            let mut s = String::new();
            i += 1;
            loop {
                match bytes.get(i) {
                    None => return Err("unterminated string literal".into()),
                    Some(b'\'') if bytes.get(i + 1) == Some(&b'\'') => {
                        s.push('\'');
                        i += 2;
                    }
                    Some(b'\'') => {
                        i += 1;
                        break;
                    }
                    Some(_) => {
                        // Advance over one UTF-8 scalar.
                        let Some(ch) = input.get(i..).and_then(|s| s.chars().next()) else {
                            return Err("malformed string literal".into());
                        };
                        s.push(ch);
                        i += ch.len_utf8();
                    }
                }
            }
            out.push(Token::Str(s));
            continue;
        }
        // Multi-char operators first (byte-wise: all operators are ASCII,
        // and slicing the &str here could split a multibyte character).
        let two: &[u8] = &bytes[i..(i + 2).min(bytes.len())];
        let sym: &'static str = match two {
            b"<>" => "<>",
            b"!=" => "<>",
            b"<=" => "<=",
            b">=" => ">=",
            _ => match c {
                b'(' => "(",
                b')' => ")",
                b',' => ",",
                b'.' => ".",
                b'*' => "*",
                b'=' => "=",
                b'<' => "<",
                b'>' => ">",
                b'+' => "+",
                b'-' => "-",
                b'/' => "/",
                b';' => ";",
                b'%' => "%",
                _ => {
                    // Decode the full (possibly multibyte) character for
                    // the error message.
                    let Some(ch) = input.get(i..).and_then(|s| s.chars().next()) else {
                        return Err("malformed input".into());
                    };
                    return Err(format!("unexpected character {ch:?}"));
                }
            },
        };
        // "!=" normalizes to "<>", so advance by the *matched* width, not
        // the emitted symbol's.
        i += if two == b"!=" { 2 } else { sym.len() };
        out.push(Token::Sym(sym));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_numbers_strings_symbols() {
        let toks = lex("SELECT a, 1.5 FROM t WHERE x = 'it''s'").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("SELECT".into()),
                Token::Ident("a".into()),
                Token::Sym(","),
                Token::Number { text: "1.5".into() },
                Token::Ident("FROM".into()),
                Token::Ident("t".into()),
                Token::Ident("WHERE".into()),
                Token::Ident("x".into()),
                Token::Sym("="),
                Token::Str("it's".into()),
            ]
        );
    }

    #[test]
    fn comparison_operators() {
        let toks = lex("a <> b != c <= d >= e").unwrap();
        let syms: Vec<&Token> = toks.iter().filter(|t| matches!(t, Token::Sym(_))).collect();
        assert_eq!(
            syms,
            vec![
                &Token::Sym("<>"),
                &Token::Sym("<>"),
                &Token::Sym("<="),
                &Token::Sym(">=")
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        let toks = lex("SELECT -- the works\n1").unwrap();
        assert_eq!(toks.len(), 2);
    }

    #[test]
    fn unterminated_string_is_an_error() {
        assert!(lex("'oops").is_err());
        assert!(lex("SELECT @").is_err());
    }

    #[test]
    fn scientific_numbers() {
        let toks = lex("1e3 2.5E-2").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Number { text: "1e3".into() },
                Token::Number {
                    text: "2.5E-2".into()
                },
            ]
        );
    }

    #[test]
    fn unicode_in_strings() {
        let toks = lex("'héllo → wörld'").unwrap();
        assert_eq!(toks, vec![Token::Str("héllo → wörld".into())]);
    }

    #[test]
    fn multibyte_and_stray_input_is_an_error_not_a_panic() {
        // Every prefix cut at a character boundary runs through the
        // string-literal branch and the unexpected-character branch.
        for sql in ["SELECT 'é→😀' FROM t", "x = ü", "'a''→", "→'😀'", "é", "'"] {
            for (cut, _) in sql.char_indices().chain([(sql.len(), ' ')]) {
                let _ = lex(&sql[..cut]);
            }
        }
        assert_eq!(lex("x = ü"), Err("unexpected character 'ü'".to_string()));
        assert_eq!(lex("'é→"), Err("unterminated string literal".to_string()));
        assert_eq!(lex("'é→'").unwrap(), vec![Token::Str("é→".into())]);
    }
}
