//! Tiny `--key value` argument parser (no external dependencies).

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;

/// Error produced while parsing command-line arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// A positional token appeared where a flag was expected.
    Unexpected(String),
    /// A value failed to parse.
    BadValue {
        /// Flag name.
        flag: String,
        /// Offending value text.
        value: String,
    },
    /// A flag appeared twice.
    Duplicate(String),
    /// A flag the command does not take (usually a typo).
    Unknown(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::Unexpected(tok) => write!(f, "unexpected argument '{tok}'"),
            ArgError::BadValue { flag, value } => {
                write!(f, "cannot parse '{value}' for --{flag}")
            }
            ArgError::Duplicate(flag) => write!(f, "flag --{flag} given twice"),
            ArgError::Unknown(flag) => write!(f, "unknown flag --{flag}"),
        }
    }
}

impl std::error::Error for ArgError {}

/// Parsed `--key value` pairs.
#[derive(Debug, Clone, Default)]
pub struct Flags {
    values: HashMap<String, String>,
}

impl Flags {
    /// Parses everything after the subcommand, which takes the flags
    /// named in `known`. A `--flag` directly followed by another
    /// `--flag` (or by nothing) is a valueless switch and parses as the
    /// value `true`, so boolean toggles like `--coordinator` need no
    /// explicit operand; no flag in this CLI takes a value beginning
    /// with `--`.
    ///
    /// # Errors
    ///
    /// Returns an [`ArgError`] on malformed input or on a flag not in
    /// `known`, so a typo fails instead of leaving a default in force.
    pub fn parse(tokens: &[String], known: &[&str]) -> Result<Self, ArgError> {
        let mut values = HashMap::new();
        let mut it = tokens.iter().peekable();
        while let Some(tok) = it.next() {
            let Some(name) = tok.strip_prefix("--") else {
                return Err(ArgError::Unexpected(tok.clone()));
            };
            if !known.contains(&name) {
                return Err(ArgError::Unknown(name.to_owned()));
            }
            let value = match it.peek() {
                Some(next) if !next.starts_with("--") => it.next().expect("peeked").clone(),
                _ => "true".to_owned(),
            };
            if values.insert(name.to_owned(), value).is_some() {
                return Err(ArgError::Duplicate(name.to_owned()));
            }
        }
        Ok(Flags { values })
    }

    /// A typed flag value, or `default` when absent.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::BadValue`] when present but unparseable.
    pub fn get_or<T: FromStr>(&self, flag: &str, default: T) -> Result<T, ArgError> {
        match self.values.get(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError::BadValue {
                flag: flag.to_owned(),
                value: v.clone(),
            }),
        }
    }

    /// A string flag value, if present.
    pub fn get_str(&self, flag: &str) -> Option<&str> {
        self.values.get(flag).map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KNOWN: &[&str] = &["pes", "net", "k", "coordinator", "port"];

    fn toks(s: &[&str]) -> Vec<String> {
        s.iter().map(|t| (*t).to_owned()).collect()
    }

    #[test]
    fn parses_pairs() {
        let f = Flags::parse(&toks(&["--pes", "576", "--net", "alexnet"]), KNOWN).unwrap();
        assert_eq!(f.get_or("pes", 0usize).unwrap(), 576);
        assert_eq!(f.get_str("net"), Some("alexnet"));
        assert_eq!(f.get_or("batch", 4usize).unwrap(), 4);
    }

    #[test]
    fn rejects_malformed() {
        assert_eq!(
            Flags::parse(&toks(&["576"]), KNOWN).unwrap_err(),
            ArgError::Unexpected("576".into())
        );
        assert_eq!(
            Flags::parse(&toks(&["--k", "1", "--k", "2"]), KNOWN).unwrap_err(),
            ArgError::Duplicate("k".into())
        );
        let err = Flags::parse(&toks(&["--pes", "1", "--pse", "2"]), KNOWN).unwrap_err();
        assert_eq!(err, ArgError::Unknown("pse".into()));
        assert_eq!(err.to_string(), "unknown flag --pse");
    }

    #[test]
    fn bare_flags_are_boolean_switches() {
        let f = Flags::parse(&toks(&["--coordinator", "--port", "8100"]), KNOWN).unwrap();
        assert!(f.get_or("coordinator", false).unwrap());
        assert_eq!(f.get_or("port", 0u16).unwrap(), 8100);
        let f = Flags::parse(&toks(&["--port", "8100", "--coordinator"]), KNOWN).unwrap();
        assert!(f.get_or("coordinator", false).unwrap());
        // A forgotten value still fails loudly, just at typing time.
        let f = Flags::parse(&toks(&["--pes", "--net", "alexnet"]), KNOWN).unwrap();
        assert!(matches!(
            f.get_or("pes", 0usize).unwrap_err(),
            ArgError::BadValue { .. }
        ));
    }

    #[test]
    fn typed_errors() {
        let f = Flags::parse(&toks(&["--pes", "many"]), KNOWN).unwrap();
        let err = f.get_or("pes", 0usize).unwrap_err();
        assert!(matches!(err, ArgError::BadValue { .. }));
        assert!(err.to_string().contains("many"));
    }
}
