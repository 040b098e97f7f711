//! Resolution of external resources referenced by a model.
//!
//! A DBSynth-generated model references dictionaries and Markov models by
//! file path (`markov/l_comment_markovSamples.bin`). The runtime resolves
//! those references through this trait so tests and demos can supply
//! in-memory resources while production loads from disk.

use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

use pdgf_schema::sync::Lock;
use textsynth::{Dictionary, MarkovModel};

/// Resource resolution failure.
#[derive(Debug, Clone)]
pub struct ResolveError(pub String);

impl fmt::Display for ResolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "resolve error: {}", self.0)
    }
}

impl std::error::Error for ResolveError {}

/// Supplies dictionaries and Markov models for `File(...)` references.
pub trait ResourceResolver {
    /// Load the dictionary at `path`.
    fn dictionary(&self, path: &str) -> Result<Arc<Dictionary>, ResolveError>;
    /// Load the Markov model at `path`.
    fn markov(&self, path: &str) -> Result<Arc<MarkovModel>, ResolveError>;
}

/// In-memory resolver for tests, demos, and models with only inline
/// resources. Unknown paths are errors.
#[derive(Default)]
pub struct MapResolver {
    dicts: BTreeMap<String, Arc<Dictionary>>,
    markovs: BTreeMap<String, Arc<MarkovModel>>,
}

impl MapResolver {
    /// Empty resolver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a dictionary under `path`.
    pub fn with_dictionary(mut self, path: &str, dict: Dictionary) -> Self {
        self.dicts.insert(path.to_string(), Arc::new(dict));
        self
    }

    /// Register a Markov model under `path`.
    pub fn with_markov(mut self, path: &str, model: MarkovModel) -> Self {
        self.markovs.insert(path.to_string(), Arc::new(model));
        self
    }
}

impl ResourceResolver for MapResolver {
    fn dictionary(&self, path: &str) -> Result<Arc<Dictionary>, ResolveError> {
        self.dicts
            .get(path)
            .cloned()
            .ok_or_else(|| ResolveError(format!("unknown dictionary {path:?}")))
    }

    fn markov(&self, path: &str) -> Result<Arc<MarkovModel>, ResolveError> {
        self.markovs
            .get(path)
            .cloned()
            .ok_or_else(|| ResolveError(format!("unknown markov model {path:?}")))
    }
}

/// Adapter presenting a [`ResourceResolver`] as an abstract-interpretation
/// [`ResourceOracle`](pdgf_schema::absint::ResourceOracle): resources that
/// resolve report their exact entry statistics, unresolvable resources
/// stay unknown (the interpreter then assumes nothing about them).
pub struct ResolverOracle<'a>(pub &'a dyn ResourceResolver);

impl pdgf_schema::absint::ResourceOracle for ResolverOracle<'_> {
    fn dictionary(&self, path: &str) -> Option<pdgf_schema::absint::ResourceInfo> {
        let dict = self.0.dictionary(path).ok()?;
        Some(pdgf_schema::absint::entries_info(
            dict.iter().map(|(t, _)| t.as_ref()),
        ))
    }

    fn markov(&self, path: &str) -> Option<pdgf_schema::absint::ResourceInfo> {
        let model = self.0.markov(path).ok()?;
        Some(pdgf_schema::absint::entries_info(model.words()))
    }
}

/// Filesystem resolver rooted at a base directory, with a cache so a model
/// referenced by many fields is loaded once.
pub struct FsResolver {
    base: PathBuf,
    dict_cache: Lock<BTreeMap<String, Arc<Dictionary>>>,
    markov_cache: Lock<BTreeMap<String, Arc<MarkovModel>>>,
}

impl FsResolver {
    /// Resolver loading paths relative to `base`.
    pub fn new(base: impl Into<PathBuf>) -> Self {
        Self {
            base: base.into(),
            dict_cache: Lock::default(),
            markov_cache: Lock::default(),
        }
    }
}

impl ResourceResolver for FsResolver {
    fn dictionary(&self, path: &str) -> Result<Arc<Dictionary>, ResolveError> {
        if let Some(d) = self.dict_cache.lock().get(path) {
            return Ok(d.clone());
        }
        let full = self.base.join(path);
        let data = std::fs::read_to_string(&full)
            .map_err(|e| ResolveError(format!("reading {}: {e}", full.display())))?;
        let dict = Arc::new(
            Dictionary::from_file_format(&data)
                .map_err(|e| ResolveError(format!("{}: {e}", full.display())))?,
        );
        self.dict_cache
            .lock()
            .insert(path.to_string(), dict.clone());
        Ok(dict)
    }

    fn markov(&self, path: &str) -> Result<Arc<MarkovModel>, ResolveError> {
        if let Some(m) = self.markov_cache.lock().get(path) {
            return Ok(m.clone());
        }
        let full = self.base.join(path);
        let data = std::fs::read(&full)
            .map_err(|e| ResolveError(format!("reading {}: {e}", full.display())))?;
        let model = Arc::new(
            MarkovModel::from_bytes(&data)
                .map_err(|e| ResolveError(format!("{}: {e}", full.display())))?,
        );
        self.markov_cache
            .lock()
            .insert(path.to_string(), model.clone());
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use textsynth::MarkovBuilder;

    #[test]
    fn map_resolver_round_trip() {
        let dict = Dictionary::new(vec![("x".into(), 1.0)]).unwrap();
        let mut b = MarkovBuilder::new();
        b.feed("a b c");
        let model = b.build().unwrap();
        let r = MapResolver::new()
            .with_dictionary("d", dict)
            .with_markov("m", model);
        assert!(r.dictionary("d").is_ok());
        assert!(r.markov("m").is_ok());
        assert!(r.dictionary("missing").is_err());
        assert!(r.markov("missing").is_err());
    }

    #[test]
    fn fs_resolver_loads_and_caches() {
        let dir = std::env::temp_dir().join(format!("pdgf-resolver-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("colors.dict"), "3\tred\n1\tblue\n").unwrap();
        let mut b = MarkovBuilder::new();
        b.feed("one two three");
        std::fs::write(dir.join("m.bin"), b.build().unwrap().to_bytes()).unwrap();

        let r = FsResolver::new(&dir);
        let d1 = r.dictionary("colors.dict").unwrap();
        let d2 = r.dictionary("colors.dict").unwrap();
        assert!(Arc::ptr_eq(&d1, &d2), "cache must return the same instance");
        assert_eq!(d1.len(), 2);
        let m = r.markov("m.bin").unwrap();
        assert_eq!(m.word_count(), 3);
        assert!(r.dictionary("nope.dict").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
