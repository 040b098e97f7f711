//! The model registry: named schemas one server deployment serves.
//!
//! BDGS's motivation — one generation deployment answering for many
//! workload schemas — lands here: a [`ModelRegistry`] maps model names
//! to compiled [`SchemaRuntime`]s, and the server instantiates ONE
//! shared worker pool over all of them (`RowService::with_models`).
//! Registration order is slot order; slot 0 is the default model that
//! unqualified single-model requests address.
//!
//! Loading a model file goes through the full front door: parse →
//! static analysis (reject on any error diagnostic, structural or
//! abstract-interpretation) → compile. A model the analyzer rejects
//! never enters the data plane.

use std::sync::Arc;

use pdgf_gen::SchemaRuntime;

use crate::project::{Pdgf, PdgfError, PdgfProject};

/// Named models for one server, in registration (= slot index) order.
#[derive(Default)]
pub struct ModelRegistry {
    models: Vec<(String, Arc<SchemaRuntime>)>,
}

impl ModelRegistry {
    /// An empty registry. A server needs at least one model; binding an
    /// empty registry fails.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a built project under `name`. Fails on a duplicate name
    /// — silent shadowing would make cursor tokens ambiguous.
    pub fn register(mut self, name: &str, project: PdgfProject) -> Result<Self, PdgfError> {
        self.check_name(name)?;
        self.models
            .push((name.to_string(), Arc::new(project.into_runtime())));
        Ok(self)
    }

    /// Register an already-compiled runtime under `name` (programmatic
    /// schemas — the workload suites build these directly).
    pub fn register_runtime(
        mut self,
        name: &str,
        runtime: Arc<SchemaRuntime>,
    ) -> Result<Self, PdgfError> {
        self.check_name(name)?;
        self.models.push((name.to_string(), runtime));
        Ok(self)
    }

    /// Load an XML model file under `name`, gated by the full static
    /// analysis: any error diagnostic rejects the model before it can
    /// serve a byte.
    pub fn load_file(self, name: &str, path: &str) -> Result<Self, PdgfError> {
        let builder = Pdgf::from_xml_file(path)?;
        let analysis = builder.analyze()?;
        if let Some(first) = analysis.first_error() {
            return Err(PdgfError::Config(format!(
                "model {name:?} rejected by static analysis: {}: {}",
                first.code, first.message
            )));
        }
        self.register(name, builder.build()?)
    }

    /// Registered model count.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// True when no model has been registered yet.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Registered names, in slot order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.models.iter().map(|(n, _)| n.as_str())
    }

    /// Hand the slots to `RowService::with_models`.
    pub(crate) fn into_models(self) -> Vec<(String, Arc<SchemaRuntime>)> {
        self.models
    }

    fn check_name(&self, name: &str) -> Result<(), PdgfError> {
        if name.is_empty()
            || !name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
        {
            return Err(PdgfError::Config(format!(
                "model name {name:?} must be non-empty [A-Za-z0-9_-] (it appears in URLs and tokens)"
            )));
        }
        if self.models.iter().any(|(n, _)| n == name) {
            return Err(PdgfError::Config(format!(
                "model {name:?} is already registered"
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MODEL: &str = r#"
<schema name="reg">
  <seed>7</seed>
  <rng name="PdgfDefaultRandom"/>
  <table name="t">
    <size>10</size>
    <field name="id" type="BIGINT" primary="true"><gen_IdGenerator/></field>
  </table>
</schema>"#;

    fn project() -> PdgfProject {
        Pdgf::from_xml_str(MODEL).unwrap().build().unwrap()
    }

    #[test]
    fn registers_in_slot_order() {
        let reg = ModelRegistry::new()
            .register("alpha", project())
            .unwrap()
            .register("beta", project())
            .unwrap();
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.names().collect::<Vec<_>>(), ["alpha", "beta"]);
    }

    fn repo_file(rel: &str) -> String {
        format!("{}/../../{rel}", env!("CARGO_MANIFEST_DIR"))
    }

    #[test]
    fn load_file_rejects_analysis_errors_and_accepts_shipped_models() {
        for (model, code) in [
            ("models/bad/e040_nonunique_pk.xml", "E040"),
            ("models/bad/e052_ref_into_empty.xml", "E052"),
        ] {
            let err = match ModelRegistry::new().load_file("m", &repo_file(model)) {
                Ok(_) => panic!("{model} must be rejected"),
                Err(e) => e.to_string(),
            };
            assert!(err.contains(code), "{model}: {err}");
        }
        let reg = ModelRegistry::new()
            .load_file("tpch", &repo_file("models/tpch.xml"))
            .unwrap();
        assert_eq!(reg.names().collect::<Vec<_>>(), ["tpch"]);
    }

    #[test]
    fn duplicate_and_bad_names_are_rejected() {
        let reg = ModelRegistry::new().register("m", project()).unwrap();
        assert!(reg.check_name("m").is_err());
        assert!(reg.check_name("").is_err());
        assert!(reg.check_name("a/b").is_err());
        assert!(reg.check_name("sp ace").is_err());
        assert!(reg.check_name("ok-name_2").is_ok());
    }
}
