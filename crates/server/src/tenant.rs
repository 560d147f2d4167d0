//! Tenant namespaces.
//!
//! A tenant is an isolated compilation world: its own specials
//! ordering, its own globals, its own compiled functions, its own
//! incident ledger.  The isolation has two independent mechanisms:
//!
//! * **Semantic** — a tenant's accumulated `proclaim`ed specials are
//!   prefixed onto every unit it compiles, so the same `defun` text can
//!   legitimately compile to different code for different tenants
//!   (specials change the calling convention of free references).
//! * **Cache** — every tenant's cache keys are XORed with its
//!   [`TenantState::fingerprint`], so even tenants compiling *the same*
//!   form under *the same* options get distinct keys: no warm hits
//!   across tenants, no timing side-channel on another tenant's
//!   artifacts.
//!
//! The namespace has one model, the log of successfully compiled unit
//! sources: a unit's specials and globals are absorbed, and its
//! artifacts stored, only when it is logged, so the specials prefix,
//! the journal, the snapshot and the linked image all describe the
//! logged units and a failed unit changes none of them.
//!
//! A tenant's compiles go through the batch service's hermetic jobs
//! ([`TenantState::compile_unit`], for live requests and journal replay
//! alike) and need no resident compiler.  Its runs go through its
//! linked [`Image`] ([`TenantState::image`]): the primary backend's code
//! and `defvar` initial values, immutable and shared across worker
//! threads.  The image is tagged with the `(sources.len(), degraded)`
//! it was linked from and is relinked — the one replay of the source
//! log left — only by the first `run` after a compile or a demotion
//! moved that tag.  Each `run` then gets a fresh engine from the image,
//! so it starts from the `defvar` initial values and sees no earlier
//! run's mutations.  Recovery restores only the source log; the first
//! `run` links the image.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use s1lisp::{Artifact, CompileError, Image};
use s1lisp_ast::Fnv1a64;
use s1lisp_driver::{BatchResult, BatchTuning, CompileService, ServiceConfig, SourceUnit};

use crate::journal::TenantJournal;

/// Everything the server remembers about one tenant.
#[derive(Debug, Default)]
pub struct TenantState {
    /// The tenant name.
    pub name: String,
    /// Nonzero salt XORed into the tenant's artifact-cache keys.
    pub fingerprint: u64,
    /// `proclaim`ed/`defvar`ed specials, in first-proclaimed order.
    /// Order matters: it is part of what every subsequent compile
    /// observes, and two tenants proclaiming the same names in a
    /// different order are *different* namespaces.
    pub specials: Vec<String>,
    /// `defvar` globals as `(name, printed initial value)`.
    pub globals: Vec<(String, String)>,
    /// Latest artifact per function name.
    pub artifacts: HashMap<String, Artifact>,
    /// Successfully compiled unit sources, in arrival order — the log
    /// the tenant's image is linked from.
    pub sources: Vec<String>,
    /// Incidents accrued across the tenant's lifetime.
    pub incidents: u64,
    /// True once the incident budget is exhausted: subsequent compiles
    /// run with transformations off until the server restarts.
    pub degraded: bool,
    /// Requests served (including rejected ones), for fairness tests
    /// and per-tenant metrics.
    pub requests: u64,
    /// The tenant's write-ahead journal, present when the server runs
    /// with a state dir (attached at `hello` for fresh tenants, during
    /// recovery for restored ones).
    pub journal: Option<TenantJournal>,
    /// An incident kind to surface on the tenant's *next* response —
    /// how a quarantined-at-recovery tenant learns its history was
    /// lost (`incident_kind = "recovery"`).
    pub pending_incident: Option<String>,
    /// The linked image and the `(sources.len(), degraded)` it was
    /// linked from.
    pub image: Option<((usize, bool), Arc<Image>)>,
}

impl TenantState {
    fn new(name: &str) -> TenantState {
        TenantState {
            name: name.to_string(),
            fingerprint: tenant_fingerprint(name),
            ..TenantState::default()
        }
    }

    /// Records a special, keeping first-proclaimed order and ignoring
    /// re-proclaims.
    pub fn absorb_special(&mut self, name: &str) {
        if !self.specials.iter().any(|s| s == name) {
            self.specials.push(name.to_string());
        }
    }

    /// Compiles one unit into the tenant's namespace — the one way a
    /// compile reaches tenant state, live or in journal replay.  The
    /// tenant's specials prefix the unit (none for a fresh tenant, so
    /// its artifacts are byte-identical to a plain `compile_batch`),
    /// and the batch compiles under the tenant's salt and demotion with
    /// the lock released: a tenant's single-in-flight guarantee already
    /// serializes its requests.  Only a clean compile changes the
    /// namespace: its specials and globals are absorbed from the
    /// batch's own split, its source is logged and its artifacts are
    /// stored, and then `commit` runs under the lock (the live server
    /// journals there, and a snapshot it takes holds the whole unit).
    /// A failed unit leaves the namespace as it was.  Either way the
    /// incidents are charged against `incident_budget`.
    pub fn compile_unit(
        tenant: &Mutex<TenantState>,
        service: &CompileService,
        unit: &str,
        source: &str,
        incident_budget: u64,
        commit: impl FnOnce(&mut TenantState),
    ) -> BatchResult {
        let (full_source, tuning) = {
            let st = tenant.lock().expect("tenant poisoned");
            let prefix = if st.specials.is_empty() {
                String::new()
            } else {
                format!("(proclaim (quote (special {})))\n", st.specials.join(" "))
            };
            let tuning = BatchTuning {
                key_salt: st.fingerprint,
                transformations_off: st.degraded,
            };
            (prefix + source, tuning)
        };
        let batch = service.compile_batch_with(&[SourceUnit::new(unit, full_source)], tuning);
        let mut st = tenant.lock().expect("tenant poisoned");
        if batch.failures.is_empty() {
            // The batch's split leads with the prefix's specials, which
            // the tenant already holds in this order.
            for s in &batch.specials {
                st.absorb_special(s);
            }
            st.globals.extend(batch.globals.iter().cloned());
            st.sources.push(source.to_string());
            for a in &batch.artifacts {
                st.artifacts.insert(a.name.clone(), a.clone());
            }
            commit(&mut st);
        }
        st.charge(batch.incidents.len() as u64, incident_budget);
        batch
    }

    /// The tenant's linked image, relinked first if a compile or a
    /// demotion changed the namespace since it was built.  Relinking
    /// compiles the source log into a fresh compiler as one unit, so
    /// each logged unit sees the specials its predecessors declared, as
    /// its served compile did through the specials prefix —
    /// transformations off for a demoted tenant, which runs what it
    /// compiles — with the lock released, after dropping the stale
    /// image.
    ///
    /// # Errors
    ///
    /// A source in the log that no longer compiles.
    pub fn image(
        tenant: &Mutex<TenantState>,
        service: &ServiceConfig,
    ) -> Result<Arc<Image>, CompileError> {
        let (key, sources) = {
            let mut st = tenant.lock().expect("tenant poisoned");
            let key = (st.sources.len(), st.degraded);
            if let Some((built, image)) = &st.image {
                if *built == key {
                    return Ok(Arc::clone(image));
                }
            }
            st.image = None;
            (key, st.sources.clone())
        };
        let mut c = service.compiler(key.1);
        c.compile_str(&sources.join("\n"))?;
        let image = Arc::new(c.image());
        tenant.lock().expect("tenant poisoned").image = Some((key, Arc::clone(&image)));
        Ok(image)
    }

    /// Charges `n` incidents to the tenant's ledger, demoting it once
    /// they reach `budget`.  Returns whether the tenant is demoted.
    pub fn charge(&mut self, n: u64, budget: u64) -> bool {
        self.incidents += n;
        self.degraded |= self.incidents >= budget;
        self.degraded
    }
}

/// The tenant's cache-key salt: an FNV-1a fingerprint of its name,
/// forced nonzero so no tenant ever aliases the unsalted (plain
/// `compile_batch`) key space.
pub fn tenant_fingerprint(name: &str) -> u64 {
    let mut h = Fnv1a64::new();
    h.write_str("tenant:");
    h.write_str(name);
    match h.finish() {
        0 => 0x9e37_79b9_7f4a_7c15,
        fp => fp,
    }
}

/// The server's tenant table: name → shared state, created on first
/// `hello`.
#[derive(Debug, Default)]
pub struct TenantRegistry {
    tenants: Mutex<HashMap<String, Arc<Mutex<TenantState>>>>,
}

impl TenantRegistry {
    /// An empty registry.
    pub fn new() -> TenantRegistry {
        TenantRegistry::default()
    }

    /// The state for `name`, created if this is its first appearance.
    pub fn get_or_create(&self, name: &str) -> Arc<Mutex<TenantState>> {
        let mut tenants = self.tenants.lock().expect("tenant table poisoned");
        tenants
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Mutex::new(TenantState::new(name))))
            .clone()
    }

    /// The state for `name`, or `None` if it never said hello.
    pub fn get(&self, name: &str) -> Option<Arc<Mutex<TenantState>>> {
        self.tenants
            .lock()
            .expect("tenant table poisoned")
            .get(name)
            .cloned()
    }

    /// Installs fully-built state (a recovered or quarantined tenant)
    /// under its name, replacing any existing entry.
    pub fn install(&self, state: TenantState) -> Arc<Mutex<TenantState>> {
        let name = state.name.clone();
        let arc = Arc::new(Mutex::new(state));
        self.tenants
            .lock()
            .expect("tenant table poisoned")
            .insert(name, Arc::clone(&arc));
        arc
    }

    /// Tenant names in sorted order.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .tenants
            .lock()
            .expect("tenant table poisoned")
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_are_stable_nonzero_and_distinct() {
        let a = tenant_fingerprint("alice");
        assert_eq!(a, tenant_fingerprint("alice"));
        assert_ne!(a, 0);
        assert_ne!(a, tenant_fingerprint("bob"));
        assert_ne!(tenant_fingerprint(""), 0);
    }

    #[test]
    fn registry_reuses_state_and_specials_keep_first_order() {
        let reg = TenantRegistry::new();
        let t1 = reg.get_or_create("alice");
        let t2 = reg.get_or_create("alice");
        assert!(Arc::ptr_eq(&t1, &t2));
        assert!(reg.get("bob").is_none());
        let mut s = t1.lock().unwrap();
        s.absorb_special("*b*");
        s.absorb_special("*a*");
        s.absorb_special("*b*");
        assert_eq!(s.specials, ["*b*", "*a*"]);
    }
}
