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
//! The per-tenant [`Compiler`](s1lisp::Compiler) is **not** kept alive
//! between requests — `Compiler` is not `Send` (its program holds
//! `Rc`s), and requests for one tenant may serve on different worker
//! threads.  Instead the state keeps the tenant's compiled sources in
//! order and replays them into a fresh compiler when a `run` request
//! needs a live machine; compilation itself goes through the batch
//! service's hermetic jobs ([`TenantState::compile_unit`], for live
//! requests and journal replay alike) and needs no resident compiler at
//! all.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use s1lisp::Artifact;
use s1lisp_ast::Fnv1a64;
use s1lisp_driver::{unit_decls, BatchResult, BatchTuning, CompileService, SourceUnit};

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
    /// Successfully compiled unit sources, in arrival order — the
    /// replay log a `run` request rebuilds its machine from.
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
    /// serializes its requests.  Then the unit's declarations are
    /// absorbed, a clean compile's source is logged and `commit` runs
    /// under the lock (the live server journals there), the artifacts
    /// are stored, and the incidents are charged against
    /// `incident_budget`.
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
        // The unit's own declarations, from the *raw* source: the
        // prefix is the tenant's existing state, not news.
        if let Ok((specials, globals)) = unit_decls(source) {
            for s in specials {
                st.absorb_special(&s);
            }
            st.globals.extend(globals);
        }
        if batch.failures.is_empty() {
            st.sources.push(source.to_string());
            commit(&mut st);
        }
        for a in &batch.artifacts {
            st.artifacts.insert(a.name.clone(), a.clone());
        }
        st.charge(batch.incidents.len() as u64, incident_budget);
        batch
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
