//! The cacheable result of compiling one function.
//!
//! An [`Artifact`] is everything the compilation service needs to hand
//! back for a function without re-running any phase: the assembly
//! listing, the TN packing map, the rendered dossier, and the summary
//! numbers the experiment reports consume.  It is plain data — strings
//! and integers only — so it crosses threads freely and round-trips
//! through the `s1lisp-trace` JSON layer for the on-disk cache tier.

use s1lisp_trace::json::Json;

/// One function's complete compilation output, detached from the
/// [`Compiler`](crate::Compiler) that produced it.
#[derive(Clone, Debug, PartialEq)]
pub struct Artifact {
    /// The `defun` name.
    pub name: String,
    /// The backend that emitted this artifact
    /// ([`BackendKind::name`](crate::BackendKind::name): `"s1"` or
    /// `"bytecode"`).
    pub backend: String,
    /// The cache key this artifact was stored under (structural tree
    /// fingerprint mixed with the options fingerprint); `0` until the
    /// service assigns it.
    pub fingerprint: u64,
    /// Back-translated source as converted (before optimization).
    pub converted: String,
    /// Back-translated source after source-level optimization.
    pub optimized: String,
    /// Number of source-level transformations applied.
    pub transformations: u64,
    /// Optimizer rule-firing histogram, in first-fired order.
    pub rules: Vec<(String, u64)>,
    /// Table 1 phases this function went through (name, span count).
    pub phase_spans: Vec<(String, u64)>,
    /// TN packing decisions, one line per temporary name.
    pub tn_map: Vec<String>,
    /// Representation coercions inserted during annotation.
    pub coercions: Vec<String>,
    /// Parenthesized-assembly listing.
    pub assembly: String,
    /// Instruction count of the final code.
    pub insns: u64,
    /// The rendered compilation dossier (deterministic form, no wall
    /// times).
    pub dossier: String,
    /// True when this is the fallback output of a degraded recompile
    /// (transformations off after a panic or timeout).  Degraded
    /// artifacts are never cached.
    pub degraded: bool,
}

impl Artifact {
    /// Serializes for the on-disk cache tier and the `service` report
    /// record.  The fingerprint is a 16-digit hex string
    /// ([`Json::fingerprint`]).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::str(&self.name)),
            ("backend", Json::str(&self.backend)),
            ("fingerprint", Json::fingerprint(self.fingerprint)),
            ("converted", Json::str(&self.converted)),
            ("optimized", Json::str(&self.optimized)),
            ("transformations", Json::uint(self.transformations)),
            ("rules", Json::counts(&self.rules)),
            ("phase_spans", Json::counts(&self.phase_spans)),
            ("tn_map", Json::strs(&self.tn_map)),
            ("coercions", Json::strs(&self.coercions)),
            ("assembly", Json::str(&self.assembly)),
            ("insns", Json::uint(self.insns)),
            ("dossier", Json::str(&self.dossier)),
            ("degraded", Json::Bool(self.degraded)),
        ])
    }

    /// Rebuilds an artifact from [`Artifact::to_json`] output (or its
    /// parse).  Returns `None` on any missing or mistyped field, so a
    /// corrupt disk-cache entry degrades to a cache miss.
    pub fn from_json(j: &Json) -> Option<Artifact> {
        Some(Artifact {
            name: j.get_str("name")?,
            backend: j.get_str("backend")?,
            fingerprint: j.get_fingerprint("fingerprint")?,
            converted: j.get_str("converted")?,
            optimized: j.get_str("optimized")?,
            transformations: j.get_u64("transformations")?,
            rules: j.get_counts("rules")?,
            phase_spans: j.get_counts("phase_spans")?,
            tn_map: j.get_strs("tn_map")?,
            coercions: j.get_strs("coercions")?,
            assembly: j.get_str("assembly")?,
            insns: j.get_u64("insns")?,
            dossier: j.get_str("dossier")?,
            degraded: j.get("degraded")?.as_bool()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s1lisp_trace::json;

    fn sample() -> Artifact {
        Artifact {
            name: "norm".into(),
            backend: "s1".into(),
            fingerprint: 0xdead_beef_0000_0001,
            converted: "(lambda (x) x)".into(),
            optimized: "(lambda (x) x)".into(),
            transformations: 3,
            rules: vec![("META-SUBSTITUTE".into(), 2), ("META-IF-LIFT".into(), 1)],
            phase_spans: vec![("Code generation".into(), 1)],
            tn_map: vec!["x = TN0 (register)".into()],
            coercions: vec!["unbox flonum".into()],
            assembly: "(RET)".into(),
            insns: 7,
            dossier: "==== dossier ====\nline \"quoted\"".into(),
            degraded: false,
        }
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let a = sample();
        let text = a.to_json().to_string();
        let parsed = json::parse(&text).expect("valid JSON");
        assert_eq!(Artifact::from_json(&parsed), Some(a));
    }

    #[test]
    fn corrupt_entries_fail_cleanly() {
        // Missing field.
        let mut j = sample().to_json();
        if let Json::Obj(fields) = &mut j {
            fields.retain(|(k, _)| k != "assembly");
        }
        assert!(Artifact::from_json(&j).is_none());
        // Mistyped field.
        let mut j = sample().to_json();
        if let Json::Obj(fields) = &mut j {
            for (k, v) in fields.iter_mut() {
                if k == "insns" {
                    *v = Json::str("seven");
                }
            }
        }
        assert!(Artifact::from_json(&j).is_none());
        // Unparseable fingerprint.
        let mut j = sample().to_json();
        if let Json::Obj(fields) = &mut j {
            for (k, v) in fields.iter_mut() {
                if k == "fingerprint" {
                    *v = Json::str("not-hex");
                }
            }
        }
        assert!(Artifact::from_json(&j).is_none());
    }
}
