//! The record table: every machine-readable record whose schema a
//! golden file pins, as one list of `(id, golden, builder)` rows.
//!
//! `report --json <id>` finds its records with [`lookup`], the golden
//! test builds every row and compares [`schema_of`] of the record with
//! the row's golden, and `perfbench --check` validates its two smoke
//! entries the same way.  [`check_golden`] is the one
//! compare-or-regenerate step behind every golden test — schemas,
//! folded stacks and dossiers alike — so
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p s1lisp-bench --tests
//! ```
//!
//! regenerates every file under `crates/bench/tests/golden/`.

use std::path::PathBuf;

use s1lisp_driver::ServiceConfig;
use s1lisp_trace::json::{self, Json};

use crate::perfbench::{repo_root, smoke_service_entry, smoke_sim_entry};
use crate::{
    backend_record, chrome_trace, durability_record, guard_miscompile_record, guard_record,
    json_record, metrics_record, passes_record, serve_record, service_fault_record,
    service_record_for, trap_record,
};

/// One schema-pinned record.
pub struct Record {
    /// The `report --json` id.
    pub id: &'static str,
    /// The golden file under `tests/golden/` holding its schema.
    pub golden: &'static str,
    build: fn(&str, &ServiceConfig) -> Json,
}

impl Record {
    /// Builds the record.  `cfg` carries `report`'s `--jobs`,
    /// `--cache-dir` and `--backend`; only the `service` row reads it.
    pub fn build(&self, cfg: &ServiceConfig) -> Json {
        (self.build)(self.id, cfg)
    }
}

fn row(id: &'static str, golden: &'static str, build: fn(&str, &ServiceConfig) -> Json) -> Record {
    Record { id, golden, build }
}

/// Every schema-pinned record: the experiments in index order, all
/// against one golden, then the rest.
#[rustfmt::skip]
pub fn records() -> Vec<Record> {
    let experiment = |id: &str, _: &ServiceConfig| json_record(id).expect("a known experiment");
    let mut rows: Vec<Record> = crate::all_experiments()
        .iter()
        .map(|e| row(e.id, "report_schema.txt", experiment))
        .collect();
    rows.extend([
        row("trap",              "trap_schema.txt",              |_, _| trap_record()),
        row("service",           "service_schema.txt",           |_, c| {
            service_record_for(c.jobs, c.cache_dir.clone(), c.backend)
        }),
        row("service-fault",     "service_fault_schema.txt",     |_, _| service_fault_record()),
        row("guard",             "guard_schema.txt",             |_, _| guard_record()),
        row("guard-miscompile",  "guard_miscompile_schema.txt",  |_, _| guard_miscompile_record()),
        row("passes",            "passes_schema.txt",            |_, _| passes_record()),
        row("metrics",           "metrics_schema.txt",           |_, _| metrics_record()),
        row("serve",             "serve_schema.txt",             |_, _| serve_record()),
        row("durability",        "durability_schema.txt",        |_, _| durability_record()),
        row("backend",           "backend_schema.txt",           |_, _| backend_record()),
        row("perfbench-sim",     "perfbench_sim_schema.txt",     |_, _| {
            smoke_sim_entry(&repo_root())
        }),
        row("perfbench-service", "perfbench_service_schema.txt", |_, _| {
            smoke_service_entry(&repo_root())
        }),
        row("chrome-trace",      "chrome_trace_schema.txt",      |_, _| chrome_trace()),
    ]);
    rows
}

/// The row for `id`.
///
/// # Errors
///
/// For an unknown id, the message `report` prints: it names every id
/// in the table.
pub fn lookup(id: &str) -> Result<Record, String> {
    let rows = records();
    let ids: Vec<&str> = rows.iter().map(|r| r.id).collect();
    let unknown = format!("unknown record {id} (want one of: {})", ids.join(", "));
    rows.into_iter().find(|r| r.id == id).ok_or(unknown)
}

/// The signature a schema golden pins (its one line): [`json::schema`]
/// after padding every empty dynamic map.  Maps in records are
/// int-valued histograms, and an empty one carries no value type — an
/// experiment whose workload fires no optimizer rule has `rules: {}`,
/// the same schema with no entries — so it gets a sentinel entry first.
pub fn schema_of(rec: &Json) -> String {
    fn pad_empty_maps(v: &Json) -> Json {
        let pad = |fields: &[(String, Json)]| {
            fields
                .iter()
                .map(|(k, v)| (k.clone(), pad_empty_maps(v)))
                .collect()
        };
        match v {
            Json::Map(entries) if entries.is_empty() => {
                Json::Map(vec![("_".to_string(), Json::Int(0))])
            }
            Json::Map(entries) => Json::Map(pad(entries)),
            Json::Obj(fields) => Json::Obj(pad(fields)),
            Json::Arr(items) => Json::Arr(items.iter().map(pad_empty_maps).collect()),
            other => other.clone(),
        }
    }
    json::schema(&pad_empty_maps(rec))
}

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file)
}

/// Compares `got` byte for byte with the golden `file`.
///
/// # Errors
///
/// The unreadable file, or the first line that differs.
pub fn compare_golden(file: &str, got: &str) -> Result<(), String> {
    let want = std::fs::read_to_string(golden_path(file)).map_err(|e| format!("{file}: {e}"))?;
    if got == want {
        return Ok(());
    }
    let line = want
        .lines()
        .zip(got.lines())
        .take_while(|(w, g)| w == g)
        .count();
    Err(format!(
        "{file} differs at line {}\n  want: {}\n  got:  {}\n\
         (UPDATE_GOLDEN=1 regenerates it when the change is intended)",
        line + 1,
        want.lines().nth(line).unwrap_or("<end of file>"),
        got.lines().nth(line).unwrap_or("<end of file>"),
    ))
}

/// The compare-or-regenerate step of every golden test: with
/// `UPDATE_GOLDEN` set it writes `got` to the golden `file`, otherwise
/// it is [`compare_golden`].
///
/// # Errors
///
/// A failed write, or the mismatch [`compare_golden`] reports.
pub fn check_golden(file: &str, got: &str) -> Result<(), String> {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        return std::fs::write(golden_path(file), got).map_err(|e| format!("{file}: {e}"));
    }
    compare_golden(file, got)
}
