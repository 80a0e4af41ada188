//! What one benchmark run produces: named metrics with units, the
//! correctness checks it ran, and free-form notes for the run record.

use std::collections::BTreeMap;

/// Metrics by name: value and unit.
#[derive(Debug, Default)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }
}

#[derive(Debug)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    /// Client operations attempted (jobs, runs, appends).
    pub attempted: u64,
    /// Operations that failed or returned a wrong answer.
    pub failed: u64,
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
    pub checks: Vec<Check>,
    pub notes: BTreeMap<String, String>,
}

impl Report {
    /// Record a correctness check; a failing one also counts as a failed
    /// operation.
    pub fn check(&mut self, name: impl Into<String>, result: Result<(), String>) {
        let (ok, detail) = match result {
            Ok(()) => (true, String::new()),
            Err(e) => (false, e),
        };
        if !ok {
            self.failed += 1;
        }
        self.checks.push(Check {
            name: name.into(),
            ok,
            detail,
        });
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.insert(key.to_string(), value.to_string());
    }
}
