//! What one run reports: the one-line JSON result, plus the
//! human-readable tables printed before it.

use crate::layers::{target, Catalogue, UNLISTED_NOTE};
use crate::measure::median;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::Path;

#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: measured requests plus gate checks.
    pub attempted: u64,
    /// Failed or refused operations.
    pub failed: u64,
    /// Gate mismatches; they count as failed operations too.
    pub mismatches: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Extra figures shown in the text table only.
    pub notes: Vec<(String, String)>,
    /// Per traced pass and span name: (pass, span, spans, median self
    /// time µs, total self time µs).
    pub spans: Vec<(&'static str, &'static str, usize, f64, f64)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.notes.push((key.to_owned(), value.to_string()));
    }

    /// Summarise one traced pass's spans for the span table and write
    /// them all to `path`.
    pub fn add_trace(&mut self, pass: &'static str, tr: &Tracer, path: &Path) {
        for (name, v) in tr.self_times_us() {
            self.spans
                .push((pass, name, v.len(), median(&v), v.iter().sum()));
        }
        match tr.write_tsv(path) {
            Ok(()) => self.note(&format!("{pass} spans written to"), path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.mismatches == 0
    }

    /// Print the tables and, last, the one-line JSON result. With
    /// `trace` the result carries every per-layer metric (0 for a layer
    /// the workload bypasses), otherwise every end-to-end metric.
    pub fn print(&self, cat: &Catalogue, workload: &str, trace: bool) {
        println!("# perfbench {workload} (trace {})", u8::from(trace));
        for (k, v) in &self.notes {
            println!("  {k:<34} {v}");
        }
        let mut fields = Vec::new();
        if trace {
            if !self.spans.is_empty() {
                println!(
                    "\n  {:<8} {:<24} {:>9} {:>14} {:>9}",
                    "pass", "span", "count", "self p50 us", "share"
                );
                for (pass, name, n, p50, sum) in &self.spans {
                    // Share of the pass's traced time.
                    let total: f64 = self
                        .spans
                        .iter()
                        .filter(|s| s.0 == *pass)
                        .map(|s| s.4)
                        .sum();
                    let share = if total > 0.0 {
                        100.0 * sum / total
                    } else {
                        0.0
                    };
                    println!("  {pass:<8} {name:<24} {n:>9} {p50:>14.3} {share:>8.1}%");
                }
            }
            println!(
                "\n  {:<36} {:>14} {:<6}  {:<44} workload",
                "per-layer metric", "value", "unit", "should move"
            );
            for m in &cat.per_layer {
                let v = self.metrics.get(m.name.as_str()).copied().unwrap_or(0.0);
                let (moves, on) = target(&m.name).unwrap_or(("?", "?"));
                println!("  {:<36} {v:>14.4} {:<6}  {moves:<44} {on}", m.name, m.unit);
                fields.push(field(&m.name, v, &m.unit));
            }
            println!("  {UNLISTED_NOTE}");
        } else {
            println!();
            for m in &cat.end_to_end {
                let v = self
                    .metrics
                    .get(m.name.as_str())
                    .copied()
                    .unwrap_or(f64::NAN);
                println!("  {:<34} {v:.4} {}", m.name, m.unit);
                fields.push(field(&m.name, v, &m.unit));
            }
        }
        println!(
            "  {:<34} {}/{} ({})",
            "failed/attempted",
            self.failed + self.mismatches,
            self.attempted,
            if self.correct() {
                "correct"
            } else {
                "INCORRECT"
            }
        );
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed + self.mismatches,
            fields.join(", ")
        );
    }
}

fn field(name: &str, value: f64, unit: &str) -> String {
    // JSON has no NaN or infinity; a missing measurement is a bug, and
    // shows as null so the run is rejected rather than misread.
    let v = if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_owned()
    };
    format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
}
