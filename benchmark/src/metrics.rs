//! Metric definitions and the run report.
//!
//! Every workload reports every metric: an untraced run the
//! [`END_TO_END`] set, a traced run the [`PER_LAYER`] set. A layer a
//! workload never calls reads 0. `BENCHMARK.json` at the repository root
//! mirrors these tables (a unit test keeps them in step).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

/// One metric's definition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Metric name.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
    /// Deterministic for a given seed and commit: compared for identity,
    /// not against a bound.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> Spec {
    Spec {
        name,
        unit,
        better: Better::Lower,
        bound: None,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by untraced runs.
pub const END_TO_END: [Spec; 4] = [
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("p50_ms", "ms", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.20),
];

/// Per-layer metrics, reported by traced runs.
pub const PER_LAYER: [Spec; 60] = [
    layer("scenario.parse_s", "s", Lower),
    layer("scenario.parse_mb_per_s", "MB/s", Higher),
    layer("scenario.parse_share", "ratio", Lower),
    layer("scenario.hash_us_per_job", "us", Lower),
    layer("engine.batch_s", "s", Lower),
    layer("engine.overhead_s", "s", Lower),
    layer("engine.cache_hit_ratio", "ratio", Higher),
    layer("engine.cache_evictions", "count", Lower),
    exact("engine.computed", "count"),
    layer("mva.solve_s", "s", Lower),
    layer("mva.us_per_solve", "us", Lower),
    exact("mva.iterations_p50", "count"),
    exact("mva.iterations_p99", "count"),
    exact("mva.no_convergence", "count"),
    exact("mva.diverged", "count"),
    exact("mva.table41_err_pct", "%"),
    layer("render.s", "s", Lower),
    layer("render.share", "ratio", Lower),
    layer("store.hits", "count", Higher),
    layer("store.misses", "count", Lower),
    layer("store.writes", "count", Lower),
    layer("store.get_us_p50", "us", Lower),
    layer("store.put_us_p50", "us", Lower),
    layer("store.open_s", "s", Lower),
    layer("serve.queue_wait_ms_p50", "ms", Lower),
    layer("serve.queue_wait_ms_p99", "ms", Lower),
    layer("serve.server_wall_ms_p50", "ms", Lower),
    layer("serve.server_wall_ms_p99", "ms", Lower),
    layer("serve.unaccounted_ms_p50", "ms", Lower),
    layer("serve.unaccounted_ms_p99", "ms", Lower),
    layer("serve.ttfb_ms_p50", "ms", Lower),
    layer("serve.tail_ms", "ms", Lower),
    layer("serve.bytes_per_req", "bytes", Lower),
    layer("serve.non_200", "count", Lower),
    layer("serve.io_errors", "count", Lower),
    layer("sim.s", "s", Lower),
    exact("sim.references", "count"),
    exact("sim.events", "count"),
    layer("sim.ns_per_event", "ns", Lower),
    exact("sim.bus_transactions", "count"),
    exact("sim.mva_des_err_pct", "%"),
    layer("exec.utilization", "ratio", Higher),
    layer("gtpn.build_s", "s", Lower),
    layer("gtpn.explore_s", "s", Lower),
    layer("gtpn.steady_s", "s", Lower),
    exact("gtpn.states", "count"),
    layer("gtpn.states_per_s", "1/s", Higher),
    layer("gtpn.explore_share", "ratio", Lower),
    exact("gtpn.table41_err_pct", "%"),
    layer("ingest.prescan_s", "s", Lower),
    layer("ingest.drain_s", "s", Lower),
    layer("ingest.mb_per_s", "MB/s", Higher),
    exact("ingest.records", "count"),
    layer("measure.s", "s", Lower),
    layer("measure.refs_per_s", "1/s", Higher),
    layer("tracesim.s", "s", Lower),
    layer("tracesim.refs_per_s", "1/s", Higher),
    exact("tracesim.calib_err_pct", "%"),
    layer("bench.trace_overhead_pct", "%", Lower),
    layer("bench.units", "count", Higher),
];

/// The definition of metric `name`.
pub fn spec(name: &str) -> Option<&'static Spec> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|s| s.name == name)
}

/// Everything one run reports.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Run seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Operations attempted (jobs, requests or calibrations).
    pub attempted: u64,
    /// Operations that failed or produced a wrong answer.
    pub failed: u64,
    /// Correctness violations, one line each.
    pub violations: Vec<String>,
    /// FNV-1a digest of the fixed-prefix outputs.
    pub digest: u64,
    /// Metric values by name (either set).
    pub values: BTreeMap<&'static str, f64>,
    /// Context lines: what an operation is, sample counts, percentiles.
    pub notes: Vec<String>,
}

impl Report {
    /// An empty report.
    pub fn new(workload: &str, seed: u64, traced: bool) -> Self {
        Report {
            workload: workload.to_string(),
            seed,
            traced,
            attempted: 0,
            failed: 0,
            violations: Vec::new(),
            digest: 0,
            values: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    /// Sets metric `name` (which must be defined).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(spec(name).is_some(), "undefined metric {name}");
        self.values.insert(name, value);
    }

    /// Records a violation unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// Whether every output checked out.
    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0
    }

    /// The metrics this run reports, with their values (0 when a layer
    /// was not exercised).
    pub fn reported(&self) -> Vec<(&'static Spec, f64)> {
        let set: &'static [Spec] = if self.traced { &PER_LAYER } else { &END_TO_END };
        set.iter()
            .map(|s| (s, self.values.get(s.name).copied().unwrap_or(0.0)))
            .collect()
    }

    /// The final result object: `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn result_json(&self) -> String {
        let mut metrics = String::new();
        for (i, (s, v)) in self.reported().iter().enumerate() {
            let _ = write!(
                metrics,
                "{}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                if i > 0 { "," } else { "" },
                s.name,
                number(*v),
                s.unit
            );
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }

    /// The result file: the result object plus run identity and notes.
    pub fn file_json(&self) -> String {
        let notes: Vec<String> = self.notes.iter().map(|n| json_string(n)).collect();
        let violations: Vec<String> = self.violations.iter().map(|n| json_string(n)).collect();
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"traced\":{},\"nproc\":{},\"digest\":\"{:016x}\",\
             \"result\":{},\"violations\":[{}],\"notes\":[{}]}}\n",
            self.workload,
            self.seed,
            self.traced,
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            self.digest,
            self.result_json(),
            violations.join(","),
            notes.join(",")
        )
    }

    /// The human-readable block followed by one JSON line per metric and
    /// the final result object (the last line).
    pub fn render(&self) -> String {
        let mut out = format!(
            "workload {} seed {} {}\n",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" }
        );
        for note in &self.notes {
            let _ = writeln!(out, "# {note}");
        }
        for (s, v) in self.reported() {
            let _ = writeln!(out, "{} {} {}", s.name, number(v), s.unit);
        }
        let _ = writeln!(out, "attempted {} failed {}", self.attempted, self.failed);
        let _ = writeln!(out, "digest {:016x}", self.digest);
        for v in &self.violations {
            let _ = writeln!(out, "VIOLATION {v}");
        }
        for (s, v) in self.reported() {
            let _ = writeln!(
                out,
                "{{\"metric\":\"{}\",\"value\":{},\"unit\":\"{}\"}}",
                s.name,
                number(v),
                s.unit
            );
        }
        out.push_str(&self.result_json());
        out.push('\n');
        out
    }
}

/// `numerator / denominator`, or 0 when nothing was measured (a layer the
/// workload never called).
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// A finite number in JSON form (non-finite values, which only a broken
/// measurement produces, print as 0).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use snoop_numeric::json::JsonValue;

    #[test]
    fn benchmark_json_mirrors_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = JsonValue::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str| doc.get(key).and_then(JsonValue::as_array).unwrap().to_vec();
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (item, s) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(item.get("name").and_then(JsonValue::as_str), Some(s.name));
            assert_eq!(item.get("unit").and_then(JsonValue::as_str), Some(s.unit));
            assert_eq!(item.get("bound").and_then(JsonValue::as_f64), s.bound);
            let better = if s.better == Higher {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(item.get("better").and_then(JsonValue::as_str), Some(better));
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (item, s) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(item.get("name").and_then(JsonValue::as_str), Some(s.name));
            assert_eq!(item.get("unit").and_then(JsonValue::as_str), Some(s.unit));
        }
        let workloads: Vec<String> = list("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(JsonValue::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, crate::workloads::WORKLOADS);
    }

    #[test]
    fn result_line_has_every_metric_of_its_set() {
        let mut r = Report::new("w", 1, false);
        r.set("ops_per_s", 12.5);
        let line = r.result_json();
        let doc = JsonValue::parse(&line).unwrap();
        let metrics = doc.get("metrics").and_then(JsonValue::as_object).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(doc.get("correct"), Some(&JsonValue::Bool(true)));
        r.traced = true;
        r.violations.push("x".into());
        let doc = JsonValue::parse(&r.result_json()).unwrap();
        assert_eq!(
            doc.get("metrics")
                .and_then(JsonValue::as_object)
                .unwrap()
                .len(),
            PER_LAYER.len()
        );
        assert_eq!(doc.get("correct"), Some(&JsonValue::Bool(false)));
    }
}
