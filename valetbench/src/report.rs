//! Metric names and units (the same lists as `BENCHMARK.json`) and the
//! result line the benchmark prints last.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("server_cpu_us_per_req", "us"),
    ("slo_rate_rps", "1/s"),
];

/// Per-layer metrics, printed by every traced run. A layer the workload
/// does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("rpcvalet.ns_per_event.hw", "ns"),
    ("rpcvalet.ns_per_event.sw", "ns"),
    ("rpcvalet.run_ns_per_event", "ns"),
    ("rpcvalet.trace_overhead_frac", "ratio"),
    ("simkit.events", "count"),
    ("simkit.overflow_pushes", "count"),
    ("simkit.queue_ns_per_op", "ns"),
    ("dist.sample_ns", "ns"),
    ("sonuma.arrival_ns", "ns"),
    ("metrics.record_ns", "ns"),
    ("harness.pool_busy_frac", "ratio"),
    ("live.client.send_late_p50_us", "us"),
    ("live.client.send_late_p99_us", "us"),
    ("live.protocol.encode_ns", "ns"),
    ("live.protocol.decode_ns", "ns"),
    ("live.server.stats_rtt_us", "us"),
    ("live.server.threads", "count"),
    ("live.server.ctx_switches_per_req", "count"),
    ("live.hop.reassembly_us_p50", "us"),
    ("live.hop.reassembly_us_p99", "us"),
    ("live.hop.dispatch_us_p50", "us"),
    ("live.hop.dispatch_us_p99", "us"),
    ("live.hop.core_queue_us_p50", "us"),
    ("live.hop.core_queue_us_p99", "us"),
    ("live.hop.processing_us_p50", "us"),
    ("live.hop.processing_us_p99", "us"),
    ("live.hop.outside_server_us_p50", "us"),
    ("live.hop.residual_us_p50", "us"),
    ("live.hop.traced_frac", "ratio"),
    ("live.dispatch.queued_mean", "count"),
    ("live.dispatch.queue_high_water", "count"),
    ("live.dispatch.ring_high_water", "count"),
    ("live.dispatch.busy_mean", "count"),
    ("live.dispatch.jain", "ratio"),
    ("live.trace_overhead_p50_frac", "ratio"),
    ("live.trace_overhead_p99_frac", "ratio"),
    ("live.traced.p50_us", "us"),
    ("live.traced.p99_us", "us"),
];

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Whether every output checked out.
    pub correct: bool,
    /// Operations attempted (simulator jobs or live requests).
    pub attempted: u64,
    /// Operations that failed their check.
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a metric by its declared name.
    ///
    /// # Panics
    /// Panics on a name in neither list: the lists are the contract.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit(name).is_some(),
            "metric `{name}` is not declared in report.rs"
        );
        self.values.insert(name, value);
    }

    /// A recorded value, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Human-readable table of every recorded metric with its unit.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.values {
            let _ = writeln!(
                out,
                "  {name:<36} {value:>16.4} {}",
                unit(name).unwrap_or("")
            );
        }
        out
    }

    /// The result line: the end-to-end metrics (`trace == false`) or the
    /// per-layer ones, each with its unit. Per-layer metrics the run did
    /// not record read 0 (the workload does not exercise that layer).
    ///
    /// # Panics
    /// Panics when an end-to-end metric was not recorded.
    pub fn result_line(&self, trace: bool) -> String {
        let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut metrics = String::new();
        for (i, (name, unit)) in list.iter().enumerate() {
            let value = match self.get(name) {
                Some(v) => v,
                None if trace => 0.0,
                None => panic!("end-to-end metric `{name}` was not measured"),
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

/// The declared unit of a metric.
pub fn unit(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// A JSON number with every digit Rust's shortest round-trip form gives;
/// non-finite values (a failed request's latency) become `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_carries_every_declared_metric() {
        let mut o = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            ..Outcome::default()
        };
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            o.set(name, 1.5 + i as f64);
        }
        let line = o.result_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        let traced = o.result_line(true);
        for (name, _) in PER_LAYER {
            assert!(traced.contains(&format!("\"{name}\": {{\"value\": 0.0,")));
        }
    }

    #[test]
    fn benchmark_json_matches_the_declared_lists() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let string = |v: &serde_json::Value| match v {
            serde_json::Value::String(s) => s.clone(),
            other => panic!("expected a string, got {other:?}"),
        };
        let names = |key: &str| -> Vec<(String, String)> {
            let serde_json::Value::Array(items) = &doc[key] else {
                panic!("`{key}` is not a list");
            };
            items
                .iter()
                .map(|m| (string(&m["name"]), string(&m["unit"])))
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn non_finite_values_are_null() {
        assert_eq!(json_number(f64::INFINITY), "null");
        assert_eq!(json_number(0.25), "0.25");
    }
}
