//! Metric names, units and the result line.
//!
//! End-to-end metrics are measured with tracing off and are reported on
//! every workload; per-layer metrics come from a separate traced run.
//! `BENCHMARK.json` lists exactly these names (a test keeps them in
//! step).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cold_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
];

/// Per-layer metrics: `(name, unit)`. A `_s` time is the summed self
/// time of that layer's spans over the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("kernels.build_s", "s"),
    ("kernels.lower_graph_s", "s"),
    ("ir.validate_s", "s"),
    ("codegen.emit_s", "s"),
    ("codegen.cuda_bytes", "B"),
    ("analysis.lint_s", "s"),
    ("analysis.prove_s", "s"),
    ("analysis.proven_fraction", "ratio"),
    ("sim.plan_compile_s", "s"),
    ("sim.plan_exec_s", "s"),
    ("sim.record_s", "s"),
    ("sim.trace_steps", "count"),
    ("sim.trace_bytes", "B"),
    ("sim.optimize_s", "s"),
    ("sim.opt_trace_bytes", "B"),
    ("sim.coalesced_fraction", "ratio"),
    ("sim.replay_s", "s"),
    ("sim.graph_record_s", "s"),
    ("sim.graph_replay_s", "s"),
    ("sim.arena_bytes", "B"),
    ("sim.analyze_s", "s"),
    ("sim.instructions", "count"),
    ("sim.global_bytes", "B"),
    ("tune.search_s", "s"),
    ("tune.proposed", "count"),
    ("tune.simulated", "count"),
    ("tune.useful_fraction", "ratio"),
    ("tune.db_hits", "count"),
    ("serve.request_s", "s"),
    ("serve.exec_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.trace_hit_ratio", "ratio"),
    ("serve.plan_hit_ratio", "ratio"),
    ("serve.trace_resident_bytes", "B"),
    ("serve.rejections", "count"),
    ("bench.unattributed_s", "s"),
    ("bench.trace_overhead_s", "s"),
];

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, at most
/// 64 characters, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The unit of a known metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END.iter().chain(PER_LAYER).find(|(n, _)| *n == name).map(|(_, u)| *u)
}

/// Renders the final result line. Every listed metric must be present
/// and finite; a missing one is a bug in the benchmark, so it panics.
pub fn result_line(
    attempted: u64,
    failed: u64,
    names: &[(&str, &str)],
    values: &BTreeMap<&'static str, f64>,
) -> String {
    let mut metrics = String::new();
    for (i, (name, unit)) in names.iter().enumerate() {
        assert!(valid_name(name), "illegal metric name {name}");
        let v = values.get(name).copied().unwrap_or_else(|| panic!("metric {name} not measured"));
        assert!(v.is_finite(), "metric {name} is not finite: {v}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(metrics, "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}");
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
        failed == 0 && attempted > 0
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphene_tune::json::{parse, Json};

    #[test]
    fn names_are_legal_unique_and_within_limits() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
        }
        assert!(END_TO_END.contains(&("setup_s", "s")));
        assert!(!valid_name("bad name") && !valid_name("_x") && !valid_name(""));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = parse(text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).expect("string field").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |xs: &[(&str, &str)]| -> Vec<(String, String)> {
            xs.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END));
        assert_eq!(listed("per_layer"), own(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let values: BTreeMap<&'static str, f64> =
            END_TO_END.iter().enumerate().map(|(i, (n, _))| (*n, i as f64 + 0.125)).collect();
        let line = result_line(10, 0, END_TO_END, &values);
        let doc = parse(&line).expect("result line parses");
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Json::as_i64), Some(10));
        let m = doc.get("metrics").expect("metrics");
        for (name, unit) in END_TO_END {
            let e = m.get(name).expect("metric present");
            assert_eq!(e.get("unit").and_then(Json::as_str), Some(*unit));
            assert!(e.get("value").and_then(Json::as_f64).is_some());
        }
        let failed = parse(&result_line(10, 1, END_TO_END, &values)).unwrap();
        assert_eq!(failed.get("correct"), Some(&Json::Bool(false)));
    }
}
