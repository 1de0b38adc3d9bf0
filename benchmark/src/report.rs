//! Metric declarations and the result line every run ends with.

use meshcoll_util::json::Value;

/// `BENCHMARK.json`, embedded so `compare` and the tests read the bounds
/// and declarations the benchmark was built with.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// A metric the binary emits: its name and unit.
#[derive(Debug, Clone, Copy)]
pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn d(name: &'static str, unit: &'static str) -> Decl {
    Decl { name, unit }
}

/// End-to-end metrics, emitted by untraced runs.
pub const END_TO_END: [Decl; 7] = [
    d("setup_s", "s"),
    d("sweep_s", "s"),
    d("point_ms_p50", "ms"),
    d("point_ms_p90", "ms"),
    d("sim_ops_per_s", "ops/s"),
    d("peak_rss_mb", "MiB"),
    d("sim_gbps_geomean", "GB/s"),
];

/// Per-layer metrics, emitted by traced runs.
pub const PER_LAYER: [Decl; 36] = [
    d("noc.fallback_ms", "ms"),
    d("noc.fallback_points", "count"),
    d("noc.fallback_share", "share"),
    d("noc.packet_hops", "count"),
    d("noc.simulate_ms", "ms"),
    d("noc.fastpath_ms", "ms"),
    d("noc.train_hops", "count"),
    d("noc.train_splits", "count"),
    d("noc.injects", "count"),
    d("sim.run_ms", "ms"),
    d("sim.lower_ms", "ms"),
    d("collectives.generate_ms", "ms"),
    d("collectives.ops", "count"),
    d("sim.retained_bytes_per_op", "B/op"),
    d("topo.route_cache_hits", "count"),
    d("topo.route_cache_misses", "count"),
    d("topo.route_cache_hit_ratio", "share"),
    d("topo.route_cache_evictions", "count"),
    d("topo.route_cache_bytes", "B"),
    d("collectives.lint_ms", "ms"),
    d("collectives.repair_ms", "ms"),
    d("sim.online_repair_ms", "ms"),
    d("sim.online_attempts", "count"),
    d("sim.lost_bytes", "B"),
    d("sim.resumed_ops", "count"),
    d("sim.verdict_completed", "count"),
    d("sim.verdict_repaired", "count"),
    d("sim.verdict_repaired_online", "count"),
    d("sim.verdict_infeasible", "count"),
    d("compute.train_model_ms", "ms"),
    d("noc.reference_ms", "ms"),
    d("noc.ref_drift_ns_max", "ns"),
    d("analyzer.analyze_ms", "ms"),
    d("analyzer.tightness_geomean", "x"),
    d("analyzer.tightness_max", "x"),
    d("noc.trace_overhead", "x"),
];

/// Renders the run's final line: `{"correct", "attempted", "failed",
/// "metrics"}` with exactly the metrics in `decls`.
///
/// # Errors
///
/// Names a declared metric that has no value, or a value that is not
/// declared, so a drifting metric set fails the run instead of printing.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    decls: &[Decl],
    values: &[(&'static str, f64)],
) -> Result<String, String> {
    if let Some((extra, _)) = values
        .iter()
        .find(|(n, _)| !decls.iter().any(|d| d.name == *n))
    {
        return Err(format!("metric {extra} is not declared"));
    }
    let mut metrics = Vec::with_capacity(decls.len());
    for decl in decls {
        let value = values
            .iter()
            .find(|(n, _)| *n == decl.name)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("metric {} has no value", decl.name))?;
        metrics.push((
            decl.name.to_string(),
            Value::Object(vec![
                ("value".into(), Value::Number(value)),
                ("unit".into(), Value::String(decl.unit.into())),
            ]),
        ));
    }
    Ok(Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Number(attempted as f64)),
        ("failed".into(), Value::Number(failed as f64)),
        ("metrics".into(), Value::Object(metrics)),
    ])
    .to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::points::Workload;
    use meshcoll_util::json;

    fn declared(section: &str) -> Vec<(String, String)> {
        let spec = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        spec.get(section)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {section}"))
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(Value::as_str)
                        .expect("name and unit")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn emitted(decls: &[Decl]) -> Vec<(String, String)> {
        decls
            .iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect()
    }

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn emitted_metrics_match_benchmark_json_both_ways() {
        for (section, decls) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let mut json_side = declared(section);
            let mut code_side = emitted(decls);
            json_side.sort();
            code_side.sort();
            assert_eq!(code_side, json_side, "{section}: names and units");
            for (name, _) in &code_side {
                assert!(valid_name(name), "{name}");
            }
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let names: Vec<_> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "metric names are unique");
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let mut json_side: Vec<String> = declared_workloads();
        let mut code_side: Vec<String> =
            Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        json_side.sort();
        code_side.sort();
        assert_eq!(code_side, json_side);
        assert!((2..=8).contains(&code_side.len()));
        assert!(code_side.iter().all(|n| valid_name(n)));
    }

    fn declared_workloads() -> Vec<String> {
        json::parse(BENCHMARK_JSON)
            .unwrap()
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn result_line_rejects_missing_and_undeclared_metrics() {
        let values: Vec<(&'static str, f64)> = END_TO_END.iter().map(|d| (d.name, 1.5)).collect();
        let line = result_line(true, 3, 0, &END_TO_END, &values).unwrap();
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("attempted").and_then(Value::as_f64), Some(3.0));
        let m = v.get("metrics").unwrap().get("sweep_s").unwrap();
        assert_eq!(m.get("unit").and_then(Value::as_str), Some("s"));
        assert!(result_line(true, 3, 0, &END_TO_END, &values[1..]).is_err());
        let mut extra = values.clone();
        extra.push(("bogus", 1.0));
        assert!(result_line(true, 3, 0, &END_TO_END, &extra).is_err());
    }
}
