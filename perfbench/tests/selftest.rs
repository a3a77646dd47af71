//! Self-test: a tiny-scale run of every workload, in both modes, emits
//! exactly the metrics `BENCHMARK.json` declares, fails no check, and
//! repeats its deterministic values under a seed.

use skypeer_perfbench::{run, Report, RunSpec, Scale, Workload};

fn tiny(workload: Workload, seed: u64, trace: bool) -> Report {
    run(&RunSpec { workload, seed, seconds: 0.05, trace, scale: Scale::tiny(workload) })
}

fn benchmark_json() -> serde_json::Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`,
/// sorted.
fn declared(section: &str) -> Vec<(String, String)> {
    let doc = benchmark_json();
    let mut out: Vec<(String, String)> = doc
        .get(section)
        .and_then(|v| v.as_array())
        .expect("metric section")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(|v| v.as_str()).expect("name and unit");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect();
    out.sort();
    out
}

fn emitted(r: &Report) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> =
        r.metrics.iter().map(|m| (m.name.to_string(), m.unit.to_string())).collect();
    out.sort();
    out
}

#[test]
fn benchmark_json_names_known_workloads() {
    let doc = benchmark_json();
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(|v| v.as_array())
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(|v| v.as_str()).expect("workload name"))
        .collect();
    assert!(!names.is_empty());
    for name in names {
        assert!(Workload::parse(name).is_some(), "unknown workload '{name}'");
    }
}

#[test]
fn every_workload_emits_every_declared_metric_and_fails_nothing() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for w in Workload::ALL {
        let r = tiny(w, 7, false);
        assert_eq!(emitted(&r), end_to_end, "{}: end-to-end metrics", w.name());
        for m in &r.metrics {
            assert!(m.value.is_finite() && m.value > 0.0, "{}: {} = {}", w.name(), m.name, m.value);
        }
        assert!(
            r.attempted > 0 && r.failed == 0,
            "{}: {} of {} failed",
            w.name(),
            r.failed,
            r.attempted
        );

        let r = tiny(w, 7, true);
        assert_eq!(emitted(&r), per_layer, "{}: per-layer metrics", w.name());
        for m in &r.metrics {
            assert!(
                m.value.is_finite() && m.value >= 0.0,
                "{}: {} = {}",
                w.name(),
                m.name,
                m.value
            );
        }
        assert!(
            r.attempted > 0 && r.failed == 0,
            "{}: {} of {} failed",
            w.name(),
            r.failed,
            r.attempted
        );
    }
}

#[test]
fn deterministic_values_repeat_under_a_seed_and_move_with_it() {
    let bits = |r: &Report| -> Vec<(&'static str, u64)> {
        r.deterministic.iter().map(|&(n, v)| (n, v.to_bits())).collect()
    };
    for w in Workload::ALL {
        for trace in [false, true] {
            let a = tiny(w, 7, trace);
            let b = tiny(w, 7, trace);
            let c = tiny(w, 8, trace);
            assert!(!a.deterministic.is_empty());
            assert_eq!(bits(&a), bits(&b), "{} trace {trace}: same seed", w.name());
            assert_ne!(bits(&a), bits(&c), "{} trace {trace}: another seed", w.name());
        }
    }
}

#[test]
fn the_traced_pass_replays_the_timed_streams_prefix() {
    // The timed phase draws a long stream, the traced pass a short one;
    // both must start with the same queries.
    let w = Workload::ZipfChurnCached;
    let cfg = skypeer_perfbench::engine_config(w, &Scale::full(w), 7);
    let long = skypeer_perfbench::churn_queries(&cfg, 500, 7);
    assert_eq!(skypeer_perfbench::churn_queries(&cfg, 50, 7), long[..50]);
}
