//! `BENCHMARK.json` and the code agree: the workloads the binary accepts,
//! and the end-to-end and per-layer metrics it prints, by name and unit.

use pdl_obs::json::{parse, JsonValue};
use perfbench::cli::Workload;
use perfbench::layers::PER_LAYER;
use perfbench::report::END_TO_END;

fn benchmark() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn field<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    v.get(key).and_then(JsonValue::as_str).unwrap_or_else(|| panic!("missing string {key}"))
}

fn metrics(b: &JsonValue, section: &str) -> Vec<(String, String)> {
    b.get(section)
        .and_then(JsonValue::as_arr)
        .unwrap_or_else(|| panic!("missing {section}"))
        .iter()
        .map(|m| (field(m, "name").to_string(), field(m, "unit").to_string()))
        .collect()
}

fn owned(spec: &[(&str, &str)]) -> Vec<(String, String)> {
    spec.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
}

#[test]
fn workloads_match() {
    let b = benchmark();
    let names: Vec<&str> = b
        .get("workloads")
        .and_then(JsonValue::as_arr)
        .unwrap()
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    let code: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, code);
}

#[test]
fn metric_sets_match() {
    let b = benchmark();
    assert_eq!(metrics(&b, "end_to_end"), owned(END_TO_END));
    assert_eq!(metrics(&b, "per_layer"), owned(PER_LAYER));
}

#[test]
fn every_end_to_end_metric_has_a_bound() {
    let b = benchmark();
    for m in b.get("end_to_end").and_then(JsonValue::as_arr).unwrap() {
        let bound = m.get("bound").and_then(JsonValue::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", field(m, "name"));
    }
}
