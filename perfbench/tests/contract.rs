//! The output format: `BENCHMARK.json` and the program agree on
//! workload and metric names, and the result line is JSON carrying every
//! metric of its mode.

use tricount_perfbench::json::Obj;
use tricount_perfbench::metrics::{Report, END_TO_END, PER_LAYER};
use tricount_perfbench::Workload;

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark directory")
}

/// The `"name": "..."` values of one top-level list, in order.
fn names_in(json: &str, list: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{list}\""))
        .unwrap_or_else(|| panic!("no {list} list"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("list ends")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("name ends")].to_string())
        .collect()
}

#[test]
fn workloads_and_metrics_match_the_program() {
    let json = benchmark_json();
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names_in(&json, "workloads"), workloads);
    for (list, vocabulary) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let names: Vec<&str> = vocabulary.iter().map(|&(n, _)| n).collect();
        assert_eq!(names_in(&json, list), names, "{list}");
        for (name, unit) in vocabulary {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{list}: {entry}");
        }
    }
}

fn report(values: &[(&'static str, f64)]) -> Report {
    Report {
        attempted: 3,
        failed: 0,
        values: values.iter().copied().collect(),
        meta: Obj::new().str("workload", "count-rgg").int("seed", 1),
        sections: vec![("latencies_s", "[0.5, 0.25]".to_string())],
    }
}

#[test]
fn the_result_line_is_json_with_every_metric_of_the_mode() {
    for (trace, vocabulary) in [(false, END_TO_END), (true, PER_LAYER)] {
        let values: Vec<(&'static str, f64)> = vocabulary
            .iter()
            .enumerate()
            .map(|(i, &(n, _))| (n, 0.125 * (i + 1) as f64))
            .collect();
        let r = report(&values);
        let line = r.result_line(trace).expect("every metric measured");
        tricount_obs::json::validate(&line).expect("result line is JSON");
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        for &(name, unit) in vocabulary {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name}"
            );
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
        }
        tricount_obs::json::validate(&r.file_json()).expect("output file is JSON");
    }
}

#[test]
fn a_missing_or_non_finite_metric_gives_no_result_line() {
    let mut values: Vec<(&'static str, f64)> = END_TO_END.iter().map(|&(n, _)| (n, 1.0)).collect();
    values.pop();
    assert!(report(&values).result_line(false).is_err());
    values.push((END_TO_END.last().unwrap().0, f64::NAN));
    assert!(report(&values).result_line(false).is_err());
}
