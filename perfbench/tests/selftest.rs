//! Self-tests of the benchmark: the metric catalogue is well formed and
//! matches `BENCHMARK.json`, the result line parses with the std-only
//! reader, and simulated results repeat bit for bit at a tiny size.

use spaden_perfbench::json::{parse, Json};
use spaden_perfbench::report::{valid_name, MetricDef, END_TO_END, PER_LAYER};
use spaden_perfbench::{run_workload, RunArgs, Size, WORKLOADS};
use std::collections::BTreeSet;

fn valid_unit(u: &str) -> bool {
    !u.is_empty()
        && u.len() <= 16
        && u.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn metric_names_and_units_are_well_formed_and_unique() {
    let mut seen = BTreeSet::new();
    for d in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(d.name), "bad metric name {:?}", d.name);
        assert!(valid_unit(d.unit), "bad unit {:?} of {}", d.unit, d.name);
        assert!(matches!(d.better, "lower" | "higher"), "{}", d.name);
        assert!(seen.insert(d.name), "metric {} declared twice", d.name);
    }
    for w in WORKLOADS {
        assert!(valid_name(w) && seen.insert(w), "workload name {w}");
    }
    assert!(END_TO_END
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == "lower"));
    assert!(!valid_name("a b") && !valid_name(".x") && !valid_name(""));
}

fn declared(doc: &Json, key: &str) -> Vec<(String, String, String)> {
    let Some(Json::Arr(items)) = doc.get(key) else {
        panic!("{key} must be an array")
    };
    items
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::str).expect(f).to_string();
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

fn catalogue(defs: &[MetricDef]) -> Vec<(String, String, String)> {
    defs.iter()
        .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
        .collect()
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(declared(&doc, "end_to_end"), catalogue(END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), catalogue(PER_LAYER));
    let Some(Json::Arr(workloads)) = doc.get("workloads") else {
        panic!("workloads")
    };
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| w.get("name").and_then(Json::str).unwrap())
        .collect();
    assert_eq!(names, WORKLOADS);
    let Some(Json::Arr(e2e)) = doc.get("end_to_end") else {
        panic!("end_to_end")
    };
    for m in e2e {
        let bound = m.get("bound").and_then(Json::num).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
    }
}

/// Two untraced and one traced tiny run of `workload`: the result line
/// parses, simulated metrics and exact counters repeat bit for bit.
fn check_repeatable(workload: &str) {
    let args = RunArgs {
        seed: 3,
        seconds: 0.0,
        trace: false,
    };
    let a = run_workload(workload, &args, Size::Tiny).expect("first run");
    let b = run_workload(workload, &args, Size::Tiny).expect("second run");
    assert!(a.correct && b.correct, "{workload} must verify");
    assert_eq!(a.failed, 0, "{workload} must not fail any operation");

    let line = parse(&a.json_line(END_TO_END)).expect("result line parses");
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    assert!(line.get("attempted").and_then(Json::num).unwrap() >= 1.0);
    let Some(Json::Obj(metrics)) = line.get("metrics") else {
        panic!("metrics object")
    };
    assert_eq!(metrics.len(), END_TO_END.len());
    for d in END_TO_END {
        let m = &metrics[d.name];
        assert_eq!(m.get("unit").and_then(Json::str), Some(d.unit));
        assert!(
            m.get("value").and_then(Json::num).unwrap() > 0.0,
            "{workload} {} is 0",
            d.name
        );
    }

    for name in [
        "sim_p50_us",
        "sim_p99_us",
        "slo_attainment",
        "sim_gflops_spaden",
        "sim_speedup_vs_csr",
    ] {
        let (x, y) = (a.values.get(name).unwrap(), b.values.get(name).unwrap());
        assert_eq!(x.to_bits(), y.to_bits(), "{workload} {name}: {x} vs {y}");
    }

    let traced = RunArgs {
        trace: true,
        ..args
    };
    let t1 = run_workload(workload, &traced, Size::Tiny).expect("traced run");
    let t2 = run_workload(workload, &traced, Size::Tiny).expect("traced run");
    assert!(
        t1.correct && t2.correct,
        "{workload}: traced and untraced digests must agree"
    );
    let line = parse(&t1.json_line(PER_LAYER)).expect("per-layer line parses");
    let Some(Json::Obj(metrics)) = line.get("metrics") else {
        panic!("metrics object")
    };
    assert_eq!(metrics.len(), PER_LAYER.len());
    for d in PER_LAYER
        .iter()
        .filter(|d| d.unit == "count" || d.name.starts_with("gpusim.sim"))
    {
        assert_eq!(
            t1.values.get(d.name).map(f64::to_bits),
            t2.values.get(d.name).map(f64::to_bits),
            "{workload} {} must repeat exactly",
            d.name
        );
    }
}

#[test]
fn corpus_spmv_repeats_exactly() {
    check_repeatable("corpus-spmv");
}

#[test]
fn serve_steady_repeats_exactly() {
    check_repeatable("serve-steady");
}

#[test]
fn evolve_hot_repeats_exactly() {
    check_repeatable("evolve-hot");
}

#[test]
fn seeds_change_the_inputs() {
    let run = |seed| {
        let args = RunArgs {
            seed,
            seconds: 0.0,
            trace: false,
        };
        run_workload("serve-steady", &args, Size::Tiny)
            .expect("run")
            .values
            .get("sim_p50_us")
    };
    assert_ne!(run(1), run(2));
}

#[test]
fn unknown_workload_is_an_error() {
    let args = RunArgs {
        seed: 1,
        seconds: 0.0,
        trace: false,
    };
    assert!(run_workload("nope", &args, Size::Tiny).is_err());
}
