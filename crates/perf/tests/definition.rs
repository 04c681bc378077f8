//! `BENCHMARK.json` and the binary must describe the same benchmark:
//! same workloads, same metrics, same units, directions and bounds,
//! all within the limits the benchmark contract sets.

use citymesh_perf::json::{as_arr, as_f64, as_str, get, parse, Value};
use citymesh_perf::spec::{well_formed_name, well_formed_unit, END_TO_END, PER_LAYER, WORKLOADS};

fn definition() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is at most 64 KiB");
    parse(&text).expect("BENCHMARK.json is JSON")
}

fn keys(v: &Value) -> Vec<&str> {
    match v {
        Value::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

fn items<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    as_arr(get(doc, key).unwrap_or_else(|| panic!("`{key}` present")))
        .unwrap_or_else(|| panic!("`{key}` is an array"))
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    as_str(get(v, key).unwrap_or_else(|| panic!("`{key}` present")))
        .unwrap_or_else(|| panic!("`{key}` is a string"))
}

#[test]
fn file_has_exactly_the_contract_keys() {
    let doc = definition();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(get(&doc, "run_seconds"), Some(&Value::Int(20)));
    let paths: Vec<&str> = items(&doc, "paths").iter().filter_map(as_str).collect();
    assert_eq!(paths, ["crates/perf"]);
    let command: Vec<&str> = items(&doc, "command").iter().filter_map(as_str).collect();
    assert!(command.len() <= 32 && command.iter().all(|c| c.len() <= 200));
    // The command may name files only under `paths`.
    for arg in command.iter().filter(|a| a.contains('/')) {
        assert!(
            arg.starts_with("crates/perf/") && !arg.contains(".."),
            "{arg}"
        );
    }
}

#[test]
fn file_and_binary_list_the_same_workloads() {
    let doc = definition();
    let listed = items(&doc, "workloads");
    assert_eq!(listed.len(), WORKLOADS.len());
    for (entry, spec) in listed.iter().zip(&WORKLOADS) {
        assert_eq!(keys(entry), ["name", "why"]);
        assert_eq!(text(entry, "name"), spec.name);
        assert_eq!(text(entry, "why"), spec.why);
        assert!(well_formed_name(spec.name), "{}", spec.name);
        assert!(
            spec.why.len() <= 200 && !spec.why.contains('\n'),
            "{}",
            spec.why
        );
    }
}

#[test]
fn file_and_binary_list_the_same_metrics() {
    let doc = definition();
    let listed = items(&doc, "end_to_end");
    assert_eq!(listed.len(), END_TO_END.len());
    for (entry, spec) in listed.iter().zip(&END_TO_END) {
        assert_eq!(keys(entry), ["name", "unit", "better", "bound"]);
        assert_eq!(text(entry, "name"), spec.name);
        assert_eq!(text(entry, "unit"), spec.unit);
        assert_eq!(text(entry, "better"), spec.better.label());
        assert_eq!(get(entry, "bound").and_then(as_f64), Some(spec.bound));
        assert!(spec.bound > 0.0 && spec.bound <= 0.25, "{}", spec.name);
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better.label()), ("s", "lower"));
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );

    let listed = items(&doc, "per_layer");
    assert_eq!(listed.len(), PER_LAYER.len());
    assert!(PER_LAYER.len() <= 128);
    for (entry, spec) in listed.iter().zip(&PER_LAYER) {
        assert_eq!(keys(entry), ["name", "unit", "better"]);
        assert_eq!(text(entry, "name"), spec.name);
        assert_eq!(text(entry, "unit"), spec.unit);
        assert_eq!(text(entry, "better"), spec.better.label());
    }
}

#[test]
fn names_and_units_are_well_formed_and_unique() {
    let names: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name))
        .collect();
    for name in &names {
        assert!(well_formed_name(name), "{name}");
    }
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "a name is used once");
    for unit in END_TO_END
        .iter()
        .map(|m| m.unit)
        .chain(PER_LAYER.iter().map(|m| m.unit))
    {
        assert!(well_formed_unit(unit), "{unit}");
    }
    assert!(!well_formed_name("-x") && !well_formed_name("a b") && !well_formed_name(""));
    assert!(!well_formed_unit("µs") && !well_formed_unit("seventeen-chars-x"));
}
