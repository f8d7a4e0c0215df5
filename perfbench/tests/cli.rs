//! Runs the built benchmark the way it is driven — one fresh process per
//! run — and checks the result line against `BENCHMARK.json`: exactly the
//! declared metrics, with their units, every end-to-end one above zero.

#[path = "../src/json.rs"]
mod json;

use std::process::Command;

fn declared(kind: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark");
    json::parse(&text)
        .get(kind)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

fn bench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_wfq-perfbench"))
        .args(args)
        .args(["--trace-dir", env!("CARGO_TARGET_TMPDIR")])
        .output()
        .expect("the benchmark binary runs")
}

#[test]
fn result_line_carries_exactly_the_declared_metrics() {
    for workload in ["pairs", "handoff", "backlog"] {
        for (trace, kind) in [("0", "end_to_end"), ("1", "per_layer")] {
            let args = format!("--workload {workload} --seed 3 --seconds 0.3 --trace {trace}");
            let out = bench(&args.split(' ').collect::<Vec<_>>());
            assert!(
                out.status.success(),
                "{workload} trace={trace}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
            assert!(stdout.contains("provenance: "), "{stdout}");
            let r = json::parse(stdout.lines().last().expect("a result line"));
            let keys: Vec<&str> = r.obj().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert!(r.get("attempted").num() >= 1.0);
            let metrics = r.get("metrics").obj();
            let want = declared(kind);
            assert_eq!(metrics.len(), want.len(), "{workload} trace={trace}");
            for (name, unit) in want {
                let m = metrics.iter().find(|(k, _)| *k == name).map(|(_, v)| v);
                let m = m.unwrap_or_else(|| panic!("{workload} trace={trace} misses {name}"));
                assert_eq!(m.get("unit").str(), unit, "{name}");
                let v = m.get("value").num();
                assert!(v.is_finite(), "{name} = {v}");
                if kind == "end_to_end" {
                    assert!(v > 0.0, "{workload}: {name} reads {v}");
                }
            }
        }
    }
}

#[test]
fn bad_options_fail_without_a_result() {
    for args in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload pairs --seed 1 --trace 0",
        "--workload pairs --seed x --seconds 1 --trace 0",
        "--workload pairs --seed 1 --seconds 1 --trace 2",
    ] {
        let out = bench(&args.split(' ').collect::<Vec<_>>());
        assert!(!out.status.success(), "{args}");
        assert!(
            out.stdout.is_empty(),
            "{args} printed {:?}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}
