//! The benchmark's own contract: the metrics it declares in
//! `BENCHMARK.json` are the ones it emits, its output checks catch a wrong
//! digest, the committed pins hold for the tuning and held-out seeds, and
//! the CLI rejects bad arguments with exit code 2.
//!
//! Run with `cargo test --release --manifest-path bench_e2e/Cargo.toml`
//! (debug builds work, only slower).

use std::collections::BTreeSet;
use std::process::Command;

use mempod_bench_e2e::{
    pin_digest, run, workload, Pins, RunConfig, RunResult, Scale, Workload, WORKLOADS,
};
use serde_json::Value;

/// The tuning seed and the held-out seed.
const SEEDS: [u64; 2] = [7, 1009];

fn declaration() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json is valid JSON")
}

fn declared(section: &str, key: &str) -> Vec<(String, String)> {
    declaration()
        .get(section)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a {section} list"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field(key))
        })
        .collect()
}

fn quick(w: Workload, seed: u64, traced: bool, scale: Scale, pins: Pins) -> RunResult {
    run(&RunConfig {
        workload: w,
        seed,
        seconds: 0.01,
        traced,
        scale,
        pins,
    })
}

fn tiny() -> Scale {
    Scale {
        smoke: true,
        requests: 4_000,
    }
}

#[test]
fn workloads_match_the_declaration() {
    let declared: BTreeSet<String> = declared("workloads", "why")
        .into_iter()
        .map(|w| w.0)
        .collect();
    let built: BTreeSet<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    assert_eq!(declared, built);
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    for w in WORKLOADS {
        for traced in [false, true] {
            let r = quick(w, 7, traced, tiny(), Pins::default());
            assert_eq!(r.failed, 0, "{}: {:?}", w.name, r.failures);
            let summary = r.summary();
            let metrics = summary
                .get("metrics")
                .and_then(Value::as_object)
                .expect("summary has a metrics object");
            let want = declared(if traced { "per_layer" } else { "end_to_end" }, "unit");
            assert_eq!(metrics.len(), want.len(), "{}", w.name);
            for (name, unit) in want {
                let m = metrics
                    .get(&name)
                    .unwrap_or_else(|| panic!("{}: {name} missing", w.name));
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()));
                let v = m.get("value").and_then(Value::as_f64);
                assert!(v.is_some_and(f64::is_finite), "{}: {name} = {v:?}", w.name);
                if !traced {
                    assert!(v.is_some_and(|v| v > 0.0), "{}: {name} reads 0", w.name);
                }
            }
        }
    }
}

#[test]
fn traced_runs_record_well_formed_spans() {
    let w = workload("mix1-mempod-2sh").expect("declared workload");
    let r = quick(w, 7, true, tiny(), Pins::default());
    let spans = r.spans.spans();
    let ids: BTreeSet<u64> = spans.iter().map(|s| s.id).collect();
    assert_eq!(ids.len(), spans.len(), "span ids are unique");
    for s in spans {
        assert!(s.id != 0 && s.end_us >= s.start_us, "{s:?}");
        assert!(s.parent == 0 || ids.contains(&s.parent), "{s:?}");
    }
    let names: BTreeSet<&str> = spans.iter().map(|s| s.name).collect();
    for want in [
        "rep",
        "trace.gen",
        "sim.new",
        "sim.run",
        "core.replay",
        "dram.replay",
    ] {
        assert!(names.contains(want), "no {want} span");
    }
    let chrome = r.spans.to_chrome();
    assert_eq!(chrome.as_array().map(Vec::len), Some(spans.len()));
}

#[test]
fn a_corrupted_pin_fails_every_repetition() {
    let w = workload("mix1-mempod").expect("declared workload");
    let good = pin_digest(&w, &tiny(), 7);
    let mut pins = Pins::default();
    pins.insert(&w, &tiny(), 7, good);
    let r = quick(w, 7, false, tiny(), pins.clone());
    assert_eq!(r.failed, 0, "{:?}", r.failures);

    pins.insert(&w, &tiny(), 7, good ^ 1);
    let r = quick(w, 7, false, tiny(), pins);
    assert!(r.attempted >= 2);
    assert_eq!(r.failed, r.attempted, "every repetition misses the pin");
    assert_eq!(r.summary().get("correct"), Some(&Value::Bool(false)));
}

#[test]
fn tuning_and_held_out_seeds_pass_every_check() {
    let pins = Pins::committed();
    let scale = Scale::new(true);
    for seed in SEEDS {
        for w in WORKLOADS {
            assert!(
                pins.get(&w, &scale, seed).is_some(),
                "{} seed {seed} is pinned",
                w.name
            );
            let r = quick(w, seed, false, scale, pins.clone());
            assert_eq!(r.failed, 0, "{} seed {seed}: {:?}", w.name, r.failures);
        }
    }
}

#[test]
fn sharded_and_single_shard_pins_agree() {
    let pins = Pins::committed();
    let one = workload("mix1-mempod").expect("declared workload");
    let two = workload("mix1-mempod-2sh").expect("declared workload");
    for scale in [Scale::new(true), Scale::new(false)] {
        for seed in SEEDS {
            assert_eq!(pins.get(&one, &scale, seed), pins.get(&two, &scale, seed));
        }
    }
}

#[test]
fn bad_arguments_exit_2_with_usage() {
    let bin = env!("CARGO_BIN_EXE_mempod-bench-e2e");
    let cases: [&[&str]; 7] = [
        &[],
        &["--seed", "7"],
        &["--workload", "nope"],
        &["--workload", "mix1-tlm", "--seed", "x"],
        &["--workload", "mix1-tlm", "--trace", "2"],
        &["--workload", "mix1-tlm", "--seconds"],
        &["--workload", "mix1-tlm", "--bogus"],
    ];
    for args in cases {
        let out = Command::new(bin).args(args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage:"),
            "{args:?}"
        );
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
