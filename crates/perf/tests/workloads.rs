//! Every workload at 1/100 scale: deterministic per seed, inside its
//! budget, traced and untraced, and caught when its replay is wrong.

use std::path::PathBuf;
use std::time::Instant;

use citymesh_perf::run::{run, RunOptions, RunResult};
use citymesh_perf::spec::{END_TO_END, PER_LAYER};
use citymesh_perf::workload::{Kind, Scale};

/// A budget so small that a run makes only its minimum of rounds.
const MINIMAL: f64 = 1e-3;

fn options(kind: Kind, seed: u64, seconds: f64) -> RunOptions {
    RunOptions {
        kind,
        seed,
        seconds,
        trace: false,
        scale: Scale::SMALL,
        out_dir: None,
        corrupt_replay_flow: None,
    }
}

fn go(opts: &RunOptions) -> RunResult {
    run(opts, Instant::now()).expect("the workload sets up")
}

/// What the traced run of `kind` must have measured.
fn check_traced(kind: Kind, traced: &RunResult, dir: &std::path::Path) {
    let names: Vec<&str> = traced.metrics.iter().map(|m| m.name).collect();
    let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    assert_eq!(names, expected);
    let value = |name: &str| {
        traced
            .metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name}"))
            .value
    };
    for always in [
        "core.prepare_ms",
        "fleet.workload.generate_ms",
        "fleet.cache.lookup_ns",
        "core.sim.flow_us",
        "fleet.report.absorb_ns",
        "bench.span_overhead_ratio",
        "bench.replay_flows_per_s",
    ] {
        assert!(value(always) > 0.0, "{}: {always}", kind.name());
    }
    match kind {
        Kind::FleetHot => {
            assert_eq!(value("fleet.cache.hit_share"), 1.0);
            assert_eq!(value("core.sim.allocs_per_flow"), 0.0);
            assert_eq!(value("core.plan.flat_us"), 0.0, "no miss, no plan");
        }
        Kind::SecureCold => {
            assert!(value("core.secure.keys_derived") > 0.0);
            assert!(value("core.secure.session_miss_us") > 0.0);
            assert!(value("core.plan.flat_us") > 0.0);
        }
        Kind::MetroHier => {
            assert!(value("core.plan.hier_us") > 0.0);
            assert!(value("core.plan.flat_metro_us") > 0.0);
            assert!(value("graph.hier.build_ms") > 0.0);
        }
        Kind::StreamSurge => {
            assert!(value("stream.queue.offer_ns") > 0.0);
            assert!(value("stream.queue.max_depth") > 0.0);
            assert!(value("stream.capacity_probe_ms") > 0.0);
        }
        Kind::ChurnLadder => {
            assert!(value("fleet.cache.evicted") > 0.0);
            assert!(value("dynamics.event_apply_us") > 0.0);
            assert!(value("core.sim.attempts_mean") > 1.0);
        }
    }
    let file = dir.join(format!("{}.seed{}.spans", kind.name(), traced.options.seed));
    let spans = std::fs::read_to_string(file).expect("the traced run wrote its spans");
    assert!(spans.starts_with("# index layer flow start_ns end_ns parent allocs\n"));
    assert!(spans.contains("# round set-up:") && spans.contains("# round replay 2:"));
    assert!(spans.lines().any(|l| l.contains(" core.sim ")));
}

/// Two runs of one seed agree bit for bit, another seed does not, a
/// 2 s budget is honoured, and the traced run reports every per-layer
/// metric and writes its spans.
fn deterministic_and_in_budget(kind: Kind) {
    let budgeted = go(&options(kind, 1, 2.0));
    assert!(budgeted.correct, "{}", budgeted.human());
    assert_eq!(budgeted.failed, 0);
    assert!(budgeted.rounds >= 5, "at least five timed rounds");
    // Replay round + timed rounds + the 2-worker round.
    assert_eq!(
        budgeted.attempted,
        budgeted.flows * (budgeted.rounds as u64 + 2)
    );
    // An unoptimised build may need longer than the budget for its
    // minimum of rounds; it must then have made no more than those.
    assert!(
        budgeted.wall_s <= 2.0 * 1.1 + 0.3 || budgeted.rounds == 5,
        "2 s budget, took {:.2} s over {} rounds",
        budgeted.wall_s,
        budgeted.rounds
    );
    let names: Vec<&str> = budgeted.metrics.iter().map(|m| m.name).collect();
    let expected: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    assert_eq!(names, expected);
    assert!(
        budgeted
            .metrics
            .iter()
            .all(|m| m.value.is_finite() && m.value > 0.0),
        "end-to-end metrics are never 0: {}",
        budgeted.human()
    );

    let reported: Vec<f64> = budgeted.metrics[3..].iter().map(|m| m.value).collect();
    assert_eq!(
        reported, budgeted.simulated,
        "the simulated metrics are round 0's"
    );

    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perf-spans");
    let traced = |seed| {
        go(&RunOptions {
            trace: true,
            out_dir: Some(dir.clone()),
            ..options(kind, seed, MINIMAL)
        })
    };
    let same = traced(1);
    assert!(same.correct, "{}", same.human());
    assert_eq!(
        same.digest, budgeted.digest,
        "one seed, one digest, traced or not"
    );
    assert_eq!(
        same.simulated.map(f64::to_bits),
        budgeted.simulated.map(f64::to_bits),
        "simulated metrics repeat bit for bit"
    );
    check_traced(kind, &same, &dir);
    let other = traced(2);
    assert!(other.correct, "{}", other.human());
    assert_ne!(
        other.digest, budgeted.digest,
        "the seed reaches the traffic"
    );
}

#[test]
fn fleet_hot_is_deterministic_and_in_budget() {
    deterministic_and_in_budget(Kind::FleetHot);
}

#[test]
fn secure_cold_is_deterministic_and_in_budget() {
    deterministic_and_in_budget(Kind::SecureCold);
}

#[test]
fn metro_hier_is_deterministic_and_in_budget() {
    deterministic_and_in_budget(Kind::MetroHier);
}

#[test]
fn stream_surge_is_deterministic_and_in_budget() {
    deterministic_and_in_budget(Kind::StreamSurge);
}

#[test]
fn churn_ladder_is_deterministic_and_in_budget() {
    deterministic_and_in_budget(Kind::ChurnLadder);
}

#[test]
fn a_broken_replay_is_reported_not_hidden() {
    for trace in [false, true] {
        let result = go(&RunOptions {
            trace,
            corrupt_replay_flow: Some(5),
            ..options(Kind::FleetHot, 1, MINIMAL)
        });
        assert!(!result.correct, "a swapped RNG sub-stream must be caught");
        assert!(result.failed > 0 && result.failed <= result.attempted);
        assert!(result.human().contains("FAILED"));
        let line = result.contract_json().render();
        assert!(
            line.starts_with("{\"correct\":false,\"attempted\":"),
            "{line}"
        );
    }
}
