//! Every golden pin, where tier-1 `cargo test` sees it.
//!
//! One test per sweep: run it at the scale its pins are taken at (its
//! own invariants — cross-worker digest unanimity, monotone
//! degradation, shed accounting, … — assert as it runs) and compare
//! what it produced with `citymesh_bench::goldens::PINS`. This is the
//! function `figures -- check` calls, minus the throughput-ratio gates
//! that mean nothing in a debug build. A digest moves only in a PR
//! that says up front which one and why.

use citymesh_bench::churn_figs::ChurnFigures;
use citymesh_bench::crypto_figs::CryptoFigures;
use citymesh_bench::fleet_figs::FleetFigures;
use citymesh_bench::goldens::{verify, PINS};
use citymesh_bench::metro_figs::MetroFigures;
use citymesh_bench::placement_figs::PlacementFigures;
use citymesh_bench::planner_figs::PlannerFigures;
use citymesh_bench::resilience_figs::ResilienceFigures;
use citymesh_bench::streaming_figs::StreamingFigures;
use citymesh_bench::sweep::Sweep;
use citymesh_bench::telemetry_figs::TelemetryFigures;

fn pins_hold<S: Sweep>() {
    assert!(
        PINS.iter().any(|p| p.sweep == S::NAME),
        "{} pins nothing",
        S::NAME
    );
    let missed: Vec<String> = verify::<S>(false).iter().map(|m| m.to_string()).collect();
    assert!(missed.is_empty(), "{}", missed.join("\n"));
}

#[test]
fn fleet() {
    pins_hold::<FleetFigures>();
}

#[test]
fn planner() {
    pins_hold::<PlannerFigures>();
}

#[test]
fn resilience() {
    pins_hold::<ResilienceFigures>();
}

#[test]
fn churn() {
    pins_hold::<ChurnFigures>();
}

#[test]
fn telemetry() {
    pins_hold::<TelemetryFigures>();
}

#[test]
fn metro() {
    pins_hold::<MetroFigures>();
}

#[test]
fn streaming() {
    pins_hold::<StreamingFigures>();
}

#[test]
fn placement() {
    pins_hold::<PlacementFigures>();
}

#[test]
fn crypto() {
    pins_hold::<CryptoFigures>();
}

/// Nine sweeps, fourteen rows, none orphaned: a row for a sweep no
/// test above runs would never be checked.
#[test]
fn every_row_belongs_to_a_sweep_checked_here() {
    let checked = [
        FleetFigures::NAME,
        PlannerFigures::NAME,
        ResilienceFigures::NAME,
        ChurnFigures::NAME,
        TelemetryFigures::NAME,
        MetroFigures::NAME,
        StreamingFigures::NAME,
        PlacementFigures::NAME,
        CryptoFigures::NAME,
    ];
    for pin in &PINS {
        assert!(checked.contains(&pin.sweep), "orphan pin: {pin:?}");
    }
}
