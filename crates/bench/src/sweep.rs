//! What every sweep shares: the named scales and the [`Sweep`] shape
//! the `figures` table and the [`goldens`](crate::goldens) check
//! dispatch through, plus wall time and peak RSS, reported the same
//! way by every sweep ([`print_footer`]).

use std::time::Instant;

use citymesh_core::{CityExperiment, ExperimentConfig, FaultScenario};
use citymesh_fleet::{run_pool, try_run_fleet, FleetConfig, FleetReport, FlowSpec};
use citymesh_map::CityMap;

/// Root seed of every `figures` artifact; every pin is taken at it.
pub const SEED: u64 = 2024;

/// A named parameter set of an artifact.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The recorded protocol (no flag).
    Full,
    /// Reduced counts (`--fast`).
    Fast,
    /// CI-sized (`--smoke`); only some sweeps define one.
    Smoke,
}

/// The scale a sweep runs at plus the command line's narrowing flags.
#[derive(Clone, Copy, Debug)]
pub struct SweepOpts {
    /// Which of the sweep's parameter sets to run.
    pub scale: Scale,
    /// `--flows N`: one flow (or pair) count instead of the scale's.
    pub flows: Option<usize>,
    /// `--workers N`: one worker count instead of 1/4/8.
    pub workers: Option<usize>,
    /// `--cold`: the fleet sweep skips its unmeasured warm-up pass.
    pub cold: bool,
}

impl SweepOpts {
    /// `scale` with no narrowing — what the goldens are pinned at.
    pub fn at(scale: Scale) -> Self {
        SweepOpts {
            scale,
            flows: None,
            workers: None,
            cold: false,
        }
    }

    /// The worker counts every digest is checked across.
    pub fn worker_counts(&self) -> Vec<usize> {
        match self.workers {
            Some(w) => vec![w.max(1)],
            None => vec![1, 4, 8],
        }
    }

    /// `--flows` if given, else the scale's own count.
    pub fn flows_or(&self, full: usize, fast: usize, smoke: usize) -> usize {
        self.flows.unwrap_or(match self.scale {
            Scale::Full => full,
            Scale::Fast => fast,
            Scale::Smoke => smoke,
        })
    }
}

/// One `figures` sweep: its parameters per [`Scale`], its run, its
/// stdout tables, and the values [`goldens`](crate::goldens) pins.
/// `run` panics when an invariant of the sweep breaks — a benchmark
/// must not report numbers for results that are wrong.
pub trait Sweep: Sized {
    /// Target name on the `figures` command line.
    const NAME: &'static str;
    /// The scales the sweep has parameters for.
    const SCALES: &'static [Scale];
    /// The scale its goldens are taken at.
    const PINNED: Scale;

    /// Runs the sweep at `opts` with seed [`SEED`].
    fn run(opts: &SweepOpts) -> Self;

    /// Prints the tables and writes the sweep's charts to `figures/`.
    fn print(&self);

    /// `(pin name, value)` for every row the goldens table holds.
    fn pins(&self) -> Vec<(&'static str, u64)>;

    /// The within-run throughput ratio the sweep must keep. Timing is
    /// meaningless in a debug build, so only a release `figures` calls
    /// it: after each sweep it runs, and from `check`.
    fn throughput_gate(&self) {}
}

/// `map` prepared with the default configuration at `seed`, under
/// `faults` when given.
pub fn prepare(map: CityMap, seed: u64, faults: Option<FaultScenario>) -> CityExperiment {
    let config = ExperimentConfig {
        seed,
        faults,
        ..ExperimentConfig::default()
    };
    CityExperiment::prepare(map, config)
}

/// The default fleet configuration at `seed` and `workers` threads.
pub fn fleet_config(seed: u64, workers: usize) -> FleetConfig {
    FleetConfig {
        workers,
        seed,
        ..FleetConfig::default()
    }
}

/// One fleet run under a configuration the sweep built for the world
/// it prepared (so a configuration error is a bug here, not an input).
pub fn run_fleet(exp: &CityExperiment, flows: &[FlowSpec], cfg: &FleetConfig) -> FleetReport {
    try_run_fleet(exp, flows, cfg).expect("sweep config matches the world it prepared")
}

/// Folds `items` in `workers` contiguous chunks on [`run_pool`] —
/// `fold(offset of the chunk, chunk)` — and returns the per-chunk
/// results in order with the wall-clock seconds the whole pass took.
pub fn timed_chunks<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    fold: impl Fn(usize, &[T]) -> R + Sync,
) -> (Vec<R>, f64) {
    let chunk = items.len().div_ceil(workers.max(1)).max(1);
    let started = Instant::now();
    let results = run_pool(items.chunks(chunk).enumerate(), |(i, c)| fold(i * chunk, c));
    (results, started.elapsed().as_secs_f64().max(1e-9))
}

/// Every sweep's determinism gate: runs that must agree — across
/// worker counts, planners, cache temperatures — fold to one digest.
///
/// # Panics
/// Panics, naming `what`, when two digests differ.
pub fn assert_unanimous(what: impl std::fmt::Display, digests: &[u64]) {
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "{what}: digests diverged: {digests:x?}"
    );
}

/// Writes one chart or export under `figures/` and says so.
pub fn write_figure(path: &str, contents: &str) {
    std::fs::write(path, contents).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("wrote {path}");
}

/// Process peak resident set size in KiB, read from
/// `/proc/self/status` (`VmHWM`). Returns `None` off Linux or when
/// the file is unreadable — callers report 0 rather than failing a
/// benchmark over an observability nicety.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Prints the standard sweep footer — wall time since `started` plus
/// the process peak RSS so far — so regressions in either are visible
/// from the log alone.
pub fn print_footer(name: &str, started: Instant) {
    let rss = peak_rss_kb()
        .map(|kb| format!("{:.0} MiB", kb as f64 / 1024.0))
        .unwrap_or_else(|| "n/a".into());
    println!(
        "[sweep {name}: {:.1} s wall, peak RSS {rss}]\n",
        started.elapsed().as_secs_f64()
    );
}
