//! `citymesh-perf`: run one workload, collect a result set, or compare
//! two. See the crate's README for the protocol.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use citymesh_perf::agree::{compare, parse_set, set_json};
use citymesh_perf::json::parse;
use citymesh_perf::run::{run, RunOptions};
use citymesh_perf::workload::{Kind, Scale};

const USAGE: &str = "\
usage:
  citymesh-perf [run] --workload NAME --seed N [--seconds S] [--trace 0|1]
      one run: prints every metric by name with its unit, then one JSON line
  citymesh-perf run --seeds A..B --out FILE [--workload NAME]... [--seconds S]
      one untraced run per workload and seed A to B inclusive, each in its
      own process; writes the result set to FILE
  citymesh-perf agree A B
      compares result set B against A; exits 0 only if every pair is ok

workloads: fleet-hot secure-cold metro-hier stream-surge churn-ladder";

/// Seconds one run may take when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;
/// Where the traced run leaves its spans and summary.
const OUT_DIR: &str = "target/perf";
/// Prefix of the line a single run prints its full result row on, for
/// the collecting parent.
const ROW_PREFIX: &str = "row ";

#[derive(Default)]
struct Args {
    workloads: Vec<Kind>,
    seed: Option<u64>,
    seeds: Option<(u64, u64)>,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                out.workloads
                    .push(Kind::from_name(name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                out.seed = Some(
                    value()?
                        .parse()
                        .map_err(|_| "--seed takes a whole number")?,
                );
            }
            "--seeds" => {
                let range = value()?;
                let parsed = range
                    .split_once("..")
                    .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)))
                    .filter(|(a, b)| a <= b);
                out.seeds = Some(parsed.ok_or("--seeds takes A..B with A <= B")?);
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !s.is_finite() || s <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                out.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--out" => out.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(out)
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One run in this process.
fn single(args: &Args, started: Instant) -> Result<ExitCode, String> {
    let [kind] = args.workloads[..] else {
        return Err("a single run takes exactly one --workload".into());
    };
    let opts = RunOptions {
        kind,
        seed: args.seed.ok_or("a single run needs --seed")?,
        seconds: args.seconds.unwrap_or(DEFAULT_SECONDS),
        trace: args.trace,
        scale: Scale::FULL,
        out_dir: Some(PathBuf::from(OUT_DIR)),
        corrupt_replay_flow: None,
    };
    let result = run(&opts, started)?;
    let row = result.row_json().render();
    if opts.trace {
        let path =
            Path::new(OUT_DIR).join(format!("{}.seed{}.trace1.json", kind.name(), opts.seed));
        if let Err(e) = std::fs::write(&path, &row) {
            eprintln!("citymesh-perf: could not write {}: {e}", path.display());
        }
    }
    print!("{}", result.human());
    println!("{ROW_PREFIX}{row}");
    println!("{}", result.contract_json().render());
    Ok(exit_code(result.correct))
}

/// One child process per workload and seed (peak memory is a property
/// of a process, so runs cannot share one), rows collected into a set.
fn collect(args: &Args, (first, last): (u64, u64)) -> Result<ExitCode, String> {
    let out = args.out.as_ref().ok_or("--seeds needs --out FILE")?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let kinds = if args.workloads.is_empty() {
        Kind::ALL.to_vec()
    } else {
        args.workloads.clone()
    };
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS).to_string();
    let mut rows = Vec::new();
    let mut all_correct = true;
    for kind in kinds {
        for seed in first..=last {
            let child = Command::new(&exe)
                .args(["--workload", kind.name(), "--seed", &seed.to_string()])
                .args(["--seconds", &seconds, "--trace", "0"])
                .output()
                .map_err(|e| format!("could not start a run: {e}"))?;
            all_correct &= child.status.success();
            let stdout = String::from_utf8_lossy(&child.stdout);
            for line in stdout.lines() {
                match line.strip_prefix(ROW_PREFIX) {
                    Some(row) => rows.push(parse(row).map_err(|e| e.to_string())?),
                    None if line.starts_with('{') => {}
                    None => println!("{line}"),
                }
            }
            if !child.status.success() {
                eprint!("{}", String::from_utf8_lossy(&child.stderr));
            }
        }
    }
    std::fs::write(out, set_json(rows).render()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(exit_code(all_correct))
}

fn agree(paths: &[String]) -> Result<ExitCode, String> {
    let [a, b] = paths else {
        return Err("agree takes two result-set files".into());
    };
    let read = |p: &String| -> Result<_, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        parse_set(&text).map_err(|e| format!("{p}: {e}"))
    };
    let verdict = compare(&read(a)?, &read(b)?);
    let agrees = verdict.agrees();
    print!("{}", verdict.render());
    println!("{}", if agrees { "agree" } else { "DISAGREE" });
    Ok(exit_code(agrees))
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.split_first() {
        Some((cmd, rest)) if cmd == "agree" => agree(rest),
        Some((cmd, rest)) => {
            let rest = if cmd == "run" { rest } else { &argv[..] };
            parse_args(rest).and_then(|args| match args.seeds {
                Some(range) => collect(&args, range),
                None => single(&args, started),
            })
        }
        None => Err("no arguments".into()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("citymesh-perf: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}
