//! What the benchmark reads about the host: peak memory, the CPU time
//! the measuring thread actually got, and the machine note every
//! result row carries. All of it comes from `/proc`, and every reader
//! degrades to "unknown" off Linux instead of failing the run.

use std::process::Command;

use crate::json::Value;

/// Peak resident set size of this process so far (`VmHWM`), MiB —
/// the sweeps' probe, in the unit the benchmark reports.
pub fn peak_rss_mib() -> Option<f64> {
    citymesh_bench::sweep::peak_rss_kb().map(|kb| kb as f64 / 1024.0)
}

/// Nanoseconds the calling thread has spent on a CPU (first field of
/// `/proc/thread-self/schedstat`). One-worker rounds run on the
/// calling thread, so the share of wall time this covers tells a
/// descheduled run from a slow one.
pub fn thread_cpu_ns() -> Option<u64> {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// First line of a command's standard output, or `"unknown"`.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// CPUs the scheduler may run this process on.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The machine note: CPU counts, compiler, commit. Carried by every
/// result row so two sets can be told apart when they disagree.
pub fn machine_note() -> Value {
    let nproc = std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0);
    Value::Obj(vec![
        ("nproc".into(), Value::Int(nproc as i64)),
        (
            "available_parallelism".into(),
            Value::Int(available_parallelism() as i64),
        ),
        ("rustc".into(), Value::Str(first_line_of("rustc", &["-V"]))),
        (
            "commit".into(),
            Value::Str(first_line_of("git", &["rev-parse", "--short=12", "HEAD"])),
        ),
        (
            "profile".into(),
            Value::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::get;

    #[test]
    fn proc_readers_work_on_linux() {
        if !cfg!(target_os = "linux") {
            return;
        }
        let rss = peak_rss_mib().expect("VmHWM");
        assert!(rss > 0.5 && rss < 1e6, "{rss} MiB");
        let a = thread_cpu_ns().expect("schedstat");
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        let b = thread_cpu_ns().expect("schedstat");
        assert!(b > a, "a busy loop must accrue CPU time: {a} -> {b}");
    }

    #[test]
    fn machine_note_has_every_field() {
        let note = machine_note();
        for key in [
            "nproc",
            "available_parallelism",
            "rustc",
            "commit",
            "profile",
        ] {
            assert!(get(&note, key).is_some(), "{key}");
        }
    }
}
