//! The `figures` binary must reject a target it does not know instead
//! of printing nothing and exiting 0 (a typo in CI would otherwise let
//! the next step assert on a stale or missing JSON).

use std::process::Command;

#[test]
fn unknown_target_exits_nonzero_and_lists_every_target() {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["streeming", "--smoke"])
        .output()
        .expect("figures binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing may run before the check");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(stderr.contains("unknown target `streeming`"), "{stderr}");

    // The printed list is the dispatch table: every `want("…")` in the
    // binary's source must appear in it, so a new artifact cannot be
    // added without also becoming a known target.
    let listed: Vec<&str> = stderr
        .split("targets:")
        .nth(1)
        .expect("the error lists the targets")
        .split_whitespace()
        .collect();
    let source = include_str!("../src/bin/figures.rs");
    let dispatched: Vec<&str> = source
        .split("want(\"")
        .skip(1)
        .map(|rest| rest.split('"').next().expect("closing quote"))
        .collect();
    assert!(dispatched.len() > 15, "found the dispatch sites");
    for name in dispatched {
        assert!(
            listed.contains(&name),
            "`{name}` is dispatched but not listed"
        );
    }
}
