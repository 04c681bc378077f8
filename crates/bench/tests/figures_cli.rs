//! The `figures` binary must reject what it does not understand
//! instead of silently running something else and exiting 0: a typo in
//! CI would otherwise check a sweep at the wrong scale, or none. (That
//! the printed target list *is* the dispatch table is the binary's own
//! unit test, `usage_lists_exactly_the_table`.)

use std::process::Command;

#[test]
fn every_class_of_bad_command_line_exits_2_before_running_anything() {
    let cases: [(&[&str], &str); 6] = [
        (&["streeming", "--smoke"], "unknown target `streeming`;"),
        (&["metro", "--smok"], "unknown flag `--smok`;"),
        (
            &["fleet", "--flows", "abc"],
            "`--flows` needs a number, got `abc`;",
        ),
        (&["fleet", "--flows"], "`--flows` needs a number;"),
        (&["fleet", "--smoke"], "`fleet` has no Smoke scale"),
        (&["check", "--fast"], "`check` has no Fast scale"),
    ];
    for (args, problem) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(args)
            .output()
            .expect("figures binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing may run first");
        let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
        assert!(stderr.starts_with(problem), "{args:?}: {stderr}");
        let listed = stderr
            .split("targets: all ")
            .nth(1)
            .and_then(|rest| rest.lines().next())
            .expect("every error lists the targets");
        assert!(
            listed.starts_with("table1 ") && listed.ends_with(" placement check"),
            "{listed}"
        );
    }
}
