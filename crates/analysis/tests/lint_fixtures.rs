//! Self-tests for `redistrib-lint`: each fixture carries exactly one
//! deliberate violation, and the binary must report it with the exact
//! `file:line rule` prefix — then exit 0 on the real workspace tree.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap()
}

fn run_lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_redistrib-lint"))
        .args(args)
        .output()
        .expect("lint binary runs")
}

/// Lints `fixture_file` under a virtual path and asserts the one
/// expected diagnostic: nonzero exit, stdout whose single line starts
/// with `virtual_path:line rule`.
fn assert_one_violation(fixture_file: &str, virtual_path: &str, line: u32, rule: &str) {
    let out =
        run_lint(&["--file", fixture(fixture_file).to_str().unwrap(), "--as", virtual_path]);
    assert!(!out.status.success(), "{fixture_file} must fail the lint");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 1, "exactly one violation for {fixture_file}, got:\n{stdout}");
    let expect = format!("{virtual_path}:{line} {rule} ");
    assert!(lines[0].starts_with(&expect), "expected `{expect}…`, got `{}`", lines[0]);
}

#[test]
fn fixture_bare_lock_unwrap() {
    assert_one_violation(
        "bare_lock_unwrap.rs",
        "crates/service/src/fixture.rs",
        4,
        "no-bare-lock-unwrap",
    );
}

#[test]
fn fixture_raw_sync_in_service() {
    assert_one_violation(
        "raw_sync.rs",
        "crates/service/src/fixture.rs",
        3,
        "no-raw-sync-in-service",
    );
}

#[test]
fn fixture_fsync_discipline() {
    assert_one_violation("fsync.rs", "crates/service/src/fixture.rs", 3, "fsync-discipline");
}

#[test]
fn fixture_wallclock_in_sim() {
    assert_one_violation("wallclock.rs", "crates/sim/src/fixture.rs", 3, "no-wallclock-in-sim");
}

#[test]
fn fixture_float_format_in_json() {
    assert_one_violation(
        "float_format.rs",
        "crates/service/src/fixture.rs",
        3,
        "no-float-format-in-json",
    );
}

#[test]
fn fixture_raw_connect_in_router() {
    assert_one_violation(
        "raw_connect.rs",
        "crates/service/src/router.rs",
        5,
        "no-raw-connect-in-router",
    );
}

#[test]
fn fixture_sleep_in_service() {
    assert_one_violation("sleep.rs", "crates/service/src/fixture.rs", 6, "no-sleep-in-service");
}

#[test]
fn fixture_one_write_per_message() {
    assert_one_violation(
        "write_all.rs",
        "crates/service/src/client.rs",
        8,
        "one-write-per-message",
    );
}

#[test]
fn fixture_suppressed_is_clean() {
    let out = run_lint(&[
        "--file",
        fixture("suppressed.rs").to_str().unwrap(),
        "--as",
        "crates/sim/src/fixture.rs",
    ]);
    assert!(out.status.success(), "suppressed fixture must pass");
    assert!(out.stdout.is_empty(), "no violations expected");
}

#[test]
fn real_workspace_tree_is_clean() {
    let out = run_lint(&["--root", workspace_root().to_str().unwrap()]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "workspace must be lint-clean, got:\n{stdout}");
    assert!(stdout.is_empty(), "clean tree prints nothing, got:\n{stdout}");
}

#[test]
fn list_prints_every_rule() {
    let out = run_lint(&["--list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    for rule in [
        "no-bare-lock-unwrap",
        "no-raw-sync-in-service",
        "fsync-discipline",
        "no-wallclock-in-sim",
        "no-float-format-in-json",
        "no-raw-connect-in-router",
        "no-sleep-in-service",
        "one-write-per-message",
    ] {
        assert!(stdout.contains(rule), "--list must mention {rule}");
    }
}
