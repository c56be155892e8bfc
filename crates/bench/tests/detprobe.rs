//! `detprobe` byte identity: the probe's output must equal the checked-in
//! capture in `detprobe.golden`, so a change to any simulated decision of
//! either engine fails the test suite instead of only showing up in a manual
//! diff between two builds.
//!
//! The golden holds float bits that pass through the platform math library,
//! so the comparison is compiled on x86_64 Linux only. A change that alters
//! the output on purpose regenerates the capture with
//! `cargo run --release -p redistrib-bench --bin detprobe > crates/bench/tests/detprobe.golden`
//! and says why in its change notes.

#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use std::process::Command;

#[test]
fn detprobe_output_matches_golden() {
    let out = Command::new(env!("CARGO_BIN_EXE_detprobe")).output().expect("detprobe runs");
    assert!(out.status.success(), "detprobe failed: {}", String::from_utf8_lossy(&out.stderr));
    let got = String::from_utf8(out.stdout).expect("detprobe prints UTF-8");
    let want = include_str!("detprobe.golden");
    if let Some((line, (g, w))) =
        got.lines().zip(want.lines()).enumerate().find(|(_, (g, w))| g != w)
    {
        panic!("detprobe line {} differs from the golden:\n  got:  {g}\n  want: {w}", line + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "detprobe printed a different number of lines than the golden"
    );
    assert_eq!(got, want, "detprobe output differs from the golden in line endings");
}
