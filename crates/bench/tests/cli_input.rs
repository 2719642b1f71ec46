//! Bad command-line input exits 2 with a message, never a panic (exit
//! 101) and never a silent fallback; flags a mode ignores are not checked
//! in that mode.

use std::process::Command;

/// Runs `exe args`; returns the exit code and stderr.
fn run(exe: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {exe}: {e}"));
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_usage_error(exe: &str, args: &[&str]) {
    let (code, stderr) = run(exe, args);
    assert_eq!(code, Some(2), "{args:?}: stderr:\n{stderr}");
    assert!(
        !stderr.trim().is_empty(),
        "{args:?}: exit 2 without a message"
    );
    assert!(
        !stderr.contains("panicked"),
        "{args:?}: panicked:\n{stderr}"
    );
}

#[test]
fn iguard_run_rejects_an_unknown_size() {
    assert_usage_error(env!("CARGO_BIN_EXE_iguard_run"), &["uts", "--size", "huge"]);
}

#[test]
fn iguard_run_rejects_a_flag_without_its_value() {
    assert_usage_error(env!("CARGO_BIN_EXE_iguard_run"), &["uts", "--size"]);
    assert_usage_error(env!("CARGO_BIN_EXE_iguard_run"), &["uts", "--detector"]);
}

#[test]
fn fuzz_spec_mode_ignores_kernels() {
    let (code, stderr) = run(
        env!("CARGO_BIN_EXE_fuzz"),
        &["--kernels", "0", "--spec", "v2;CB;Sx/Lx"],
    );
    assert_eq!(code, Some(0), "stderr:\n{stderr}");
}
