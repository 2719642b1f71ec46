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
fn iguard_run_rejects_a_second_workload() {
    assert_usage_error(env!("CARGO_BIN_EXE_iguard_run"), &["reduction", "uts"]);
}

#[test]
fn fuzz_spec_mode_ignores_kernels() {
    let (code, stderr) = run(
        env!("CARGO_BIN_EXE_fuzz"),
        &["--kernels", "0", "--spec", "v2;CB;Sx/Lx"],
    );
    assert_eq!(code, Some(0), "stderr:\n{stderr}");
}

#[test]
fn paper_binaries_reject_unknown_arguments() {
    for (exe, arg) in [
        (env!("CARGO_BIN_EXE_table1"), "--bench"),
        (env!("CARGO_BIN_EXE_table4"), "--bnech"),
        (env!("CARGO_BIN_EXE_table5"), "--whatever"),
        (env!("CARGO_BIN_EXE_fig11"), "--ablate"),
        (env!("CARGO_BIN_EXE_fig12"), "--prune"),
        (env!("CARGO_BIN_EXE_fig13"), "--prune"),
        (env!("CARGO_BIN_EXE_fig14"), "--bench"),
        (env!("CARGO_BIN_EXE_fence_scope_cost"), "-x"),
        (env!("CARGO_BIN_EXE_ablation_history"), "-x"),
    ] {
        assert_usage_error(exe, &[arg]);
    }
}

#[test]
fn fuzz_static_replays_the_corpus_from_any_directory() {
    let out = Command::new(env!("CARGO_BIN_EXE_fuzz"))
        .args(["--static", "--kernels", "1"])
        .current_dir(std::env::temp_dir())
        .output()
        .expect("spawn fuzz");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout:\n{stdout}");
    assert!(stdout.contains("(39 corpus + 1 fresh)"), "stdout:\n{stdout}");
}

#[test]
fn fuzz_litmus_unlimited_requires_a_budget() {
    assert_usage_error(env!("CARGO_BIN_EXE_fuzz"), &["--litmus", "--kernels", "0"]);
}

#[test]
fn fuzz_litmus_campaign_runs() {
    let (code, stderr) = run(
        env!("CARGO_BIN_EXE_fuzz"),
        &["--litmus", "--kernels", "2", "--seed", "42"],
    );
    assert_eq!(code, Some(0), "stderr:\n{stderr}");
}
