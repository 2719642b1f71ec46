//! Byte-identity gate for experiment stdout.
//!
//! Runs every paper-artifact binary — `table1`, `table4`, `table5`,
//! `fig11`–`fig14`, `fence_scope_cost` and `ablation_history` — plus
//! `pressure` at their default seeds and compares stdout byte-for-byte
//! against recorded transcripts (`tests/golden/` at the repo root).
//! Together with `golden_equivalence.rs` this enforces the PR-2 contract:
//! hot-path optimizations may change wall-clock time only, never a byte
//! of any table or figure. The `pressure` transcript extends the same
//! contract to the degradation-accounting table (simulated cycles only,
//! never wall clock).
//!
//! Regenerate after a *deliberate* output change:
//!
//! ```text
//! GOLDEN_WRITE=1 cargo test -p bench --release --test golden_stdout
//! ```

use std::path::PathBuf;
use std::process::Command;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden"))
        .join(format!("{name}.txt"))
}

fn check(bin: &str, exe: &str) {
    let out = Command::new(exe)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} exited with {:?}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let got = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let path = golden_path(bin);
    if std::env::var_os("GOLDEN_WRITE").is_some() {
        std::fs::write(&path, &got).expect("write golden transcript");
        eprintln!("golden stdout regenerated at {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing {}: {e}; regenerate with GOLDEN_WRITE=1", path.display()));
    assert_eq!(
        got, want,
        "{bin} stdout diverged from the seed transcript"
    );
}

#[test]
fn table1_stdout_matches_seed() {
    check("table1", env!("CARGO_BIN_EXE_table1"));
}

#[test]
fn table4_stdout_matches_seed() {
    check("table4", env!("CARGO_BIN_EXE_table4"));
}

#[test]
fn table5_stdout_matches_seed() {
    check("table5", env!("CARGO_BIN_EXE_table5"));
}

#[test]
fn fig11_stdout_matches_seed() {
    check("fig11", env!("CARGO_BIN_EXE_fig11"));
}

#[test]
fn fig12_stdout_matches_seed() {
    check("fig12", env!("CARGO_BIN_EXE_fig12"));
}

#[test]
fn fig13_stdout_matches_seed() {
    check("fig13", env!("CARGO_BIN_EXE_fig13"));
}

#[test]
fn fig14_stdout_matches_seed() {
    check("fig14", env!("CARGO_BIN_EXE_fig14"));
}

#[test]
fn fence_scope_cost_stdout_matches_seed() {
    check("fence_scope_cost", env!("CARGO_BIN_EXE_fence_scope_cost"));
}

#[test]
fn ablation_history_stdout_matches_seed() {
    check("ablation_history", env!("CARGO_BIN_EXE_ablation_history"));
}

#[test]
fn pressure_stdout_matches_seed() {
    check("pressure", env!("CARGO_BIN_EXE_pressure"));
}
