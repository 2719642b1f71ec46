//! Byte-identity gate for experiment stdout.
//!
//! Runs every paper-artifact binary — `table1`, `table4`, `table5`,
//! `fig11`–`fig14` (and `fig12 --ablate`), `fence_scope_cost` and
//! `ablation_history` — plus `pressure` and one `iguard_run` invocation
//! per detector at their default seeds and compares stdout byte-for-byte
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

/// Runs `exe args` and compares its stdout with `tests/golden/<name>.txt`.
fn check(name: &str, exe: &str, args: &[&str]) {
    let out = Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {name}: {e}"));
    assert!(
        out.status.success(),
        "{name} exited with {:?}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let got = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let path = golden_path(name);
    if std::env::var_os("GOLDEN_WRITE").is_some() {
        std::fs::write(&path, &got).expect("write golden transcript");
        eprintln!("golden stdout regenerated at {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing {}: {e}; regenerate with GOLDEN_WRITE=1", path.display()));
    assert_eq!(got, want, "{name} stdout diverged from the seed transcript");
}

#[test]
fn table1_stdout_matches_seed() {
    check("table1", env!("CARGO_BIN_EXE_table1"), &[]);
}

#[test]
fn table4_stdout_matches_seed() {
    check("table4", env!("CARGO_BIN_EXE_table4"), &[]);
}

#[test]
fn table5_stdout_matches_seed() {
    check("table5", env!("CARGO_BIN_EXE_table5"), &[]);
}

#[test]
fn fig11_stdout_matches_seed() {
    check("fig11", env!("CARGO_BIN_EXE_fig11"), &[]);
}

#[test]
fn fig12_stdout_matches_seed() {
    check("fig12", env!("CARGO_BIN_EXE_fig12"), &[]);
}

/// `--ablate` adds the coalescing-only and backoff-only columns: the only
/// run of those two configurations.
#[test]
fn fig12_ablate_stdout_matches_seed() {
    check("fig12_ablate", env!("CARGO_BIN_EXE_fig12"), &["--ablate"]);
}

#[test]
fn fig13_stdout_matches_seed() {
    check("fig13", env!("CARGO_BIN_EXE_fig13"), &[]);
}

#[test]
fn fig14_stdout_matches_seed() {
    check("fig14", env!("CARGO_BIN_EXE_fig14"), &[]);
}

#[test]
fn fence_scope_cost_stdout_matches_seed() {
    check(
        "fence_scope_cost",
        env!("CARGO_BIN_EXE_fence_scope_cost"),
        &[],
    );
}

#[test]
fn ablation_history_stdout_matches_seed() {
    check(
        "ablation_history",
        env!("CARGO_BIN_EXE_ablation_history"),
        &[],
    );
}

#[test]
fn pressure_stdout_matches_seed() {
    check("pressure", env!("CARGO_BIN_EXE_pressure"), &[]);
}

/// `iguard_run` under each detector: iGUARD with disassembly context,
/// CURD refusing a binary and running one, Barracuda, a native run, and
/// iGUARD with both optimizations off.
#[test]
fn iguard_run_stdout_matches_seed() {
    for (name, args) in [
        ("iguard_run_reduction", &["reduction", "--context", "1"][..]),
        ("iguard_run_graph_color_curd", &["graph-color", "--detector", "curd"]),
        ("iguard_run_b_reduce_curd", &["b_reduce", "--detector", "curd"]),
        ("iguard_run_interac_barracuda", &["interac", "--detector", "barracuda"]),
        ("iguard_run_d_reduce_native", &["d_reduce", "--detector", "none"]),
        ("iguard_run_conjugGMB_plain", &["conjugGMB", "--no-coalesce", "--no-backoff"]),
    ] {
        check(name, env!("CARGO_BIN_EXE_iguard_run"), args);
    }
}
