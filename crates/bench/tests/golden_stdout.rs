//! Byte-identity gate for experiment stdout.
//!
//! Runs the `table4`, `table5`, `fig11`, `pressure`, `chaos`, and
//! `service` binaries at their default seeds and compares stdout
//! byte-for-byte against transcripts recorded from the seed build
//! (`tests/golden/` at the repo root). Together with
//! `golden_equivalence.rs` this enforces the PR-2 contract: hot-path
//! optimizations may change wall-clock time only, never a byte of any
//! table or figure. The `pressure`/`chaos`/`service` transcripts extend
//! the same contract to the degradation-accounting table, the chaos
//! campaign summary, and the multi-tenant service verdict table (all of
//! which print simulated cycles only, never wall clock).
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

fn check(bin: &str, exe: &str, extra_args: &[&str]) {
    let out = Command::new(exe)
        .arg("--no-progress")
        .args(extra_args)
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
fn pressure_stdout_matches_seed() {
    check("pressure", env!("CARGO_BIN_EXE_pressure"), &[]);
}

#[test]
fn chaos_stdout_matches_seed() {
    check(
        "chaos",
        env!("CARGO_BIN_EXE_chaos"),
        &["--campaigns", "3", "--seed", "42"],
    );
}

#[test]
fn service_stdout_matches_seed() {
    check(
        "service",
        env!("CARGO_BIN_EXE_service"),
        &["--quick", "--seed", "42"],
    );
}

#[test]
fn service_supervised_stdout_matches_seed() {
    // Supervised + chaos + poison lottery: covers the quarantine lines,
    // the supervisor summary, and the recovery drill. `--store` is
    // relative: the store lands under this crate's `target/`.
    check(
        "service-supervised",
        env!("CARGO_BIN_EXE_service"),
        &[
            "--quick",
            "--seed",
            "42",
            "--supervised",
            "--chaos",
            "--store",
            "target/service-store-golden",
        ],
    );
}
