//! Checkpoint round-trip property: a campaign interrupted at *any*
//! point and resumed from whatever its periodic saves left in the
//! checkpoint store produces exactly the rows of an uninterrupted run —
//! including when the saves themselves go through the store's
//! write-side fault plane, where a short write promotes nothing (resume
//! replays more work) and a torn or corrupt generation is skipped for
//! the newest valid one before it (or a fresh start when none is left).
//! Slower, never wrong.

use bench::campaign::Checkpoint;
use faults::{splitmix64, FaultConfig, FaultInjector, FaultSite, RATE_ONE};
use iguard::CheckpointStore;
use proptest::prelude::*;

/// The synthetic campaign's unit stream: a pure function of the
/// campaign seed and unit index, standing in for a real (deterministic)
/// fuzz or chaos unit.
fn unit(seed: u64, i: u64) -> (String, String) {
    let h = splitmix64(seed ^ splitmix64(i.wrapping_add(0x9e37)));
    (format!("unit-{i}"), format!("digest={h:016x}"))
}

fn fresh_store(tag: &str) -> CheckpointStore {
    let dir = std::env::temp_dir().join(format!(
        "bench-campaign-roundtrip-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir); // no state leaks between cases
    CheckpointStore::open(dir).expect("temp dir is writable")
}

/// Runs the campaign from the cursor recorded in `ck` up to `n`,
/// saving through the fault plane every `save_every` units.
fn run_from(
    ck: &mut Checkpoint,
    seed: u64,
    n: u64,
    save_every: u64,
    store: &CheckpointStore,
    inj: &mut FaultInjector,
    stop_at: Option<u64>,
) {
    let start: u64 = ck.meta_as("done").unwrap_or(0);
    for i in start..n {
        if let Some(stop) = stop_at {
            if i >= stop {
                return; // simulated crash: in-memory state is lost
            }
        }
        let (label, value) = unit(seed, i);
        ck.push_row(label, value);
        ck.set_meta("seed", seed);
        ck.set_meta("done", i + 1);
        if (i + 1) % save_every == 0 {
            let records = ck.records().expect("units are encodable");
            store
                .save_records_with_faults(&records, inj)
                .expect("io works");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn interrupted_campaign_equals_uninterrupted_run(
        seed in 0u64..1 << 32,
        n in 1u64..=24,
        save_every in 1u64..=5,
        crash_at in 0u64..=24,
        short_rate in 0u32..=RATE_ONE / 2,
        torn_rate in 0u32..=RATE_ONE / 2,
        corrupt_rate in 0u32..=RATE_ONE / 2,
    ) {
        let crash_at = crash_at.min(n);
        let store = fresh_store(&format!("{seed:x}"));

        // Reference: the uninterrupted campaign (no fault plane needed —
        // saves never affect the in-memory rows).
        let expect: Vec<(String, String)> = (0..n).map(|i| unit(seed, i)).collect();

        // Faulty saves + crash + resume.
        let fcfg = FaultConfig::disabled()
            .with_seed(seed)
            .with_rate(FaultSite::CkptShortWrite, short_rate)
            .with_rate(FaultSite::CkptTornWrite, torn_rate)
            .with_rate(FaultSite::CkptCorruptWrite, corrupt_rate);
        let mut inj = FaultInjector::new(&fcfg, "campaign-save");
        let mut ck = Checkpoint::new();
        run_from(&mut ck, seed, n, save_every, &store, &mut inj, Some(crash_at));

        // Resume from whatever survived: the newest valid generation
        // (possibly several saves old), or nothing (fresh start).
        let (resumed, report) = Checkpoint::recover(&store, Some(seed));
        prop_assert_eq!(report.skipped_stale_seed, 0, "foreign checkpoint");
        prop_assert_eq!(resumed.is_some(), report.recovered_generation.is_some());
        let mut resumed = resumed.unwrap_or_default();
        let done: u64 = resumed.meta_as("done").unwrap_or(0);
        prop_assert!(done <= crash_at, "checkpoint cannot be ahead of the crash");
        prop_assert_eq!(resumed.rows.len() as u64, done, "cursor matches recorded rows");
        run_from(&mut resumed, seed, n, save_every, &store, &mut inj, None);

        prop_assert_eq!(&resumed.rows, &expect, "resumed campaign diverged");
        let _ = std::fs::remove_dir_all(store.dir());
    }
}

/// The case the old single-file format could not pass: its one file was
/// overwritten by every save, so damage to it meant starting over. In
/// the store the save before it is still there.
#[test]
fn damaged_newest_generation_resumes_from_the_previous_one() {
    let (seed, n) = (42, 12);
    let store = fresh_store("fallback");
    let mut inj = FaultInjector::disabled();
    let mut ck = Checkpoint::new();
    run_from(&mut ck, seed, n, 4, &store, &mut inj, Some(10));
    assert_eq!(store.generations(), vec![1, 2], "saves at 4 and 8 units");

    // The crash also tore the newest generation's tail off.
    let newest = store.generation_path(2);
    let bytes = std::fs::read(&newest).expect("generation readable");
    std::fs::write(&newest, &bytes[..bytes.len() - 20]).expect("damage lands");

    let (resumed, report) = Checkpoint::recover(&store, Some(seed));
    assert_eq!(report.recovered_generation, Some(1));
    assert_eq!((report.scanned, report.skipped_invalid), (2, 1));
    let mut resumed = resumed.expect("generation 1 is intact");
    assert_eq!(resumed.meta_as::<u64>("done"), Some(4), "it continues");
    run_from(&mut resumed, seed, n, 4, &store, &mut inj, None);

    let expect: Vec<(String, String)> = (0..n).map(|i| unit(seed, i)).collect();
    assert_eq!(resumed.rows, expect, "stitched rows diverged");
    let _ = std::fs::remove_dir_all(store.dir());
}
