//! Crash-consistency proptest for the checkpoint store: arbitrary
//! byte-level damage (bit flips, truncation, garbage rewrites) to any
//! subset of promoted generations — plus a planted valid-but-stale
//! checkpoint from a different campaign seed — must never panic
//! recovery, which falls back to the *newest valid same-seed*
//! generation (or a fresh service), and the recovered incarnation must
//! finish the fleet to bytes identical to an uninterrupted control run.
//! Two fixed crash drills run the same contract over the quick
//! supervised chaos fleet: saves lost to forced write-side faults, and a
//! newest generation truncated between incarnations.

mod common;

use std::sync::OnceLock;

use faults::{FaultConfig, FaultInjector, FaultSite, RATE_ONE};
use iguard::{
    CheckpointStore, DetectorService, IguardConfig, RecoveryReport, ServiceConfig, ServiceReport,
};
use proptest::prelude::*;
use workloads::Size;

use bench::{run_service_job, ServiceJob};
use common::{Fleet, FLEET_JOBS_PER_TENANT, FLEET_SEED};

const WORKLOADS: [&str; 3] = ["reduction", "b_reduce", "graph-color"];
const TENANTS: usize = 2;
const JOBS_PER_TENANT: u64 = 3;

fn service_cfg(seed: u64) -> ServiceConfig {
    ServiceConfig {
        seed,
        base: IguardConfig::default(),
        streams_per_tenant: 2,
        slice_cycles: 50_000,
    }
}

fn submit(svc: &mut DetectorService<ServiceJob>, upto: u64) {
    for t in 0..TENANTS {
        for j in 0..upto {
            let w = WORKLOADS[(t + j as usize) % WORKLOADS.len()];
            svc.submit(
                &format!("t{t}"),
                j as usize,
                ServiceJob::new(w, Size::Test, 1),
            );
        }
    }
}

fn run(svc: &mut DetectorService<ServiceJob>) {
    let chaos = FaultConfig::disabled();
    svc.run_all(|ctx, tool| run_service_job(ctx, tool, &chaos))
        .expect("fleet runs");
}

/// How the oracle classifies one (possibly damaged) generation file,
/// mirroring what a *correct* recovery must conclude about it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GenFate {
    Valid,
    StaleSeed,
    Invalid,
}

fn classify(cfg: &ServiceConfig, bytes: &[u8]) -> GenFate {
    let Some(records) = std::str::from_utf8(bytes)
        .ok()
        .and_then(|text| iguard::store::decode(text).ok())
    else {
        return GenFate::Invalid;
    };
    match DetectorService::<ServiceJob>::from_records(cfg.clone(), &records) {
        Ok(_) => GenFate::Valid,
        Err(iguard::ServiceError::CheckpointStaleSeed { .. }) => GenFate::StaleSeed,
        Err(_) => GenFate::Invalid,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn recovery_survives_arbitrary_byte_damage(
        seed in 0u64..1 << 32,
        // Per-generation damage: (kind, position knob, value knob).
        muts in prop::collection::vec((0u8..4, any::<u16>(), any::<u16>()), 3),
        plant_stale in any::<bool>(),
    ) {
        let cfg = service_cfg(seed);
        let dir = std::env::temp_dir().join(format!(
            "iguard-store-prop-{}-{seed:x}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).expect("store opens");

        // Build three clean generations with growing coverage (1, 2,
        // then all 3 jobs per tenant), each from its own incarnation so
        // job indices restart from zero exactly as a crashed service's
        // would.
        for upto in 1..=3u64 {
            let (mut svc, _) = store.recover::<ServiceJob>(&cfg);
            submit(&mut svc, upto);
            run(&mut svc);
            store.save(&svc).expect("clean save promotes");
        }
        prop_assert_eq!(store.generations(), vec![1, 2, 3]);

        // Damage each generation per its mutation tuple.
        for (g, (kind, pos, val)) in (1u64..=3).zip(muts.iter()) {
            let path = store.generation_path(g);
            let mut bytes = std::fs::read(&path).expect("generation readable");
            match kind {
                1 => {
                    let at = *pos as usize % bytes.len();
                    bytes[at] ^= (*val as u8) | 1; // guaranteed non-identity flip
                }
                2 => {
                    let keep = *pos as usize % bytes.len();
                    bytes.truncate(keep);
                }
                3 => {
                    bytes = val.to_le_bytes().repeat(1 + *pos as usize % 40);
                }
                _ => {} // untouched
            }
            std::fs::write(&path, &bytes).expect("damage lands");
        }

        // Optionally plant a *valid* checkpoint from a different
        // campaign seed as the newest generation: recovery must refuse
        // to resurrect it no matter how intact it is.
        if plant_stale {
            let stale_cfg = service_cfg(seed ^ 0x5157);
            let stale = DetectorService::<ServiceJob>::new(stale_cfg);
            prop_assert_eq!(store.save(&stale).expect("stale plant lands"), 4);
        }

        // Oracle: classify every generation file independently, newest
        // first, and derive the report a correct recovery must produce.
        let gens = store.generations();
        let mut expected_gen = None;
        let (mut scanned, mut invalid, mut stale) = (0u64, 0u64, 0u64);
        for g in gens.iter().rev() {
            scanned += 1;
            let bytes = std::fs::read(store.generation_path(*g)).expect("readable");
            match classify(&cfg, &bytes) {
                GenFate::Valid => {
                    expected_gen = Some(*g);
                    break;
                }
                GenFate::StaleSeed => stale += 1,
                GenFate::Invalid => invalid += 1,
            }
        }

        let (mut recovered, report) = store.recover::<ServiceJob>(&cfg);
        prop_assert_eq!(report.recovered_generation, expected_gen, "wrong generation promoted");
        prop_assert_eq!(report.scanned, scanned);
        prop_assert_eq!(report.skipped_invalid, invalid);
        prop_assert_eq!(report.skipped_stale_seed, stale);

        // Whatever was (or wasn't) recovered, finishing the fleet must
        // land on the uninterrupted control's exact bytes.
        submit(&mut recovered, JOBS_PER_TENANT);
        run(&mut recovered);
        let mut control = DetectorService::<ServiceJob>::new(cfg);
        submit(&mut control, JOBS_PER_TENANT);
        run(&mut control);
        let got: Vec<String> = recovered.verdicts().iter().map(|v| v.digest()).collect();
        let want: Vec<String> = control.verdicts().iter().map(|v| v.digest()).collect();
        prop_assert_eq!(got, want, "recovered fleet diverged from control");

        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A fresh store directory for one drill.
fn drill_store(name: &str) -> CheckpointStore {
    let dir = std::env::temp_dir().join(format!("iguard-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    CheckpointStore::open(&dir).expect("store opens")
}

fn digests(svc: &DetectorService<ServiceJob>) -> Vec<String> {
    svc.verdicts().iter().map(|v| v.digest()).collect()
}

/// The uninterrupted quick supervised chaos fleet's per-tenant digests,
/// computed once for both drills.
fn control_digests() -> &'static [String] {
    static CONTROL: OnceLock<Vec<String>> = OnceLock::new();
    CONTROL.get_or_init(|| digests(&Fleet::SupervisedChaos.soak()))
}

/// Recovers the fleet from `store` and finishes the full load. Returns
/// the recovery scan, the final incarnation's report and the finished
/// fleet's digests.
fn finish_from(store: &CheckpointStore) -> (RecoveryReport, ServiceReport, Vec<String>) {
    let fleet = Fleet::SupervisedChaos;
    let (mut svc, rec) = store.recover::<ServiceJob>(&fleet.config());
    Fleet::submit(&mut svc, FLEET_JOBS_PER_TENANT);
    let report = fleet.run(&mut svc);
    (rec, report, digests(&svc))
}

/// Half the fleet saves cleanly as generation 1; a second incarnation
/// finishes the load and then loses every save to a forced write-side
/// fault. A short write must not promote; the torn and corrupt writes
/// promote generations 2 and 3, which recovery must reject, landing on
/// generation 1 — and the fleet finished from there re-runs exactly the
/// lost half to the uninterrupted control's bytes.
#[test]
fn supervised_fleet_recovers_past_forced_write_faults() {
    let fleet = Fleet::SupervisedChaos;
    let store = drill_store("forced-write-faults");
    let (mut svc, _) = store.recover::<ServiceJob>(&fleet.config());
    Fleet::submit(&mut svc, FLEET_JOBS_PER_TENANT / 2);
    fleet.run(&mut svc);
    assert_eq!(store.save(&svc).expect("clean save promotes"), 1);

    let (mut svc, _) = store.recover::<ServiceJob>(&fleet.config());
    Fleet::submit(&mut svc, FLEET_JOBS_PER_TENANT);
    fleet.run(&mut svc);
    let records = svc.checkpoint_records().expect("names are encodable");
    for site in [
        FaultSite::CkptShortWrite,
        FaultSite::CkptTornWrite,
        FaultSite::CkptCorruptWrite,
    ] {
        let plane = FaultConfig::disabled()
            .with_seed(FLEET_SEED ^ site.index() as u64)
            .with_rate(site, RATE_ONE);
        let mut inj = FaultInjector::new(&plane, "ckpt-store");
        let promoted = store
            .save_records_with_faults(&records, &mut inj)
            .expect("a faulted save completes");
        if site == FaultSite::CkptShortWrite {
            assert_eq!(promoted, None, "a short write must not promote");
        }
    }

    let (rec, report, got) = finish_from(&store);
    let _ = std::fs::remove_dir_all(store.dir());
    let shape = (
        rec.recovered_generation,
        rec.scanned,
        rec.skipped_invalid,
        rec.skipped_stale_seed,
    );
    assert_eq!(
        shape,
        (Some(1), 3, 2, 0),
        "generation, scanned, invalid, stale"
    );
    assert_eq!(
        report.jobs_skipped, 12,
        "recovery must skip exactly the covered half"
    );
    assert_eq!(report.jobs_run, 11, "the lost half re-runs, poison aside");
    assert_eq!(got, control_digests());
}

/// Two incarnations save after 2 and then 4 jobs per tenant and stop;
/// 20 bytes are then cut off the newest generation, as a crash mid-write
/// would leave it. The next incarnation recovers generation 1 and
/// finishes the fleet to the uninterrupted control's bytes.
#[test]
fn truncated_newest_generation_recovers_the_older_one() {
    let fleet = Fleet::SupervisedChaos;
    let store = drill_store("truncated-newest");
    for upto in [2, 4] {
        let (mut svc, _) = store.recover::<ServiceJob>(&fleet.config());
        Fleet::submit(&mut svc, upto);
        fleet.run(&mut svc);
        store.save(&svc).expect("clean save promotes");
    }
    assert_eq!(store.generations(), [1, 2]);
    let newest = store.generation_path(2);
    let len = std::fs::metadata(&newest)
        .expect("generation 2 exists")
        .len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&newest)
        .and_then(|f| f.set_len(len - 20))
        .expect("truncate generation 2");

    let (rec, _, got) = finish_from(&store);
    let _ = std::fs::remove_dir_all(store.dir());
    assert_eq!(rec.recovered_generation, Some(1));
    assert_eq!(got, control_digests());
}
