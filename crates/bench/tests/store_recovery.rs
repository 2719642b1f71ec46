//! Crash-consistency proptest for the checkpoint store: arbitrary
//! byte-level damage (bit flips, truncation, garbage rewrites) to any
//! subset of promoted generations — plus a planted valid-but-stale
//! checkpoint from a different campaign seed — must never panic
//! recovery, which falls back to the *newest valid same-seed*
//! generation (or a fresh service), and the recovered incarnation must
//! finish the fleet to bytes identical to an uninterrupted control run.

use faults::FaultConfig;
use iguard::{CheckpointStore, DetectorService, IguardConfig, ServiceConfig};
use proptest::prelude::*;
use workloads::Size;

use bench::{run_service_job, ServiceJob};

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
