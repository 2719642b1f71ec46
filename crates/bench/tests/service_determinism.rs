//! Service determinism: a job is a pure function of `(service seed,
//! tenant, job index)`, so per-tenant verdicts are byte-identical across
//! stream counts, slice quanta, per-job fault schedules, a mid-soak
//! checkpoint/restart and — supervised — chaos, poison and a damaged
//! checkpoint store, with every degradation accounted; and the detector a
//! job runs against is the plain [`Iguard`], whatever name it travels
//! under.

mod common;

use faults::{FaultConfig, FaultInjector, FaultSite, RATE_ONE};
use gpu_sim::machine::Gpu;
use gpu_sim::timing::COST_CATEGORIES;
use iguard::supervise::attempt_faults;
use iguard::{
    CheckpointStore, DetectorService, Iguard, IguardConfig, ServiceConfig, ShardedIguard,
    SupervisorConfig,
};
use nvbit_sim::{Instrumented, Tool};
use proptest::prelude::*;
use workloads::Size;

use bench::{
    gpu_config, is_poison, quiet_poison_panics, run_iguard_with, run_service_job, ServiceJob,
    DEFAULT_SEED,
};

/// The racey workloads the suite sweeps (fast at `Size::Test`, multiple
/// kernels/launches between them).
const WORKLOADS: [&str; 3] = ["reduction", "graph-color", "interac"];

/// Runs `name` under `tool` and returns the launch clock's raw
/// `(parallel, serial)` cycles per cost category, plus the mounted tool.
fn run_tool<T: Tool>(name: &str, tool: T) -> (Vec<(u64, u64)>, Instrumented<T>) {
    let w = workloads::by_name(name).expect("workload exists");
    let mut gpu = Gpu::new(gpu_config(DEFAULT_SEED));
    let launches = w.build(&mut gpu, Size::Test);
    let mut tool = Instrumented::new(tool);
    for l in &launches {
        gpu.launch(&l.kernel, l.grid, l.block, &l.params, &mut tool)
            .expect("launch completes");
    }
    let raw = COST_CATEGORIES.iter().map(|&c| gpu.clock().raw(c)).collect();
    (raw, tool)
}

/// Everything a detector exposes after a run, rendered for comparison.
fn observe(det: &mut Iguard) -> String {
    let races = det.races();
    format!(
        "{races:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{:?}",
        det.stats(),
        det.uvm_stats(),
        det.degradation(),
        det.fault_stats(),
        det.prune_stats(),
    )
}

/// The `ShardedIguard` shim forwards everything to the `Iguard` it wraps:
/// same reports, counters, UVM statistics, and raw clock charges in every
/// cost category.
#[test]
fn sharded_iguard_shim_forwards_everything() {
    for w in workloads::racey() {
        let (plain_raw, mut plain) = run_tool(w.name, Iguard::new(IguardConfig::default()));
        let shim = ShardedIguard::try_new(IguardConfig::default()).expect("default config");
        let (shim_raw, mut shim) = run_tool(w.name, shim);
        assert_eq!(plain_raw, shim_raw, "{}: clock charges", w.name);
        assert_eq!(plain.instr_stats(), shim.instr_stats(), "{}", w.name);
        assert_eq!(
            observe(plain.tool_mut()),
            observe(shim.tool_mut()),
            "{}: detector state",
            w.name
        );
    }
}

/// The service's detector *is* the plain detector. Under an armed
/// metadata plane (the `counter_identity` `faults=meta+uvm@7` rates) a
/// job's accepted detector leaves the counters, UVM statistics, fault
/// fires, degradation and sites of a direct `Iguard::new` run of the same
/// launches under the same per-job plane — one table, one injector per
/// site, one draw stream.
#[test]
fn service_job_detector_is_the_plain_detector() {
    let plane = common::meta_uvm_plane();
    let base = IguardConfig {
        faults: plane.clone(),
        ..IguardConfig::default()
    };
    let mut svc = DetectorService::new(ServiceConfig {
        seed: DEFAULT_SEED,
        base: base.clone(),
        ..ServiceConfig::default()
    });
    // One tenant per workload, one job each: a tenant's verdict is its
    // job's detector.
    for name in WORKLOADS {
        svc.submit(name, 0, ServiceJob::new(name, Size::Test, 1));
    }
    let mut uvm = std::collections::BTreeMap::new();
    svc.run_all(|ctx, tool| {
        let outcome = run_service_job(ctx, tool, &FaultConfig::disabled());
        uvm.insert(ctx.tenant.to_string(), tool.tool().uvm_stats());
        outcome
    })
    .expect("soak runs");
    let mut fires = 0;
    for v in svc.verdicts() {
        let seed = iguard::service::job_seed(DEFAULT_SEED, &v.tenant, 0);
        let w = workloads::by_name(&v.tenant).expect("workload exists");
        let cfg = IguardConfig {
            faults: attempt_faults(&plane, seed, 0, 0),
            ..base.clone()
        };
        let direct = run_iguard_with(&w, Size::Test, gpu_config(seed), cfg);
        let job = (
            &v.stats,
            &uvm[&v.tenant],
            &v.fault_stats,
            &v.degradation,
            &v.sites,
        );
        let plain = (
            &direct.stats,
            &direct.uvm,
            &direct.fault_stats,
            &direct.degradation,
            &direct.sites,
        );
        assert_eq!(format!("{job:?}"), format!("{plain:?}"), "{}", v.tenant);
        fires += v.fault_stats.total();
    }
    assert!(fires > 0, "the metadata plane never fired");
}

/// Submits the first `upto` jobs of each of `tenants` tenants, workload
/// rotated by `(tenant, job)`.
fn submit_fleet(svc: &mut DetectorService<ServiceJob>, tenants: usize, upto: u64) {
    for t in 0..tenants {
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

/// One detector-service soak: `tenants × jobs_per_tenant` jobs through
/// the shared `run_service_job` exec path, optionally interrupted after
/// `split` jobs per tenant and resumed from its checkpoint records.
/// Returns the per-tenant verdict digests, whether every tenant's
/// degradation is fully accounted, and the resumed incarnation's skip
/// count (0 without a split).
fn service_soak(
    cfg: ServiceConfig,
    tenants: usize,
    jobs_per_tenant: u64,
    chaos: &FaultConfig,
    split: Option<u64>,
) -> (Vec<String>, bool, u64) {
    let mut skipped = 0u64;
    let mut svc = match split {
        // Interrupted service: run a prefix, keep only the checkpoint
        // records (everything else is "lost in the crash"), resume, and
        // resubmit the full load — covered job indices are skipped.
        Some(k) if k > 0 => {
            let mut first = DetectorService::new(cfg.clone());
            submit_fleet(&mut first, tenants, k.min(jobs_per_tenant));
            first
                .run_all(|ctx, tool| run_service_job(ctx, tool, chaos))
                .expect("first incarnation runs");
            let ckpt = first.checkpoint_records().expect("names are encodable");
            drop(first);
            DetectorService::from_records(cfg, &ckpt).expect("checkpoint resumes")
        }
        _ => DetectorService::new(cfg),
    };
    submit_fleet(&mut svc, tenants, jobs_per_tenant);
    let report = svc
        .run_all(|ctx, tool| run_service_job(ctx, tool, chaos))
        .expect("soak runs");
    skipped += report.jobs_skipped;
    let verdicts = svc.verdicts();
    let accounted = verdicts.iter().all(|v| v.degradation.fully_accounted());
    (
        verdicts.iter().map(|v| v.digest()).collect(),
        accounted,
        skipped,
    )
}

/// One *supervised* soak: poison jobs panic on every attempt, everything
/// else goes through the shared chaos-armed exec path. Optionally
/// interrupted after `split` jobs per tenant: the prefix is saved to a
/// [`CheckpointStore`], damaged generations are layered on top, and
/// the fleet resumes from whatever recovery promotes. Returns per-tenant
/// digests, per-tenant quarantine ledgers `(job_index, reason)`, whether
/// degradation stayed accounted, and the resumed incarnation's skip
/// count.
#[allow(clippy::type_complexity)]
fn supervised_soak(
    cfg: ServiceConfig,
    sup: &SupervisorConfig,
    tenants: usize,
    jobs_per_tenant: u64,
    chaos: &FaultConfig,
    poison_denom: u64,
    interrupt: Option<(&CheckpointStore, u64, &[FaultSite])>,
) -> (Vec<String>, Vec<Vec<(u64, String)>>, bool, u64) {
    quiet_poison_panics();
    let seed = cfg.seed;
    let exec = |ctx: &iguard::JobCtx<'_, ServiceJob>,
                tool: &mut Instrumented<ShardedIguard>| {
        if is_poison(seed, poison_denom, ctx.tenant, ctx.job_index) {
            panic!("poison job: {}#{}", ctx.tenant, ctx.job_index);
        }
        run_service_job(ctx, tool, chaos)
    };
    let mut svc = match interrupt {
        // Crash-consistent interruption: run a prefix, save it cleanly,
        // stack damaged generations on top, then recover from the store
        // (everything in memory is "lost in the crash").
        Some((store, k, damage)) if k > 0 => {
            let mut first = DetectorService::new(cfg.clone());
            submit_fleet(&mut first, tenants, k.min(jobs_per_tenant));
            first
                .run_all_supervised(sup, exec)
                .expect("first incarnation runs");
            store.save(&first).expect("clean save promotes");
            drop(first);
            for (i, site) in damage.iter().enumerate() {
                let plane = FaultConfig::disabled()
                    .with_seed(seed ^ (i as u64) << 8 ^ site.index() as u64)
                    .with_rate(*site, RATE_ONE);
                let mut inj = FaultInjector::new(&plane, "proptest-store");
                let probe = DetectorService::<ServiceJob>::new(cfg.clone());
                let records = probe.checkpoint_records().expect("names are encodable");
                store
                    .save_records_with_faults(&records, &mut inj)
                    .expect("damaged save completes");
            }
            let (svc, _report) = store.recover(&cfg);
            svc
        }
        _ => DetectorService::new(cfg),
    };
    submit_fleet(&mut svc, tenants, jobs_per_tenant);
    let report = svc.run_all_supervised(sup, exec).expect("soak runs");
    let verdicts = svc.verdicts();
    let accounted = verdicts.iter().all(|v| v.degradation.fully_accounted());
    (
        verdicts.iter().map(|v| v.digest()).collect(),
        verdicts
            .iter()
            .map(|v| {
                v.quarantine
                    .iter()
                    .map(|q| (q.job_index, q.reason.name().to_string()))
                    .collect()
            })
            .collect(),
        accounted,
        report.jobs_skipped,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The detector service's determinism contract: for any tenant
    /// fleet, per-tenant verdicts are byte-identical across stream
    /// counts, slice quanta, report-channel fault schedules (reseeded per
    /// job from the job's identity), and a mid-soak checkpoint/restart —
    /// and every tenant's degradation stays fully accounted throughout.
    #[test]
    fn service_verdicts_survive_reshaping_faults_and_restarts(
        seed in 0u64..1 << 32,
        tenants in 1usize..=3,
        jobs_per_tenant in 1u64..=4,
        streams_b in 1usize..=3,
        slice_b in prop_oneof![Just(1_000u64), Just(25_000), Just(200_000)],
        drop_rate in 0u32..=RATE_ONE / 4,
        overflow_rate in 0u32..=RATE_ONE / 8,
        chaos_gpu in any::<bool>(),
        split in 0u64..=4,
    ) {
        let faults = FaultConfig::disabled()
            .with_seed(seed) // service reseeds per job; this seed is inert
            .with_rate(FaultSite::ReportDrop, drop_rate)
            .with_rate(FaultSite::ChannelOverflow, overflow_rate);
        let base = IguardConfig { faults, ..IguardConfig::default() };
        let chaos = if chaos_gpu {
            FaultConfig::disabled()
                .with_seed(seed)
                .with_rate(FaultSite::KernelAbort, RATE_ONE / 16)
        } else {
            FaultConfig::disabled()
        };
        let cfg_a = ServiceConfig {
            seed,
            base: base.clone(),
            streams_per_tenant: 2,
            slice_cycles: 50_000,
        };
        let cfg_b = ServiceConfig {
            seed,
            base,
            streams_per_tenant: streams_b,
            slice_cycles: slice_b,
        };

        let (ref_digests, ref_ok, _) =
            service_soak(cfg_a.clone(), tenants, jobs_per_tenant, &chaos, None);
        let (alt_digests, alt_ok, _) =
            service_soak(cfg_b, tenants, jobs_per_tenant, &chaos, None);
        let split = split.min(jobs_per_tenant);
        let (res_digests, res_ok, skipped) =
            service_soak(cfg_a, tenants, jobs_per_tenant, &chaos, Some(split));

        prop_assert_eq!(&alt_digests, &ref_digests, "reshaped service diverged");
        prop_assert_eq!(&res_digests, &ref_digests, "restarted service diverged");
        prop_assert!(ref_ok && alt_ok && res_ok, "degradation must stay accounted");
        if split > 0 {
            prop_assert_eq!(
                skipped,
                split * tenants as u64,
                "resume must skip exactly the checkpointed jobs"
            );
        }
    }

    /// The supervised extension of the contract above: poison jobs
    /// (deterministic lottery, panic on every attempt) are quarantined
    /// identically across a chaos-armed arm, a fault-free arm, and a
    /// crash/recover arm whose checkpoint store is topped with torn,
    /// corrupt, and short-written generations — while every surviving
    /// verdict stays byte-identical and fully accounted.
    #[test]
    fn supervised_service_heals_chaos_and_quarantines_deterministically(
        seed in 0u64..1 << 32,
        tenants in 1usize..=2,
        jobs_per_tenant in 1u64..=4,
        poison_denom in prop_oneof![Just(0u64), Just(2), Just(5)],
        drop_rate in 0u32..=RATE_ONE / 4,
        chaos_gpu in any::<bool>(),
        split in 0u64..=4,
        damage_mask in 0usize..8,
    ) {
        let chaos = {
            let mut c = FaultConfig::disabled()
                .with_seed(seed)
                .with_rate(FaultSite::ReportDrop, drop_rate);
            if chaos_gpu {
                c = c.with_rate(FaultSite::KernelAbort, RATE_ONE / 16);
            }
            c
        };
        let cfg = ServiceConfig {
            seed,
            base: IguardConfig::default(),
            streams_per_tenant: 2,
            slice_cycles: 50_000,
        };
        let sup = SupervisorConfig { max_retries: 1, ..SupervisorConfig::default() };

        let (ref_digests, ref_quar, ref_ok, _) = supervised_soak(
            cfg.clone(), &sup, tenants, jobs_per_tenant, &chaos, poison_denom, None,
        );
        let (clean_digests, clean_quar, clean_ok, _) = supervised_soak(
            cfg.clone(), &sup, tenants, jobs_per_tenant,
            &FaultConfig::disabled(), poison_denom, None,
        );

        // Crash/recover arm: clean prefix save, then up to three damaged
        // generations stacked on top (chosen by the mask), recovery must
        // fall back to the clean one and finish to identical bytes.
        let all_damage = [
            FaultSite::CkptTornWrite,
            FaultSite::CkptCorruptWrite,
            FaultSite::CkptShortWrite,
        ];
        let damage: Vec<FaultSite> = all_damage
            .iter()
            .enumerate()
            .filter(|(i, _)| damage_mask & (1 << i) != 0)
            .map(|(_, s)| *s)
            .collect();
        let dir = std::env::temp_dir().join(format!(
            "iguard-sup-prop-{}-{seed:x}-{damage_mask}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).expect("store opens");
        let split = split.min(jobs_per_tenant);
        let (res_digests, res_quar, res_ok, skipped) = supervised_soak(
            cfg, &sup, tenants, jobs_per_tenant, &chaos, poison_denom,
            Some((&store, split, &damage)),
        );
        let _ = std::fs::remove_dir_all(&dir);

        prop_assert_eq!(&clean_digests, &ref_digests, "chaos arm must heal to fault-free bytes");
        prop_assert_eq!(&res_digests, &ref_digests, "recovered service diverged");
        prop_assert_eq!(&clean_quar, &ref_quar, "quarantine ledger must ignore chaos");
        prop_assert_eq!(&res_quar, &ref_quar, "quarantine ledger must survive recovery");
        prop_assert!(ref_ok && clean_ok && res_ok, "degradation must stay accounted");
        if split > 0 {
            prop_assert_eq!(
                skipped,
                split * tenants as u64,
                "recovery must skip exactly the covered prefix"
            );
        }
    }
}
