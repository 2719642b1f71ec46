//! The benchmark's detector traffic, rebuilt for the identity tests:
//! `benchmark/` is a package of its own that `crates/bench` cannot depend
//! on, so its member list and stencil kernel are restated here once.
//! Also the quick service fleet that the soak and store-recovery tests
//! share.
#![allow(dead_code)] // each test file uses its own subset

use bench::{is_poison, quiet_poison_panics, run_service_job, ServiceJob};
use faults::{FaultConfig, FaultSite, RATE_ONE};
use gpu_sim::asm::KernelBuilder;
use gpu_sim::ir::Special;
use gpu_sim::kernel::Kernel;
use gpu_sim::machine::Gpu;
use iguard::{DetectorService, IguardConfig, ServiceConfig, ServiceReport, SupervisorConfig};
use workloads::{Launch, Size};

/// The armed metadata plane of `counter_identity`'s `faults=meta+uvm@7`
/// rows: entry evictions, tag aliases and UVM eviction storms.
pub fn meta_uvm_plane() -> FaultConfig {
    FaultConfig::disabled()
        .with_seed(7)
        .with_rate(FaultSite::MetaEviction, RATE_ONE / 64)
        .with_rate(FaultSite::MetaTagAlias, RATE_ONE / 64)
        .with_rate(FaultSite::UvmEvictStorm, RATE_ONE / 256)
}

/// `benchmark/src/spec.rs`'s `ZOO_DETECT`.
pub const ZOO_DETECT: [&str; 10] = [
    "interac",
    "matrix-mult",
    "b_scan",
    "d_scan",
    "needle",
    "hotspot",
    "pathfinder",
    "srad",
    "kmeans",
    "dwt2d",
];

/// `benchmark/src/spec.rs`'s `ZOO_SIM`.
pub const ZOO_SIM: [&str; 14] = [
    "1dconv",
    "graph-con",
    "rule-110",
    "uts",
    "graph-color",
    "louvain",
    "pr_nibble",
    "sm",
    "color",
    "mis",
    "cc",
    "slabhash_test",
    "hashtable",
    "shocbfs",
];

/// `benchmark/src/spec.rs`'s service `ROTATION` (run at `Size::Test`).
pub const ROTATION: [&str; 6] = [
    "reduction",
    "b_reduce",
    "graph-color",
    "d_scan",
    "hashtable",
    "matrix-mult",
];

/// `benchmark/src/spec.rs`'s `LADDER_THREADS` / `LADDER_BLOCK`.
pub const LADDER_THREADS: [u32; 3] = [1 << 10, 1 << 14, 1 << 17];
pub const LADDER_BLOCK: u32 = 128;

/// One pass of `benchmark/src/members.rs`'s stencil:
/// `dst[g + 1] = (src[g] + src[g + 1] + src[g + 2]) * 2 / 7`.
pub fn stencil_pass(name: &str) -> Kernel {
    let mut b = KernelBuilder::new(name);
    let src = b.param(0);
    let dst = b.param(1);
    let g = b.special(Special::GlobalTid);
    let off = b.mul(g, 4u32);
    let sa = b.add(src, off);
    let v0 = b.ld(sa, 0);
    let v1 = b.ld(sa, 1);
    let v2 = b.ld(sa, 2);
    let s01 = b.add(v0, v1);
    let s = b.add(s01, v2);
    let scaled = b.mul(s, 2u32);
    let result = b.div(scaled, 7u32);
    let da = b.add(dst, off);
    b.st(da, 1, result);
    b.build()
}

/// The two double-buffered launches of one `ladder_stencil` rung.
pub fn stencil_launches(gpu: &mut Gpu, threads: u32) -> Vec<Launch> {
    let n = threads as usize + 2;
    let a = gpu.alloc(n).expect("stencil buffer a fits");
    let b = gpu.alloc(n).expect("stencil buffer b fits");
    for i in 0..n {
        gpu.write(a, i, (i % 17) as u32 + 1);
    }
    let launch = |name: &str, params: Vec<u32>| Launch {
        kernel: stencil_pass(name),
        grid: threads / LADDER_BLOCK,
        block: LADDER_BLOCK,
        params,
    };
    vec![
        launch("stencil_pass1", vec![a, b]),
        launch("stencil_pass2", vec![b, a]),
    ]
}

/// Compares `rows` with the table at `path`, or rewrites the table when
/// `GOLDEN_WRITE` is set.
pub fn check_or_write_table(path: &str, rows: &[String], what: &str) {
    if std::env::var_os("GOLDEN_WRITE").is_some() {
        std::fs::write(path, rows.join("\n") + "\n").expect("write golden table");
        eprintln!("{what} table regenerated at {path}");
        return;
    }
    let table = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{what} table missing ({e}); regenerate with GOLDEN_WRITE=1"));
    let want: Vec<&str> = table.lines().collect();
    assert_eq!(want.len(), rows.len(), "{what} table shape changed");
    for (got, want) in rows.iter().zip(want) {
        assert_eq!(
            got, want,
            "a {what} table row moved\n  got: {got}\n want: {want}"
        );
    }
}

/// The quick fleet's workload rotation per `(tenant, job index)`: racy
/// and clean kernels, each cheap enough to queue by the hundred.
const FLEET_ROTATION: [&str; 3] = ["reduction", "b_reduce", "graph-color"];
/// The quick fleet's shape: 3 tenants × 8 jobs × 48 launch replays, so
/// either arm clears 1,000 launches.
const FLEET_TENANTS: usize = 3;
pub const FLEET_JOBS_PER_TENANT: u64 = 8;
const FLEET_REPS: u32 = 48;
/// The quick fleet's service seed.
pub const FLEET_SEED: u64 = 42;
/// The supervised arm's poison lottery: 1 job in 16 panics on every
/// attempt.
const FLEET_POISON_DENOM: u64 = 16;

/// The two arms the quick fleet runs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fleet {
    /// Unsupervised, no fault plane.
    Plain,
    /// Supervised (`max_retries` 1) with every fault site armed at
    /// 1/64 and the poison lottery on.
    SupervisedChaos,
}

impl Fleet {
    /// The chaos plane for this arm (disabled for [`Fleet::Plain`]). The
    /// service reseeds it per job, so every arm draws the same schedule.
    pub fn chaos(self) -> FaultConfig {
        match self {
            Fleet::Plain => FaultConfig::disabled(),
            Fleet::SupervisedChaos => FaultConfig::uniform(FLEET_SEED, RATE_ONE / 64),
        }
    }

    /// The service configuration: 2 streams per tenant, 50,000-cycle
    /// slices. The chaos arm caps the table at 256 words so genuine
    /// capacity evictions mix with injected ones.
    pub fn config(self) -> ServiceConfig {
        let mut base = IguardConfig::default();
        if self == Fleet::SupervisedChaos {
            base.table_capacity_words = Some(256);
            base.faults = self.chaos();
        }
        ServiceConfig {
            seed: FLEET_SEED,
            base,
            streams_per_tenant: 2,
            slice_cycles: 50_000,
        }
    }

    /// Submits the first `upto` jobs of every tenant, workload rotated by
    /// `(tenant, job)` and stream by job index.
    pub fn submit(svc: &mut DetectorService<ServiceJob>, upto: u64) {
        for t in 0..FLEET_TENANTS {
            for j in 0..upto {
                let w = FLEET_ROTATION[(t + j as usize) % FLEET_ROTATION.len()];
                svc.submit(
                    &fleet_tenant(t),
                    j as usize,
                    ServiceJob::new(w, Size::Test, FLEET_REPS),
                );
            }
        }
    }

    /// Runs every queued job through the shared exec path, supervised in
    /// the chaos arm, and returns this incarnation's report.
    pub fn run(self, svc: &mut DetectorService<ServiceJob>) -> ServiceReport {
        let chaos = self.chaos();
        if self == Fleet::Plain {
            return svc
                .run_all(|ctx, tool| run_service_job(ctx, tool, &chaos))
                .expect("plain fleet runs");
        }
        quiet_poison_panics();
        let sup = SupervisorConfig { max_retries: 1 };
        svc.run_all_supervised(&sup, |ctx, tool| {
            if is_poison(FLEET_SEED, FLEET_POISON_DENOM, ctx.tenant, ctx.job_index) {
                panic!("poison job: {}#{}", ctx.tenant, ctx.job_index);
            }
            run_service_job(ctx, tool, &chaos)
        })
        .expect("supervised fleet runs")
    }

    /// One uninterrupted incarnation of the full load.
    pub fn soak(self) -> DetectorService<ServiceJob> {
        let mut svc = DetectorService::new(self.config());
        Fleet::submit(&mut svc, FLEET_JOBS_PER_TENANT);
        self.run(&mut svc);
        svc
    }
}

/// The quick fleet's name for tenant `i`.
pub fn fleet_tenant(i: usize) -> String {
    format!("tenant-{i:02}")
}
