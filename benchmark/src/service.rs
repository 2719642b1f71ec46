//! The two service workloads: a pass is one wave of jobs through a fresh
//! `DetectorService`, a save into a fresh checkpoint store and, under
//! chaos, a recover. A fresh service per pass keeps passes identical
//! (job indices and the quarantine ledger restart), so every simulated
//! number can be compared between passes.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use faults::{splitmix64, FaultConfig};
use gpu_sim::error::SimError;
use gpu_sim::hook::NullHook;
use gpu_sim::machine::Gpu;
use iguard::service::job_seed;
use iguard::supervise::attempt_faults;
use iguard::{
    CheckpointStore, DetectorService, Iguard, IguardConfig, JobCtx, JobOutcome, RaceSite,
    ServiceConfig, ShardedIguard, SupervisorConfig, TenantVerdict,
};
use nvbit_sim::Instrumented;
use workloads::{Size, Workload};

use crate::arms::gpu_config;
use crate::run::{Bench, Pass};
use crate::spec;
use crate::stats;
use crate::yardstick::Yardstick;

const TENANT_NAMES: [&str; spec::TENANTS] =
    ["tenant-0", "tenant-1", "tenant-2", "tenant-3", "tenant-4"];

/// Salt of the poison lottery: a job's draw is
/// `splitmix64(job_seed ^ SALT)`, a pure function of (service seed,
/// tenant, job index); the smallest draws of a wave are poison.
const POISON_SALT: u64 = 0x9015_0D0B_AD5E_ED01;

/// (kernel, pc) -> race-kind codes: a tenant's merged verdict.
type Sites = BTreeMap<(String, usize), BTreeSet<&'static str>>;

fn merge(into: &mut Sites, sites: &[RaceSite]) {
    for s in sites {
        into.entry((s.kernel.to_string(), s.pc))
            .or_default()
            .extend(s.kinds.iter().map(|k| k.code()));
    }
}

/// One call of the exec closure.
struct Attempt {
    tenant: usize,
    job: u64,
    attempt: u32,
    ns: u64,
    kernel_cycles: u64,
    gpu_new_ns: u64,
    build_ns: u64,
}

/// What one wave through the service measured.
struct Wave {
    /// Submit, run, save and (chaos) recover.
    wall_ns: u64,
    run_ns: u64,
    save_ns: u64,
    recover_ns: u64,
    bytes_per_gen: u64,
    attempts: Vec<Attempt>,
    verdicts: Vec<TenantVerdict>,
    report: iguard::ServiceReport,
    /// Recover reproduced the final digests (true when not recovering).
    recovered_same: bool,
}

pub struct ServiceBench {
    chaos: bool,
    seed: u64,
    cfg: ServiceConfig,
    plane: FaultConfig,
    dir: PathBuf,
    rotation: Vec<Workload>,
    /// Per tenant: the sites serial `Iguard` runs of its jobs merge to.
    reference: Vec<Sites>,
    poison: BTreeSet<(usize, u64)>,
}

fn scratch_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    // Next to the executable, so inside the build directory and the
    // checkout, and never shared between processes.
    let base = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("."));
    base.join("igbench-scratch").join(format!(
        "{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

impl ServiceBench {
    pub fn new(chaos: bool, seed: u64) -> Self {
        let rotation: Vec<Workload> = spec::ROTATION
            .iter()
            .map(|n| workloads::by_name(n).unwrap_or_else(|| panic!("`{n}` is not in the zoo")))
            .collect();
        let plane = if chaos {
            FaultConfig::uniform(seed, spec::CHAOS_RATE)
        } else {
            FaultConfig::disabled()
        };
        let mut cfg = ServiceConfig::default();
        cfg.seed = seed;
        cfg.streams_per_tenant = spec::STREAMS_PER_TENANT;
        cfg.base.faults = plane.clone();
        let mut bench = ServiceBench {
            chaos,
            seed,
            cfg,
            plane,
            dir: scratch_dir(),
            rotation,
            reference: Vec::new(),
            poison: BTreeSet::new(),
        };
        if chaos {
            let mut draws: Vec<(u64, (usize, u64))> = Vec::new();
            for (t, tenant) in TENANT_NAMES.iter().enumerate() {
                for j in 0..spec::JOBS_PER_TENANT {
                    draws.push((splitmix64(job_seed(seed, tenant, j) ^ POISON_SALT), (t, j)));
                }
            }
            draws.sort_unstable();
            let poisoned = draws.len() / spec::POISON_DENOM as usize;
            bench.poison = draws[..poisoned].iter().map(|d| d.1).collect();
        }
        for (t, tenant) in TENANT_NAMES.iter().enumerate() {
            let mut sites = Sites::new();
            for j in 0..spec::JOBS_PER_TENANT {
                let js = job_seed(seed, tenant, j);
                if bench.poison.contains(&(t, j)) {
                    continue;
                }
                // The reference: the same job under the serial detector
                // with no fault plane anywhere.
                let mut gpu = Gpu::new(gpu_config(js));
                let launches = bench.member(t, j).build(&mut gpu, Size::Test);
                let mut tool = Instrumented::new(Iguard::new(IguardConfig::default()));
                for _ in 0..spec::JOB_REPS {
                    for l in &launches {
                        gpu.launch(&l.kernel, l.grid, l.block, &l.params, &mut tool)
                            .expect("reference launch succeeds");
                    }
                }
                merge(&mut sites, &tool.tool_mut().race_sites());
            }
            bench.reference.push(sites);
        }
        bench
    }

    fn member(&self, tenant: usize, job: u64) -> &Workload {
        &self.rotation[(tenant + job as usize) % self.rotation.len()]
    }

    /// The same jobs with no hook and no service: (host ns, simulated
    /// cycles per job in submission order).
    fn native_wave(&self, ys: &mut Yardstick) -> (u64, Vec<u64>) {
        let start = Instant::now();
        let spent = ys.spent_ns;
        let mut cycles = Vec::new();
        for (t, tenant) in TENANT_NAMES.iter().enumerate() {
            for j in 0..spec::JOBS_PER_TENANT {
                ys.tick();
                let mut gpu = Gpu::new(gpu_config(job_seed(self.seed, tenant, j)));
                let launches = self.member(t, j).build(&mut gpu, Size::Test);
                for _ in 0..spec::JOB_REPS {
                    for l in &launches {
                        gpu.launch(&l.kernel, l.grid, l.block, &l.params, &mut NullHook)
                            .expect("native launch succeeds");
                    }
                }
                cycles.push(gpu.clock().total_time() as u64);
            }
        }
        (
            start.elapsed().as_nanos() as u64 - (ys.spent_ns - spent),
            cycles,
        )
    }

    fn wave(&self, spans: bool, ys: &mut Yardstick) -> Wave {
        // A fresh store per wave: every save writes generation 1.
        let _ = std::fs::remove_dir_all(&self.dir);
        let store = CheckpointStore::open(&self.dir).expect("open the checkpoint store");
        let mut attempts: Vec<Attempt> = Vec::new();

        let start = Instant::now();
        let mut svc: DetectorService<usize> = DetectorService::new(self.cfg.clone());
        for (t, tenant) in TENANT_NAMES.iter().enumerate() {
            for j in 0..spec::JOBS_PER_TENANT {
                svc.submit(tenant, j as usize, t);
            }
        }
        // The job loop of `bench::run_service_job`, copied so the
        // benchmark does not depend on `crates/bench`, with the clock
        // read around it (and around its layers when `spans`).
        let spent = ys.spent_ns;
        let exec = |ctx: &JobCtx<'_, usize>, tool: &mut Instrumented<ShardedIguard>| {
            ys.tick();
            let t0 = Instant::now();
            let tenant = *ctx.payload;
            let mut a = Attempt {
                tenant,
                job: ctx.job_index,
                attempt: ctx.attempt,
                ns: 0,
                kernel_cycles: 0,
                gpu_new_ns: 0,
                build_ns: 0,
            };
            if self.poison.contains(&(tenant, ctx.job_index)) {
                a.ns = t0.elapsed().as_nanos() as u64;
                attempts.push(a);
                panic!("poison job: {}#{}", ctx.tenant, ctx.job_index);
            }
            let mut gcfg = gpu_config(ctx.seed);
            if self.plane.enabled() {
                gcfg.faults = attempt_faults(&self.plane, ctx.seed, ctx.attempt, ctx.max_retries);
            }
            let mut gpu = Gpu::new(gcfg);
            let t1 = spans.then(Instant::now);
            let launches = self
                .member(tenant, ctx.job_index)
                .build(&mut gpu, Size::Test);
            let t2 = spans.then(Instant::now);
            let mut outcome = JobOutcome::default();
            for _ in 0..spec::JOB_REPS {
                for l in &launches {
                    match gpu.launch(&l.kernel, l.grid, l.block, &l.params, tool) {
                        Ok(_) => outcome.launches += 1,
                        Err(SimError::Timeout { .. }) => outcome.timed_out = true,
                        Err(SimError::InjectedFault { .. }) => outcome.aborted_launches += 1,
                        Err(e) => {
                            panic!("service job {}#{} failed: {e}", ctx.tenant, ctx.job_index)
                        }
                    }
                }
            }
            outcome.kernel_cycles = gpu.clock().total_time() as u64;
            outcome.gpu_faults = gpu.fault_stats();
            a.kernel_cycles = outcome.kernel_cycles;
            if let (Some(t1), Some(t2)) = (t1, t2) {
                a.gpu_new_ns = (t1 - t0).as_nanos() as u64;
                a.build_ns = (t2 - t1).as_nanos() as u64;
            }
            drop((launches, gpu));
            a.ns = t0.elapsed().as_nanos() as u64;
            attempts.push(a);
            outcome
        };
        let run_start = Instant::now();
        let report = if self.chaos {
            let mut sup = SupervisorConfig::default();
            sup.max_retries = spec::MAX_RETRIES;
            svc.run_all_supervised(&sup, exec)
        } else {
            svc.run_all(exec)
        }
        .expect("the service runs the wave");
        // Chunks ran between jobs, inside the run but outside every job.
        let ticked_ns = ys.spent_ns - spent;
        let run_ns = run_start.elapsed().as_nanos() as u64 - ticked_ns;

        let save_start = Instant::now();
        store.save(&svc).expect("save the checkpoint");
        let save_ns = save_start.elapsed().as_nanos() as u64;

        let verdicts = svc.verdicts();
        let (mut recover_ns, mut recovered_same) = (0, true);
        if self.chaos {
            let recover_start = Instant::now();
            let (recovered, _) = store.recover::<usize>(&self.cfg);
            recover_ns = recover_start.elapsed().as_nanos() as u64;
            let digests =
                |v: &[TenantVerdict]| v.iter().map(TenantVerdict::digest).collect::<Vec<_>>();
            recovered_same = digests(&recovered.verdicts()) == digests(&verdicts);
        }
        let wall_ns = start.elapsed().as_nanos() as u64 - ticked_ns;

        let bytes_per_gen = std::fs::read_dir(&self.dir)
            .into_iter()
            .flatten()
            .filter_map(|e| e.ok()?.metadata().ok())
            .map(|m| m.len())
            .sum();
        Wave {
            wall_ns,
            run_ns,
            save_ns,
            recover_ns,
            bytes_per_gen,
            attempts,
            verdicts,
            report,
            recovered_same,
        }
    }
}

impl Drop for ServiceBench {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

const MS: f64 = 1e-6;

impl Bench for ServiceBench {
    fn pass(&mut self, traced: bool, ys: &mut Yardstick) -> Pass {
        let mut p = Pass::default();
        let (native_ns, native_cycles) = self.native_wave(ys);
        let wave = self.wave(false, ys);
        let jobs_per_wave = (spec::TENANTS as u64) * spec::JOBS_PER_TENANT;

        // Verdict gate: each tenant's merged sites against the serial
        // reference, the quarantine ledger against the lottery, every
        // job accounted for, and recover reproducing the digests.
        p.attempted = jobs_per_wave;
        for (t, v) in wave.verdicts.iter().enumerate() {
            let mut got = Sites::new();
            merge(&mut got, &v.sites);
            let ledger: BTreeSet<(usize, u64)> =
                v.quarantine.iter().map(|q| (t, q.job_index)).collect();
            let lottery: BTreeSet<(usize, u64)> =
                self.poison.iter().filter(|k| k.0 == t).copied().collect();
            if got != self.reference[t] || ledger != lottery {
                p.failed += spec::JOBS_PER_TENANT;
                p.failures.push(format!(
                    "{}: {} site(s) vs {} in the reference, {} quarantined vs {} poisoned",
                    v.tenant,
                    got.len(),
                    self.reference[t].len(),
                    ledger.len(),
                    lottery.len()
                ));
            }
        }
        let accounted = wave.report.jobs_run + wave.report.jobs_quarantined;
        if accounted != jobs_per_wave
            || wave.verdicts.len() != spec::TENANTS
            || !wave.recovered_same
        {
            p.failed = jobs_per_wave;
            p.failures.push(format!(
                "{accounted} of {jobs_per_wave} jobs accounted for, {} tenant(s), recover reproduced digests: {}",
                wave.verdicts.len(),
                wave.recovered_same
            ));
        }

        // Per job: attempts summed, and the accepted attempt's cycles.
        let mut job_ns: BTreeMap<(usize, u64), u64> = BTreeMap::new();
        let mut job_cycles: BTreeMap<(usize, u64), u64> = BTreeMap::new();
        for a in &wave.attempts {
            *job_ns.entry((a.tenant, a.job)).or_default() += a.ns;
            job_cycles.insert((a.tenant, a.job), a.kernel_cycles);
        }
        p.job_ms = job_ns.values().map(|&ns| ns as f64 * MS).collect();
        let sim_ratios: Vec<f64> = job_cycles
            .iter()
            .filter(|(k, _)| !self.poison.contains(k))
            .map(|(&(t, j), &c)| {
                c as f64 / native_cycles[t * spec::JOBS_PER_TENANT as usize + j as usize] as f64
            })
            .collect();

        p.jobs = accounted;
        p.wall_s = wave.wall_ns as f64 * 1e-9;
        p.native_wall_s = native_ns as f64 * 1e-9;

        let r = &wave.report;
        let sup = &r.supervisor;
        let mut det = iguard::IguardStats::default();
        let (mut sites, mut fires, mut busy, mut idle) = (0, sup.discarded_fault_fires, 0, 0);
        for v in &wave.verdicts {
            det.accumulate(&v.stats);
            sites += v.sites.len();
            fires += v.fault_stats.total();
            busy += v.busy_cycles;
            idle += v.idle_cycles;
        }
        p.exact.extend([
            ("sim_overhead_geomean_x", stats::geomean(&sim_ratios)),
            (
                "sim_makespan_cycles_per_job",
                r.makespan_cycles as f64 / r.jobs_run.max(1) as f64,
            ),
            (
                "gpu_sim.sim_cycles_native",
                native_cycles.iter().sum::<u64>() as f64,
            ),
            ("iguard.accesses", det.accesses as f64),
            ("iguard.coalesced_saved", det.coalesced_saved as f64),
            ("iguard.contended_accesses", det.contended_accesses as f64),
            ("iguard.contention_cycles", det.contention_cycles as f64),
            ("iguard.missed_checks", det.missed_checks as f64),
            ("iguard.sites", sites as f64),
            ("iguard.sim_cycles", job_cycles.values().sum::<u64>() as f64),
            ("iguard.uvm_cycles", det.uvm_cycles as f64),
            ("iguard.service.launches", r.launches as f64),
            ("iguard.service.front_end_cycles", r.front_end_cycles as f64),
            ("iguard.service.transport_sent", r.transport.sent as f64),
            ("gpu_sim.stream.busy_cycles", busy as f64),
            ("gpu_sim.stream.idle_cycles", idle as f64),
            ("iguard.supervise.attempts", sup.attempts as f64),
            ("iguard.supervise.retries", sup.retries as f64),
            ("iguard.supervise.recovered", sup.recovered as f64),
            ("iguard.supervise.quarantined", sup.quarantined as f64),
            ("iguard.supervise.panics_caught", sup.panics_caught as f64),
            (
                "iguard.supervise.perturbed_attempts",
                sup.perturbed_attempts as f64,
            ),
            (
                "iguard.supervise.useful_attempt_ratio",
                r.jobs_run as f64 / wave.attempts.len().max(1) as f64,
            ),
            ("faults.fires", fires as f64),
            ("iguard.store.bytes_per_gen", wave.bytes_per_gen as f64),
            ("iguard.store.generations", 1.0),
        ]);
        if !traced {
            return p;
        }

        let spanned = self.wave(true, ys);
        let exec_ns: u64 = wave.attempts.iter().map(|a| a.ns).sum();
        let retry_ns: u64 = wave
            .attempts
            .iter()
            .filter(|a| a.attempt > 0)
            .map(|a| a.ns)
            .sum();
        let gpu_new_ms: Vec<f64> = spanned
            .attempts
            .iter()
            .filter(|a| a.gpu_new_ns > 0)
            .map(|a| a.gpu_new_ns as f64 * MS)
            .collect();
        p.timed.extend([
            (
                "trace.overhead_x",
                spanned.wall_ns as f64 / wave.wall_ns as f64,
            ),
            (
                "workloads.build_ms",
                spanned.attempts.iter().map(|a| a.build_ns).sum::<u64>() as f64 * MS,
            ),
            ("gpu_sim.new_ms", stats::median(&gpu_new_ms)),
            ("gpu_sim.native_ms", native_ns as f64 * MS),
            ("iguard.service.exec_ms", exec_ns as f64 * MS),
            (
                "iguard.service.self_ms",
                (wave.run_ns as f64 - exec_ns as f64) * MS,
            ),
            ("iguard.supervise.retry_exec_ms", retry_ns as f64 * MS),
            ("iguard.store.save_ms", wave.save_ns as f64 * MS),
            ("iguard.store.recover_ms", wave.recover_ns as f64 * MS),
        ]);
        p
    }
}
