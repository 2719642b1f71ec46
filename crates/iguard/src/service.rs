//! Multi-tenant detection service (DESIGN.md §14).
//!
//! The paper's detector is always-on inside one GPU; the production shape
//! the ROADMAP asks for is a *fleet*: many tenants submitting launch jobs
//! on many CUDA streams against a long-lived front-end that returns
//! per-tenant race verdicts with latency/throughput accounting. This
//! module is that front-end.
//!
//! ## Architecture: two decoupled planes
//!
//! **Detection plane.** Each `(tenant, stream, payload)` job runs against
//! a *fresh* detector (an [`Iguard`](crate::detector::Iguard) under the
//! [`ShardedIguard`] name the frozen benchmark's job closure uses) whose
//! fault plane is reseeded from `(service seed, tenant name, per-tenant
//! job index)` — a pure function, so a job's verdict depends only on its
//! own identity, never on which other tenants' jobs ran before it, on
//! which stream it was queued, or on whether the service restarted in
//! between. (A persistent per-tenant detector would break exactly that:
//! its report channel's fault-draw counters are process state, lost on
//! restart.
//! Per-launch detector state is epoch-reset anyway, so the only thing
//! persistence would add is reporter dedup — which the idempotent
//! site-set union of [`merge_sites`] reproduces.) [`DetectorService::run_all`]
//! is one loop: tenants in name order, each tenant's jobs in submission
//! order, every accepted job's drained sites merged straight into its
//! tenant's keyed site map. Because per-job results are pure and
//! per-tenant merging is commutative (sums and keyed set unions), the
//! run order is not a determinism hazard: any order folds to the same
//! verdict bytes.
//!
//! **Latency plane.** Verdicts say nothing about time. Completion
//! latency under multi-tenant queueing comes from a separate
//! [`SliceSchedule`]: every executed job's kernel cycles are queued on
//! its global stream (sorted-tenant rank × streams-per-tenant + local
//! stream) and the single simulated device round-robins across streams
//! in `slice_cycles` quanta. Finish times — the per-tenant SLO
//! percentiles — are computed from per-tenant submission order alone, so
//! they are also interleaving-invariant. Stream assignment affects
//! *latency only*, never verdicts.
//!
//! ## Restart contract
//!
//! [`DetectorService::checkpoint_records`] serializes the verdict plane
//! (per-tenant job counts, merged race sites, the quarantine ledger) as
//! `seed/tenant/site/quar` records; [`DetectorService::from_records`]
//! skips already-done jobs and seeds the merge from them. Because job
//! seeds are restart-invariant, *verdicts* (and the
//! launches/timed-out/aborted counters) are byte-identical to an
//! uninterrupted run. Latency percentiles and detector cost aggregates
//! cover only jobs executed by the current incarnation and are
//! explicitly outside the byte-identity contract.
//!
//! This module knows only that record vocabulary. How records are held
//! on disk — header, CRC frames, `gen` record, `end` trailer, generation
//! files — is [`crate::store`]'s, whose typed
//! [`CheckpointStore::save`](crate::store::CheckpointStore::save) /
//! [`recover`](crate::store::CheckpointStore::recover) are the way a
//! service crosses a restart (DESIGN.md §15).
//!
//! ## Supervision
//!
//! [`DetectorService::run_all_supervised`] hands every job to the retry
//! ladder in [`crate::supervise`] (`catch_unwind` plus the simulator's
//! step budget, `Transient` → bounded deterministic retry, every retry a
//! fault-free clean room, `Poison` → per-tenant quarantine ledger) and
//! folds the ledger into the widened verdict digest.
//! Supervision off is byte-invisible: [`DetectorService::run_all`] runs
//! each job once, uncaught, and the digest's `quarantined 0` column is
//! emitted either way.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeMap;
use std::io;
use std::sync::Arc;

use faults::{fnv1a, splitmix64, FaultStats, FNV1A_BASIS};
use gpu_sim::stream::SliceSchedule;
use nvbit_sim::channel::ChannelStats;
use nvbit_sim::Instrumented;

use crate::checks::RaceKind;
use crate::config::IguardConfig;
use crate::detector::{Degradation, IguardStats};
use crate::report::{merge_sites, RaceSite};
use crate::shard::{ShardConfig, ShardedIguard};
use crate::store::record;
use crate::supervise::{
    self, Attempt, QuarantineEntry, QuarantineReason, Resolution, SupervisorConfig, SupervisorStats,
};

/// Service-level configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Root seed; every job's fault plane derives from it.
    pub seed: u64,
    /// Detector configuration template for every job (its `faults` field
    /// is reseeded per job; everything else is used as-is).
    pub base: IguardConfig,
    /// CUDA streams per tenant (clamped to at least 1).
    pub streams_per_tenant: usize,
    /// Device time-slice quantum for the latency plane.
    pub slice_cycles: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            seed: 42,
            base: IguardConfig::default(),
            streams_per_tenant: 2,
            slice_cycles: 50_000,
        }
    }
}

/// Identity and derived seed of one job, handed to the execution closure.
#[derive(Debug)]
pub struct JobCtx<'a, P> {
    /// Owning tenant.
    pub tenant: &'a str,
    /// Position in the tenant's submission order (the seed input).
    pub job_index: u64,
    /// Derived seed: drive the simulator (GPU config, chaos faults) from
    /// this so the job is a pure function of its identity.
    pub seed: u64,
    /// Supervised retry attempt (0 on the first try; always 0 when
    /// unsupervised). Feed it to [`supervise::attempt_faults`] so the
    /// exec-side fault plane follows the retry ladder.
    pub attempt: u32,
    /// The supervised run's retry budget (0 when unsupervised).
    pub max_retries: u32,
    /// The submitted payload.
    pub payload: &'a P,
}

/// What the execution closure reports back per job.
#[derive(Debug, Clone, Copy, Default)]
pub struct JobOutcome {
    /// Kernel launches completed.
    pub launches: u64,
    /// Simulated kernel cycles consumed (the latency-plane cost).
    pub kernel_cycles: u64,
    /// Whether the job hit the step budget.
    pub timed_out: bool,
    /// Launches aborted by injected kernel faults.
    pub aborted_launches: u64,
    /// Simulator-side injected-fault counters (kernel hang/abort, …).
    pub gpu_faults: FaultStats,
}

/// Latency percentiles over one tenant's executed jobs (cycles).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyStats {
    /// Median completion time.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Worst completion time.
    pub max: u64,
}

/// Nearest-rank percentile of an ascending-sorted slice (0 when empty).
#[must_use]
pub fn percentile(sorted: &[u64], pct: u32) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() as u64 * u64::from(pct)).div_ceil(100).max(1) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

impl LatencyStats {
    /// Computes percentiles from raw per-job latencies.
    #[must_use]
    pub fn from_latencies(latencies: &[u64]) -> Self {
        let mut sorted = latencies.to_vec();
        sorted.sort_unstable();
        LatencyStats {
            p50: percentile(&sorted, 50),
            p90: percentile(&sorted, 90),
            p99: percentile(&sorted, 99),
            max: sorted.last().copied().unwrap_or(0),
        }
    }
}

/// One tenant's aggregated result.
#[derive(Debug, Clone)]
pub struct TenantVerdict {
    /// Tenant name.
    pub tenant: String,
    /// Jobs accounted for (checkpointed + executed here).
    pub jobs: u64,
    /// Of `jobs`: executed by this service incarnation.
    pub jobs_run: u64,
    /// Kernel launches across all jobs.
    pub launches: u64,
    /// Jobs that hit their step budget.
    pub timed_out: u64,
    /// Launches aborted by injected kernel faults.
    pub aborted_launches: u64,
    /// Merged race sites — the byte-identity payload. Sorted by
    /// (kernel, pc), kinds sorted by [`RaceKind`].
    pub sites: Vec<RaceSite>,
    /// Detector counters summed over jobs run here.
    pub stats: IguardStats,
    /// Degradation summed over jobs run here (each job fully drained, so
    /// `fully_accounted` distributes over the sum).
    pub degradation: Degradation,
    /// Injected-fault counters (detector + simulator) over jobs run here.
    pub fault_stats: FaultStats,
    /// Latency percentiles over jobs run here (cycles).
    pub latency: LatencyStats,
    /// Kernel cycles this tenant consumed on the device.
    pub busy_cycles: u64,
    /// Cycles its streams waited on other tenants' slices.
    pub idle_cycles: u64,
    /// Jobs quarantined as poison (checkpointed + this incarnation).
    pub quarantined: u64,
    /// The quarantine ledger, sorted by job index.
    pub quarantine: Vec<QuarantineEntry>,
}

impl TenantVerdict {
    /// Canonical multi-line verdict text: one header line of counters,
    /// then one [`RaceSite::canonical_line`] per merged site. This is the
    /// byte string the determinism proptests compare across stream
    /// interleavings and restarts.
    #[must_use]
    pub fn digest(&self) -> String {
        let mut out = format!(
            "tenant {}\tjobs {}\tlaunches {}\ttimed_out {}\taborted {}\tquarantined {}\tsites {}\n",
            self.tenant,
            self.jobs,
            self.launches,
            self.timed_out,
            self.aborted_launches,
            self.quarantined,
            self.sites.len(),
        );
        for s in &self.sites {
            out.push_str(&s.canonical_line());
            out.push('\n');
        }
        for q in &self.quarantine {
            out.push_str(&format!(
                "quarantine\t{}\t{}\n",
                q.job_index,
                q.reason.name()
            ));
        }
        out
    }
}

/// Whole-run summary returned by [`DetectorService::run_all`].
#[derive(Debug, Clone, Default)]
pub struct ServiceReport {
    /// Jobs executed by this incarnation.
    pub jobs_run: u64,
    /// Jobs skipped because a checkpoint already covered them.
    pub jobs_skipped: u64,
    /// Kernel launches across executed jobs.
    pub launches: u64,
    /// Latency-plane makespan (cycles to drain every executed job).
    pub makespan_cycles: u64,
    /// Global stream count (tenants × streams per tenant).
    pub streams: usize,
    /// Always zero: sites merge in place, with no transport between
    /// planes. Kept only because the frozen benchmark reads it.
    pub transport: ChannelStats,
    /// Always zero, for the same reason as `transport`.
    pub front_end_cycles: u64,
    /// Jobs quarantined as poison by this run (supervised mode only).
    pub jobs_quarantined: u64,
    /// Supervisor accounting (all-zero when unsupervised).
    pub supervisor: SupervisorStats,
}

impl ServiceReport {
    /// Adds another run's summary into this one (`streams` is a shape,
    /// not a sum: the latest run's wins).
    pub fn accumulate(&mut self, other: &ServiceReport) {
        self.jobs_run += other.jobs_run;
        self.jobs_skipped += other.jobs_skipped;
        self.launches += other.launches;
        self.makespan_cycles += other.makespan_cycles;
        self.streams = other.streams;
        self.jobs_quarantined += other.jobs_quarantined;
        self.supervisor.accumulate(&other.supervisor);
    }
}

/// Service failure modes.
#[derive(Debug)]
pub enum ServiceError {
    /// Checkpoint records could not be parsed, or do not describe a
    /// state any run could have saved.
    Checkpoint(String),
    /// Checkpoint records are well-formed but belong to a different
    /// campaign seed — the store skips such a generation as stale and
    /// never resurrects it.
    CheckpointStaleSeed {
        /// The seed the records carry.
        checkpoint: u64,
        /// The seed this service is configured with.
        config: u64,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Checkpoint(msg) => write!(f, "service checkpoint: {msg}"),
            ServiceError::CheckpointStaleSeed { checkpoint, config } => write!(
                f,
                "service checkpoint-stale-seed: seed mismatch: checkpoint {checkpoint}, config {config}"
            ),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Derives a job's seed from its identity alone (FNV-1a over the tenant
/// name mixed with `splitmix64`), so verdicts survive any reordering or
/// restart.
#[must_use]
pub fn job_seed(service_seed: u64, tenant: &str, job_index: u64) -> u64 {
    let h = fnv1a(FNV1A_BASIS, tenant.as_bytes());
    splitmix64(
        service_seed ^ splitmix64(h) ^ splitmix64(job_index.wrapping_add(0x9e37_79b9_7f4a_7c15)),
    )
}

#[derive(Debug)]
struct TenantState<P> {
    /// Submitted jobs, in submission order: (local stream, payload).
    jobs: Vec<(usize, P)>,
    /// Leading submissions a previous incarnation already covered
    /// (accepted *or* quarantined — both are accounted, so both skip).
    skip: u64,
    /// Of the skipped prefix, how many were quarantined (restored from
    /// the checkpointed ledger).
    prior_quarantined: u64,
    /// Quarantine ledger: poisoned jobs by index (restored + new).
    quarantine: BTreeMap<u64, QuarantineEntry>,
    jobs_run: u64,
    launches: u64,
    timed_out: u64,
    aborted_launches: u64,
    sites: BTreeMap<(Arc<str>, usize), RaceSite>,
    stats: IguardStats,
    degradation: Degradation,
    fault_stats: FaultStats,
    /// (job_index, global stream, kernel cycles) for the latency plane.
    executed: Vec<(u64, usize, u64)>,
    latencies: Vec<u64>,
    busy_cycles: u64,
    idle_cycles: u64,
}

impl<P> TenantState<P> {
    fn new() -> Self {
        TenantState {
            jobs: Vec::new(),
            skip: 0,
            prior_quarantined: 0,
            quarantine: BTreeMap::new(),
            jobs_run: 0,
            launches: 0,
            timed_out: 0,
            aborted_launches: 0,
            sites: BTreeMap::new(),
            stats: IguardStats::default(),
            degradation: Degradation::default(),
            fault_stats: FaultStats::default(),
            executed: Vec::new(),
            latencies: Vec::new(),
            busy_cycles: 0,
            idle_cycles: 0,
        }
    }

    /// Folds one accepted attempt into the tenant's counters and merges
    /// its drained race sites into the tenant's verdict.
    fn accept(&mut self, det: &mut ShardedIguard, outcome: &JobOutcome) {
        // Drain before reading degradation so the channel invariant
        // (`sent == drained + dropped`) holds for this job's summand.
        merge_sites(&mut self.sites, det.race_sites());
        self.stats.accumulate(&det.stats());
        self.degradation.accumulate(&det.degradation());
        self.fault_stats.accumulate(&det.fault_stats());
        self.fault_stats.accumulate(&outcome.gpu_faults);
        self.launches += outcome.launches;
        self.timed_out += u64::from(outcome.timed_out);
        self.aborted_launches += outcome.aborted_launches;
        self.jobs_run += 1;
    }
}

/// The long-lived multi-tenant detection front-end (see module docs).
#[derive(Debug)]
pub struct DetectorService<P> {
    cfg: ServiceConfig,
    tenants: BTreeMap<String, TenantState<P>>,
    report: ServiceReport,
}

impl<P> DetectorService<P> {
    /// A fresh service.
    #[must_use]
    pub fn new(mut cfg: ServiceConfig) -> Self {
        cfg.streams_per_tenant = cfg.streams_per_tenant.max(1);
        cfg.slice_cycles = cfg.slice_cycles.max(1);
        DetectorService {
            cfg,
            tenants: BTreeMap::new(),
            report: ServiceReport::default(),
        }
    }

    /// Restores a service from the records of one checkpoint generation
    /// (what [`DetectorService::checkpoint_records`] wrote). Tenants
    /// listed there start with their verdicts pre-merged, their
    /// quarantine ledgers restored, and their first `jobs` submissions
    /// (accepted + quarantined) skipped.
    ///
    /// # Errors
    /// [`ServiceError::CheckpointStaleSeed`] when the records belong to a
    /// different service seed, [`ServiceError::Checkpoint`] when they do
    /// not parse or a `quar` entry lies outside its tenant's covered
    /// prefix (which a tenant with no `tenant` record has none of).
    pub fn from_records<S: AsRef<str>>(
        cfg: ServiceConfig,
        records: &[S],
    ) -> Result<Self, ServiceError> {
        let mut svc = DetectorService::new(cfg);
        for record in records {
            svc.apply_record(record.as_ref())?;
        }
        // Every restored ledger entry must belong to the covered prefix;
        // mark it prior so digests keep counting accepted jobs and
        // quarantined jobs separately.
        for (name, st) in &mut svc.tenants {
            if let Some(&job_index) = st.quarantine.keys().find(|&&j| j >= st.skip) {
                return Err(ServiceError::Checkpoint(format!(
                    "tenant {name}: quarantined job {job_index} is outside its {} covered job(s)",
                    st.skip
                )));
            }
            st.prior_quarantined = st.quarantine.len() as u64;
        }
        Ok(svc)
    }

    fn tenant_mut(&mut self, name: &str) -> &mut TenantState<P> {
        self.tenants
            .entry(name.to_string())
            .or_insert_with(TenantState::new)
    }

    fn apply_record(&mut self, line: &str) -> Result<(), ServiceError> {
        let bad = || ServiceError::Checkpoint(format!("malformed record: {line:?}"));
        let fields: Vec<&str> = line.split('\t').collect();
        match (fields[0], fields.len()) {
            ("seed", 2) => {
                let seed: u64 = fields[1].parse().map_err(|_| bad())?;
                if seed != self.cfg.seed {
                    return Err(ServiceError::CheckpointStaleSeed {
                        checkpoint: seed,
                        config: self.cfg.seed,
                    });
                }
            }
            ("tenant", 6) => {
                let parse = |s: &str| s.parse::<u64>().map_err(|_| bad());
                let st = self.tenant_mut(fields[1]);
                st.skip = parse(fields[2])?;
                st.launches = parse(fields[3])?;
                st.timed_out = parse(fields[4])?;
                st.aborted_launches = parse(fields[5])?;
            }
            ("site", 6) => {
                let site = RaceSite {
                    kernel: Arc::from(fields[2]),
                    pc: fields[3].parse().map_err(|_| bad())?,
                    kinds: fields[4]
                        .split(',')
                        .map(RaceKind::parse)
                        .collect::<Option<Vec<_>>>()
                        .ok_or_else(bad)?,
                    line: (fields[5] != "-").then(|| fields[5].to_string()),
                };
                merge_sites(&mut self.tenant_mut(fields[1]).sites, vec![site]);
            }
            ("quar", 5) => {
                let job_index: u64 = fields[2].parse().map_err(|_| bad())?;
                let reason = QuarantineReason::parse(fields[3]).ok_or_else(bad)?;
                let attempts: u32 = fields[4].parse().map_err(|_| bad())?;
                self.tenant_mut(fields[1])
                    .quarantine
                    .entry(job_index)
                    .or_insert(QuarantineEntry {
                        job_index,
                        reason,
                        attempts,
                        detail: String::new(),
                    });
            }
            _ => return Err(bad()),
        }
        Ok(())
    }

    /// The service configuration.
    #[must_use]
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Enqueues a job for `tenant` on its `stream` (wrapped into
    /// `streams_per_tenant`). Jobs run on the next [`run_all`].
    ///
    /// [`run_all`]: DetectorService::run_all
    pub fn submit(&mut self, tenant: &str, stream: usize, payload: P) {
        let stream = stream % self.cfg.streams_per_tenant;
        self.tenant_mut(tenant).jobs.push((stream, payload));
    }

    /// Runs every queued job to completion (`cudaDeviceSynchronize` over
    /// the whole fleet) — tenants in name order, each tenant's jobs in
    /// submission order — then plays the latency plane. `exec` is called
    /// once per non-skipped job with the job's identity/seed and its
    /// fresh detector; it drives the simulation and reports the
    /// outcome. Results accumulate into per-tenant verdicts.
    ///
    /// # Errors
    /// None: every job's detector is built infallibly, so the result is
    /// always `Ok`. The `Result` is kept only because the frozen
    /// benchmark calls `.expect` on it.
    pub fn run_all<F>(&mut self, mut exec: F) -> Result<ServiceReport, ServiceError>
    where
        F: FnMut(&JobCtx<'_, P>, &mut Instrumented<ShardedIguard>) -> JobOutcome,
    {
        Ok(self.run_inner(None, &mut exec))
    }

    /// [`run_all`] under supervision: every attempt runs inside
    /// `catch_unwind`, failures are classified (`Transient` → retry
    /// down the deterministic ladder of [`supervise::attempt_faults`],
    /// `Poison` → quarantine ledger), and an attempt that trips the
    /// simulator's step budget is a hang. Accepted verdict bytes are identical
    /// to an unsupervised run whose accepted attempt fired no faults —
    /// which is how the chaos soak proves non-quarantined digests
    /// byte-identical to the fault-free run.
    ///
    /// # Errors
    /// None: the result is always `Ok`, as for [`run_all`].
    ///
    /// [`run_all`]: DetectorService::run_all
    pub fn run_all_supervised<F>(
        &mut self,
        sup: &SupervisorConfig,
        mut exec: F,
    ) -> Result<ServiceReport, ServiceError>
    where
        F: FnMut(&JobCtx<'_, P>, &mut Instrumented<ShardedIguard>) -> JobOutcome,
    {
        Ok(self.run_inner(Some(sup), &mut exec))
    }

    fn run_inner<F>(&mut self, sup: Option<&SupervisorConfig>, exec: &mut F) -> ServiceReport
    where
        F: FnMut(&JobCtx<'_, P>, &mut Instrumented<ShardedIguard>) -> JobOutcome,
    {
        let spt = self.cfg.streams_per_tenant;
        let names: Vec<String> = self.tenants.keys().cloned().collect();
        let mut report = ServiceReport {
            streams: (names.len() * spt).max(1),
            ..ServiceReport::default()
        };
        let max_retries = sup.map_or(0, |s| s.max_retries);
        let cfg = &self.cfg;
        for (rank, (name, st)) in self.tenants.iter_mut().enumerate() {
            let jobs = std::mem::take(&mut st.jobs);
            for (job_index, (local_stream, payload)) in jobs.into_iter().enumerate() {
                let job_index = job_index as u64;
                if job_index < st.skip || st.quarantine.contains_key(&job_index) {
                    report.jobs_skipped += 1;
                    continue;
                }
                let seed = job_seed(cfg.seed, name, job_index);
                let run_attempt = |n: u32| -> Attempt<_> {
                    let mut det_cfg = cfg.base.clone();
                    det_cfg.faults =
                        supervise::attempt_faults(&cfg.base.faults, seed, n, max_retries);
                    let mut tool = Instrumented::new(ShardedIguard::new(det_cfg, ShardConfig));
                    let ctx = JobCtx {
                        tenant: name,
                        job_index,
                        seed,
                        attempt: n,
                        max_retries,
                        payload: &payload,
                    };
                    let (outcome, panic) = match supervise::guard(sup, || exec(&ctx, &mut tool)) {
                        Ok(outcome) => (outcome, None),
                        Err(msg) => (JobOutcome::default(), Some(msg)),
                    };
                    Attempt {
                        panic,
                        fires: tool.tool().fault_stats().total() + outcome.gpu_faults.total(),
                        timed_out: outcome.timed_out,
                        product: (tool, outcome),
                    }
                };
                match supervise::run_job(sup, seed, &mut report.supervisor, run_attempt) {
                    Resolution::Quarantined {
                        reason,
                        attempts,
                        detail,
                    } => {
                        report.jobs_quarantined += 1;
                        st.quarantine.insert(
                            job_index,
                            QuarantineEntry {
                                job_index,
                                reason,
                                attempts,
                                detail,
                            },
                        );
                    }
                    Resolution::Accepted {
                        product: (mut tool, outcome),
                        backoff_cycles,
                    } => {
                        let cycles = outcome.kernel_cycles + backoff_cycles;
                        st.executed
                            .push((job_index, rank * spt + local_stream, cycles));
                        st.accept(tool.tool_mut(), &outcome);
                        report.jobs_run += 1;
                        report.launches += outcome.launches;
                    }
                }
            }
        }
        self.latency(&names, &mut report);
        self.report.accumulate(&report);
        report
    }

    /// The latency plane: executed jobs queue on their global stream in
    /// per-tenant submission order; one device round-robins across
    /// streams in slice quanta.
    fn latency(&mut self, names: &[String], report: &mut ServiceReport) {
        let spt = self.cfg.streams_per_tenant;
        let mut sched = SliceSchedule::new(report.streams, self.cfg.slice_cycles);
        let mut item_owner: Vec<usize> = Vec::new();
        for (rank, name) in names.iter().enumerate() {
            let Some(st) = self.tenants.get_mut(name) else {
                continue;
            };
            st.executed.sort_unstable_by_key(|&(idx, _, _)| idx);
            for (_, stream, cycles) in st.executed.drain(..) {
                sched.push(stream, cycles);
                item_owner.push(rank);
            }
        }
        let slice = sched.run();
        for (item, &rank) in item_owner.iter().enumerate() {
            if let Some(st) = self.tenants.get_mut(&names[rank]) {
                st.latencies.push(slice.finish[item]);
            }
        }
        for (rank, name) in names.iter().enumerate() {
            let Some(st) = self.tenants.get_mut(name) else {
                continue;
            };
            let lanes = &slice.streams[rank * spt..(rank + 1) * spt];
            st.busy_cycles = lanes.iter().map(|lane| lane.busy).sum();
            st.idle_cycles = lanes.iter().map(|lane| lane.idle).sum();
        }
        report.makespan_cycles = slice.makespan;
    }

    /// Cumulative summary across every `run_all` of this incarnation.
    #[must_use]
    pub fn report(&self) -> &ServiceReport {
        &self.report
    }

    /// Per-tenant verdicts, sorted by tenant name.
    #[must_use]
    pub fn verdicts(&self) -> Vec<TenantVerdict> {
        self.tenants
            .iter()
            .map(|(name, st)| TenantVerdict {
                tenant: name.clone(),
                // `skip` counts the covered prefix (accepted + quarantined
                // from prior incarnations); subtract the restored ledger
                // so `jobs` stays "jobs whose outcome reached a verdict".
                jobs: st.skip - st.prior_quarantined + st.jobs_run,
                jobs_run: st.jobs_run,
                launches: st.launches,
                timed_out: st.timed_out,
                aborted_launches: st.aborted_launches,
                sites: st.sites.values().cloned().collect(),
                stats: st.stats,
                degradation: st.degradation,
                fault_stats: st.fault_stats,
                latency: LatencyStats::from_latencies(&st.latencies),
                busy_cycles: st.busy_cycles,
                idle_cycles: st.idle_cycles,
                quarantined: st.quarantine.len() as u64,
                quarantine: st.quarantine.values().cloned().collect(),
            })
            .collect()
    }

    /// Covered-prefix length for one tenant: accepted jobs plus
    /// quarantined jobs, i.e. how many leading submissions a resumed
    /// incarnation must not re-run.
    fn covered(st: &TenantState<P>) -> u64 {
        let new_quarantined = st.quarantine.len() as u64 - st.prior_quarantined;
        st.skip + st.jobs_run + new_quarantined
    }

    /// Serializes the verdict plane (see module docs for what survives a
    /// restart) as checkpoint records: one `seed`, then per tenant (sorted)
    /// a `tenant` record, its sorted `site`s and its `quar` ledger.
    ///
    /// # Errors
    /// [`io::ErrorKind::InvalidInput`] when a tenant name, kernel name or
    /// source line contains a tab (the record could never be read back).
    pub fn checkpoint_records(&self) -> io::Result<Vec<String>> {
        let mut records = vec![format!("seed\t{}", self.cfg.seed)];
        for (name, st) in &self.tenants {
            records.push(record(
                6,
                format!(
                    "tenant\t{name}\t{}\t{}\t{}\t{}",
                    Self::covered(st),
                    st.launches,
                    st.timed_out,
                    st.aborted_launches,
                ),
            )?);
            for site in st.sites.values() {
                records.push(record(
                    6,
                    format!("site\t{name}\t{}", site.canonical_line()),
                )?);
            }
            for entry in st.quarantine.values() {
                records.push(record(
                    5,
                    format!(
                        "quar\t{name}\t{}\t{}\t{}",
                        entry.job_index,
                        entry.reason.name(),
                        entry.attempts,
                    ),
                )?);
            }
        }
        Ok(records)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn job_seed_depends_only_on_identity() {
        let a = job_seed(42, "acme", 3);
        assert_eq!(a, job_seed(42, "acme", 3));
        assert_ne!(a, job_seed(42, "acme", 4));
        assert_ne!(a, job_seed(42, "zeta", 3));
        assert_ne!(a, job_seed(43, "acme", 3));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100];
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 90), 90);
        assert_eq!(percentile(&v, 99), 100);
        assert_eq!(percentile(&v, 100), 100);
        assert_eq!(percentile(&[], 50), 0);
        assert_eq!(percentile(&[7], 99), 7);
    }

    /// A synthetic exec that records calls and fabricates deterministic
    /// outcomes from the job seed — no simulator needed.
    fn fake_exec(
        calls: &mut Vec<(String, u64, u64)>,
    ) -> impl FnMut(&JobCtx<'_, u64>, &mut Instrumented<ShardedIguard>) -> JobOutcome + '_ {
        move |ctx, tool| {
            calls.push((ctx.tenant.to_string(), ctx.job_index, ctx.seed));
            let _ = tool.tool(); // detector exists and is fresh
            JobOutcome {
                launches: 1 + ctx.payload % 3,
                kernel_cycles: 1_000 + ctx.seed % 10_000,
                timed_out: false,
                aborted_launches: 0,
                gpu_faults: FaultStats::default(),
            }
        }
    }

    #[test]
    fn jobs_run_in_tenant_name_order_then_submission_order() {
        let mut svc: DetectorService<u64> = DetectorService::new(ServiceConfig::default());
        for i in 0..3 {
            svc.submit("zeta", i as usize, i);
            svc.submit("acme", i as usize, i);
        }
        let mut calls = Vec::new();
        let report = svc.run_all(fake_exec(&mut calls)).unwrap();
        assert_eq!(report.jobs_run, 6);
        assert_eq!(report.streams, 4);
        // Stream assignment reorders nothing: each tenant runs whole,
        // in name order, its jobs in the order they were submitted.
        let order: Vec<(&str, u64)> = calls.iter().map(|(t, i, _)| (t.as_str(), *i)).collect();
        assert_eq!(
            order,
            vec![
                ("acme", 0),
                ("acme", 1),
                ("acme", 2),
                ("zeta", 0),
                ("zeta", 1),
                ("zeta", 2)
            ]
        );
    }

    #[test]
    fn verdicts_and_latencies_are_interleaving_invariant() {
        let run = |interleaved: bool| {
            let mut svc: DetectorService<u64> = DetectorService::new(ServiceConfig::default());
            if interleaved {
                for i in 0..4 {
                    svc.submit("acme", i as usize, i);
                    svc.submit("zeta", i as usize, i + 100);
                }
            } else {
                for i in 0..4 {
                    svc.submit("zeta", i as usize, i + 100);
                }
                for i in 0..4 {
                    svc.submit("acme", i as usize, i);
                }
            }
            let mut calls = Vec::new();
            svc.run_all(fake_exec(&mut calls)).unwrap();
            svc.verdicts()
                .iter()
                .map(|v| (v.digest(), v.latency))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn from_records_rejects_garbage_and_seed_mismatch() {
        let resume = |records: &[&str]| {
            DetectorService::<u64>::from_records(ServiceConfig::default(), records).unwrap_err()
        };
        assert!(matches!(resume(&["nonsense"]), ServiceError::Checkpoint(_)));
        let err = resume(&["seed\t7"]);
        assert!(matches!(
            err,
            ServiceError::CheckpointStaleSeed {
                checkpoint: 7,
                config: 42
            }
        ));
        assert!(err.to_string().contains("seed mismatch"));
        let err = resume(&["seed\t42", "tenant\tacme\tnot-a-number\t0\t0\t0"]);
        assert!(err.to_string().contains("malformed"));
    }

    #[test]
    fn from_records_rejects_quarantine_outside_the_covered_prefix() {
        let resume = |records: &[&str]| {
            DetectorService::<u64>::from_records(ServiceConfig::default(), records)
        };
        // Past the covered count, at it, and for a tenant with no
        // `tenant` record (nothing covered).
        for records in [
            &[
                "seed\t42",
                "tenant\tacme\t0\t0\t0\t0",
                "quar\tacme\t3\tpanic\t3",
            ][..],
            &[
                "seed\t42",
                "tenant\tacme\t3\t0\t0\t0",
                "quar\tacme\t3\tpanic\t3",
            ],
            &["seed\t42", "quar\tacme\t0\thang\t2"],
        ] {
            let err = resume(records).unwrap_err();
            assert!(matches!(err, ServiceError::Checkpoint(_)), "{records:?}");
            assert!(err.to_string().contains("outside"), "{err}");
        }
        // Inside the prefix, even ahead of its `tenant` record.
        let svc = resume(&[
            "seed\t42",
            "quar\tacme\t2\tpanic\t3",
            "tenant\tacme\t3\t0\t0\t0",
        ])
        .unwrap();
        let acme = &svc.verdicts()[0];
        assert_eq!((acme.jobs, acme.quarantined), (2, 1));
    }

    #[test]
    fn single_tenant_zero_stream_config_degenerates_to_serial() {
        // streams_per_tenant clamps to 1; jobs run in plain submission
        // order, exactly like a loop over launches.
        let mut svc: DetectorService<u64> = DetectorService::new(ServiceConfig {
            streams_per_tenant: 0,
            ..ServiceConfig::default()
        });
        for i in 0..4 {
            svc.submit("only", 9, i); // stream 9 wraps to 0
        }
        let mut calls = Vec::new();
        let report = svc.run_all(fake_exec(&mut calls)).unwrap();
        assert_eq!(report.streams, 1);
        let idx: Vec<u64> = calls.iter().map(|&(_, i, _)| i).collect();
        assert_eq!(idx, vec![0, 1, 2, 3]);
        // One stream, one tenant: no cross-tenant queueing, so idle == 0.
        let v = &svc.verdicts()[0];
        assert_eq!(v.idle_cycles, 0);
        assert_eq!(v.busy_cycles, report.makespan_cycles);
    }

    #[test]
    fn latency_percentiles_are_monotone() {
        let mut svc: DetectorService<u64> = DetectorService::new(ServiceConfig::default());
        for t in ["a", "b", "c"] {
            for i in 0..5 {
                svc.submit(t, i as usize, i * 7);
            }
        }
        let mut calls = Vec::new();
        svc.run_all(fake_exec(&mut calls)).unwrap();
        for v in svc.verdicts() {
            assert!(v.latency.p50 <= v.latency.p90);
            assert!(v.latency.p90 <= v.latency.p99);
            assert!(v.latency.p99 <= v.latency.max);
            assert!(v.latency.max <= svc.report().makespan_cycles);
        }
    }

    fn digest_all(svc: &DetectorService<u64>) -> String {
        svc.verdicts().iter().map(TenantVerdict::digest).collect()
    }

    fn submit_two_tenants(svc: &mut DetectorService<u64>, jobs: u64) {
        for i in 0..jobs {
            svc.submit("acme", 0, i);
            svc.submit("zeta", 0, i);
        }
    }

    #[test]
    fn supervision_with_clean_jobs_is_byte_invisible() {
        let mut plain: DetectorService<u64> = DetectorService::new(ServiceConfig::default());
        let mut sup: DetectorService<u64> = DetectorService::new(ServiceConfig::default());
        submit_two_tenants(&mut plain, 4);
        submit_two_tenants(&mut sup, 4);
        let mut calls = Vec::new();
        plain.run_all(fake_exec(&mut calls)).unwrap();
        let mut calls2 = Vec::new();
        let report = sup
            .run_all_supervised(&SupervisorConfig::default(), fake_exec(&mut calls2))
            .unwrap();
        assert_eq!(calls, calls2);
        assert_eq!(digest_all(&plain), digest_all(&sup));
        assert_eq!(
            plain.checkpoint_records().unwrap(),
            sup.checkpoint_records().unwrap()
        );
        assert_eq!(report.supervisor.accepted_clean, 8);
        assert_eq!(report.supervisor.attempts, 8);
        assert_eq!(report.jobs_quarantined, 0);
    }

    #[test]
    fn supervised_panic_is_quarantined_and_others_survive() {
        let sup_cfg = SupervisorConfig { max_retries: 2 };
        let mut svc: DetectorService<u64> = DetectorService::new(ServiceConfig::default());
        submit_two_tenants(&mut svc, 3);
        let report = svc
            .run_all_supervised(&sup_cfg, |ctx, tool| {
                if ctx.tenant == "acme" && ctx.job_index == 1 {
                    panic!("poison job: {}#{}", ctx.tenant, ctx.job_index);
                }
                fake_exec(&mut Vec::new())(ctx, tool)
            })
            .unwrap();
        assert_eq!(report.jobs_run, 5);
        assert_eq!(report.jobs_quarantined, 1);
        assert_eq!(report.supervisor.panics_caught, 3); // initial + 2 retries
        assert_eq!(report.supervisor.quarantined, 1);
        let acme = &svc.verdicts()[0];
        assert_eq!(acme.tenant, "acme");
        assert_eq!(acme.jobs, 2);
        assert_eq!(acme.quarantined, 1);
        let entry = &acme.quarantine[0];
        assert_eq!(entry.job_index, 1);
        assert_eq!(entry.reason, QuarantineReason::Panic);
        assert_eq!(entry.attempts, sup_cfg.max_retries + 1);
        assert!(entry.detail.contains("poison job"));
        assert!(acme.digest().contains("quarantine\t1\tpanic"));
    }

    #[test]
    fn transient_panic_heals_on_retry() {
        let mut svc: DetectorService<u64> = DetectorService::new(ServiceConfig::default());
        submit_two_tenants(&mut svc, 3);
        let mut calls = Vec::new();
        let report = svc
            .run_all_supervised(&SupervisorConfig::default(), |ctx, tool| {
                if ctx.tenant == "zeta" && ctx.job_index == 2 && ctx.attempt == 0 {
                    panic!("flaky once");
                }
                fake_exec(&mut calls)(ctx, tool)
            })
            .unwrap();
        assert_eq!(report.jobs_run, 6);
        assert_eq!(report.jobs_quarantined, 0);
        assert_eq!(report.supervisor.panics_caught, 1);
        assert_eq!(report.supervisor.retries, 1);
        assert_eq!(report.supervisor.recovered, 1);
        assert!(report.supervisor.backoff_cycles > 0);

        // Verdict bytes match a never-flaky run: the retry is invisible
        // to the digest (backoff shows up only in the latency plane).
        let mut clean: DetectorService<u64> = DetectorService::new(ServiceConfig::default());
        submit_two_tenants(&mut clean, 3);
        clean.run_all(fake_exec(&mut Vec::new())).unwrap();
        assert_eq!(digest_all(&clean), digest_all(&svc));
    }

    #[test]
    fn step_budget_hangs_are_quarantined() {
        let sup_cfg = SupervisorConfig { max_retries: 1 };
        let mut svc: DetectorService<u64> = DetectorService::new(ServiceConfig::default());
        for i in 0..3 {
            svc.submit("acme", 0, i);
        }
        let report = svc
            .run_all_supervised(&sup_cfg, |ctx, tool| {
                let mut out = fake_exec(&mut Vec::new())(ctx, tool);
                out.timed_out = ctx.job_index == 0;
                out
            })
            .unwrap();
        assert_eq!(report.supervisor.hangs_caught, 2); // initial + 1 retry
        assert_eq!(report.jobs_quarantined, 1);
        let v = &svc.verdicts()[0];
        assert_eq!(v.quarantine[0].reason, QuarantineReason::Hang);
        assert_eq!(
            v.quarantine[0].detail,
            "hang: simulator step budget tripped"
        );
    }

    #[test]
    fn checkpoint_records_roundtrip_ledger_and_skip_quarantined() {
        let mut svc: DetectorService<u64> = DetectorService::new(ServiceConfig::default());
        submit_two_tenants(&mut svc, 3);
        svc.run_all_supervised(&SupervisorConfig::default(), |ctx, tool| {
            if ctx.tenant == "acme" && ctx.job_index == 1 {
                panic!("poison job");
            }
            fake_exec(&mut Vec::new())(ctx, tool)
        })
        .unwrap();
        let ckpt = svc.checkpoint_records().unwrap();
        assert_eq!(ckpt[0], "seed\t42");
        assert!(ckpt.contains(&"quar\tacme\t1\tpanic\t3".to_string()));

        let mut resumed: DetectorService<u64> =
            DetectorService::from_records(ServiceConfig::default(), &ckpt).unwrap();
        assert_eq!(digest_all(&svc), digest_all(&resumed));
        // Resubmitting the same workload re-runs nothing: accepted and
        // quarantined jobs are both covered.
        submit_two_tenants(&mut resumed, 3);
        let report = resumed
            .run_all_supervised(&SupervisorConfig::default(), fake_exec(&mut Vec::new()))
            .unwrap();
        assert_eq!(report.jobs_run, 0);
        assert_eq!(report.jobs_skipped, 6);
        assert_eq!(report.jobs_quarantined, 0);
        assert_eq!(digest_all(&svc), digest_all(&resumed));
        assert_eq!(resumed.checkpoint_records().unwrap(), ckpt);
    }

    #[test]
    fn service_error_display_names_its_kind() {
        let stale = ServiceError::CheckpointStaleSeed {
            checkpoint: 7,
            config: 42,
        };
        // Display names the kind, so logs can be grepped back to it.
        for (err, token) in [
            (ServiceError::Checkpoint("x".into()), "service checkpoint:"),
            (stale, "service checkpoint-stale-seed:"),
        ] {
            let shown = err.to_string();
            assert!(shown.starts_with(token), "{shown} vs {token}");
        }
    }
}
