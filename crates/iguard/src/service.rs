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
//! a *fresh* [`ShardedIguard`] whose fault plane is reseeded from
//! `(service seed, tenant name, per-tenant job index)` — a pure function,
//! so a job's verdict depends only on its own identity, never on which
//! other tenants' jobs ran before it, on which stream it was queued, on
//! the shard count, or on whether the service restarted in between. (A
//! persistent per-tenant detector would break exactly that: its report
//! channel's fault-draw counters are process state, lost on restart.
//! Per-launch detector state is epoch-reset anyway, so the only thing
//! persistence would add is reporter dedup — which the idempotent
//! site-set union of [`merge_sites`] reproduces.) Jobs drain through a
//! [`StreamSet`] in round-robin cross-stream interleave; because per-job
//! results are pure and per-tenant merging is commutative (sums and
//! keyed set unions), the interleave is free concurrency, not a
//! determinism hazard. Drained sites ship to the verdict plane through a
//! per-stream [`ChannelBank`] (concurrent streams must not serialize on
//! one ring buffer), whose stream-major drain order is likewise absorbed
//! by the order-independent merge.
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
//! [`DetectorService::checkpoint`] serializes the verdict plane (per-
//! tenant job counts and merged race sites); [`DetectorService::resume`]
//! skips already-done jobs and seeds the merge from the checkpoint.
//! Because job seeds are restart-invariant, *verdicts* (and the
//! launches/timed-out/aborted counters) are byte-identical to an
//! uninterrupted run. Latency percentiles and detector cost aggregates
//! cover only jobs executed by the current incarnation and are
//! explicitly outside the byte-identity contract.
//!
//! Two checkpoint formats coexist (DESIGN.md §15): the legacy v1 text
//! ([`CHECKPOINT_HEADER`], plain records, no integrity protection) and
//! the crash-consistent v2 ([`CHECKPOINT_V2_HEADER`], CRC-framed records
//! with an `end` trailer, carried by the generation-numbered
//! [`crate::store::CheckpointStore`]). [`DetectorService::resume`]
//! accepts both — v1 is the compat shim; v2 additionally restores the
//! quarantine ledger.
//!
//! ## Supervision
//!
//! [`DetectorService::run_all_supervised`] wraps every job attempt in
//! `catch_unwind` plus a cycle-budget watchdog, classifies failures via
//! the typed taxonomy in [`crate::supervise`] (`Transient` → bounded
//! deterministic retry whose final attempt is a fault-free clean room,
//! `Poison` → per-tenant quarantine ledger), and folds the ledger into
//! the widened verdict digest. Supervision off is byte-invisible:
//! [`DetectorService::run_all`] takes the exact code path it always
//! did, and the digest's `quarantined 0` column is emitted either way.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use faults::{splitmix64, FaultStats};
use gpu_sim::stream::{SliceSchedule, StreamError, StreamSet};
use gpu_sim::timing::{Clock, CostCategory};
use nvbit_sim::channel::{ChannelBank, ChannelError, ChannelStats};
use nvbit_sim::Instrumented;

use crate::checks::RaceKind;
use crate::config::IguardConfig;
use crate::detector::{Degradation, IguardStats};
use crate::error::IguardError;
use crate::report::{merge_sites, RaceSite};
use crate::shard::{ShardConfig, ShardedIguard};
use crate::store::{frame_record, unframe_record};
use crate::supervise::{
    self, FailureClass, JobFailure, QuarantineEntry, QuarantineReason, SupervisorConfig,
    SupervisorStats,
};

/// Service-level configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Root seed; every job's fault plane derives from it.
    pub seed: u64,
    /// Detector configuration template for every job (its `faults` field
    /// is reseeded per job; everything else is used as-is).
    pub base: IguardConfig,
    /// Shard shape for every job's detector.
    pub shard: ShardConfig,
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
            shard: ShardConfig::default(),
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
    /// Tenant-local stream the job was submitted on.
    pub stream: usize,
    /// Global stream index (latency-plane lane).
    pub global_stream: usize,
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
    /// interleavings, shard counts, and restarts.
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
            out.push_str(&format!("quarantine\t{}\t{}\n", q.job_index, q.reason.name()));
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
    /// Verdict-transport accounting (per-stream channel bank; lossless,
    /// so `sent == drained` always).
    pub transport: ChannelStats,
    /// Front-end cycles charged shipping verdicts between planes.
    pub front_end_cycles: u64,
    /// Jobs quarantined as poison by this run (supervised mode only).
    pub jobs_quarantined: u64,
    /// Supervisor accounting (all-zero when unsupervised).
    pub supervisor: SupervisorStats,
}

/// Service failure modes.
#[derive(Debug)]
pub enum ServiceError {
    /// A job's detector could not be constructed.
    Detector(IguardError),
    /// The stream plane deadlocked (cyclic event waits).
    Stream(StreamError),
    /// The verdict transport could not be constructed.
    Channel(ChannelError),
    /// A checkpoint could not be parsed or does not match the config.
    Checkpoint(String),
    /// A v2 checkpoint failed integrity verification (torn body, CRC
    /// mismatch, trailer missing or wrong) — the store skips such a
    /// generation and falls back.
    CheckpointCorrupt(String),
    /// A job was quarantined as poison (surfaced by
    /// [`DetectorService::assert_no_quarantine`]).
    Quarantined {
        /// Owning tenant.
        tenant: String,
        /// The poisoned job's index.
        job_index: u64,
        /// Why it was poisoned.
        reason: QuarantineReason,
    },
}

impl ServiceError {
    /// Every variant's stable kind token, in declaration order.
    pub const KINDS: [&'static str; 6] = [
        "detector",
        "streams",
        "transport",
        "checkpoint",
        "checkpoint-corrupt",
        "quarantined",
    ];

    /// Stable machine-readable kind token (the word after `service` in
    /// the Display form — pinned by the Display round-trip test).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            ServiceError::Detector(_) => "detector",
            ServiceError::Stream(_) => "streams",
            ServiceError::Channel(_) => "transport",
            ServiceError::Checkpoint(_) => "checkpoint",
            ServiceError::CheckpointCorrupt(_) => "checkpoint-corrupt",
            ServiceError::Quarantined { .. } => "quarantined",
        }
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Detector(e) => write!(f, "service detector: {e}"),
            ServiceError::Stream(e) => write!(f, "service streams: {e}"),
            ServiceError::Channel(e) => write!(f, "service transport: {e}"),
            ServiceError::Checkpoint(msg) => write!(f, "service checkpoint: {msg}"),
            ServiceError::CheckpointCorrupt(msg) => {
                write!(f, "service checkpoint-corrupt: {msg}")
            }
            ServiceError::Quarantined {
                tenant,
                job_index,
                reason,
            } => write!(
                f,
                "service quarantined: tenant {tenant} job {job_index} ({reason})"
            ),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<IguardError> for ServiceError {
    fn from(e: IguardError) -> Self {
        ServiceError::Detector(e)
    }
}

impl From<StreamError> for ServiceError {
    fn from(e: StreamError) -> Self {
        ServiceError::Stream(e)
    }
}

impl From<ChannelError> for ServiceError {
    fn from(e: ChannelError) -> Self {
        ServiceError::Channel(e)
    }
}

/// Derives a job's seed from its identity alone (FNV-1a over the tenant
/// name mixed with `splitmix64`), so verdicts survive any reordering or
/// restart.
#[must_use]
pub fn job_seed(service_seed: u64, tenant: &str, job_index: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in tenant.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    splitmix64(service_seed ^ splitmix64(h) ^ splitmix64(job_index.wrapping_add(0x9e37_79b9_7f4a_7c15)))
}

/// Checkpoint header line (versioned).
pub const CHECKPOINT_HEADER: &str = "# iguard detector-service checkpoint v1";

/// Header line of the crash-consistent v2 checkpoint format: every
/// subsequent line is a CRC-framed record (see [`frame_record`]), the
/// last being an `end` trailer carrying the record count.
pub const CHECKPOINT_V2_HEADER: &str = "# iguard detector-service checkpoint v2";

#[derive(Debug)]
struct TenantState<P> {
    /// Submitted jobs, in submission order: (local stream, payload).
    jobs: Vec<(usize, P)>,
    /// Leading submissions a previous incarnation already covered
    /// (accepted *or* quarantined — both are accounted, so both skip).
    skip: u64,
    /// Of the skipped prefix, how many were quarantined (restored from
    /// the v2 ledger; v1 checkpoints carry no ledger, so 0).
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
}

/// Job as it travels the stream plane.
struct QueuedJob<P> {
    tenant_rank: usize,
    local_stream: usize,
    job_index: u64,
    payload: P,
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

    /// Restores a service from checkpoint text — either the legacy v1
    /// format (the compat shim: no integrity frames, no quarantine
    /// ledger) or the crash-consistent v2 format (CRC-framed records
    /// with an `end` trailer; any frame violation is
    /// [`ServiceError::CheckpointCorrupt`]). Tenants listed there start
    /// with their verdicts pre-merged and their first `jobs`
    /// submissions (accepted + quarantined) skipped.
    pub fn resume(cfg: ServiceConfig, checkpoint: &str) -> Result<Self, ServiceError> {
        match checkpoint.lines().next() {
            Some(h) if h == CHECKPOINT_HEADER => Self::resume_v1(cfg, checkpoint),
            Some(h) if h == CHECKPOINT_V2_HEADER => Self::resume_v2(cfg, checkpoint),
            other => Err(ServiceError::Checkpoint(format!(
                "bad header: {other:?} (expected {CHECKPOINT_HEADER:?} or {CHECKPOINT_V2_HEADER:?})"
            ))),
        }
    }

    fn resume_v1(cfg: ServiceConfig, checkpoint: &str) -> Result<Self, ServiceError> {
        let mut svc = DetectorService::new(cfg);
        for line in checkpoint.lines().skip(1) {
            if line.is_empty() {
                continue;
            }
            svc.apply_checkpoint_record(line, false)?;
        }
        svc.seal_resumed_ledgers();
        Ok(svc)
    }

    fn resume_v2(cfg: ServiceConfig, checkpoint: &str) -> Result<Self, ServiceError> {
        let mut svc = DetectorService::new(cfg);
        let mut records: Vec<&str> = Vec::new();
        let mut end_count: Option<u64> = None;
        for line in checkpoint.lines().skip(1) {
            if end_count.is_some() {
                return Err(ServiceError::CheckpointCorrupt(format!(
                    "record after end trailer: {line:?}"
                )));
            }
            let record = unframe_record(line).map_err(ServiceError::CheckpointCorrupt)?;
            if let Some(n) = record.strip_prefix("end\t") {
                end_count = Some(n.parse().map_err(|_| {
                    ServiceError::CheckpointCorrupt(format!("bad end trailer: {record:?}"))
                })?);
            } else {
                records.push(record);
            }
        }
        match end_count {
            None => {
                return Err(ServiceError::CheckpointCorrupt(
                    "missing end trailer (torn write?)".into(),
                ))
            }
            Some(n) if n != records.len() as u64 => {
                return Err(ServiceError::CheckpointCorrupt(format!(
                    "end trailer claims {n} records, found {}",
                    records.len()
                )))
            }
            Some(_) => {}
        }
        for record in records {
            svc.apply_checkpoint_record(record, true)?;
        }
        svc.seal_resumed_ledgers();
        Ok(svc)
    }

    /// Applies one (already unframed) checkpoint record. `v2` admits
    /// the records v1 never emits (`gen`, `quar`).
    fn apply_checkpoint_record(&mut self, line: &str, v2: bool) -> Result<(), ServiceError> {
        let bad = |line: &str| ServiceError::Checkpoint(format!("malformed line: {line:?}"));
        let fields: Vec<&str> = line.split('\t').collect();
        match fields[0] {
            "seed" => {
                let seed: u64 = fields
                    .get(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| bad(line))?;
                if seed != self.cfg.seed {
                    return Err(ServiceError::Checkpoint(format!(
                        "seed mismatch: checkpoint {seed}, config {}",
                        self.cfg.seed
                    )));
                }
            }
            "gen" if v2 => {
                // Informational: the store's filename is authoritative.
                let _: u64 = fields
                    .get(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| bad(line))?;
            }
            "tenant" => {
                if fields.len() != 6 {
                    return Err(bad(line));
                }
                let parse = |s: &str| s.parse::<u64>().map_err(|_| bad(line));
                let st = self
                    .tenants
                    .entry(fields[1].to_string())
                    .or_insert_with(TenantState::new);
                st.skip = parse(fields[2])?;
                st.launches = parse(fields[3])?;
                st.timed_out = parse(fields[4])?;
                st.aborted_launches = parse(fields[5])?;
            }
            "site" => {
                if fields.len() != 6 {
                    return Err(bad(line));
                }
                let kernel: Arc<str> = Arc::from(fields[2]);
                let pc: usize = fields[3].parse().map_err(|_| bad(line))?;
                let kinds = fields[4]
                    .split(',')
                    .map(RaceKind::parse)
                    .collect::<Option<Vec<_>>>()
                    .ok_or_else(|| bad(line))?;
                let line_info = match fields[5] {
                    "-" => None,
                    l => Some(l.to_string()),
                };
                let st = self
                    .tenants
                    .entry(fields[1].to_string())
                    .or_insert_with(TenantState::new);
                merge_sites(
                    &mut st.sites,
                    vec![RaceSite {
                        kernel,
                        pc,
                        kinds,
                        line: line_info,
                    }],
                );
            }
            "quar" if v2 => {
                if fields.len() != 5 {
                    return Err(bad(line));
                }
                let job_index: u64 = fields[2].parse().map_err(|_| bad(line))?;
                let reason = QuarantineReason::parse(fields[3]).ok_or_else(|| bad(line))?;
                let attempts: u32 = fields[4].parse().map_err(|_| bad(line))?;
                let st = self
                    .tenants
                    .entry(fields[1].to_string())
                    .or_insert_with(TenantState::new);
                st.quarantine.entry(job_index).or_insert(QuarantineEntry {
                    job_index,
                    reason,
                    attempts,
                    detail: String::new(),
                });
            }
            _ => return Err(bad(line)),
        }
        Ok(())
    }

    /// After a resume, every restored ledger entry belongs to the
    /// covered prefix: mark it prior so digests keep counting accepted
    /// jobs and quarantined jobs separately.
    fn seal_resumed_ledgers(&mut self) {
        for st in self.tenants.values_mut() {
            st.prior_quarantined = st.quarantine.len() as u64;
        }
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
        self.tenants
            .entry(tenant.to_string())
            .or_insert_with(TenantState::new)
            .jobs
            .push((stream, payload));
    }

    /// Jobs queued and not yet run.
    #[must_use]
    pub fn queued_jobs(&self) -> usize {
        self.tenants.values().map(|t| t.jobs.len()).sum()
    }

    /// Runs every queued job to completion (`cudaDeviceSynchronize` over
    /// the whole fleet), then plays the latency plane. `exec` is called
    /// once per non-skipped job with the job's identity/seed and its
    /// fresh sharded detector; it drives the simulation and reports the
    /// outcome. Results accumulate into per-tenant verdicts.
    pub fn run_all<F>(&mut self, mut exec: F) -> Result<ServiceReport, ServiceError>
    where
        F: FnMut(&JobCtx<'_, P>, &mut Instrumented<ShardedIguard>) -> JobOutcome,
    {
        self.run_inner(None, &mut exec)
    }

    /// [`run_all`] under supervision: every attempt runs inside
    /// `catch_unwind`, failures are classified (`Transient` → retry
    /// down the deterministic ladder of [`supervise::attempt_faults`],
    /// `Poison` → quarantine ledger), and a `cycle_budget` watchdog
    /// rejects runaway attempts. Accepted verdict bytes are identical
    /// to an unsupervised run whose accepted attempt fired no faults —
    /// which is how the chaos soak proves non-quarantined digests
    /// byte-identical to the fault-free run.
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
        self.run_inner(Some(sup), &mut exec)
    }

    fn run_inner<F>(
        &mut self,
        sup: Option<&SupervisorConfig>,
        exec: &mut F,
    ) -> Result<ServiceReport, ServiceError>
    where
        F: FnMut(&JobCtx<'_, P>, &mut Instrumented<ShardedIguard>) -> JobOutcome,
    {
        let spt = self.cfg.streams_per_tenant;
        let names: Vec<String> = self.tenants.keys().cloned().collect();
        let total_streams = (names.len() * spt).max(1);

        // Ordering plane: queue every submission, per-tenant FIFO on its
        // global streams, then drain with cross-stream round-robin.
        let mut streams: StreamSet<QueuedJob<P>> = StreamSet::new(total_streams);
        for (rank, name) in names.iter().enumerate() {
            let Some(st) = self.tenants.get_mut(name) else {
                continue; // names came from the same map
            };
            for (job_index, (local_stream, payload)) in st.jobs.drain(..).enumerate() {
                let job_index = job_index as u64;
                streams.push(
                    rank * spt + local_stream,
                    QueuedJob {
                        tenant_rank: rank,
                        local_stream,
                        job_index,
                        payload,
                    },
                );
            }
        }

        // Per-stream verdict transport between the planes (lossless; its
        // stream-major drain order is absorbed by the order-independent
        // site merge).
        let mut bank: ChannelBank<(usize, RaceSite)> = ChannelBank::new(
            total_streams,
            self.cfg.base.report_capacity.max(1),
            30,
            2_000,
            CostCategory::Misc,
        )?;
        let mut front_clock = Clock::new();

        let mut jobs_run = 0u64;
        let mut jobs_skipped = 0u64;
        let mut jobs_quarantined = 0u64;
        let mut launches = 0u64;
        let mut sup_stats = SupervisorStats::default();
        let mut drain_err = None;
        let cfg = self.cfg.clone();
        let tenants = &mut self.tenants;
        streams.drain(|global_stream, job: QueuedJob<P>| {
            if drain_err.is_some() {
                return; // fail fast, but let the queue empty
            }
            let name = &names[job.tenant_rank];
            let Some(st) = tenants.get_mut(name) else {
                return; // unreachable: names is the tenant key set
            };
            if job.job_index < st.skip || st.quarantine.contains_key(&job.job_index) {
                jobs_skipped += 1;
                return;
            }
            let seed = job_seed(cfg.seed, name, job.job_index);
            let max_retries = sup.map_or(0, |s| s.max_retries);
            if sup.is_some() {
                sup_stats.jobs_supervised += 1;
            }
            let mut attempt = 0u32;
            let mut backoff_total = 0u64;
            loop {
                let mut det_cfg = cfg.base.clone();
                det_cfg.faults =
                    supervise::attempt_faults(&cfg.base.faults, seed, attempt, max_retries);
                let detector = match ShardedIguard::try_new(det_cfg, cfg.shard.clone()) {
                    Ok(d) => d,
                    Err(e) => {
                        drain_err = Some(ServiceError::Detector(e));
                        return;
                    }
                };
                let mut tool = Instrumented::new(detector);
                let ctx = JobCtx {
                    tenant: name,
                    stream: job.local_stream,
                    global_stream,
                    job_index: job.job_index,
                    seed,
                    attempt,
                    max_retries,
                    payload: &job.payload,
                };
                // Supervised attempts run inside catch_unwind; the
                // unsupervised path calls exec directly so panics
                // propagate exactly as before.
                let attempt_result = match sup {
                    Some(_) => {
                        sup_stats.attempts += 1;
                        catch_unwind(AssertUnwindSafe(|| exec(&ctx, &mut tool)))
                            .map_err(panic_message)
                    }
                    None => Ok(exec(&ctx, &mut tool)),
                };
                let failure = match (sup, &attempt_result) {
                    (None, _) => None,
                    (Some(_), Err(msg)) => Some(JobFailure::Panic(msg.clone())),
                    (Some(s), Ok(outcome)) => {
                        let fires =
                            tool.tool().fault_stats().total() + outcome.gpu_faults.total();
                        if outcome.timed_out
                            || (s.cycle_budget > 0 && outcome.kernel_cycles > s.cycle_budget)
                        {
                            Some(JobFailure::Hang {
                                kernel_cycles: outcome.kernel_cycles,
                                cycle_budget: s.cycle_budget,
                                timed_out: outcome.timed_out,
                            })
                        } else if fires > 0 {
                            Some(JobFailure::Perturbed { fires })
                        } else {
                            None
                        }
                    }
                };
                let final_attempt = attempt >= max_retries;
                let accept = match &failure {
                    None => true,
                    Some(fail) => {
                        match fail {
                            JobFailure::Panic(_) => sup_stats.panics_caught += 1,
                            JobFailure::Hang { .. } => sup_stats.hangs_caught += 1,
                            JobFailure::Perturbed { .. } => sup_stats.perturbed_attempts += 1,
                        }
                        match fail.classify(final_attempt) {
                            FailureClass::Transient if !final_attempt => {
                                // Discard this attempt wholesale; its
                                // fires are accounted, its detector
                                // state never reaches any verdict.
                                sup_stats.discarded_fault_fires +=
                                    tool.tool().fault_stats().total()
                                        + attempt_result
                                            .as_ref()
                                            .map_or(0, |o| o.gpu_faults.total());
                                if let Some(s) = sup {
                                    let backoff = supervise::backoff_cycles(s, seed, attempt);
                                    backoff_total += backoff;
                                    sup_stats.backoff_cycles += backoff;
                                }
                                sup_stats.retries += 1;
                                attempt += 1;
                                continue;
                            }
                            // Out of retries but only perturbed (no
                            // clean room exists): accept degraded.
                            FailureClass::Transient => {
                                sup_stats.accepted_degraded += 1;
                                true
                            }
                            FailureClass::Poison => {
                                sup_stats.quarantined += 1;
                                jobs_quarantined += 1;
                                sup_stats.discarded_fault_fires +=
                                    tool.tool().fault_stats().total();
                                let reason = fail
                                    .quarantine_reason()
                                    .unwrap_or(QuarantineReason::Panic);
                                st.quarantine.insert(
                                    job.job_index,
                                    QuarantineEntry {
                                        job_index: job.job_index,
                                        reason,
                                        attempts: attempt + 1,
                                        detail: fail.detail(),
                                    },
                                );
                                false
                            }
                        }
                    }
                };
                if !accept {
                    break;
                }
                let Ok(outcome) = attempt_result else {
                    break; // unreachable: accepted attempts have outcomes
                };
                if sup.is_some() {
                    if attempt == 0 && failure.is_none() {
                        sup_stats.accepted_clean += 1;
                    } else if attempt > 0 {
                        sup_stats.recovered += 1;
                    }
                }
                let det = tool.tool_mut();
                // Drain before reading degradation so the channel
                // invariant (`sent == drained + dropped`) holds for
                // this job's summand.
                let sites = det.race_sites();
                st.stats.accumulate(&det.stats());
                st.degradation.accumulate(&det.degradation());
                st.fault_stats.accumulate(&det.fault_stats());
                st.fault_stats.accumulate(&outcome.gpu_faults);
                st.launches += outcome.launches;
                st.timed_out += u64::from(outcome.timed_out);
                st.aborted_launches += outcome.aborted_launches;
                st.jobs_run += 1;
                // Retry backoff is latency-plane cost only: it shifts
                // this job's completion time, never its verdict bytes.
                st.executed.push((
                    job.job_index,
                    global_stream,
                    outcome.kernel_cycles + backoff_total,
                ));
                for site in sites {
                    bank.send(global_stream, (job.tenant_rank, site), &mut front_clock);
                }
                jobs_run += 1;
                launches += outcome.launches;
                break;
            }
        })?;
        if let Some(e) = drain_err {
            return Err(e);
        }

        // Merge shipped verdicts (stream-major order; merge is keyed and
        // idempotent, so order is immaterial).
        for (rank, site) in bank.drain_all() {
            if let Some(st) = tenants.get_mut(&names[rank]) {
                merge_sites(&mut st.sites, vec![site]);
            }
        }

        // Latency plane: executed jobs queue on their global stream in
        // per-tenant submission order; one device round-robins across
        // streams in slice quanta.
        let mut sched = SliceSchedule::new(total_streams, cfg.slice_cycles);
        let mut item_owner: Vec<usize> = Vec::new();
        for (rank, name) in names.iter().enumerate() {
            let Some(st) = tenants.get_mut(name) else {
                continue;
            };
            st.executed.sort_unstable_by_key(|&(idx, _, _)| idx);
            for &(_, stream, cycles) in &st.executed {
                sched.push(stream, cycles);
                item_owner.push(rank);
            }
        }
        let slice = sched.run();
        for (item, &rank) in item_owner.iter().enumerate() {
            if let Some(st) = tenants.get_mut(&names[rank]) {
                st.latencies.push(slice.finish[item]);
            }
        }
        for (rank, name) in names.iter().enumerate() {
            let Some(st) = tenants.get_mut(name) else {
                continue;
            };
            st.busy_cycles = 0;
            st.idle_cycles = 0;
            for lane in slice.streams[rank * spt..(rank + 1) * spt].iter() {
                st.busy_cycles += lane.busy;
                st.idle_cycles += lane.idle;
            }
            st.executed.clear();
        }

        let transport = bank.stats();
        let report = ServiceReport {
            jobs_run,
            jobs_skipped,
            launches,
            makespan_cycles: slice.makespan,
            streams: total_streams,
            transport,
            front_end_cycles: front_clock.time(CostCategory::Misc) as u64,
            jobs_quarantined,
            supervisor: sup_stats,
        };
        self.report.jobs_run += report.jobs_run;
        self.report.jobs_skipped += report.jobs_skipped;
        self.report.launches += report.launches;
        self.report.makespan_cycles += report.makespan_cycles;
        self.report.streams = report.streams;
        self.report.transport.accumulate(&report.transport);
        self.report.front_end_cycles += report.front_end_cycles;
        self.report.jobs_quarantined += report.jobs_quarantined;
        self.report.supervisor.accumulate(&report.supervisor);
        Ok(report)
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

    /// Total quarantined jobs across all tenants.
    #[must_use]
    pub fn quarantined(&self) -> u64 {
        self.tenants.values().map(|st| st.quarantine.len() as u64).sum()
    }

    /// Errors out on the first quarantined job, for callers that treat
    /// any poison job as fatal rather than degraded service.
    ///
    /// # Errors
    /// [`ServiceError::Quarantined`] naming the first ledger entry
    /// (tenant-name order, then job index).
    pub fn assert_no_quarantine(&self) -> Result<(), ServiceError> {
        for (name, st) in &self.tenants {
            if let Some(entry) = st.quarantine.values().next() {
                return Err(ServiceError::Quarantined {
                    tenant: name.clone(),
                    job_index: entry.job_index,
                    reason: entry.reason,
                });
            }
        }
        Ok(())
    }

    /// Covered-prefix length for one tenant: accepted jobs plus
    /// quarantined jobs, i.e. how many leading submissions a resumed
    /// incarnation must not re-run.
    fn covered(st: &TenantState<P>) -> u64 {
        let new_quarantined = st.quarantine.len() as u64 - st.prior_quarantined;
        st.skip + st.jobs_run + new_quarantined
    }

    /// Serializes the verdict plane (see module docs for what survives a
    /// restart). Stable text: sorted tenants, sorted sites. Legacy v1
    /// format: unframed, no quarantine ledger — a quarantine-bearing
    /// service still counts quarantined jobs in the covered prefix so a
    /// v1 resume never re-runs (and re-poisons on) them.
    #[must_use]
    pub fn checkpoint(&self) -> String {
        let mut out = String::new();
        out.push_str(CHECKPOINT_HEADER);
        out.push('\n');
        out.push_str(&format!("seed\t{}\n", self.cfg.seed));
        for (name, st) in &self.tenants {
            out.push_str(&format!(
                "tenant\t{name}\t{}\t{}\t{}\t{}\n",
                Self::covered(st),
                st.launches,
                st.timed_out,
                st.aborted_launches,
            ));
            for site in st.sites.values() {
                out.push_str(&format!("site\t{name}\t{}\n", site.canonical_line()));
            }
        }
        out
    }

    /// Serializes the crash-consistent v2 checkpoint: every record
    /// CRC-framed ([`crate::store::frame_record`]), a `gen` record
    /// carrying the store generation, `quar` records persisting the
    /// quarantine ledger, and an `end` trailer with the record count so
    /// torn tails are detectable. Same verdict-plane payload as v1.
    #[must_use]
    pub fn checkpoint_v2(&self, generation: u64) -> String {
        let mut records: Vec<String> = Vec::new();
        records.push(format!("gen\t{generation}"));
        records.push(format!("seed\t{}", self.cfg.seed));
        for (name, st) in &self.tenants {
            records.push(format!(
                "tenant\t{name}\t{}\t{}\t{}\t{}",
                Self::covered(st),
                st.launches,
                st.timed_out,
                st.aborted_launches,
            ));
            for site in st.sites.values() {
                records.push(format!("site\t{name}\t{}", site.canonical_line()));
            }
            for entry in st.quarantine.values() {
                records.push(format!(
                    "quar\t{name}\t{}\t{}\t{}",
                    entry.job_index,
                    entry.reason.name(),
                    entry.attempts,
                ));
            }
        }
        records.push(format!("end\t{}", records.len()));
        let mut out = String::new();
        out.push_str(CHECKPOINT_V2_HEADER);
        out.push('\n');
        for record in &records {
            out.push_str(&frame_record(record));
            out.push('\n');
        }
        out
    }
}

/// Renders a `catch_unwind` payload as text (the common `&str`/`String`
/// panic payloads; anything else gets a placeholder).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
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
    fn jobs_interleave_across_tenants_but_stay_fifo_within() {
        let mut svc: DetectorService<u64> = DetectorService::new(ServiceConfig {
            streams_per_tenant: 1,
            ..ServiceConfig::default()
        });
        for i in 0..3 {
            svc.submit("acme", 0, i);
            svc.submit("zeta", 0, i);
        }
        let mut calls = Vec::new();
        let report = svc.run_all(fake_exec(&mut calls)).unwrap();
        assert_eq!(report.jobs_run, 6);
        assert_eq!(report.streams, 2);
        // Round-robin across the two tenant streams.
        let tenants: Vec<&str> = calls.iter().map(|(t, _, _)| t.as_str()).collect();
        assert_eq!(tenants, vec!["acme", "zeta", "acme", "zeta", "acme", "zeta"]);
        // FIFO within each tenant.
        for t in ["acme", "zeta"] {
            let idx: Vec<u64> = calls
                .iter()
                .filter(|(name, _, _)| name == t)
                .map(|&(_, i, _)| i)
                .collect();
            assert_eq!(idx, vec![0, 1, 2]);
        }
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
    fn checkpoint_roundtrips_and_resume_skips_done_jobs() {
        let mut svc: DetectorService<u64> = DetectorService::new(ServiceConfig::default());
        for i in 0..3 {
            svc.submit("acme", 0, i);
        }
        let mut calls = Vec::new();
        svc.run_all(fake_exec(&mut calls)).unwrap();
        let ckpt = svc.checkpoint();
        assert!(ckpt.starts_with(CHECKPOINT_HEADER));

        let mut resumed: DetectorService<u64> =
            DetectorService::resume(ServiceConfig::default(), &ckpt).unwrap();
        // Re-submit the same workload: all three jobs are already covered.
        for i in 0..3 {
            resumed.submit("acme", 0, i);
        }
        let mut calls2 = Vec::new();
        let report = resumed.run_all(fake_exec(&mut calls2)).unwrap();
        assert_eq!(report.jobs_run, 0);
        assert_eq!(report.jobs_skipped, 3);
        assert!(calls2.is_empty());
        // The verdict counters survive the restart byte-for-byte.
        let digest = |svc: &DetectorService<u64>| {
            svc.verdicts().iter().map(TenantVerdict::digest).collect::<String>()
        };
        assert_eq!(digest(&svc), digest(&resumed));
        assert_eq!(resumed.checkpoint(), ckpt);
    }

    #[test]
    fn resume_rejects_garbage_and_seed_mismatch() {
        let err = DetectorService::<u64>::resume(ServiceConfig::default(), "nonsense")
            .unwrap_err()
            .to_string();
        assert!(err.contains("bad header"));
        let ckpt = format!("{CHECKPOINT_HEADER}\nseed\t7\n");
        let err = DetectorService::<u64>::resume(ServiceConfig::default(), &ckpt).unwrap_err();
        assert!(err.to_string().contains("seed mismatch"));
        let ckpt = format!("{CHECKPOINT_HEADER}\ntenant\tacme\tnot-a-number\t0\t0\t0\n");
        let err = DetectorService::<u64>::resume(ServiceConfig::default(), &ckpt).unwrap_err();
        assert!(err.to_string().contains("malformed"));
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
        assert_eq!(plain.checkpoint(), sup.checkpoint());
        assert_eq!(report.supervisor.accepted_clean, 8);
        assert_eq!(report.supervisor.attempts, 8);
        assert_eq!(report.jobs_quarantined, 0);
    }

    #[test]
    fn supervised_panic_is_quarantined_and_others_survive() {
        let sup_cfg = SupervisorConfig {
            max_retries: 2,
            ..SupervisorConfig::default()
        };
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
        assert_eq!(svc.quarantined(), 1);
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
        // The healthy jobs' digest matches a run where the poison job
        // simply never yields a verdict.
        let err = svc.assert_no_quarantine().unwrap_err();
        assert!(matches!(err, ServiceError::Quarantined { job_index: 1, .. }));
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
    fn cycle_budget_watchdog_quarantines_hangs() {
        let sup_cfg = SupervisorConfig {
            max_retries: 1,
            cycle_budget: 5_000,
            ..SupervisorConfig::default()
        };
        let mut svc: DetectorService<u64> = DetectorService::new(ServiceConfig::default());
        for i in 0..3 {
            svc.submit("acme", 0, i);
        }
        let report = svc
            .run_all_supervised(&sup_cfg, |ctx, tool| {
                let mut out = fake_exec(&mut Vec::new())(ctx, tool);
                out.kernel_cycles = if ctx.job_index == 0 { 1_000_000 } else { 100 };
                out
            })
            .unwrap();
        assert_eq!(report.supervisor.hangs_caught, 2); // initial + 1 retry
        assert_eq!(report.jobs_quarantined, 1);
        let v = &svc.verdicts()[0];
        assert_eq!(v.quarantine[0].reason, QuarantineReason::Hang);
        assert!(v.quarantine[0].detail.contains("cycles > budget"));
    }

    #[test]
    fn checkpoint_v2_roundtrips_ledger_and_skips_quarantined() {
        let mut svc: DetectorService<u64> = DetectorService::new(ServiceConfig::default());
        submit_two_tenants(&mut svc, 3);
        svc.run_all_supervised(&SupervisorConfig::default(), |ctx, tool| {
            if ctx.tenant == "acme" && ctx.job_index == 1 {
                panic!("poison job");
            }
            fake_exec(&mut Vec::new())(ctx, tool)
        })
        .unwrap();
        let ckpt = svc.checkpoint_v2(7);
        assert!(ckpt.starts_with(CHECKPOINT_V2_HEADER));

        let mut resumed: DetectorService<u64> =
            DetectorService::resume(ServiceConfig::default(), &ckpt).unwrap();
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
        assert_eq!(resumed.checkpoint_v2(7), ckpt);

        // The v1 writer of the same service also resumes to the same
        // covered prefix (ledger entries collapse into `skip`).
        let v1 = svc.checkpoint();
        let mut via_v1: DetectorService<u64> =
            DetectorService::resume(ServiceConfig::default(), &v1).unwrap();
        submit_two_tenants(&mut via_v1, 3);
        let report = via_v1.run_all(fake_exec(&mut Vec::new())).unwrap();
        assert_eq!(report.jobs_run, 0);
        assert_eq!(report.jobs_skipped, 6);
    }

    #[test]
    fn corrupt_v2_checkpoints_are_rejected_as_checkpoint_corrupt() {
        let mut svc: DetectorService<u64> = DetectorService::new(ServiceConfig::default());
        submit_two_tenants(&mut svc, 2);
        svc.run_all(fake_exec(&mut Vec::new())).unwrap();
        let ckpt = svc.checkpoint_v2(1);

        let expect_corrupt = |text: &str, what: &str| {
            let err =
                DetectorService::<u64>::resume(ServiceConfig::default(), text).unwrap_err();
            assert_eq!(err.kind(), "checkpoint-corrupt", "{what}: {err}");
        };
        // Torn tail: the end trailer is gone.
        let torn: String = ckpt.lines().take(3).map(|l| format!("{l}\n")).collect();
        expect_corrupt(&torn, "torn");
        // Flipped byte inside a record body: CRC mismatch.
        let flipped = ckpt.replacen("tenant\tacme", "tenant\tacml", 1);
        expect_corrupt(&flipped, "flipped");
        // Record after the trailer.
        let trailing = format!("{ckpt}{}\n", frame_record("seed\t0"));
        expect_corrupt(&trailing, "trailing");
        // Miscounted trailer.
        let mut lines: Vec<&str> = ckpt.lines().collect();
        lines.remove(2);
        let short: String = lines.iter().map(|l| format!("{l}\n")).collect();
        expect_corrupt(&short, "miscount");
    }

    #[test]
    fn service_error_display_round_trips_kind() {
        let errors = vec![
            ServiceError::Checkpoint("x".into()),
            ServiceError::CheckpointCorrupt("y".into()),
            ServiceError::Quarantined {
                tenant: "acme".into(),
                job_index: 3,
                reason: QuarantineReason::Hang,
            },
        ];
        for err in &errors {
            assert!(ServiceError::KINDS.contains(&err.kind()));
            // Display names the kind, so logs can be grepped back to it.
            let shown = err.to_string();
            assert!(
                shown.contains(err.kind()) || shown.contains(&err.kind().replace('-', " ")),
                "{shown} vs {}",
                err.kind()
            );
        }
        let shown = errors[2].to_string();
        assert!(shown.contains("tenant acme") && shown.contains("job 3") && shown.contains("hang"));
    }
}
