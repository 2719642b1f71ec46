//! Supervision layer for the detector service (DESIGN.md §15).
//!
//! The service's determinism contract makes every job a pure function of
//! `(service seed, tenant, job index)` — which is exactly what makes
//! crash-only supervision possible: a failed attempt can be discarded
//! wholesale and retried (or quarantined) without perturbing any other
//! job's bytes. This module is the one home of the retry policy: the
//! typed failure taxonomy, the per-attempt fault planes, the backoff,
//! the quarantine ledger types, and [`run_job`] — the attempt loop that
//! decides retry / accept / quarantine and keeps every
//! [`SupervisorStats`] counter. [`DetectorService::run_all_supervised`]
//! only supplies the closure that runs one attempt.
//!
//! ## Failure taxonomy
//!
//! | failure                        | classification                      |
//! |--------------------------------|-------------------------------------|
//! | panic caught by `catch_unwind` | `Transient` until the clean-room    |
//! |                                | attempt; deterministic → `Poison`   |
//! | hang (the simulator's step     | `Transient` until the clean-room    |
//! | budget tripped, `timed_out`)   | attempt; deterministic → `Poison`   |
//! | perturbed (any injected fault  | always `Transient`: the clean room  |
//! | fired during the attempt)      | cannot fire, so it never poisons    |
//!
//! ## Retry ladder
//!
//! Two cases. Attempt 0 runs the configured fault plane reseeded from
//! the job seed — byte-identical to an unsupervised run when it is
//! accepted. Every retry runs with the fault plane fully disabled — the
//! **clean room** (the simulation seed is never touched: the job's
//! *semantics* are pinned) — so a job whose only problem was injected
//! faults converges to the byte-exact fault-free verdict on its first
//! retry. A job that panics or hangs in the clean room on every retry it
//! is given is deterministically broken: `Poison`, quarantined.
//!
//! Until PR 21 the retries short of the last halved every rate under a
//! salted fault seed. Such a rung never beat the clean room — of 94
//! accepted jobs in a `service_chaos` wave 71 / 15 / 8 were accepted at
//! attempt 0 / 1 / 2, either rung costing one retry — and a job
//! perturbed on it paid a second retry: 172 / 196 / 193 attempts a wave
//! at seeds 42 / 92 / 95 with it, 150 / 170 / 166 without
//! (EXPERIMENTS.md, "One engine per detector").
//!
//! Backoff between retries is deterministic and drawn from the fault
//! plane's RNG primitive ([`splitmix64`]); it is charged to the
//! *latency* plane only (cycles), never to verdict bytes.
//!
//! [`DetectorService::run_all_supervised`]: crate::service::DetectorService::run_all_supervised

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

use faults::{splitmix64, FaultConfig};

/// Base backoff charged per retry (cycles, latency plane only).
const BACKOFF_BASE_CYCLES: u64 = 1_000;

/// Salt for backoff jitter draws.
const BACKOFF_SALT: u64 = 0xBAC0_FF5E_ED00_0001;

/// Supervision policy for [`run_all_supervised`].
///
/// [`run_all_supervised`]: crate::service::DetectorService::run_all_supervised
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Retry attempts after the first try; each runs fault-free (the
    /// clean room).
    pub max_retries: u32,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig { max_retries: 2 }
    }
}

/// Why a quarantined job was poisoned (checkpointed, so no payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum QuarantineReason {
    /// Panicked on every attempt through the clean room.
    Panic,
    /// Hung (the simulator's step budget tripped) on every attempt
    /// through the clean room.
    Hang,
}

impl QuarantineReason {
    /// Stable token used in checkpoints and digests.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            QuarantineReason::Panic => "panic",
            QuarantineReason::Hang => "hang",
        }
    }

    /// Parses a [`QuarantineReason::name`] token.
    #[must_use]
    pub fn parse(name: &str) -> Option<QuarantineReason> {
        match name {
            "panic" => Some(QuarantineReason::Panic),
            "hang" => Some(QuarantineReason::Hang),
            _ => None,
        }
    }
}

/// One failed attempt, as observed by the supervisor.
#[derive(Debug, Clone)]
pub enum JobFailure {
    /// The exec closure panicked; payload stringified.
    Panic(String),
    /// The attempt hung: the simulator's step budget tripped
    /// (`JobOutcome::timed_out`).
    Hang,
    /// The attempt completed but injected faults fired, so its verdict
    /// bytes are not the fault-free bytes.
    Perturbed {
        /// Total injected-fault fires (detector + simulator side).
        fires: u64,
    },
}

impl JobFailure {
    /// Why this failure, surviving into the final attempt, poisons the
    /// job: `Panic`/`Hang` there are deterministic. `None` for
    /// `Perturbed`, which never poisons — it is transient while retries
    /// remain and accepted degraded when none do.
    #[must_use]
    pub fn quarantine_reason(&self) -> Option<QuarantineReason> {
        match self {
            JobFailure::Panic(_) => Some(QuarantineReason::Panic),
            JobFailure::Hang => Some(QuarantineReason::Hang),
            JobFailure::Perturbed { .. } => None,
        }
    }

    /// Human-readable detail line (kept in memory, never checkpointed).
    #[must_use]
    pub fn detail(&self) -> String {
        match self {
            JobFailure::Panic(msg) => format!("panic: {msg}"),
            JobFailure::Hang => "hang: simulator step budget tripped".to_string(),
            JobFailure::Perturbed { fires } => format!("perturbed: {fires} injected fault(s)"),
        }
    }
}

/// One quarantined job in a tenant's ledger. The ledger is keyed by
/// `job_index`, merged idempotently (insert-if-absent — entries are a
/// pure function of job identity, so re-deriving one yields the same
/// value), checkpointed, and folded into the widened verdict digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineEntry {
    /// The poisoned job's index in its tenant's submission order.
    pub job_index: u64,
    /// Why it was poisoned.
    pub reason: QuarantineReason,
    /// Attempts consumed before quarantine (retries + 1).
    pub attempts: u32,
    /// Last failure detail (in-memory only: excluded from checkpoints
    /// and digests, since panic payloads are free-form text).
    pub detail: String,
}

/// Supervisor-side accounting for one run (or accumulated across runs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisorStats {
    /// Jobs that went through the supervised path.
    pub jobs_supervised: u64,
    /// Attempts executed (>= jobs_supervised).
    pub attempts: u64,
    /// Attempts that panicked and were caught.
    pub panics_caught: u64,
    /// Attempts classified as hangs (the simulator's step budget tripped).
    pub hangs_caught: u64,
    /// Attempts rejected because injected faults fired.
    pub perturbed_attempts: u64,
    /// Retries issued (attempts beyond each job's first).
    pub retries: u64,
    /// Jobs accepted after at least one retry.
    pub recovered: u64,
    /// Jobs accepted on their first attempt with no failure.
    pub accepted_clean: u64,
    /// Jobs accepted despite fired faults (only possible when
    /// `max_retries == 0`, i.e. no clean-room attempt exists).
    pub accepted_degraded: u64,
    /// Jobs quarantined as poison.
    pub quarantined: u64,
    /// Deterministic backoff charged to the latency plane (cycles).
    pub backoff_cycles: u64,
    /// Injected-fault fires on attempts that were discarded (their
    /// detector state never reached any verdict).
    pub discarded_fault_fires: u64,
}

impl SupervisorStats {
    /// Adds another run's counters into this one.
    pub fn accumulate(&mut self, other: &SupervisorStats) {
        let SupervisorStats {
            jobs_supervised,
            attempts,
            panics_caught,
            hangs_caught,
            perturbed_attempts,
            retries,
            recovered,
            accepted_clean,
            accepted_degraded,
            quarantined,
            backoff_cycles,
            discarded_fault_fires,
        } = *other;
        self.jobs_supervised += jobs_supervised;
        self.attempts += attempts;
        self.panics_caught += panics_caught;
        self.hangs_caught += hangs_caught;
        self.perturbed_attempts += perturbed_attempts;
        self.retries += retries;
        self.recovered += recovered;
        self.accepted_clean += accepted_clean;
        self.accepted_degraded += accepted_degraded;
        self.quarantined += quarantined;
        self.backoff_cycles += backoff_cycles;
        self.discarded_fault_fires += discarded_fault_fires;
    }
}

/// The fault plane for one attempt of the retry ladder.
///
/// - attempt 0: the template reseeded with the job seed — the exact
///   configuration an unsupervised run uses, so an accepted first
///   attempt is byte-identical to supervision-off.
/// - any retry: fully disabled — the clean room.
///
/// The retry budget does not enter the rule; the parameter stays for the
/// frozen benchmark, which passes it.
#[must_use]
pub fn attempt_faults(
    template: &FaultConfig,
    job_seed: u64,
    attempt: u32,
    _max_retries: u32,
) -> FaultConfig {
    if attempt == 0 {
        template.clone().with_seed(job_seed)
    } else {
        FaultConfig::disabled()
    }
}

/// Deterministic exponential backoff (cycles) charged before retry
/// `attempt + 1`: `BACKOFF_BASE_CYCLES << attempt` plus a jitter draw
/// in `0..BACKOFF_BASE_CYCLES` from the fault plane's RNG primitive.
#[must_use]
pub fn backoff_cycles(job_seed: u64, attempt: u32) -> u64 {
    let base = BACKOFF_BASE_CYCLES;
    let exp = base << attempt.min(16);
    let jitter = splitmix64(job_seed ^ u64::from(attempt) ^ BACKOFF_SALT) % base;
    exp + jitter
}

/// Runs `f`, catching a panic as its message when supervised; with
/// supervision off (`sup` is `None`) a panic propagates as it always did.
///
/// # Errors
/// The stringified panic payload.
pub fn guard<T>(sup: Option<&SupervisorConfig>, f: impl FnOnce() -> T) -> Result<T, String> {
    if sup.is_none() {
        return Ok(f());
    }
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| panic_message(&*payload))
}

/// The text of a panic payload: the `&str` or `String` that `panic!`
/// carries, or a placeholder for any other payload type.
#[must_use]
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(ToString::to_string)
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// One finished attempt, as reported to [`run_job`] by the per-attempt
/// closure.
#[derive(Debug)]
pub struct Attempt<T> {
    /// Whatever the attempt left behind (detector state, outcome); read
    /// only if the attempt is accepted.
    pub product: T,
    /// The message of the panic [`guard`] caught, if the attempt died.
    pub panic: Option<String>,
    /// Injected-fault fires the attempt observed (detector side, plus
    /// simulator side when the attempt returned an outcome).
    pub fires: u64,
    /// Whether the simulator's own step budget tripped.
    pub timed_out: bool,
}

impl<T> Attempt<T> {
    /// What, if anything, is wrong with this attempt.
    fn failure(&self) -> Option<JobFailure> {
        if let Some(msg) = &self.panic {
            Some(JobFailure::Panic(msg.clone()))
        } else if self.timed_out {
            Some(JobFailure::Hang)
        } else if self.fires > 0 {
            Some(JobFailure::Perturbed { fires: self.fires })
        } else {
            None
        }
    }
}

/// How the ladder ended for one job.
#[derive(Debug, PartialEq, Eq)]
pub enum Resolution<T> {
    /// An attempt was accepted: fold its product into the verdict.
    Accepted {
        /// The accepted attempt's [`Attempt::product`].
        product: T,
        /// Retry backoff accrued on the way (latency plane only: it
        /// shifts the job's completion time, never its verdict bytes).
        backoff_cycles: u64,
    },
    /// The job is poison: add it to the quarantine ledger.
    Quarantined {
        /// Why it was poisoned.
        reason: QuarantineReason,
        /// Attempts consumed (retries + 1).
        attempts: u32,
        /// The last failure's detail line.
        detail: String,
    },
}

/// The attempt loop for one job: runs `attempt(n)` for `n = 0, 1, …`
/// until an attempt is accepted or the job is quarantined, and keeps
/// every counter in `stats`.
///
/// A failed attempt short of the final one is transient: discarded
/// wholesale (its fires accounted, [`backoff_cycles`] charged) and
/// retried. On the final attempt a `Panic` or `Hang` is deterministic —
/// poison, quarantined — while `Perturbed` (no clean room to retreat
/// to) is accepted degraded. With `sup` unset there is no ladder:
/// attempt 0 runs once, is accepted as it stands, and `stats` is
/// untouched.
pub fn run_job<T>(
    sup: Option<&SupervisorConfig>,
    job_seed: u64,
    stats: &mut SupervisorStats,
    mut attempt: impl FnMut(u32) -> Attempt<T>,
) -> Resolution<T> {
    let Some(cfg) = sup else {
        return Resolution::Accepted {
            product: attempt(0).product,
            backoff_cycles: 0,
        };
    };
    stats.jobs_supervised += 1;
    let mut backoff_total = 0u64;
    let mut n = 0u32;
    loop {
        stats.attempts += 1;
        let a = attempt(n);
        if let Some(fail) = a.failure() {
            match fail {
                JobFailure::Panic(_) => stats.panics_caught += 1,
                JobFailure::Hang => stats.hangs_caught += 1,
                JobFailure::Perturbed { .. } => stats.perturbed_attempts += 1,
            }
            if n < cfg.max_retries {
                // Transient: discard the attempt wholesale and retry.
                stats.discarded_fault_fires += a.fires;
                let backoff = backoff_cycles(job_seed, n);
                backoff_total += backoff;
                stats.backoff_cycles += backoff;
                stats.retries += 1;
                n += 1;
                continue;
            }
            if let Some(reason) = fail.quarantine_reason() {
                stats.quarantined += 1;
                stats.discarded_fault_fires += a.fires;
                return Resolution::Quarantined {
                    reason,
                    attempts: n + 1,
                    detail: fail.detail(),
                };
            }
            stats.accepted_degraded += 1;
        } else if n == 0 {
            stats.accepted_clean += 1;
        }
        if n > 0 {
            stats.recovered += 1;
        }
        return Resolution::Accepted {
            product: a.product,
            backoff_cycles: backoff_total,
        };
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use faults::RATE_ONE;

    /// Attempt 0 is the unsupervised plane whatever the budget; every
    /// retry — short of the budget, at it, past it — is the clean room.
    #[test]
    fn every_retry_is_the_clean_room() {
        let template = FaultConfig::uniform(7, RATE_ONE / 4);
        for max_retries in [0, 1, 2, 5] {
            let first = attempt_faults(&template, 99, 0, max_retries);
            assert_eq!(first, template.clone().with_seed(99));
        }
        for max_retries in [1, 2, 5] {
            for attempt in 1..=5 {
                let got = attempt_faults(&template, 99, attempt, max_retries);
                assert_eq!(got, FaultConfig::disabled(), "{attempt} of {max_retries}");
            }
        }
    }

    #[test]
    fn backoff_is_deterministic_exponential_and_jittered() {
        let b0 = backoff_cycles(42, 0);
        let b1 = backoff_cycles(42, 1);
        let b2 = backoff_cycles(42, 2);
        assert_eq!(b0, backoff_cycles(42, 0));
        let base = BACKOFF_BASE_CYCLES;
        assert!((base..2 * base).contains(&b0));
        assert!((2 * base..3 * base).contains(&b1));
        assert!((4 * base..5 * base).contains(&b2));
        assert_ne!(backoff_cycles(43, 0), b0);
    }

    fn finished(fires: u64, timed_out: bool) -> Attempt<u32> {
        Attempt {
            product: 7,
            panic: None,
            fires,
            timed_out,
        }
    }

    fn accepted_as_is(r: &Resolution<u32>) -> bool {
        let want = Resolution::Accepted {
            product: 7,
            backoff_cycles: 0,
        };
        *r == want
    }

    #[test]
    fn run_job_without_a_clean_room_accepts_degraded_and_poisons_hangs() {
        let cfg = SupervisorConfig { max_retries: 0 };
        let mut stats = SupervisorStats::default();
        // Perturbed with nowhere to retreat: accepted as it stands.
        let got = run_job(Some(&cfg), 1, &mut stats, |_| finished(3, false));
        assert!(accepted_as_is(&got));
        // A hang on the only attempt is poison; every fire it observed
        // (simulator side included) is accounted as discarded.
        let got = run_job(Some(&cfg), 1, &mut stats, |_| finished(5, true));
        assert!(matches!(
            got,
            Resolution::Quarantined {
                reason: QuarantineReason::Hang,
                attempts: 1,
                ..
            }
        ));
        let want = SupervisorStats {
            jobs_supervised: 2,
            attempts: 2,
            perturbed_attempts: 1,
            hangs_caught: 1,
            accepted_degraded: 1,
            quarantined: 1,
            discarded_fault_fires: 5,
            ..SupervisorStats::default()
        };
        assert_eq!(stats, want);
    }

    #[test]
    fn run_job_unsupervised_is_one_unaccounted_attempt() {
        let mut stats = SupervisorStats::default();
        let mut calls = 0;
        let got = run_job(None, 1, &mut stats, |n| {
            calls += 1;
            assert_eq!(n, 0);
            finished(9, true)
        });
        assert!(accepted_as_is(&got));
        assert_eq!((calls, stats), (1, SupervisorStats::default()));
        assert_eq!(guard(None, || 3), Ok(3));
        let sup = SupervisorConfig::default();
        let caught = guard(Some(&sup), || -> u32 { panic!("poison job") });
        assert_eq!(caught, Err("poison job".to_string()));
    }

    #[test]
    fn quarantine_reason_round_trips() {
        for r in [QuarantineReason::Panic, QuarantineReason::Hang] {
            assert_eq!(QuarantineReason::parse(r.name()), Some(r));
        }
        assert_eq!(QuarantineReason::parse("perturbed"), None);
    }

    #[test]
    fn stats_accumulate_per_field() {
        let mut a = SupervisorStats {
            jobs_supervised: 1,
            retries: 2,
            ..SupervisorStats::default()
        };
        let b = SupervisorStats {
            jobs_supervised: 3,
            quarantined: 1,
            backoff_cycles: 500,
            ..SupervisorStats::default()
        };
        a.accumulate(&b);
        assert_eq!(a.jobs_supervised, 4);
        assert_eq!(a.retries, 2);
        assert_eq!(a.quarantined, 1);
        assert_eq!(a.backoff_cycles, 500);
    }
}
