//! The parallel, fault-isolated experiment driver.
//!
//! Every table and figure of the evaluation replays tens to hundreds of
//! independent deterministic simulations. This module fans them out over
//! a work-stealing pool of OS threads while keeping the *results* exactly
//! what serial execution would produce:
//!
//! - **Deterministic ordered collection.** Jobs are claimed from a shared
//!   queue in submission order and results are returned indexed by
//!   submission position, so the caller's formatting loop — and therefore
//!   every byte of table output — is identical under `--serial` and
//!   `--jobs N`. Each job seeds its own `Gpu`, so values cannot depend on
//!   which worker ran it.
//! - **Per-job panic isolation.** A panicking job is caught on its worker
//!   and reported as [`Outcome::Panicked`]; the rest of the sweep
//!   completes. This is Barracuda-style *DNF* ("did not finish") rather
//!   than a lost evening of sweep.
//! - **Per-job wall-clock deadline.** A job that exceeds
//!   [`DriverConfig::timeout`] is abandoned — its worker thread is leaked
//!   and a replacement is spawned to keep the pool at strength — and the
//!   job is reported as [`Outcome::TimedOut`].
//!
//! `cfg.jobs == 1` runs the same machinery with one worker: "serial mode"
//! is a degenerate pool, not a separate code path, so flag handling and
//! DNF semantics cannot drift between the two.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::job::Job;

/// Driver configuration, usually built by [`DriverConfig::from_args`].
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Worker threads; `1` is serial execution through the same pool.
    pub jobs: usize,
    /// Per-job wall-clock deadline; `None` waits forever.
    pub timeout: Option<Duration>,
    /// Emit live per-job progress/timing lines on stderr.
    pub progress: bool,
}

impl Default for DriverConfig {
    /// Parallel across available cores, 120 s deadline, progress on —
    /// the defaults the bench binaries run with.
    fn default() -> Self {
        DriverConfig {
            jobs: available_jobs(),
            timeout: Some(Duration::from_secs(120)),
            progress: true,
        }
    }
}

/// Worker count used by `--jobs 0` / the default: available parallelism.
#[must_use]
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

impl DriverConfig {
    /// One worker, no deadline, no progress: the quiet configuration the
    /// equivalence tests compare against.
    #[must_use]
    pub fn serial() -> Self {
        DriverConfig::parallel(1)
    }

    /// `n` workers, no deadline, no progress.
    #[must_use]
    pub fn parallel(n: usize) -> Self {
        DriverConfig {
            jobs: n.max(1),
            timeout: None,
            progress: false,
        }
    }

    /// Parses and strips the shared driver flags from a raw argument
    /// list, returning the remaining arguments for the binary's own
    /// parser. Recognized: `--jobs N` (0 ⇒ all cores), `--serial`
    /// (alias for `--jobs 1`), `--timeout-secs N` (0 ⇒ no deadline), and
    /// `--no-progress`.
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> (Self, Vec<String>) {
        let mut cfg = DriverConfig::default();
        let mut rest = Vec::new();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--serial" => cfg.jobs = 1,
                "--jobs" => {
                    let n: usize = numeric(&mut it, "--jobs");
                    cfg.jobs = if n == 0 { available_jobs() } else { n };
                }
                "--timeout-secs" => {
                    let secs: u64 = numeric(&mut it, "--timeout-secs");
                    cfg.timeout = (secs > 0).then(|| Duration::from_secs(secs));
                }
                "--no-progress" => cfg.progress = false,
                _ => rest.push(a),
            }
        }
        (cfg, rest)
    }

    /// [`DriverConfig::from_args`] over the process arguments (skipping
    /// `argv[0]`).
    #[must_use]
    pub fn from_env() -> (Self, Vec<String>) {
        Self::from_args(std::env::args().skip(1))
    }
}

/// Exits with a clean message on a missing or non-numeric flag value.
fn numeric<T: std::str::FromStr>(it: &mut impl Iterator<Item = String>, flag: &str) -> T {
    let Some(raw) = it.next() else {
        eprintln!("{flag} requires a value");
        std::process::exit(2);
    };
    raw.parse().unwrap_or_else(|_| {
        eprintln!("{flag} expects a number, got `{raw}`");
        std::process::exit(2);
    })
}

/// Substring that classifies a job failure as an injected fault rather
/// than a genuine bug: `SimError::InjectedFault` renders as
/// `"injected fault: <site>"`, so any panic whose message carries it was
/// killed by the fault plane on purpose.
pub const FAULT_MARKER: &str = "injected fault";

/// What became of one job.
#[derive(Debug)]
pub enum Outcome<T> {
    /// The job completed and produced a value.
    Done {
        /// The job's result.
        value: T,
        /// Wall-clock time on its worker.
        elapsed: Duration,
    },
    /// The job panicked; the sweep continued without it.
    Panicked {
        /// The panic payload, stringified.
        message: String,
        /// Wall-clock time until the panic.
        elapsed: Duration,
    },
    /// The job exceeded the per-job deadline and was abandoned.
    TimedOut {
        /// The configured deadline it exceeded.
        elapsed: Duration,
    },
    /// The job was killed by a deliberately injected fault (its failure
    /// message carried [`FAULT_MARKER`]) — expected under a chaos
    /// campaign, alarming anywhere else.
    Faulted {
        /// The failure message naming the injected fault site.
        message: String,
        /// Wall-clock time until the fault fired.
        elapsed: Duration,
    },
}

impl<T> Outcome<T> {
    /// The value, if the job finished.
    #[must_use]
    pub fn value(&self) -> Option<&T> {
        match self {
            Outcome::Done { value, .. } => Some(value),
            _ => None,
        }
    }

    /// The value by move, if the job finished.
    #[must_use]
    pub fn into_value(self) -> Option<T> {
        match self {
            Outcome::Done { value, .. } => Some(value),
            _ => None,
        }
    }

    /// Whether the job did not finish (panic or deadline).
    #[must_use]
    pub fn is_dnf(&self) -> bool {
        !matches!(self, Outcome::Done { .. })
    }

    /// Short cell text for DNF rows in tables, naming the cause
    /// (`"DNF(panic)"`, `"DNF(timeout)"`, `"DNF(fault)"`); `None` if done.
    #[must_use]
    pub fn dnf_cell(&self) -> Option<&'static str> {
        match self {
            Outcome::Done { .. } => None,
            Outcome::Panicked { .. } => Some("DNF(panic)"),
            Outcome::TimedOut { .. } => Some("DNF(timeout)"),
            Outcome::Faulted { .. } => Some("DNF(fault)"),
        }
    }
}

/// Messages workers send the supervisor.
enum Msg<T> {
    Claimed { idx: usize },
    Finished { idx: usize, result: Result<T, String>, elapsed: Duration },
}

/// The submission-ordered shared work queue.
type JobQueue<T> = Arc<Mutex<std::collections::VecDeque<(usize, Job<T>)>>>;

/// Runs `jobs` under `cfg` and returns outcomes in submission order.
///
/// The output of this function is a pure function of the jobs themselves
/// (each must be internally deterministic, which every simulation job is:
/// it builds its own seeded `Gpu`); worker count only changes wall-clock
/// time and the interleaving of stderr progress lines.
pub fn run_jobs<T: Send + 'static>(jobs: Vec<Job<T>>, cfg: &DriverConfig) -> Vec<Outcome<T>> {
    let total = jobs.len();
    let mut results: Vec<Option<Outcome<T>>> = (0..total).map(|_| None).collect();
    if total == 0 {
        return Vec::new();
    }
    let labels: Vec<String> = jobs.iter().map(|j| j.label.clone()).collect();

    // Workers claim the lowest pending index, so with one worker
    // execution order equals submission order.
    let queue: JobQueue<T> = Arc::new(Mutex::new(jobs.into_iter().enumerate().collect()));
    let (tx, rx) = channel::<Msg<T>>();

    // The supervisor keeps `tx` to mint senders for replacement workers,
    // so the channel never disconnects; the loop terminates on the job
    // count instead.
    let workers = cfg.jobs.max(1).min(total);
    for _ in 0..workers {
        spawn_worker(Arc::clone(&queue), tx.clone());
    }

    let started_at = Instant::now();
    let mut running: HashMap<usize, Instant> = HashMap::new();
    let mut done = 0usize;
    while done < total {
        // Wake at the earliest running job's deadline; with none, block
        // on the channel.
        let now = Instant::now();
        let next_wake = cfg.timeout.and_then(|limit| {
            running
                .values()
                .map(|s| (*s + limit).saturating_duration_since(now))
                .min()
        });
        let msg = match next_wake {
            None => Some(rx.recv().expect("supervisor holds a sender")),
            Some(wake) => match rx.recv_timeout(wake.max(Duration::from_millis(1))) {
                Ok(m) => Some(m),
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => {
                    unreachable!("supervisor holds a sender")
                }
            },
        };

        match msg {
            Some(Msg::Claimed { idx }) => {
                running.insert(idx, Instant::now());
            }
            Some(Msg::Finished { idx, result, elapsed }) => {
                running.remove(&idx);
                if results[idx].is_some() {
                    // Already declared DNF at its deadline; the stray
                    // late completion keeps serial/parallel output equal.
                    continue;
                }
                let outcome = match result {
                    Ok(value) => Outcome::Done { value, elapsed },
                    Err(message) if message.contains(FAULT_MARKER) => {
                        Outcome::Faulted { message, elapsed }
                    }
                    Err(message) => Outcome::Panicked { message, elapsed },
                };
                done += 1;
                if cfg.progress {
                    progress_line(done, total, &labels[idx], &outcome, started_at);
                }
                results[idx] = Some(outcome);
            }
            None => {
                // Deadline sweep: declare every overdue job DNF and spawn
                // replacement workers for their abandoned threads.
                let now = Instant::now();
                if let Some(limit) = cfg.timeout {
                    let overdue: Vec<usize> = running
                        .iter()
                        .filter(|(_, s)| now.duration_since(**s) >= limit)
                        .map(|(i, _)| *i)
                        .collect();
                    for idx in overdue {
                        running.remove(&idx);
                        spawn_worker(Arc::clone(&queue), tx.clone());
                        let outcome = Outcome::TimedOut { elapsed: limit };
                        done += 1;
                        if cfg.progress {
                            progress_line(done, total, &labels[idx], &outcome, started_at);
                        }
                        results[idx] = Some(outcome);
                    }
                }
            }
        }
    }

    drop(tx);
    results
        .into_iter()
        .map(|r| r.expect("every submitted job resolved"))
        .collect()
}

/// Convenience: run every job serially on the calling configuration's
/// pool and unwrap, panicking on any DNF. For harnesses that must not
/// lose rows (unit tests, equivalence baselines).
pub fn run_jobs_strict<T: Send + 'static>(jobs: Vec<Job<T>>, cfg: &DriverConfig) -> Vec<T> {
    run_jobs(jobs, cfg)
        .into_iter()
        .enumerate()
        .map(|(i, o)| match o {
            Outcome::Done { value, .. } => value,
            Outcome::Panicked { message, .. } => panic!("job {i} panicked: {message}"),
            Outcome::TimedOut { .. } => panic!("job {i} exceeded its deadline"),
            Outcome::Faulted { message, .. } => panic!("job {i} hit an injected fault: {message}"),
        })
        .collect()
}

fn spawn_worker<T: Send + 'static>(queue: JobQueue<T>, tx: Sender<Msg<T>>) {
    std::thread::Builder::new()
        .name("bench-worker".into())
        .spawn(move || loop {
            let claimed = queue.lock().unwrap_or_else(|e| e.into_inner()).pop_front();
            let Some((idx, job)) = claimed else { break };
            if tx.send(Msg::Claimed { idx }).is_err() {
                break; // supervisor gone
            }
            let start = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| job.execute())).map_err(|payload| {
                payload
                    .downcast_ref::<&str>()
                    .map(ToString::to_string)
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".into())
            });
            let elapsed = start.elapsed();
            if tx.send(Msg::Finished { idx, result, elapsed }).is_err() {
                break;
            }
        })
        .expect("spawn bench worker");
}

fn progress_line<T>(done: usize, total: usize, label: &str, outcome: &Outcome<T>, t0: Instant) {
    let wall = t0.elapsed().as_secs_f64();
    match outcome {
        Outcome::Done { elapsed, .. } => eprintln!(
            "[{done:>3}/{total}] {label:<44} {:>9.1} ms   (t+{wall:.1}s)",
            elapsed.as_secs_f64() * 1e3
        ),
        Outcome::Panicked { message, .. } => {
            let first = message.lines().next().unwrap_or("");
            eprintln!("[{done:>3}/{total}] {label:<44}       DNF   (panicked: {first})");
        }
        Outcome::TimedOut { elapsed } => eprintln!(
            "[{done:>3}/{total}] {label:<44}       DNF   (deadline {:.0}s exceeded)",
            elapsed.as_secs_f64()
        ),
        Outcome::Faulted { message, .. } => {
            let first = message.lines().next().unwrap_or("");
            eprintln!("[{done:>3}/{total}] {label:<44}       DNF   ({first})");
        }
    }
}
