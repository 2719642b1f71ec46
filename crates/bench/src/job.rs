//! Units of work for the parallel experiment driver.
//!
//! Every evaluation artifact replays many *independent deterministic*
//! simulations: each owns its own [`Gpu`](gpu_sim::machine::Gpu), seeded
//! explicitly, and shares nothing with its neighbours. [`JobSpec`] is the
//! canonical `(workload, tool, config, size, seed)` tuple the tables and
//! figures are built from; [`Job`] is the type-erased closure form the
//! driver executes, which also lets harnesses with bespoke setups
//! (`table1`'s probe kernels, `fig14`'s footprint scaling) ride the same
//! pool via [`Job::custom`].

use barracuda::BarracudaConfig;
use gpu_sim::hook::ExecMode;
use iguard::IguardConfig;
use workloads::{Size, Workload};

use crate::{
    gpu_config, run_barracuda_with, run_iguard_with, run_native_with, BarracudaRun, IguardRun,
    NativeRun,
};

/// Which detector (if any) to attach to a run.
#[derive(Debug, Clone)]
pub enum ToolSpec {
    /// Uninstrumented run.
    Native,
    /// iGUARD with the given detector configuration.
    Iguard(IguardConfig),
    /// The Barracuda baseline with the given configuration.
    Barracuda(BarracudaConfig),
}

impl ToolSpec {
    /// Short name for labels and progress lines.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            ToolSpec::Native => "native",
            ToolSpec::Iguard(_) => "iguard",
            ToolSpec::Barracuda(_) => "barracuda",
        }
    }
}

/// The canonical experiment tuple: workload × tool × size × seed
/// (× scheduler mode). Everything it owns is `'static` data or owned
/// configuration, so a spec can cross the driver's thread boundary.
#[derive(Clone)]
pub struct JobSpec {
    /// The workload to run.
    pub workload: Workload,
    /// Detector attachment.
    pub tool: ToolSpec,
    /// Grid scale.
    pub size: Size,
    /// Schedule seed.
    pub seed: u64,
    /// Warp scheduling mode (ITS by default, matching the evaluation).
    pub mode: ExecMode,
}

impl JobSpec {
    /// Spec with the evaluation defaults (ITS scheduling).
    #[must_use]
    pub fn new(workload: Workload, tool: ToolSpec, size: Size, seed: u64) -> Self {
        JobSpec {
            workload,
            tool,
            size,
            seed,
            mode: ExecMode::Its,
        }
    }

    /// Human-readable identity, used for progress and DNF rows.
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "{}/{} size={:?} seed={}",
            self.workload.name,
            self.tool.name(),
            self.size,
            self.seed
        )
    }

    /// Executes the run on the calling thread.
    #[must_use]
    pub fn run(self) -> RunOutput {
        let gcfg = gpu_sim::machine::GpuConfig {
            mode: self.mode,
            ..gpu_config(self.seed)
        };
        match self.tool {
            ToolSpec::Native => {
                RunOutput::Native(run_native_with(&self.workload, self.size, gcfg))
            }
            ToolSpec::Iguard(cfg) => RunOutput::Iguard(Box::new(run_iguard_with(
                &self.workload,
                self.size,
                gcfg,
                cfg,
            ))),
            ToolSpec::Barracuda(cfg) => {
                RunOutput::Barracuda(run_barracuda_with(&self.workload, self.size, gcfg, cfg))
            }
        }
    }

    /// Converts the spec into a driver job.
    #[must_use]
    pub fn into_job(self) -> Job<RunOutput> {
        let label = self.label();
        Job::custom(label, move || self.run())
    }
}

/// Result of a [`JobSpec`] run, by tool.
#[derive(Debug)]
pub enum RunOutput {
    /// From [`ToolSpec::Native`].
    Native(NativeRun),
    /// From [`ToolSpec::Iguard`] (boxed: it is by far the largest).
    Iguard(Box<IguardRun>),
    /// From [`ToolSpec::Barracuda`].
    Barracuda(BarracudaRun),
}

impl RunOutput {
    /// The native run, if this was one.
    #[must_use]
    pub fn native(&self) -> Option<&NativeRun> {
        match self {
            RunOutput::Native(r) => Some(r),
            _ => None,
        }
    }

    /// The iGUARD run, if this was one.
    #[must_use]
    pub fn iguard(&self) -> Option<&IguardRun> {
        match self {
            RunOutput::Iguard(r) => Some(r),
            _ => None,
        }
    }

    /// The Barracuda run, if this was one.
    #[must_use]
    pub fn barracuda(&self) -> Option<&BarracudaRun> {
        match self {
            RunOutput::Barracuda(r) => Some(r),
            _ => None,
        }
    }
}

/// A unit of driver work: a label plus a `Send` closure producing `T`.
///
/// The closure owns everything it needs (the driver may run it on any
/// worker thread, or abandon it past its deadline), which is also the
/// compiler-checked proof that `Gpu`, `Workload`, and the detector
/// configurations crossing the spawn boundary are `Send`.
pub struct Job<T> {
    /// Identity shown in progress and DNF reporting.
    pub label: String,
    run: Box<dyn FnOnce() -> T + Send + 'static>,
}

impl<T> Job<T> {
    /// Wraps an arbitrary one-shot closure as a job.
    pub fn custom(label: impl Into<String>, run: impl FnOnce() -> T + Send + 'static) -> Self {
        Job {
            label: label.into(),
            run: Box::new(run),
        }
    }

    /// Executes the job on the calling thread.
    pub(crate) fn execute(self) -> T {
        (self.run)()
    }
}

impl<T> std::fmt::Debug for Job<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job").field("label", &self.label).finish()
    }
}
