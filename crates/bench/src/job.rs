//! Units of work for the experiment binaries.
//!
//! Every evaluation artifact replays many *independent deterministic*
//! simulations: each owns its own [`Gpu`](gpu_sim::machine::Gpu), seeded
//! explicitly, and shares nothing with its neighbours. [`JobSpec`] is the
//! canonical `(workload, tool, config, size, seed)` tuple the tables and
//! figures are built from; binaries run a list of them with
//! `par_map(specs, JobSpec::run)`.

use barracuda::BarracudaConfig;
use iguard::IguardConfig;
use workloads::{Size, Workload};

use crate::{gpu_config, run_barracuda, run_iguard, run_native, BarracudaRun, Driven, IguardRun};

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

/// The canonical experiment tuple: workload × tool × size × seed, run
/// under ITS scheduling as in the evaluation. Everything it owns is `'static` data or owned
/// configuration, so a spec can move to a worker thread.
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
}

impl JobSpec {
    /// The run of `workload` under `tool` at `size` and `seed`.
    #[must_use]
    pub fn new(workload: Workload, tool: ToolSpec, size: Size, seed: u64) -> Self {
        JobSpec {
            workload,
            tool,
            size,
            seed,
        }
    }

    /// Executes the run on the calling thread.
    #[must_use]
    pub fn run(self) -> RunOutput {
        let (w, size, gcfg) = (&self.workload, self.size, gpu_config(self.seed));
        match self.tool {
            ToolSpec::Native => RunOutput::Native(run_native(w, size, gcfg)),
            ToolSpec::Iguard(cfg) => RunOutput::Iguard(Box::new(run_iguard(w, size, gcfg, cfg))),
            ToolSpec::Barracuda(cfg) => RunOutput::Barracuda(run_barracuda(w, size, gcfg, cfg)),
        }
    }
}

/// Result of a [`JobSpec`] run, by tool.
#[derive(Debug)]
pub enum RunOutput {
    /// From [`ToolSpec::Native`].
    Native(Driven),
    /// From [`ToolSpec::Iguard`] (boxed: it is by far the largest).
    Iguard(Box<IguardRun>),
    /// From [`ToolSpec::Barracuda`].
    Barracuda(BarracudaRun),
}

impl RunOutput {
    /// The native run, if this was one.
    #[must_use]
    pub fn native(&self) -> Option<&Driven> {
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
