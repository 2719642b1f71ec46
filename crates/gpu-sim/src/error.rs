//! Simulation faults.

use std::fmt;

/// A fault raised while executing a kernel on the simulated GPU.
///
/// Faults correspond to conditions that would kill (or hang) a real CUDA
/// launch: wild addresses, divide-by-zero, barrier deadlock, or a watchdog
/// timeout. A timeout is the condition iGUARD's parameterized timeout (§5,
/// "Race reporting") exists for: detected races must still be reported after
/// the kernel is killed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A memory access not aligned to the 4-byte word size.
    UnalignedAccess { addr: u32 },
    /// A global-memory access outside every allocation.
    OutOfBounds { addr: u32, words: usize },
    /// A shared-memory access outside the block's scratchpad.
    SharedOutOfBounds { addr: u32, words: usize },
    /// Integer division or remainder by zero.
    DivideByZero { kernel: String, pc: usize },
    /// Every live thread is blocked on a barrier that can never complete.
    Deadlock { kernel: String },
    /// The launch exceeded the step watchdog (livelock or runaway kernel).
    Timeout { steps: u64 },
    /// The grid exceeds simulator limits (e.g. block larger than 1024).
    BadLaunch { reason: String },
    /// Device memory exhausted (logical capacity accounting).
    OutOfMemory { requested: u64, available: u64 },
    /// The fault plane killed this operation (`site` names the
    /// [`faults::FaultSite`] that fired). Only produced when fault
    /// injection is enabled; consumers treat it as a non-fatal DNF.
    InjectedFault { site: String },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnalignedAccess { addr } => {
                write!(f, "unaligned 4-byte access at address {addr:#x}")
            }
            SimError::OutOfBounds { addr, words } => {
                write!(
                    f,
                    "global access at {addr:#x} beyond {words} allocated words"
                )
            }
            SimError::SharedOutOfBounds { addr, words } => {
                write!(
                    f,
                    "shared access at {addr:#x} beyond {words} scratchpad words"
                )
            }
            SimError::DivideByZero { kernel, pc } => {
                write!(f, "divide by zero in `{kernel}` at pc {pc}")
            }
            SimError::Deadlock { kernel } => {
                write!(
                    f,
                    "barrier deadlock in `{kernel}`: all live threads blocked"
                )
            }
            SimError::Timeout { steps } => {
                write!(f, "watchdog timeout after {steps} scheduler steps")
            }
            SimError::BadLaunch { reason } => write!(f, "bad launch: {reason}"),
            SimError::InjectedFault { site } => {
                write!(f, "injected fault: {site}")
            }
            SimError::OutOfMemory {
                requested,
                available,
            } => {
                write!(
                    f,
                    "device OOM: requested {requested} B, {available} B available"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SimError::Timeout { steps: 10 };
        assert!(e.to_string().contains("10"));
        let e = SimError::DivideByZero {
            kernel: "k".into(),
            pc: 3,
        };
        assert!(e.to_string().contains("`k`"));
        assert!(e.to_string().contains("pc 3"));
    }
}
