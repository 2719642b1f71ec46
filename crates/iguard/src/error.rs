//! Typed construction errors for the detector's public API.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::fmt;

use uvm_sim::UvmError;

/// A structurally invalid detector configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IguardError {
    /// The metadata table must cover at least one word.
    EmptyTable,
    /// The managed metadata region could not be created.
    Uvm(UvmError),
}

impl fmt::Display for IguardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IguardError::EmptyTable => write!(f, "metadata table cannot be empty"),
            IguardError::Uvm(e) => write!(f, "metadata region: {e}"),
        }
    }
}

impl std::error::Error for IguardError {}

impl From<UvmError> for IguardError {
    fn from(e: UvmError) -> Self {
        IguardError::Uvm(e)
    }
}
