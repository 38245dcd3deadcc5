use std::error::Error;
use std::fmt;

use megablocks_exec::{CancelKind, ExecError};

use crate::audit::AuditError;

/// Error type for block-sparse construction and validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparseError {
    /// A sanitizer invariant was violated (metadata corruption, a broken
    /// kernel launch plan, or NaN/Inf poisoning in a kernel output).
    Audit(AuditError),
    /// A block size of zero was requested.
    ZeroBlockSize,
    /// A dimension is not divisible by the block size.
    Unaligned {
        /// Which quantity was misaligned.
        what: &'static str,
        /// The misaligned value.
        value: usize,
        /// The required divisor (the block size).
        block_size: usize,
    },
    /// A block coordinate lies outside the matrix.
    CoordOutOfRange {
        /// The offending block row.
        row: usize,
        /// The offending block column.
        col: usize,
        /// Number of block rows in the matrix.
        block_rows: usize,
        /// Number of block columns in the matrix.
        block_cols: usize,
    },
    /// The same block coordinate appeared twice.
    DuplicateBlock {
        /// The duplicated block row.
        row: usize,
        /// The duplicated block column.
        col: usize,
    },
    /// Mismatched input lengths or shapes.
    Mismatch(String),
    /// The product's kernel launch was abandoned before completion: its
    /// cancellation context tripped (explicit cancel or expired
    /// deadline), the stall watchdog fired, or the pool shed the launch
    /// under overload. The partially-written output is discarded with
    /// this error.
    Cancelled {
        /// The telemetry name of the abandoned product.
        op: &'static str,
        /// Why the launch was abandoned.
        kind: CancelKind,
    },
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseError::Audit(e) => write!(f, "{e}"),
            SparseError::ZeroBlockSize => write!(f, "block size must be nonzero"),
            SparseError::Unaligned {
                what,
                value,
                block_size,
            } => write!(
                f,
                "{what} = {value} is not a multiple of block size {block_size}"
            ),
            SparseError::CoordOutOfRange {
                row,
                col,
                block_rows,
                block_cols,
            } => write!(
                f,
                "block ({row}, {col}) out of range for {block_rows}x{block_cols} block grid"
            ),
            SparseError::DuplicateBlock { row, col } => {
                write!(f, "duplicate nonzero block at ({row}, {col})")
            }
            SparseError::Mismatch(s) => write!(f, "{s}"),
            // Leads with the exec panic prefix for the kind, so a message
            // crossing a panic boundary still classifies uniformly
            // (retryable deadline vs. non-retryable cancel).
            SparseError::Cancelled { op, kind } => {
                write!(
                    f,
                    "{}: {op} abandoned before completion",
                    kind.panic_prefix()
                )
            }
        }
    }
}

impl Error for SparseError {}

impl From<AuditError> for SparseError {
    fn from(e: AuditError) -> Self {
        SparseError::Audit(e)
    }
}

/// A failed launch in the sparse error space keeps the [`CancelKind`] —
/// explicit cancel, expired deadline, watchdog stall, pool shed — upper
/// layers classify retryability by.
impl From<ExecError> for SparseError {
    fn from(e: ExecError) -> Self {
        let kind = e.kind();
        let (ExecError::Cancelled { op }
        | ExecError::DeadlineExceeded { op }
        | ExecError::Overloaded { op }) = e;
        SparseError::Cancelled { op, kind }
    }
}
