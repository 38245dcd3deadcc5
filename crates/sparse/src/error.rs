use std::error::Error;
use std::fmt;

/// Error type for block-sparse construction and product shapes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparseError {
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
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
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
        }
    }
}

impl Error for SparseError {}
