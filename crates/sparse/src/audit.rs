//! Metadata sanitizer and write-disjointness race checker.
//!
//! The hybrid blocked-CSR-COO encoding (§5.1.3) plus the transpose
//! secondary index (§5.1.4) store the same sparsity pattern three times
//! over; the threaded SDD/DSD/DDS kernels assume all three views agree and
//! that their per-thread output partitions never alias. This module turns
//! those assumptions into checked invariants:
//!
//! * [`Topology::validate`] proves the metadata arrays are mutually
//!   consistent, returning a structured [`AuditError`] naming the first
//!   violated invariant (see the invariant catalogue on the method).
//! * The `verify_*_partition` functions prove — *before any worker thread
//!   spawns* — that a kernel's planned per-thread work assignment is
//!   pairwise disjoint and covering, i.e. that no two threads can write the
//!   same output block and no block is skipped. This is a TSan-style
//!   guarantee the CPU substrate can establish statically from the topology
//!   alone, because every kernel derives its write set purely from the
//!   metadata.
//! * [`check_finite`] implements NaN/Inf poisoning detection on kernel
//!   outputs: a non-finite value in a freshly computed product is always a
//!   bug (inputs are finite activations and weights), so in debug builds
//!   every sparse op scans its output before returning.
//!
//! All of it runs automatically at sparse-op entry in debug builds
//! (`cfg!(debug_assertions)`), so every `cargo test` exercises it; release
//! builds skip the checks and benchmarks pay nothing.

use std::fmt;

use crate::Topology;

/// Classification of a non-finite value found by output poisoning checks.
///
/// Stored instead of the raw `f32` so [`AuditError`] stays `Eq`-comparable
/// in tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NonFiniteKind {
    /// A NaN payload.
    NaN,
    /// Positive infinity.
    PosInf,
    /// Negative infinity.
    NegInf,
}

impl NonFiniteKind {
    /// Classifies `v`, or `None` if it is finite.
    pub fn of(v: f32) -> Option<Self> {
        if v.is_nan() {
            Some(NonFiniteKind::NaN)
        } else if v == f32::INFINITY {
            Some(NonFiniteKind::PosInf)
        } else if v == f32::NEG_INFINITY {
            Some(NonFiniteKind::NegInf)
        } else {
            None
        }
    }
}

impl fmt::Display for NonFiniteKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NonFiniteKind::NaN => write!(f, "NaN"),
            NonFiniteKind::PosInf => write!(f, "+inf"),
            NonFiniteKind::NegInf => write!(f, "-inf"),
        }
    }
}

/// A violated topology or kernel-partition invariant.
///
/// Each variant names one invariant from the catalogue in
/// [`Topology::validate`]; the payload pinpoints the offending entry so a
/// corrupted field is diagnosable without a debugger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditError {
    /// `row_offsets` must have exactly `block_rows + 1` entries.
    RowOffsetsLength {
        /// `block_rows + 1`.
        expected: usize,
        /// Actual length.
        actual: usize,
    },
    /// `row_offsets[0]` must be 0 and `row_offsets[block_rows]` must equal
    /// the number of stored blocks.
    RowOffsetsEndpoints {
        /// First entry.
        first: usize,
        /// Last entry.
        last: usize,
        /// Stored block count (`col_indices.len()`).
        nnz: usize,
    },
    /// `row_offsets` must be monotone nondecreasing.
    RowOffsetsNotMonotone {
        /// Block row at which the offsets decrease.
        row: usize,
        /// `row_offsets[row]`.
        prev: usize,
        /// `row_offsets[row + 1]`.
        next: usize,
    },
    /// Every stored column index must be `< block_cols`.
    ColIndexOutOfRange {
        /// Storage slot of the offending block.
        slot: usize,
        /// The out-of-range column.
        col: usize,
        /// Number of block columns.
        block_cols: usize,
    },
    /// Column indices within one block row must be strictly increasing
    /// (sorted, no duplicates) — BCSR storage order.
    ColIndicesUnsorted {
        /// The block row whose indices are out of order.
        row: usize,
        /// Storage slot of the first out-of-order entry.
        slot: usize,
    },
    /// The COO half must be exactly as long as the BCSR column list.
    CooLengthMismatch {
        /// `col_indices.len()`.
        expected: usize,
        /// `row_indices.len()`.
        actual: usize,
    },
    /// CSR↔COO agreement: the materialized `row_indices[k]` must equal the
    /// block row that `row_offsets` assigns to storage slot `k`.
    CooRowMismatch {
        /// The storage slot.
        slot: usize,
        /// What the COO half claims.
        coo_row: usize,
        /// What the CSR offsets imply.
        csr_row: usize,
    },
    /// `col_offsets` must have exactly `block_cols + 1` entries.
    ColOffsetsLength {
        /// `block_cols + 1`.
        expected: usize,
        /// Actual length.
        actual: usize,
    },
    /// `col_offsets[0]` must be 0 and `col_offsets[block_cols]` must equal
    /// the number of stored blocks.
    ColOffsetsEndpoints {
        /// First entry.
        first: usize,
        /// Last entry.
        last: usize,
        /// Stored block count.
        nnz: usize,
    },
    /// `col_offsets` must be monotone nondecreasing.
    ColOffsetsNotMonotone {
        /// Block column at which the offsets decrease.
        col: usize,
        /// `col_offsets[col]`.
        prev: usize,
        /// `col_offsets[col + 1]`.
        next: usize,
    },
    /// `transpose_indices` must be exactly one entry per stored block.
    TransposeLengthMismatch {
        /// Stored block count.
        expected: usize,
        /// `transpose_indices.len()`.
        actual: usize,
    },
    /// Every transpose index must name a valid storage slot.
    TransposeOutOfRange {
        /// Position in `transpose_indices`.
        pos: usize,
        /// The out-of-range value.
        value: usize,
        /// Stored block count.
        nnz: usize,
    },
    /// `transpose_indices` must be a bijection on storage slots (no slot
    /// listed twice).
    TransposeNotBijective {
        /// Position of the second occurrence.
        pos: usize,
        /// The duplicated storage slot.
        value: usize,
    },
    /// Transpose-index agreement with `col_offsets`: the blocks listed in
    /// `transpose_indices[col_offsets[c]..col_offsets[c+1]]` must all live
    /// in block column `c`.
    TransposeColumnMismatch {
        /// Position in `transpose_indices`.
        pos: usize,
        /// The storage slot found there.
        slot: usize,
        /// The column that `col_offsets` assigns to this position.
        expected_col: usize,
        /// The column the slot actually lives in.
        actual_col: usize,
    },
    /// Within one block column, `transpose_indices` must enumerate blocks
    /// in ascending row order (column-major traversal order).
    TransposeRowsUnsorted {
        /// The block column.
        col: usize,
        /// Position in `transpose_indices` of the out-of-order entry.
        pos: usize,
    },
    /// `rows_valid` must have exactly one entry per block row.
    RowsValidLength {
        /// `block_rows`.
        expected: usize,
        /// Actual length.
        actual: usize,
    },
    /// A block row cannot hold more valid rows than the block size.
    RowsValidOutOfRange {
        /// The block row.
        row: usize,
        /// Its `rows_valid` entry.
        valid: usize,
    },
    /// Down a block column the valid rows must be a prefix: no valid row
    /// below a block row that is not full.
    RowsValidHole {
        /// The block column.
        col: usize,
        /// The block row holding valid rows below the hole.
        row: usize,
    },
    /// A kernel output contained a non-finite value (NaN/Inf poisoning).
    NonFinite {
        /// The kernel that produced the value.
        op: &'static str,
        /// Flat index into the output storage.
        index: usize,
        /// What kind of non-finite value.
        kind: NonFiniteKind,
    },
    /// Two worker threads were assigned the same output block.
    PartitionOverlap {
        /// The kernel whose launch plan failed.
        op: &'static str,
        /// The doubly-owned storage slot.
        slot: usize,
        /// Block row of the slot (usize::MAX if the slot is out of range).
        row: usize,
        /// Block column of the slot.
        col: usize,
        /// First thread that claimed it.
        first_thread: usize,
        /// Second thread that claimed it.
        second_thread: usize,
    },
    /// A storage slot was assigned to no worker thread.
    PartitionGap {
        /// The kernel whose launch plan failed.
        op: &'static str,
        /// The orphaned storage slot.
        slot: usize,
        /// Block row of the slot.
        row: usize,
        /// Block column of the slot.
        col: usize,
    },
    /// A planned band partition of output rows does not tile the output.
    BandPartitionBroken {
        /// The kernel whose launch plan failed.
        op: &'static str,
        /// Total rows that must be covered.
        rows: usize,
        /// Rows actually covered by the planned bands.
        covered: usize,
    },
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::RowOffsetsLength { expected, actual } => write!(
                f,
                "audit: row_offsets has {actual} entries, expected {expected}"
            ),
            AuditError::RowOffsetsEndpoints { first, last, nnz } => write!(
                f,
                "audit: row_offsets endpoints ({first}, {last}) must be (0, {nnz})"
            ),
            AuditError::RowOffsetsNotMonotone { row, prev, next } => write!(
                f,
                "audit: row_offsets decreases at block row {row} ({prev} -> {next})"
            ),
            AuditError::ColIndexOutOfRange {
                slot,
                col,
                block_cols,
            } => write!(
                f,
                "audit: col_indices[{slot}] = {col} out of range for {block_cols} block columns"
            ),
            AuditError::ColIndicesUnsorted { row, slot } => write!(
                f,
                "audit: col_indices not strictly increasing within block row {row} (slot {slot})"
            ),
            AuditError::CooLengthMismatch { expected, actual } => write!(
                f,
                "audit: row_indices has {actual} entries, col_indices has {expected}"
            ),
            AuditError::CooRowMismatch {
                slot,
                coo_row,
                csr_row,
            } => write!(
                f,
                "audit: CSR/COO disagree at slot {slot}: row_indices says {coo_row}, row_offsets imply {csr_row}"
            ),
            AuditError::ColOffsetsLength { expected, actual } => write!(
                f,
                "audit: col_offsets has {actual} entries, expected {expected}"
            ),
            AuditError::ColOffsetsEndpoints { first, last, nnz } => write!(
                f,
                "audit: col_offsets endpoints ({first}, {last}) must be (0, {nnz})"
            ),
            AuditError::ColOffsetsNotMonotone { col, prev, next } => write!(
                f,
                "audit: col_offsets decreases at block column {col} ({prev} -> {next})"
            ),
            AuditError::TransposeLengthMismatch { expected, actual } => write!(
                f,
                "audit: transpose_indices has {actual} entries, expected {expected}"
            ),
            AuditError::TransposeOutOfRange { pos, value, nnz } => write!(
                f,
                "audit: transpose_indices[{pos}] = {value} is not a storage slot (nnz = {nnz})"
            ),
            AuditError::TransposeNotBijective { pos, value } => write!(
                f,
                "audit: transpose_indices repeats storage slot {value} at position {pos}"
            ),
            AuditError::TransposeColumnMismatch {
                pos,
                slot,
                expected_col,
                actual_col,
            } => write!(
                f,
                "audit: transpose_indices[{pos}] = {slot} lies in block column {actual_col}, but col_offsets place position {pos} in column {expected_col}"
            ),
            AuditError::TransposeRowsUnsorted { col, pos } => write!(
                f,
                "audit: transpose_indices rows not ascending within block column {col} (position {pos})"
            ),
            AuditError::RowsValidLength { expected, actual } => write!(
                f,
                "audit: rows_valid has {actual} entries, expected {expected}"
            ),
            AuditError::RowsValidOutOfRange { row, valid } => write!(
                f,
                "audit: rows_valid[{row}] = {valid} exceeds the block size"
            ),
            AuditError::RowsValidHole { col, row } => write!(
                f,
                "audit: block row {row} holds valid rows below a non-full block row of block column {col}"
            ),
            AuditError::NonFinite { op, index, kind } => write!(
                f,
                "audit: {op} produced {kind} at output index {index}"
            ),
            AuditError::PartitionOverlap {
                op,
                slot,
                row,
                col,
                first_thread,
                second_thread,
            } => write!(
                f,
                "audit: {op} launch plan assigns block ({row}, {col}) (slot {slot}) to both thread {first_thread} and thread {second_thread}"
            ),
            AuditError::PartitionGap { op, slot, row, col } => write!(
                f,
                "audit: {op} launch plan leaves block ({row}, {col}) (slot {slot}) unassigned"
            ),
            AuditError::BandPartitionBroken { op, rows, covered } => write!(
                f,
                "audit: {op} band partition covers {covered} of {rows} output rows"
            ),
        }
    }
}

impl std::error::Error for AuditError {}

impl Topology {
    /// Checks every invariant the kernels rely on, returning the first
    /// violation as a structured [`AuditError`].
    ///
    /// The invariant catalogue (each maps to a distinct error variant):
    ///
    /// 1. `row_offsets` has length `block_rows + 1`, starts at 0, ends at
    ///    `nnz_blocks`, and is monotone nondecreasing.
    /// 2. Every `col_indices[k]` is in `0..block_cols`, and indices are
    ///    strictly increasing within each block row (row-major storage
    ///    order, no duplicate blocks).
    /// 3. CSR↔COO agreement: `row_indices` has one entry per stored block
    ///    and `row_indices[k]` equals the block row that `row_offsets`
    ///    assigns to slot `k`.
    /// 4. `col_offsets` has length `block_cols + 1`, starts at 0, ends at
    ///    `nnz_blocks`, and is monotone nondecreasing.
    /// 5. `transpose_indices` is a bijection on storage slots, consistent
    ///    with `col_offsets` (position `p` in column `c`'s range names a
    ///    block in column `c`) and ascending in row within each column —
    ///    i.e. a correct column-major secondary index.
    /// 6. `rows_valid` has one entry per block row, none above the block
    ///    size, and down every block column the valid rows are a prefix —
    ///    so a rectangle's real row extent is one `m` or `k`.
    ///
    /// Topologies built through the checked constructors always pass; this
    /// exists to catch in-memory corruption and to guard
    /// [`Topology::from_raw_parts_unchecked`] inputs in tests and tools.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), AuditError> {
        let t = &*self.inner;
        let nnz = t.col_indices.len();

        // (1) row_offsets shape, endpoints, monotonicity.
        if t.row_offsets.len() != t.block_rows + 1 {
            return Err(AuditError::RowOffsetsLength {
                expected: t.block_rows + 1,
                actual: t.row_offsets.len(),
            });
        }
        let first = t.row_offsets[0];
        let last = t.row_offsets[t.block_rows];
        if first != 0 || last != nnz {
            return Err(AuditError::RowOffsetsEndpoints { first, last, nnz });
        }
        for r in 0..t.block_rows {
            if t.row_offsets[r] > t.row_offsets[r + 1] {
                return Err(AuditError::RowOffsetsNotMonotone {
                    row: r,
                    prev: t.row_offsets[r],
                    next: t.row_offsets[r + 1],
                });
            }
        }

        // (2) col_indices bounds + strict ordering within each row.
        for (slot, &c) in t.col_indices.iter().enumerate() {
            if c >= t.block_cols {
                return Err(AuditError::ColIndexOutOfRange {
                    slot,
                    col: c,
                    block_cols: t.block_cols,
                });
            }
        }
        for r in 0..t.block_rows {
            let lo = t.row_offsets[r];
            let hi = t.row_offsets[r + 1];
            for k in lo + 1..hi {
                if t.col_indices[k - 1] >= t.col_indices[k] {
                    return Err(AuditError::ColIndicesUnsorted { row: r, slot: k });
                }
            }
        }

        // (3) COO half: length and CSR agreement.
        if t.row_indices.len() != nnz {
            return Err(AuditError::CooLengthMismatch {
                expected: nnz,
                actual: t.row_indices.len(),
            });
        }
        for r in 0..t.block_rows {
            for k in t.row_offsets[r]..t.row_offsets[r + 1] {
                if t.row_indices[k] != r {
                    return Err(AuditError::CooRowMismatch {
                        slot: k,
                        coo_row: t.row_indices[k],
                        csr_row: r,
                    });
                }
            }
        }

        // (4) col_offsets shape, endpoints, monotonicity.
        if t.col_offsets.len() != t.block_cols + 1 {
            return Err(AuditError::ColOffsetsLength {
                expected: t.block_cols + 1,
                actual: t.col_offsets.len(),
            });
        }
        let first = t.col_offsets[0];
        let last = t.col_offsets[t.block_cols];
        if first != 0 || last != nnz {
            return Err(AuditError::ColOffsetsEndpoints { first, last, nnz });
        }
        for c in 0..t.block_cols {
            if t.col_offsets[c] > t.col_offsets[c + 1] {
                return Err(AuditError::ColOffsetsNotMonotone {
                    col: c,
                    prev: t.col_offsets[c],
                    next: t.col_offsets[c + 1],
                });
            }
        }

        // (5) transpose_indices: bijection + column agreement + row order.
        if t.transpose_indices.len() != nnz {
            return Err(AuditError::TransposeLengthMismatch {
                expected: nnz,
                actual: t.transpose_indices.len(),
            });
        }
        let mut seen = vec![false; nnz];
        for (pos, &slot) in t.transpose_indices.iter().enumerate() {
            if slot >= nnz {
                return Err(AuditError::TransposeOutOfRange {
                    pos,
                    value: slot,
                    nnz,
                });
            }
            if seen[slot] {
                return Err(AuditError::TransposeNotBijective { pos, value: slot });
            }
            seen[slot] = true;
        }
        for c in 0..t.block_cols {
            let lo = t.col_offsets[c];
            let hi = t.col_offsets[c + 1];
            for pos in lo..hi {
                let slot = t.transpose_indices[pos];
                let actual_col = t.col_indices[slot];
                if actual_col != c {
                    return Err(AuditError::TransposeColumnMismatch {
                        pos,
                        slot,
                        expected_col: c,
                        actual_col,
                    });
                }
            }
            for pos in lo + 1..hi {
                let prev = t.row_indices[t.transpose_indices[pos - 1]];
                let next = t.row_indices[t.transpose_indices[pos]];
                if prev >= next {
                    return Err(AuditError::TransposeRowsUnsorted { col: c, pos });
                }
            }
        }

        // (6) rows_valid: shape, bounds, prefix down every block column.
        let bs = t.block_size.get();
        let (expected, actual) = (t.block_rows, t.rows_valid.len());
        if expected != actual {
            return Err(AuditError::RowsValidLength { expected, actual });
        }
        if let Some(row) = t.rows_valid.iter().position(|&v| v > bs) {
            let valid = t.rows_valid[row];
            return Err(AuditError::RowsValidOutOfRange { row, valid });
        }
        for col in 0..t.block_cols {
            let mut open = true;
            for &slot in &t.transpose_indices[t.col_offsets[col]..t.col_offsets[col + 1]] {
                let row = t.row_indices[slot];
                if !open && t.rows_valid[row] > 0 {
                    return Err(AuditError::RowsValidHole { col, row });
                }
                open &= t.rows_valid[row] == bs;
            }
        }

        Ok(())
    }
}

/// Looks up block coordinates for diagnostics, tolerating out-of-range
/// slots (corrupt plans may reference slots past the storage).
fn coord_of(topo: &Topology, slot: usize) -> (usize, usize) {
    if slot < topo.nnz_blocks() {
        let c = topo.coord(slot);
        (c.row, c.col)
    } else {
        (usize::MAX, usize::MAX)
    }
}

/// Proves a planned assignment of storage slots to worker threads is
/// pairwise disjoint and covering.
///
/// `owners` yields, per thread, the storage slots that thread will write.
/// Every slot in `0..topo.nnz_blocks()` must be claimed by exactly one
/// thread; the first violation is reported with the offending block's
/// coordinates.
///
/// # Errors
///
/// [`AuditError::PartitionOverlap`] if two threads claim one slot,
/// [`AuditError::PartitionGap`] if a slot is unclaimed, and
/// [`AuditError::TransposeOutOfRange`]-style coordinates (`usize::MAX`) if
/// a claimed slot does not exist.
pub fn verify_slot_partition<I, S>(
    op: &'static str,
    topo: &Topology,
    owners: I,
) -> Result<(), AuditError>
where
    I: IntoIterator<Item = S>,
    S: IntoIterator<Item = usize>,
{
    let nnz = topo.nnz_blocks();
    // usize::MAX marks "unclaimed"; thread ids are well below that.
    let mut owner = vec![usize::MAX; nnz];
    for (thread, slots) in owners.into_iter().enumerate() {
        for slot in slots {
            let (row, col) = coord_of(topo, slot);
            if slot >= nnz {
                return Err(AuditError::PartitionGap { op, slot, row, col });
            }
            if owner[slot] != usize::MAX {
                return Err(AuditError::PartitionOverlap {
                    op,
                    slot,
                    row,
                    col,
                    first_thread: owner[slot],
                    second_thread: thread,
                });
            }
            owner[slot] = thread;
        }
    }
    if let Some(slot) = owner.iter().position(|&o| o == usize::MAX) {
        let (row, col) = coord_of(topo, slot);
        return Err(AuditError::PartitionGap { op, slot, row, col });
    }
    Ok(())
}

/// Checks that `cuts` are band boundaries over `groups` block rows
/// (columns): they start at 0, end at `groups` and never decrease.
fn verify_cuts(op: &'static str, groups: usize, cuts: &[usize]) -> Result<(), AuditError> {
    let broken = |covered: usize| AuditError::BandPartitionBroken {
        op,
        rows: groups,
        covered,
    };
    if cuts.first() != Some(&0) {
        return Err(broken(0));
    }
    if let Some(w) = cuts.windows(2).find(|w| w[0] > w[1]) {
        return Err(broken(w[0].min(groups)));
    }
    match cuts.last() {
        Some(&last) if last == groups => Ok(()),
        last => Err(broken(last.map_or(0, |&l| l.min(groups)))),
    }
}

/// Verifies the SDD launch plan the op is about to launch: band `i` owns
/// block rows `cuts[i]..cuts[i + 1]`, hence the contiguous storage slots
/// `row_offsets[cuts[i]]..row_offsets[cuts[i + 1]]` (the plan's actual
/// boundaries, balanced by nonzero count — not a uniform split).
///
/// Contiguous ranges are disjoint by arithmetic, so what this proves is
/// that the bands tile the block rows, that their slot ranges *cover* the
/// storage, and that no two distinct logical blocks share a storage slot
/// — i.e. the metadata the workers read names each output block exactly
/// once.
///
/// # Errors
///
/// [`AuditError::BandPartitionBroken`] if the cuts do not tile the block
/// rows; otherwise see [`verify_slot_partition`].
pub fn verify_sdd_partition(topo: &Topology, cuts: &[usize]) -> Result<(), AuditError> {
    verify_band_partition("sdd", topo, false, cuts)
}

/// Verifies the DSD launch plan the op is about to launch: output
/// row-bands are grouped by block row (`transposed = false`) or block
/// column (`transposed = true`), band `i` owns groups
/// `cuts[i]..cuts[i + 1]`, and the per-group slot lists drawn from the CSR
/// offsets (or the transpose secondary index) consume every stored block
/// exactly once.
///
/// This is the check that catches a corrupted `transpose_indices` *before*
/// the transposed-traversal kernels read through it in parallel.
///
/// # Errors
///
/// [`AuditError::BandPartitionBroken`] if the cuts do not tile the group
/// space; otherwise see [`verify_slot_partition`].
pub fn verify_dsd_partition(
    topo: &Topology,
    transposed: bool,
    cuts: &[usize],
) -> Result<(), AuditError> {
    let op = if transposed { "dst_d" } else { "dsd" };
    verify_band_partition(op, topo, transposed, cuts)
}

fn verify_band_partition(
    op: &'static str,
    topo: &Topology,
    transposed: bool,
    cuts: &[usize],
) -> Result<(), AuditError> {
    let (groups, offsets) = if transposed {
        (topo.block_cols(), topo.col_offsets())
    } else {
        (topo.block_rows(), topo.row_offsets())
    };
    verify_cuts(op, groups, cuts)?;
    // Guard against corrupted offsets before slicing per-band ranges.
    if offsets.len() != groups + 1 {
        return Err(AuditError::BandPartitionBroken {
            op,
            rows: groups,
            covered: 0,
        });
    }
    let nnz = topo.nnz_blocks();
    let owners = cuts.windows(2).map(|w| {
        let lo = offsets[w[0]].min(nnz);
        let hi = offsets[w[1]].min(nnz).max(lo);
        (lo..hi).map(move |pos| {
            if transposed {
                topo.transpose_indices().get(pos).copied().unwrap_or(nnz)
            } else {
                pos
            }
        })
    });
    verify_slot_partition(op, topo, owners)
}

/// Scans a kernel output for NaN/Inf poisoning.
///
/// # Errors
///
/// Returns [`AuditError::NonFinite`] naming the first poisoned index.
pub fn check_finite(op: &'static str, data: &[f32]) -> Result<(), AuditError> {
    for (index, &v) in data.iter().enumerate() {
        if let Some(kind) = NonFiniteKind::of(v) {
            return Err(AuditError::NonFinite { op, index, kind });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockCoord, BlockSize};

    fn bs(n: usize) -> BlockSize {
        BlockSize::new(n).unwrap()
    }

    fn sample() -> Topology {
        Topology::from_blocks(
            3,
            4,
            [
                BlockCoord { row: 0, col: 0 },
                BlockCoord { row: 0, col: 3 },
                BlockCoord { row: 1, col: 1 },
                BlockCoord { row: 2, col: 0 },
                BlockCoord { row: 2, col: 2 },
            ],
            bs(2),
        )
        .unwrap()
    }

    #[test]
    fn constructed_topologies_validate() {
        assert_eq!(sample().validate(), Ok(()));
        assert_eq!(
            Topology::for_moe(&[128, 0, 256], 256, bs(128))
                .unwrap()
                .validate(),
            Ok(())
        );
        assert_eq!(
            Topology::from_blocks(2, 2, [], bs(4)).unwrap().validate(),
            Ok(())
        );
    }

    #[test]
    fn slot_partition_detects_overlap_and_gap() {
        let topo = sample();
        // Slot 1 claimed twice.
        let err = verify_slot_partition("sdd", &topo, [vec![0, 1], vec![1, 2, 3, 4]]).unwrap_err();
        assert_eq!(
            err,
            AuditError::PartitionOverlap {
                op: "sdd",
                slot: 1,
                row: 0,
                col: 3,
                first_thread: 0,
                second_thread: 1,
            }
        );
        // Slot 4 orphaned.
        let err = verify_slot_partition("sdd", &topo, [vec![0, 1], vec![2, 3]]).unwrap_err();
        assert!(matches!(err, AuditError::PartitionGap { slot: 4, .. }));
    }

    #[test]
    fn kernel_launch_plans_verify() {
        let topo = sample();
        // Every way of cutting the block rows / columns into bands,
        // including empty bands, tiles the storage.
        for cuts in [
            vec![0, 3],
            vec![0, 1, 3],
            vec![0, 1, 2, 3],
            vec![0, 0, 2, 3],
        ] {
            assert_eq!(verify_sdd_partition(&topo, &cuts), Ok(()));
            assert_eq!(verify_dsd_partition(&topo, false, &cuts), Ok(()));
        }
        for cuts in [vec![0, 4], vec![0, 2, 4], vec![0, 1, 2, 3, 4]] {
            assert_eq!(verify_dsd_partition(&topo, true, &cuts), Ok(()));
        }
    }

    #[test]
    fn cuts_that_do_not_tile_the_groups_are_rejected() {
        let topo = sample();
        let broken = |covered| {
            Err(AuditError::BandPartitionBroken {
                op: "dsd",
                rows: 3,
                covered,
            })
        };
        assert_eq!(verify_dsd_partition(&topo, false, &[0, 2]), broken(2));
        assert_eq!(verify_dsd_partition(&topo, false, &[1, 3]), broken(0));
        assert_eq!(verify_dsd_partition(&topo, false, &[0, 2, 1, 3]), broken(2));
        assert_eq!(verify_dsd_partition(&topo, false, &[]), broken(0));
        assert!(matches!(
            verify_sdd_partition(&topo, &[0, 2]),
            Err(AuditError::BandPartitionBroken { op: "sdd", .. })
        ));
    }

    #[test]
    fn corrupt_transpose_index_fails_dsd_plan() {
        let good = sample();
        let t = &good.inner;
        // Swap two transpose entries across columns: still a bijection, but
        // the column-major traversal now visits a block of the wrong column.
        let mut ti = t.transpose_indices.clone();
        ti.swap(0, t.transpose_indices.len() - 1);
        let bad = Topology::from_raw_parts_unchecked(
            t.block_size,
            t.block_rows,
            t.block_cols,
            t.row_offsets.clone(),
            t.col_indices.clone(),
            t.row_indices.clone(),
            t.col_offsets.clone(),
            ti,
            t.rows_valid.clone(),
        );
        assert!(bad.validate().is_err());
        // The partition proof still passes (it only needs a bijection) —
        // validate() is the stronger check; together they cover both.
        assert_eq!(verify_dsd_partition(&bad, true, &[0, 2, 4]), Ok(()));
    }

    #[test]
    fn check_finite_classifies() {
        assert_eq!(check_finite("sdd", &[0.0, 1.5, -2.0]), Ok(()));
        assert_eq!(
            check_finite("sdd", &[0.0, f32::NAN]),
            Err(AuditError::NonFinite {
                op: "sdd",
                index: 1,
                kind: NonFiniteKind::NaN
            })
        );
        assert_eq!(
            check_finite("dsd", &[f32::NEG_INFINITY]),
            Err(AuditError::NonFinite {
                op: "dsd",
                index: 0,
                kind: NonFiniteKind::NegInf
            })
        );
    }
}
