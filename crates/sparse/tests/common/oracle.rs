//! The invariant catalogue of a `Topology`: what its BCSR, COO and
//! transpose views must satisfy for the products to read them. Every
//! constructor establishes it; the tests run it on their outputs, and
//! corrupt a [`Raw`] copy to show that each invariant is checked.

use megablocks_sparse::Topology;

/// A topology's metadata as plain arrays, free to corrupt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Raw {
    pub block_size: usize,
    pub block_rows: usize,
    pub block_cols: usize,
    pub row_offsets: Vec<usize>,
    pub col_indices: Vec<usize>,
    pub row_indices: Vec<usize>,
    pub col_offsets: Vec<usize>,
    pub transpose_indices: Vec<usize>,
    pub rows_valid: Vec<usize>,
}

impl Raw {
    /// `topo`'s metadata, read through its public accessors.
    pub fn of(topo: &Topology) -> Self {
        Self {
            block_size: topo.block_size().get(),
            block_rows: topo.block_rows(),
            block_cols: topo.block_cols(),
            row_offsets: topo.row_offsets().to_vec(),
            col_indices: topo.col_indices().to_vec(),
            row_indices: topo.row_indices().to_vec(),
            col_offsets: topo.col_offsets().to_vec(),
            transpose_indices: topo.transpose_indices().to_vec(),
            rows_valid: topo.rows_valid().to_vec(),
        }
    }
}

/// The first invariant a [`Raw`] breaks: its name in the catalogue, and
/// the entry that breaks it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub invariant: &'static str,
    pub at: String,
}

fn broken(invariant: &'static str, at: String) -> Result<(), Violation> {
    Err(Violation { invariant, at })
}

/// Offsets over `groups` groups: `groups + 1` entries, from 0 to `nnz`,
/// never decreasing; `names` are those three invariants' names.
fn check_offsets(
    names: [&'static str; 3],
    offsets: &[usize],
    groups: usize,
    nnz: usize,
) -> Result<(), Violation> {
    let [length, endpoints, monotone] = names;
    if offsets.len() != groups + 1 {
        return broken(
            length,
            format!("{} entries for {groups} groups", offsets.len()),
        );
    }
    let (first, last) = (offsets[0], offsets[groups]);
    if (first, last) != (0, nnz) {
        return broken(endpoints, format!("({first}, {last}) with {nnz} blocks"));
    }
    if let Some(g) = (0..groups).find(|&g| offsets[g] > offsets[g + 1]) {
        return broken(monotone, format!("group {g}"));
    }
    Ok(())
}

/// Checks the catalogue in order, each step relying only on the ones
/// before it, and returns the first violation:
///
/// 1. `row_offsets` has `block_rows + 1` entries, runs from 0 to the
///    number of stored blocks, and never decreases.
/// 2. Every `col_indices[k]` is below `block_cols`, and the indices
///    strictly increase within each block row (row-major storage order,
///    no duplicate block).
/// 3. CSR↔COO agreement: `row_indices` has one entry per stored block,
///    and `row_indices[k]` is the block row `row_offsets` assigns to slot
///    `k`.
/// 4. `col_offsets` is to the block columns what `row_offsets` is to the
///    rows.
/// 5. `transpose_indices` is a bijection on storage slots, position `p`
///    of column `c`'s range names a block of column `c`, and rows ascend
///    within each column: a column-major secondary index.
/// 6. `rows_valid` has one entry per block row, none above the block
///    size, and down every block column the valid rows are a prefix, so
///    a rectangle's real extent is one `m` or `k`.
pub fn check(t: &Raw) -> Result<(), Violation> {
    let nnz = t.col_indices.len();

    // (1)
    let rows = [
        "row_offsets length",
        "row_offsets endpoints",
        "row_offsets monotone",
    ];
    check_offsets(rows, &t.row_offsets, t.block_rows, nnz)?;

    // (2)
    if let Some(slot) = t.col_indices.iter().position(|&c| c >= t.block_cols) {
        let col = t.col_indices[slot];
        return broken(
            "col_indices in range",
            format!("slot {slot} holds column {col}"),
        );
    }
    for r in 0..t.block_rows {
        let mut run = t.row_offsets[r] + 1..t.row_offsets[r + 1];
        if let Some(k) = run.find(|&k| t.col_indices[k - 1] >= t.col_indices[k]) {
            return broken("col_indices sorted", format!("block row {r}, slot {k}"));
        }
    }

    // (3)
    if t.row_indices.len() != nnz {
        let n = t.row_indices.len();
        return broken(
            "row_indices length",
            format!("{n} entries for {nnz} blocks"),
        );
    }
    for r in 0..t.block_rows {
        for k in t.row_offsets[r]..t.row_offsets[r + 1] {
            if t.row_indices[k] != r {
                let coo = t.row_indices[k];
                return broken(
                    "CSR/COO agreement",
                    format!("slot {k}: COO row {coo}, CSR row {r}"),
                );
            }
        }
    }

    // (4)
    let cols = [
        "col_offsets length",
        "col_offsets endpoints",
        "col_offsets monotone",
    ];
    check_offsets(cols, &t.col_offsets, t.block_cols, nnz)?;

    // (5)
    if t.transpose_indices.len() != nnz {
        let n = t.transpose_indices.len();
        return broken(
            "transpose_indices length",
            format!("{n} entries for {nnz} blocks"),
        );
    }
    let mut seen = vec![false; nnz];
    for (pos, &slot) in t.transpose_indices.iter().enumerate() {
        if slot >= nnz {
            return broken(
                "transpose_indices in range",
                format!("position {pos} holds {slot}"),
            );
        }
        if std::mem::replace(&mut seen[slot], true) {
            return broken(
                "transpose_indices bijective",
                format!("position {pos} repeats {slot}"),
            );
        }
    }
    for c in 0..t.block_cols {
        let range = t.col_offsets[c]..t.col_offsets[c + 1];
        for pos in range.clone() {
            let slot = t.transpose_indices[pos];
            if t.col_indices[slot] != c {
                let at = format!("position {pos} names slot {slot} outside block column {c}");
                return broken("transpose_indices column", at);
            }
        }
        let row = |pos: usize| t.row_indices[t.transpose_indices[pos]];
        if let Some(pos) = range.skip(1).find(|&pos| row(pos - 1) >= row(pos)) {
            let at = format!("block column {c}, position {pos}");
            return broken("transpose_indices rows sorted", at);
        }
    }

    // (6)
    if t.rows_valid.len() != t.block_rows {
        let (n, rows) = (t.rows_valid.len(), t.block_rows);
        return broken(
            "rows_valid length",
            format!("{n} entries for {rows} block rows"),
        );
    }
    if let Some(row) = t.rows_valid.iter().position(|&v| v > t.block_size) {
        let at = format!("block row {row} holds {}", t.rows_valid[row]);
        return broken("rows_valid bound", at);
    }
    for col in 0..t.block_cols {
        let mut open = true;
        for &slot in &t.transpose_indices[t.col_offsets[col]..t.col_offsets[col + 1]] {
            let row = t.row_indices[slot];
            if !open && t.rows_valid[row] > 0 {
                let at = format!("block column {col}, block row {row}");
                return broken("rows_valid prefix", at);
            }
            open &= t.rows_valid[row] == t.block_size;
        }
    }
    Ok(())
}
