//! Topologies that stress how the products group nonzero blocks into
//! rectangles, shared by the parity, determinism and topology-oracle
//! suites. The invariant catalogue beside it (`oracle.rs`) is included
//! only by the oracle suite, `audit_properties.rs`.

use megablocks_sparse::{BlockCoord, BlockSize, Topology};

/// Builds a topology from a picture: one string per block row, `x` for a
/// nonzero block.
pub fn topology_from_picture(rows: &[&str], bs: usize) -> Topology {
    let block_cols = rows[0].len();
    let coords = rows.iter().enumerate().flat_map(|(r, line)| {
        assert_eq!(line.len(), block_cols, "ragged picture");
        line.bytes()
            .enumerate()
            .filter(|&(_, b)| b == b'x')
            .map(move |(c, _)| BlockCoord { row: r, col: c })
    });
    Topology::from_blocks(
        rows.len(),
        block_cols,
        coords,
        BlockSize::new(bs).expect("nonzero block size"),
    )
    .expect("in-range coordinates")
}

/// The grouping edge cases, each with the reason it is here.
pub fn grouping_edge_topologies(bs: usize) -> Vec<(&'static str, Topology)> {
    let bsz = BlockSize::new(bs).expect("nonzero block size");
    vec![
        (
            // Columns 0 and 2 (rows 0 and 2) hold identical lists but are
            // not neighbours: a run must not reach across the one between.
            "identical lists separated by a different one",
            topology_from_picture(&["xxx", "x.x", "xxx"], bs),
        ),
        (
            // Rows 0-1 and 3-4 are identical with an empty row between
            // (and an empty column at the end): two rectangles, and the
            // empty row's output stays zero.
            "empty block row inside a run",
            topology_from_picture(&["xx.", "xx.", "...", "xx.", "xx."], bs),
        ),
        (
            // Neighbouring columns whose row lists overlap without being
            // equal, so every column (and most rows) is its own group.
            "staircase",
            topology_from_picture(&["xx..", "xx..", ".xx.", ".xxx"], bs),
        ),
        ("one block", topology_from_picture(&["x"], bs)),
        (
            "one block inside an empty grid",
            topology_from_picture(&["...", ".x.", "..."], bs),
        ),
        (
            // One rectangle either way; only band boundaries cut it.
            "full grid",
            topology_from_picture(&["xxx", "xxx", "xxx", "xxx", "xxx"], bs),
        ),
        (
            // Three equal experts on two or eight workers: band
            // boundaries fall inside an expert's rectangle.
            "rectangles cut by band boundaries",
            Topology::for_moe(&[4 * bs, 4 * bs, 4 * bs], 3 * bs, bsz).expect("block-aligned"),
        ),
    ]
}
