//! The topology invariant catalogue (`common/oracle.rs`) as an oracle over
//! every constructor's output, and as a detector of corrupted metadata.
//!
//! Three claims:
//!
//! 1. every topology a constructor builds — `from_blocks`,
//!    `block_diagonal`, `for_moe`, `with_rows_valid`, and the
//!    `transposed()` of each — satisfies the catalogue;
//! 2. corrupting any single metadata field of a valid topology breaks it,
//!    and the seeded corruptions name pairwise distinct invariants;
//! 3. the transpose secondary index round-trips
//!    (`transposed().transposed()` restores the original encoding).

mod common;
#[path = "common/oracle.rs"]
mod oracle;

use common::grouping_edge_topologies;
use megablocks_sparse::{BlockCoord, BlockSize, SparseError, Topology};
use oracle::{check, Raw, Violation};
use proptest::collection::vec;
use proptest::prelude::*;

/// A random topology: up to a 5x5 block grid with an arbitrary subset of
/// blocks present (possibly none).
fn topology() -> impl Strategy<Value = Topology> {
    (1usize..6, 1usize..6, 1usize..4)
        .prop_flat_map(|(rows, cols, bs_exp)| {
            (
                Just(rows),
                Just(cols),
                Just(1usize << bs_exp),
                vec(proptest::bool::ANY, rows * cols),
            )
        })
        .prop_map(|(rows, cols, bs, mask)| {
            let coords = mask
                .iter()
                .enumerate()
                .filter(|(_, &m)| m)
                .map(|(i, _)| BlockCoord {
                    row: i / cols,
                    col: i % cols,
                });
            Topology::from_blocks(rows, cols, coords, BlockSize::new(bs).unwrap())
                .expect("in-range, duplicate-free coordinates")
        })
}

/// Like [`topology`], but block (0, 0) is always present, so there is
/// always metadata to corrupt.
fn nonempty_topology() -> impl Strategy<Value = Topology> {
    topology().prop_map(|t| {
        if t.nnz_blocks() > 0 {
            return t;
        }
        let coords = [BlockCoord { row: 0, col: 0 }];
        Topology::from_blocks(t.block_rows(), t.block_cols(), coords, t.block_size())
            .expect("single in-range block")
    })
}

/// The inputs of the other constructors at one block size: per-expert
/// `(block rows, block columns)` for `block_diagonal`, per-expert token
/// counts (zeros included) and spare capacity blocks for `for_moe` and
/// `with_rows_valid`.
type Layouts = (usize, Vec<(usize, usize)>, Vec<usize>, usize);

fn layouts() -> impl Strategy<Value = Layouts> {
    (0u32..4).prop_flat_map(|e| {
        let bs = 1usize << e;
        (
            Just(bs),
            vec((0usize..4, 0usize..4), 1..5),
            vec(0..3 * bs + 2, 1..6),
            0usize..3,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn constructed_topologies_validate(
        from_blocks in topology(),
        (bs, diagonal, counts, slack) in layouts(),
    ) {
        let block = BlockSize::new(bs).unwrap();
        let ffn = 2 * bs;
        let (rows, cols): (Vec<usize>, Vec<usize>) = diagonal.into_iter().unzip();
        // A capacity layout: every expert owns the rows of the fullest,
        // plus `slack` blocks, and keeps a prefix of its count.
        let capacity = counts.iter().map(|c| c.div_ceil(bs)).max().unwrap() + slack;
        let prefixes = counts
            .iter()
            .flat_map(|&c| (0..capacity).map(move |b| c.saturating_sub(b * bs).min(bs)))
            .collect();
        let uniform = Topology::for_moe(&vec![capacity * bs; counts.len()], ffn, block).unwrap();
        let mut built = vec![
            ("from_blocks", from_blocks),
            ("block_diagonal", Topology::block_diagonal(&rows, &cols, block).unwrap()),
            ("for_moe", Topology::for_moe(&counts, ffn, block).unwrap()),
            ("with_rows_valid", uniform.with_rows_valid(prefixes).unwrap()),
        ];
        built.extend(grouping_edge_topologies(bs));
        for (what, topo) in built {
            prop_assert_eq!(check(&Raw::of(&topo)), Ok(()), "{}", what);
            prop_assert_eq!(check(&Raw::of(&topo.transposed())), Ok(()), "{} transposed", what);
        }
    }

    #[test]
    fn double_transpose_roundtrips(topo in topology()) {
        let back = topo.transposed().transposed();
        prop_assert_eq!(back.shape(), topo.shape());
        prop_assert_eq!(back.row_offsets(), topo.row_offsets());
        prop_assert_eq!(back.col_indices(), topo.col_indices());
        prop_assert_eq!(back.row_indices(), topo.row_indices());
        prop_assert_eq!(back.col_offsets(), topo.col_offsets());
        prop_assert_eq!(back.transpose_indices(), topo.transpose_indices());
    }

    #[test]
    fn any_single_field_mutation_is_rejected(topo in nonempty_topology(), which in 0usize..7, bump in 1usize..4) {
        let nnz = topo.nnz_blocks();
        let mut raw = Raw::of(&topo);
        match which {
            // Truncate row_offsets.
            0 => raw.row_offsets.truncate(raw.block_rows),
            // Push a column index out of range.
            1 => raw.col_indices[0] = raw.block_cols + bump - 1,
            // Break CSR<->COO agreement.
            2 => raw.row_indices[nnz - 1] += bump,
            // Break the col_offsets endpoint.
            3 => *raw.col_offsets.last_mut().unwrap() += bump,
            // Duplicate a transpose index (kills the bijection); with a
            // single stored block fall back to an out-of-range index.
            4 if nnz >= 2 => raw.transpose_indices[1] = raw.transpose_indices[0],
            // Point a transpose index past the storage.
            4 | 5 => raw.transpose_indices[0] = nnz + bump - 1,
            // Claim more valid rows than a block has.
            _ => raw.rows_valid[0] += bump,
        }
        prop_assert!(check(&raw).is_err(), "mutation {} went undetected", which);
    }
}

/// Seed one topology with eight deliberate corruptions, one field each,
/// and require every one to be caught by the right invariant, at the
/// right entry, with at least six distinct invariants among them.
#[test]
fn seeded_corruptions_each_caught_with_distinct_variant() {
    // 2x3 grid, blocks (0,0), (0,2), (1,1): row 0 has two blocks (so
    // in-row ordering is meaningful) and every metadata vector is nonempty.
    let topo = Topology::from_blocks(
        2,
        3,
        [
            BlockCoord { row: 0, col: 0 },
            BlockCoord { row: 0, col: 2 },
            BlockCoord { row: 1, col: 1 },
        ],
        BlockSize::new(2).unwrap(),
    )
    .unwrap();
    let valid = Raw::of(&topo);
    assert_eq!(check(&valid), Ok(()));

    type Corrupt = fn(&mut Raw);
    let cases: [(&str, Corrupt, &str, &str); 8] = [
        (
            "row_offsets truncated",
            |r| r.row_offsets = vec![0, 2],
            "row_offsets length",
            "2 entries for 2 groups",
        ),
        (
            "row_offsets endpoint overshoots nnz",
            |r| r.row_offsets = vec![0, 2, 4],
            "row_offsets endpoints",
            "(0, 4) with 3 blocks",
        ),
        (
            "row_indices disagree with the CSR offsets",
            |r| r.row_indices = vec![0, 0, 0],
            "CSR/COO agreement",
            "slot 2: COO row 0, CSR row 1",
        ),
        (
            "col_indices out of range",
            |r| r.col_indices = vec![0, 3, 1],
            "col_indices in range",
            "slot 1 holds column 3",
        ),
        (
            "col_indices unsorted within row 0",
            |r| r.col_indices = vec![2, 0, 1],
            "col_indices sorted",
            "block row 0, slot 1",
        ),
        (
            "row_indices (COO half) too short",
            |r| r.row_indices = vec![0, 0],
            "row_indices length",
            "2 entries for 3 blocks",
        ),
        (
            "col_offsets endpoint undershoots nnz",
            |r| r.col_offsets = vec![0, 1, 2, 2],
            "col_offsets endpoints",
            "(0, 2) with 3 blocks",
        ),
        (
            "transpose_indices duplicate slot",
            |r| r.transpose_indices = vec![0, 0, 1],
            "transpose_indices bijective",
            "position 1 repeats 0",
        ),
    ];

    let mut invariants = Vec::new();
    for (what, corrupt, invariant, at) in cases {
        let mut raw = valid.clone();
        corrupt(&mut raw);
        let got = check(&raw).expect_err(&format!("{what}: corruption went undetected"));
        let want = Violation {
            invariant,
            at: at.to_string(),
        };
        assert_eq!(got, want, "{what}: wrong diagnosis");
        invariants.push(got.invariant);
    }
    invariants.sort_unstable();
    invariants.dedup();
    assert!(
        invariants.len() >= 6,
        "only {} distinct invariants across the seeded corruptions",
        invariants.len()
    );
}

/// `rows_valid` seeded three ways — too long, above the block size, a hole
/// before a valid row — each breaks its own invariant, and
/// `with_rows_valid` refuses the same vector.
#[test]
fn seeded_rows_valid_corruptions_each_return_their_error() {
    // Experts of 7 and 4 tokens at block size 4: block rows [4, 3 | 4].
    let topo = Topology::for_moe(&[7, 4], 8, BlockSize::new(4).unwrap()).unwrap();
    assert_eq!(topo.rows_valid(), [4, 3, 4]);
    assert_eq!(check(&Raw::of(&topo)), Ok(()));
    let cases = [
        (
            vec![4, 3, 4, 4],
            "rows_valid length",
            "4 entries for 3 block rows",
        ),
        (vec![4, 5, 4], "rows_valid bound", "block row 1 holds 5"),
        (
            vec![2, 3, 4],
            "rows_valid prefix",
            "block column 0, block row 1",
        ),
    ];
    for (rows_valid, invariant, at) in cases {
        let mut raw = Raw::of(&topo);
        raw.rows_valid = rows_valid.clone();
        let want = Violation {
            invariant,
            at: at.to_string(),
        };
        assert_eq!(check(&raw), Err(want), "{rows_valid:?}");
        let checked = topo.clone().with_rows_valid(rows_valid.clone());
        assert!(
            matches!(checked, Err(SparseError::Mismatch(_))),
            "{rows_valid:?}: {checked:?}"
        );
    }
    // An empty tail (a capacity layout under capacity) is a prefix too.
    let narrowed = topo.clone().with_rows_valid(vec![4, 0, 1]).unwrap();
    assert_eq!(check(&Raw::of(&narrowed)), Ok(()));
}
