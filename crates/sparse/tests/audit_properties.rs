//! Property-based and seeded-corruption tests for the metadata sanitizer
//! (`Topology::validate`).
//!
//! Three claims:
//!
//! 1. every topology built through the checked constructors validates;
//! 2. corrupting any single metadata field is caught, with a distinct
//!    [`AuditError`] variant per corruption class;
//! 3. the transpose secondary index round-trips
//!    (`transposed().transposed()` restores the original encoding).

use std::mem::discriminant;

use megablocks_sparse::{AuditError, BlockCoord, BlockSize, SparseError, Topology};
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
                proptest::collection::vec(proptest::bool::ANY, rows * cols),
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

/// Rebuilds `topo` with one metadata vector replaced.
fn rebuild(
    topo: &Topology,
    row_offsets: Option<Vec<usize>>,
    col_indices: Option<Vec<usize>>,
    row_indices: Option<Vec<usize>>,
    col_offsets: Option<Vec<usize>>,
    transpose_indices: Option<Vec<usize>>,
) -> Topology {
    Topology::from_raw_parts_unchecked(
        topo.block_size(),
        topo.block_rows(),
        topo.block_cols(),
        row_offsets.unwrap_or_else(|| topo.row_offsets().to_vec()),
        col_indices.unwrap_or_else(|| topo.col_indices().to_vec()),
        row_indices.unwrap_or_else(|| topo.row_indices().to_vec()),
        col_offsets.unwrap_or_else(|| topo.col_offsets().to_vec()),
        transpose_indices.unwrap_or_else(|| topo.transpose_indices().to_vec()),
        topo.rows_valid().to_vec(),
    )
}

/// Rebuilds `topo` with `rows_valid` replaced.
fn rebuild_rows_valid(topo: &Topology, rows_valid: Vec<usize>) -> Topology {
    Topology::from_raw_parts_unchecked(
        topo.block_size(),
        topo.block_rows(),
        topo.block_cols(),
        topo.row_offsets().to_vec(),
        topo.col_indices().to_vec(),
        topo.row_indices().to_vec(),
        topo.col_offsets().to_vec(),
        topo.transpose_indices().to_vec(),
        rows_valid,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn constructed_topologies_validate(topo in topology()) {
        prop_assert!(topo.validate().is_ok(), "{:?}", topo.validate());
        prop_assert!(topo.transposed().validate().is_ok());
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
        let corrupted = match which {
            0 => {
                // Truncate row_offsets.
                let v = topo.row_offsets()[..topo.block_rows()].to_vec();
                rebuild(&topo, Some(v), None, None, None, None)
            }
            1 => {
                // Push a column index out of range.
                let mut v = topo.col_indices().to_vec();
                v[0] = topo.block_cols() + bump - 1;
                rebuild(&topo, None, Some(v), None, None, None)
            }
            2 => {
                // Break CSR<->COO agreement.
                let mut v = topo.row_indices().to_vec();
                v[nnz - 1] += bump;
                rebuild(&topo, None, None, Some(v), None, None)
            }
            3 => {
                // Break the col_offsets endpoint.
                let mut v = topo.col_offsets().to_vec();
                *v.last_mut().unwrap() += bump;
                rebuild(&topo, None, None, None, Some(v), None)
            }
            4 => {
                // Duplicate a transpose index (kills the bijection); with a
                // single stored block fall back to an out-of-range index.
                let mut v = topo.transpose_indices().to_vec();
                if nnz >= 2 {
                    v[1] = v[0];
                } else {
                    v[0] = nnz + bump - 1;
                }
                rebuild(&topo, None, None, None, None, Some(v))
            }
            5 => {
                // Point a transpose index past the storage.
                let mut v = topo.transpose_indices().to_vec();
                v[0] = nnz + bump - 1;
                rebuild(&topo, None, None, None, None, Some(v))
            }
            _ => {
                // Claim more valid rows than a block has.
                let mut v = topo.rows_valid().to_vec();
                v[0] += bump;
                rebuild_rows_valid(&topo, v)
            }
        };
        prop_assert!(corrupted.validate().is_err(), "mutation {which} went undetected");
    }
}

/// The acceptance scenario: seed one topology with eight deliberate
/// corruptions, one field each, and require every one to be caught with
/// the right — and pairwise distinct — [`AuditError`] variant.
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
    assert_eq!(topo.validate(), Ok(()));

    let cases: Vec<(&str, Topology, AuditError)> = vec![
        (
            "row_offsets truncated",
            rebuild(&topo, Some(vec![0, 2]), None, None, None, None),
            AuditError::RowOffsetsLength {
                expected: 3,
                actual: 2,
            },
        ),
        (
            "row_offsets endpoint overshoots nnz",
            rebuild(&topo, Some(vec![0, 2, 4]), None, None, None, None),
            AuditError::RowOffsetsEndpoints {
                first: 0,
                last: 4,
                nnz: 3,
            },
        ),
        (
            "row_indices disagree with the CSR offsets",
            rebuild(&topo, None, None, Some(vec![0, 0, 0]), None, None),
            AuditError::CooRowMismatch {
                slot: 2,
                coo_row: 0,
                csr_row: 1,
            },
        ),
        (
            "col_indices out of range",
            rebuild(&topo, None, Some(vec![0, 3, 1]), None, None, None),
            AuditError::ColIndexOutOfRange {
                slot: 1,
                col: 3,
                block_cols: 3,
            },
        ),
        (
            "col_indices unsorted within row 0",
            rebuild(&topo, None, Some(vec![2, 0, 1]), None, None, None),
            AuditError::ColIndicesUnsorted { row: 0, slot: 1 },
        ),
        (
            "row_indices (COO half) too short",
            rebuild(&topo, None, None, Some(vec![0, 0]), None, None),
            AuditError::CooLengthMismatch {
                expected: 3,
                actual: 2,
            },
        ),
        (
            "col_offsets endpoint undershoots nnz",
            rebuild(&topo, None, None, None, Some(vec![0, 1, 2, 2]), None),
            AuditError::ColOffsetsEndpoints {
                first: 0,
                last: 2,
                nnz: 3,
            },
        ),
        (
            "transpose_indices duplicate slot",
            rebuild(&topo, None, None, None, None, Some(vec![0, 0, 1])),
            AuditError::TransposeNotBijective { pos: 1, value: 0 },
        ),
    ];

    let mut variants = Vec::new();
    for (what, corrupted, want) in &cases {
        let got = corrupted
            .validate()
            .expect_err(&format!("{what}: corruption went undetected"));
        assert_eq!(&got, want, "{what}: wrong diagnosis");
        variants.push(discriminant(&got));
    }
    variants.sort_by_key(|d| format!("{d:?}"));
    variants.dedup();
    assert!(
        variants.len() >= 6,
        "only {} distinct AuditError variants across the seeded corruptions",
        variants.len()
    );
}

/// `rows_valid` seeded three ways — too long, above the block size, a hole
/// before a valid row — each returns its own [`AuditError`].
#[test]
fn seeded_rows_valid_corruptions_each_return_their_error() {
    // Experts of 7 and 4 tokens at block size 4: block rows [4, 3 | 4].
    let topo = Topology::for_moe(&[7, 4], 8, BlockSize::new(4).unwrap()).unwrap();
    assert_eq!(topo.rows_valid(), [4, 3, 4]);
    assert_eq!(topo.validate(), Ok(()));
    let cases = [
        (
            vec![4, 3, 4, 4],
            AuditError::RowsValidLength {
                expected: 3,
                actual: 4,
            },
        ),
        (
            vec![4, 5, 4],
            AuditError::RowsValidOutOfRange { row: 1, valid: 5 },
        ),
        (vec![2, 3, 4], AuditError::RowsValidHole { col: 0, row: 1 }),
    ];
    for (rows_valid, want) in cases {
        let bad = rebuild_rows_valid(&topo, rows_valid.clone());
        assert_eq!(bad.validate(), Err(want.clone()), "{rows_valid:?}");
        // The checked path refuses the same vectors.
        let checked = topo.clone().with_rows_valid(rows_valid);
        assert_eq!(checked, Err(SparseError::Audit(want)));
    }
    // An empty tail (a capacity layout under capacity) is a prefix too.
    assert!(topo.clone().with_rows_valid(vec![4, 0, 1]).is_ok());
}

/// End-to-end: in debug builds the op entry points themselves reject
/// corrupted metadata before any kernel work runs.
#[cfg(debug_assertions)]
#[test]
fn sanitized_ops_reject_corrupted_topology_at_entry() {
    use megablocks_sparse::ops;
    use megablocks_tensor::Matrix;

    let topo = Topology::from_blocks(
        2,
        2,
        [BlockCoord { row: 0, col: 0 }, BlockCoord { row: 1, col: 1 }],
        BlockSize::new(2).unwrap(),
    )
    .unwrap();
    let bad = rebuild(&topo, None, None, None, None, Some(vec![0, 0]));
    let a = Matrix::from_fn(4, 3, |i, j| (i + j) as f32);
    let b = Matrix::from_fn(3, 4, |i, j| (i * 4 + j) as f32);
    match ops::try_sdd(&a, &b, &bad) {
        Err(SparseError::Audit(AuditError::TransposeNotBijective { pos: 1, value: 0 })) => {}
        other => panic!("expected TransposeNotBijective at op entry, got {other:?}"),
    }
}
