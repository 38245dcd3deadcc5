//! Property-based robustness tests for the checkpoint format.
//!
//! The contract under test: loading is transactional (any failure leaves
//! the model bit-identical to before), integrity is CRC-guarded (any
//! flipped bit or truncation is rejected), and round-trips restore
//! parameters — and, with an optimizer, the full training state —
//! bit-exactly.

use megablocks_core::checkpoint::{
    crc32, encode, load_train_state, validate_checkpoint_bytes, CheckpointError, TrainState,
};
use megablocks_core::{DroplessMoe, MoeConfig};
use megablocks_tensor::init::seeded_rng;
use megablocks_tensor::Matrix;
use proptest::prelude::*;

fn layer(seed: u64, experts: usize) -> DroplessMoe {
    let mut rng = seeded_rng(seed);
    DroplessMoe::new(MoeConfig::new(6, 8, experts).with_block_size(4), &mut rng)
}

fn snapshot(l: &mut DroplessMoe) -> Vec<Matrix> {
    l.params_mut().iter().map(|p| p.value().clone()).collect()
}

fn assert_untouched(l: &mut DroplessMoe, before: &[Matrix]) {
    for (p, orig) in l.params_mut().iter().zip(before) {
        assert!(
            p.value().approx_eq(orig, 0.0),
            "a failed load must leave the model bit-identical"
        );
    }
}

fn params_only_bytes(l: &mut DroplessMoe) -> Vec<u8> {
    encode(&l.params_mut(), &TrainState::default()).expect("in-memory encode")
}

fn v2_bytes(l: &mut DroplessMoe, seed: u64) -> Vec<u8> {
    let state = train_state_for(l, seed);
    encode(&l.params_mut(), &state).expect("in-memory encode")
}

fn train_state_for(l: &mut DroplessMoe, seed: u64) -> TrainState {
    let shapes: Vec<(usize, usize)> = l.params_mut().iter().map(|p| p.value().shape()).collect();
    let moment = |(i, (r, c)): (usize, (usize, usize))| {
        Matrix::from_fn(r, c, |a, b| ((seed as usize + i + a * 7 + b) as f32).sin())
    };
    TrainState {
        step: seed.wrapping_mul(3) + 1,
        opt_steps: seed + 1,
        rng_state: [seed | 1, seed ^ 7, seed.rotate_left(9) | 1, 42],
        m: shapes.iter().copied().enumerate().map(moment).collect(),
        v: shapes.iter().copied().enumerate().map(moment).collect(),
    }
}

/// Byte offset of parameter `idx`'s (rows, cols) header in a
/// parameters-only stream.
fn params_only_header_offset(shapes: &[(usize, usize)], idx: usize) -> usize {
    // Magic, version, step, Adam timestep, RNG state, count, optimizer flag.
    let mut pos = 4 + 4 + 8 + 8 + 32 + 8 + 1;
    for &(r, c) in shapes.iter().take(idx) {
        pos += 16 + r * c * 4;
    }
    pos
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn params_only_roundtrip_is_bit_exact(seed in 0u64..500, experts in 2usize..5) {
        let mut a = layer(seed, experts);
        let mut b = layer(seed + 1000, experts);
        let buf = params_only_bytes(&mut a);
        prop_assert!(validate_checkpoint_bytes(&buf).is_ok());
        let loaded = load_train_state(&mut b.params_mut(), buf.as_slice()).expect("valid stream");
        prop_assert!(!loaded.has_optimizer());
        for (pa, pb) in a.params_mut().iter().zip(b.params_mut().iter()) {
            prop_assert!(pa.value().approx_eq(pb.value(), 0.0));
        }
    }

    #[test]
    fn v2_roundtrip_restores_the_full_state(seed in 0u64..500, experts in 2usize..5) {
        let mut a = layer(seed, experts);
        let mut b = layer(seed + 1000, experts);
        let state = train_state_for(&mut a, seed);
        let buf = encode(&a.params_mut(), &state).expect("encode");
        prop_assert!(validate_checkpoint_bytes(&buf).is_ok());
        let loaded = load_train_state(&mut b.params_mut(), buf.as_slice()).expect("valid stream");
        prop_assert_eq!(loaded, state);
        for (pa, pb) in a.params_mut().iter().zip(b.params_mut().iter()) {
            prop_assert!(pa.value().approx_eq(pb.value(), 0.0));
        }
    }

    #[test]
    fn truncated_params_only_never_loads_and_never_mutates(
        seed in 0u64..500,
        frac in 0.0f64..1.0,
    ) {
        let mut a = layer(seed, 3);
        let buf = params_only_bytes(&mut a);
        let cut = ((buf.len() - 1) as f64 * frac) as usize;
        let mut b = layer(seed + 1, 3);
        let before = snapshot(&mut b);
        let err = load_train_state(&mut b.params_mut(), &buf[..cut]).unwrap_err();
        prop_assert!(
            matches!(
                err,
                CheckpointError::Corrupt(_) | CheckpointError::Io(_) | CheckpointError::BadMagic
            ),
            "{}",
            err
        );
        assert_untouched(&mut b, &before);
    }

    #[test]
    fn truncated_v2_fails_integrity(seed in 0u64..500, frac in 0.0f64..1.0) {
        let mut a = layer(seed, 3);
        let buf = v2_bytes(&mut a, seed);
        let cut = ((buf.len() - 1) as f64 * frac) as usize;
        let err = validate_checkpoint_bytes(&buf[..cut]).unwrap_err();
        prop_assert!(
            matches!(
                err,
                CheckpointError::Corrupt(_) | CheckpointError::Io(_) | CheckpointError::BadMagic
            ),
            "{}",
            err
        );
    }

    #[test]
    fn any_flipped_bit_in_v2_is_rejected(
        seed in 0u64..500,
        pos_frac in 0.0f64..1.0,
        bit in 0u32..8,
    ) {
        let mut a = layer(seed, 3);
        let mut buf = v2_bytes(&mut a, seed);
        let pos = ((buf.len() - 1) as f64 * pos_frac) as usize;
        buf[pos] ^= 1 << bit;
        // Whatever the flip hit (magic, version, CRC, payload), the load
        // must fail and the model must be untouched.
        let err = validate_checkpoint_bytes(&buf).unwrap_err();
        prop_assert!(
            matches!(
                err,
                CheckpointError::Corrupt(_) | CheckpointError::BadMagic | CheckpointError::BadVersion(_)
            ),
            "{}",
            err
        );
        let mut b = layer(seed + 1, 3);
        let before = snapshot(&mut b);
        prop_assert!(load_train_state(&mut b.params_mut(), buf.as_slice()).is_err());
        assert_untouched(&mut b, &before);
    }

    #[test]
    fn bad_magic_is_rejected(seed in 0u64..500, first in 0u32..255) {
        let mut a = layer(seed, 2);
        let mut buf = params_only_bytes(&mut a);
        // Steer away from the one valid leading byte.
        let first = if first as u8 == b'M' { b'X' } else { first as u8 };
        buf[0] = first;
        let err = validate_checkpoint_bytes(&buf).unwrap_err();
        prop_assert!(matches!(err, CheckpointError::BadMagic), "{}", err);
    }

    #[test]
    fn unknown_versions_are_rejected(seed in 0u64..500, version in 0u32..1000) {
        // Version 1, the retired parameters-only format, stands in for 2.
        let version = if version == 2 { 1 } else { version };
        let mut a = layer(seed, 2);
        let mut buf = params_only_bytes(&mut a);
        buf[4..8].copy_from_slice(&version.to_le_bytes());
        let err = validate_checkpoint_bytes(&buf).unwrap_err();
        prop_assert!(matches!(err, CheckpointError::BadVersion(v) if v == version), "{}", err);
    }

    #[test]
    fn midstream_shape_mismatch_is_transactional(seed in 0u64..500, which in 0usize..6) {
        // Reshape one parameter's header to a vector of the same length and
        // re-seal the CRC: every parameter parses, those *before* it match
        // the model, yet none may be written to it.
        let mut a = layer(seed, 3);
        let shapes: Vec<(usize, usize)> =
            a.params_mut().iter().map(|p| p.value().shape()).collect();
        let idx = which % shapes.len();
        let (rows, cols) = shapes[idx];
        let vector = if cols == 1 { (1, rows) } else { (rows * cols, 1) };
        prop_assert!(vector != (rows, cols));
        let mut buf = params_only_bytes(&mut a);
        let header = params_only_header_offset(&shapes, idx);
        buf[header..header + 8].copy_from_slice(&(vector.0 as u64).to_le_bytes());
        buf[header + 8..header + 16].copy_from_slice(&(vector.1 as u64).to_le_bytes());
        let payload = buf.len() - 4;
        let crc = crc32(&buf[..payload]);
        buf[payload..].copy_from_slice(&crc.to_le_bytes());

        let mut b = layer(seed + 1, 3);
        let before = snapshot(&mut b);
        let err = load_train_state(&mut b.params_mut(), buf.as_slice()).unwrap_err();
        let want = format!("parameter {idx}:");
        prop_assert!(
            matches!(&err, CheckpointError::Mismatch(what) if what.starts_with(&want)),
            "{}",
            err
        );
        assert_untouched(&mut b, &before);
    }
}
