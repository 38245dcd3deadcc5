//! Helpers shared by the crate's golden-bits unit tests.

/// `len` values in `[-0.5, 0.5)` from a 64-bit LCG: inputs that depend on
/// nothing but `seed`.
pub(crate) fn lcg_fill(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        })
        .collect()
}

/// FNV-1a over the values' bit patterns.
pub(crate) fn hash_bits(values: &[f32]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
