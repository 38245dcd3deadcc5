//! CRC32 (IEEE 802.3, the zlib/PNG polynomial) for checkpoint integrity.
//!
//! Dependency-free: the byte table is built at compile time. The v2
//! checkpoint format appends the CRC of everything before it, so a
//! flipped bit or truncated tail anywhere in the file fails validation
//! before a single parameter is touched.

/// Reflected polynomial of CRC-32/ISO-HDLC (zlib's `crc32`).
const POLY: u32 = 0xEDB8_8320;

const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC32 of `bytes`.
///
/// ```
/// use megablocks_resilience::crc32;
/// assert_eq!(crc32(b"123456789"), 0xCBF43926); // the standard check value
/// ```
pub fn crc32(bytes: &[u8]) -> u32 {
    !bytes
        .iter()
        .fold(!0u32, |c, &b| TABLE[usize::from((c as u8) ^ b)] ^ (c >> 8))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_standard_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn single_bit_flip_changes_the_checksum() {
        let data = vec![0xA5u8; 128];
        let base = crc32(&data);
        for byte in [0usize, 64, 127] {
            for bit in 0..8 {
                let mut corrupt = data.clone();
                corrupt[byte] ^= 1 << bit;
                assert_ne!(crc32(&corrupt), base, "flip {byte}:{bit} undetected");
            }
        }
    }
}
