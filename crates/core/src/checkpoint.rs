//! Parameter and training-state checkpointing.
//!
//! One on-disk format: the `MBRS` magic, a version word (2), a header
//! carrying the optimizer step index, the Adam timestep and the
//! data-sampling RNG state, then per parameter its shape, its
//! little-endian f32 values and, when the checkpoint carries an
//! optimizer, its Adam first and second moments, and last a CRC32 of
//! every preceding byte. A parameters-only checkpoint is the same format
//! with a default [`TrainState`]: no moments, zero counters. A flipped bit
//! or a truncated tail anywhere fails validation before any state is
//! touched; any other version word is [`CheckpointError::BadVersion`].
//!
//! Loading is **transactional**: the whole stream is parsed and every
//! header validated against the model (count + shapes) *before* the
//! first parameter is overwritten, so a mid-stream mismatch or truncation
//! can never leave a model half-loaded. File-level writes go through
//! [`save_train_state_atomic`] (write-temp + fsync + rename via
//! `megablocks-resilience`), so a crash or injected I/O fault tears at
//! most a temp file, never a committed checkpoint.

use std::io::{self, Read};
use std::path::Path;

use megablocks_resilience as resilience;
use megablocks_tensor::Matrix;

use crate::Param;

const MAGIC: [u8; 4] = *b"MBRS";
const VERSION: u32 = 2;

/// Error type for checkpoint save/load.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream is not a MegaBlocks-RS checkpoint.
    BadMagic,
    /// The checkpoint version is unsupported.
    BadVersion(u32),
    /// The checkpoint does not match the model architecture.
    Mismatch(String),
    /// The checkpoint failed integrity validation (CRC mismatch,
    /// inconsistent structure).
    Corrupt(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::BadMagic => write!(f, "not a MegaBlocks-RS checkpoint"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::Mismatch(s) => write!(f, "checkpoint/model mismatch: {s}"),
            CheckpointError::Corrupt(s) => write!(f, "corrupt checkpoint: {s}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Training state carried by a checkpoint alongside the parameters.
///
/// The default is a parameters-only checkpoint's: no moments
/// ([`TrainState::has_optimizer`] is `false`) and zero
/// `step`/`opt_steps`/`rng_state`, so the caller resumes the weights but
/// restarts the schedule.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrainState {
    /// Optimizer steps completed when the checkpoint was taken.
    pub step: u64,
    /// The Adam timestep (bias-correction counter).
    pub opt_steps: u64,
    /// Raw state of the trainer's data-sampling RNG.
    pub rng_state: [u64; 4],
    /// Adam first moments, one per parameter (same shapes).
    pub m: Vec<Matrix>,
    /// Adam second moments, one per parameter (same shapes).
    pub v: Vec<Matrix>,
}

impl TrainState {
    /// Whether optimizer moments are present.
    pub fn has_optimizer(&self) -> bool {
        !self.m.is_empty()
    }
}

/// Encodes `params` and `state` as checkpoint bytes;
/// `encode(params, &TrainState::default())` is a parameters-only save.
///
/// # Errors
///
/// Returns [`CheckpointError::Mismatch`] if `state.m`/`state.v` are
/// nonempty but do not mirror `params` in count or shape.
pub fn encode(params: &[&mut Param], state: &TrainState) -> Result<Vec<u8>, CheckpointError> {
    if !state.m.is_empty() && (state.m.len() != params.len() || state.v.len() != params.len()) {
        return Err(CheckpointError::Mismatch(format!(
            "optimizer has {}/{} moment matrices, model has {} parameters",
            state.m.len(),
            state.v.len(),
            params.len()
        )));
    }
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&state.step.to_le_bytes());
    out.extend_from_slice(&state.opt_steps.to_le_bytes());
    for word in state.rng_state {
        out.extend_from_slice(&word.to_le_bytes());
    }
    out.extend_from_slice(&(params.len() as u64).to_le_bytes());
    out.push(u8::from(state.has_optimizer()));
    for (i, p) in params.iter().enumerate() {
        let v = p.value();
        out.extend_from_slice(&(v.rows() as u64).to_le_bytes());
        out.extend_from_slice(&(v.cols() as u64).to_le_bytes());
        push_f32s(&mut out, v.as_slice());
        if state.has_optimizer() {
            for (kind, moment) in [("m", &state.m[i]), ("v", &state.v[i])] {
                if moment.shape() != v.shape() {
                    return Err(CheckpointError::Mismatch(format!(
                        "parameter {i}: {kind}-moment shape {:?}, value shape {:?}",
                        moment.shape(),
                        v.shape()
                    )));
                }
                push_f32s(&mut out, moment.as_slice());
            }
        }
    }
    let crc = resilience::crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    Ok(out)
}

/// Restores parameters *and* training state from `r`.
///
/// Transactional: the stream is fully parsed, CRC-checked and validated
/// against the model before any parameter is overwritten, so an error
/// leaves the model exactly as it was.
///
/// # Errors
///
/// Returns an error if the stream is not a checkpoint, the version is
/// unsupported, integrity validation fails, or the parameter
/// count/shapes differ from the model's.
pub fn load_train_state<R: Read>(
    params: &mut [&mut Param],
    mut r: R,
) -> Result<TrainState, CheckpointError> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    let parsed = parse_checkpoint(&bytes)?;

    // Validate every header against the model before touching any value.
    if parsed.values.len() != params.len() {
        return Err(CheckpointError::Mismatch(format!(
            "checkpoint has {} parameters, model has {}",
            parsed.values.len(),
            params.len()
        )));
    }
    for (i, (staged, p)) in parsed.values.iter().zip(params.iter()).enumerate() {
        if staged.shape() != p.value().shape() {
            return Err(CheckpointError::Mismatch(format!(
                "parameter {i}: checkpoint shape {:?}, model shape {:?}",
                staged.shape(),
                p.value().shape()
            )));
        }
    }

    // Commit. Everything is validated; this cannot fail halfway.
    let mut values = parsed.values;
    for (p, staged) in params.iter_mut().zip(values.drain(..)) {
        *p.value_mut() = staged;
    }
    Ok(parsed.state)
}

/// Saves a checkpoint to `path` atomically (write-temp + fsync +
/// rename).
///
/// # Errors
///
/// Returns [`CheckpointError::Mismatch`] on inconsistent moments and
/// [`CheckpointError::Io`] on write failure (including faults injected
/// at the `checkpoint.io` chaos site); on failure `path` is untouched.
pub fn save_train_state_atomic(
    path: &Path,
    params: &[&mut Param],
    state: &TrainState,
) -> Result<(), CheckpointError> {
    let bytes = encode(params, state)?;
    resilience::atomic_write(path, &bytes)?;
    Ok(())
}

/// Loads a checkpoint file into `params`, returning the
/// training state.
///
/// # Errors
///
/// As [`load_train_state`], plus [`CheckpointError::Io`] if the file
/// cannot be read.
pub fn load_train_state_file(
    path: &Path,
    params: &mut [&mut Param],
) -> Result<TrainState, CheckpointError> {
    let bytes = std::fs::read(path)?;
    load_train_state(params, bytes.as_slice())
}

/// Structurally validates checkpoint bytes without a model: magic,
/// version, the trailing CRC and exact framing.
///
/// # Errors
///
/// Returns the same errors as loading, minus model mismatches.
pub fn validate_checkpoint_bytes(bytes: &[u8]) -> Result<(), CheckpointError> {
    parse_checkpoint(bytes).map(|_| ())
}

/// [`validate_checkpoint_bytes`] for a file on disk.
///
/// # Errors
///
/// As [`validate_checkpoint_bytes`], plus [`CheckpointError::Io`] if the
/// file cannot be read.
pub fn validate_checkpoint_file(path: &Path) -> Result<(), CheckpointError> {
    let bytes = std::fs::read(path)?;
    validate_checkpoint_bytes(&bytes)
}

/// A fully parsed checkpoint, staged and not yet committed to a model.
struct Parsed {
    values: Vec<Matrix>,
    state: TrainState,
}

fn parse_checkpoint(bytes: &[u8]) -> Result<Parsed, CheckpointError> {
    let mut r = ByteReader::new(bytes);
    if r.take(4)? != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(CheckpointError::BadVersion(version));
    }
    // Integrity first: the last 4 bytes are the CRC32 of everything
    // before them. Checked before any structural parsing, so truncation
    // and bit flips surface as corruption rather than arbitrary errors.
    if bytes.len() < 8 + 4 {
        return Err(CheckpointError::Corrupt("file too short".to_string()));
    }
    let payload_len = bytes.len() - 4;
    let stored = u32::from_le_bytes(bytes[payload_len..].try_into().expect("4 bytes"));
    let computed = resilience::crc32(&bytes[..payload_len]);
    if stored != computed {
        return Err(CheckpointError::Corrupt(format!(
            "CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
        )));
    }
    r.limit(payload_len);

    let step = r.u64()?;
    let opt_steps = r.u64()?;
    let mut rng_state = [0u64; 4];
    for word in &mut rng_state {
        *word = r.u64()?;
    }
    let count = r.u64()? as usize;
    let has_optimizer = r.take(1)?[0] != 0;
    let mut values = Vec::with_capacity(count.min(1 << 20));
    let mut m = Vec::new();
    let mut v = Vec::new();
    for _ in 0..count {
        let value = r.matrix()?;
        let (rows, cols) = value.shape();
        if has_optimizer {
            m.push(r.matrix_data(rows, cols)?);
            v.push(r.matrix_data(rows, cols)?);
        }
        values.push(value);
    }
    if r.remaining() != 0 {
        return Err(CheckpointError::Corrupt(format!(
            "{} trailing bytes after the last parameter",
            r.remaining()
        )));
    }
    Ok(Parsed {
        values,
        state: TrainState {
            step,
            opt_steps,
            rng_state,
            m,
            v,
        },
    })
}

fn push_f32s(out: &mut Vec<u8>, values: &[f32]) {
    out.reserve(values.len() * 4);
    for x in values {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

/// Bounded little-endian reader over a byte slice. Overruns surface as
/// `Io(UnexpectedEof)`.
struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    end: usize,
}

impl<'a> ByteReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        ByteReader {
            bytes,
            pos: 0,
            end: bytes.len(),
        }
    }

    /// Restricts reading to the first `end` bytes (excluding the CRC).
    fn limit(&mut self, end: usize) {
        self.end = end.min(self.bytes.len());
    }

    fn remaining(&self) -> usize {
        self.end - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.remaining() < n {
            return Err(CheckpointError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "truncated checkpoint",
            )));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// A shape header followed by its f32 data.
    fn matrix(&mut self) -> Result<Matrix, CheckpointError> {
        let rows = self.u64()? as usize;
        let cols = self.u64()? as usize;
        self.matrix_data(rows, cols)
    }

    /// `rows * cols` f32s with a known shape (moment blocks).
    fn matrix_data(&mut self, rows: usize, cols: usize) -> Result<Matrix, CheckpointError> {
        let n = rows
            .checked_mul(cols)
            .ok_or_else(|| CheckpointError::Corrupt(format!("shape {rows}x{cols} overflows")))?;
        let raw =
            self.take(n.checked_mul(4).ok_or_else(|| {
                CheckpointError::Corrupt(format!("shape {rows}x{cols} overflows"))
            })?)?;
        let mut data = vec![0.0f32; n];
        for (x, chunk) in data.iter_mut().zip(raw.chunks_exact(4)) {
            *x = f32::from_le_bytes(chunk.try_into().expect("4"));
        }
        Matrix::from_vec(rows, cols, data)
            .map_err(|e| CheckpointError::Corrupt(format!("bad matrix block: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DroplessMoe, MoeConfig};
    use megablocks_tensor::init::{normal, seeded_rng};

    fn layer(seed: u64) -> DroplessMoe {
        let mut rng = seeded_rng(seed);
        DroplessMoe::new(MoeConfig::new(6, 8, 2).with_block_size(4), &mut rng)
    }

    fn state_for(params: &[&mut Param]) -> TrainState {
        TrainState {
            step: 17,
            opt_steps: 17,
            rng_state: [1, 2, 3, 4],
            m: params
                .iter()
                .map(|p| Matrix::full(p.value().rows(), p.value().cols(), 0.25))
                .collect(),
            v: params
                .iter()
                .map(|p| Matrix::full(p.value().rows(), p.value().cols(), 0.5))
                .collect(),
        }
    }

    /// Parameters-only checkpoint bytes of `params`.
    fn params_only(params: &[&mut Param]) -> Vec<u8> {
        encode(params, &TrainState::default()).expect("encode")
    }

    fn values(l: &mut DroplessMoe) -> Vec<Matrix> {
        l.params_mut().iter().map(|p| p.value().clone()).collect()
    }

    fn assert_untouched(l: &mut DroplessMoe, before: &[Matrix]) {
        for (p, orig) in l.params_mut().iter().zip(before) {
            assert!(
                p.value().approx_eq(orig, 0.0),
                "a failed load scrambled the model"
            );
        }
    }

    #[test]
    fn roundtrip_restores_exact_behaviour() {
        let mut a = layer(1);
        let mut b = layer(2); // different weights
        let mut rng = seeded_rng(3);
        let x = normal(9, 6, 1.0, &mut rng);
        let before = a.forward(&x).output;
        assert!(!b.forward(&x).output.approx_eq(&before, 1e-6));

        let buf = params_only(&a.params_mut());
        load_train_state(&mut b.params_mut(), buf.as_slice()).expect("load");
        let after = b.forward(&x).output;
        assert!(after.approx_eq(&before, 0.0), "bit-exact restore expected");
    }

    #[test]
    fn v2_roundtrip_restores_params_and_state() {
        let mut a = layer(1);
        let mut b = layer(2);
        let state = state_for(&a.params_mut());
        let buf = encode(&a.params_mut(), &state).expect("encode");
        let loaded = load_train_state(&mut b.params_mut(), buf.as_slice()).expect("load");
        assert_eq!(loaded, state);
        assert!(loaded.has_optimizer());
        for (pa, pb) in a.params_mut().iter().zip(b.params_mut().iter()) {
            assert!(pa.value().approx_eq(pb.value(), 0.0));
        }
        validate_checkpoint_bytes(&buf).expect("valid");
    }

    #[test]
    fn params_only_stream_loads_without_optimizer() {
        let mut a = layer(1);
        let mut b = layer(2);
        let buf = params_only(&a.params_mut());
        validate_checkpoint_bytes(&buf).expect("valid");
        let loaded = load_train_state(&mut b.params_mut(), buf.as_slice()).expect("load");
        assert!(!loaded.has_optimizer());
        assert_eq!(loaded, TrainState::default());
    }

    #[test]
    fn rejects_wrong_architecture() {
        let mut a = layer(1);
        let buf = params_only(&a.params_mut());
        // A layer with a different expert count has different shapes.
        let mut rng = seeded_rng(4);
        let mut other = DroplessMoe::new(MoeConfig::new(6, 8, 3).with_block_size(4), &mut rng);
        let err = load_train_state(&mut other.params_mut(), buf.as_slice()).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
    }

    #[test]
    fn mismatch_leaves_the_model_untouched() {
        // A well-sealed stream whose *last* parameter header is transposed:
        // every parameter parses, the earlier ones match the model, and the
        // transactional loader must still not have written them.
        let mut a = layer(1);
        let mut buf = params_only(&a.params_mut());
        let params = a.params_mut();
        let last = params.last().expect("params").value();
        let (rows, cols) = last.shape();
        assert_ne!(rows, cols, "a transposed header must differ");
        // The header sits right before the data, which precedes the CRC.
        let header_at = buf.len() - 4 - last.len() * 4 - 16;
        buf[header_at..header_at + 8].copy_from_slice(&(cols as u64).to_le_bytes());
        buf[header_at + 8..header_at + 16].copy_from_slice(&(rows as u64).to_le_bytes());
        drop(params);
        let payload = buf.len() - 4;
        let crc = resilience::crc32(&buf[..payload]);
        buf[payload..].copy_from_slice(&crc.to_le_bytes());

        let mut b = layer(2);
        let before = values(&mut b);
        let err = load_train_state(&mut b.params_mut(), buf.as_slice()).unwrap_err();
        let CheckpointError::Mismatch(what) = &err else {
            panic!("expected a mismatch, got {err}");
        };
        let last_index = before.len() - 1;
        assert!(
            what.starts_with(&format!("parameter {last_index}:")),
            "{what}"
        );
        assert_untouched(&mut b, &before);
    }

    #[test]
    fn rejects_garbage_and_wrong_version() {
        let mut l = layer(5);
        let before = values(&mut l);
        let err = load_train_state(&mut l.params_mut(), &b"nope"[..]).unwrap_err();
        assert!(
            matches!(err, CheckpointError::BadMagic | CheckpointError::Io(_)),
            "{err}"
        );

        // A header of the retired version 1 and of an unknown version.
        for version in [1u32, 99] {
            let mut buf = Vec::new();
            buf.extend_from_slice(b"MBRS");
            buf.extend_from_slice(&version.to_le_bytes());
            buf.extend_from_slice(&0u64.to_le_bytes());
            let err = load_train_state(&mut l.params_mut(), buf.as_slice()).unwrap_err();
            assert!(
                matches!(err, CheckpointError::BadVersion(v) if v == version),
                "{err}"
            );
        }
        assert_untouched(&mut l, &before);
    }

    #[test]
    fn truncated_stream_is_an_io_error() {
        // Cut inside the magic or the version word, a stream ends before
        // its CRC can be read: an unexpected EOF. Cut anywhere later, the
        // CRC rejects it (`v2_bit_flip_is_corrupt`).
        let mut a = layer(6);
        let buf = params_only(&a.params_mut());
        for cut in [0, 3, 4, 7] {
            let err = load_train_state(&mut a.params_mut(), &buf[..cut]).unwrap_err();
            assert!(matches!(err, CheckpointError::Io(_)), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn v2_bit_flip_is_corrupt() {
        let mut a = layer(7);
        let state = state_for(&a.params_mut());
        let bytes = encode(&a.params_mut(), &state).expect("encode");
        let mut corrupt = bytes.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x10;
        let err = validate_checkpoint_bytes(&corrupt).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt(_)), "{err}");
        // Truncation also fails integrity, not just framing.
        let err = validate_checkpoint_bytes(&bytes[..bytes.len() - 9]).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt(_)), "{err}");
    }
}
