//! Atomic file writes: the write-temp + fsync + rename discipline.
//!
//! A checkpoint either commits whole or not at all. [`atomic_write`]
//! stages the bytes in a sibling temp file, fsyncs it, then renames it
//! over the destination — on POSIX filesystems the rename is atomic, so
//! a crash (or an injected fault) at any point leaves either the old
//! checkpoint or the new one, never a torn hybrid. The
//! [`crate::sites::CHECKPOINT_IO`] injection site is queried at each
//! stage.

use std::fs::{self, File};
use std::io::Write;
use std::path::Path;

use megablocks_telemetry as telemetry;

use crate::plan::maybe_io_error;
use crate::sites;

/// Writes `bytes` to `path` atomically (temp file + fsync + rename).
///
/// # Errors
///
/// Returns any underlying I/O error (or one injected by an installed
/// fault plan). On error the temp file is removed best-effort and
/// `path` is left exactly as it was.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let _span = telemetry::span("resilience.atomic_write");
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = Path::new(&tmp);

    let result = (|| {
        maybe_io_error(&sites::CHECKPOINT_IO)?;
        let mut f = File::create(tmp)?;
        f.write_all(bytes)?;
        maybe_io_error(&sites::CHECKPOINT_IO)?;
        f.sync_all()?;
        drop(f);
        maybe_io_error(&sites::CHECKPOINT_IO)?;
        fs::rename(tmp, path)
    })();

    if result.is_err() {
        let _ = fs::remove_file(tmp);
    } else {
        telemetry::counter("resilience.checkpoint.committed").inc();
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{clear_plan, install_plan, serial, FaultPlan};

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("megablocks-resilience-io");
        fs::create_dir_all(&dir).expect("scratch dir");
        dir.join(format!("{name}-{}", std::process::id()))
    }

    #[test]
    fn write_then_read_back() {
        let _guard = serial();
        let path = scratch("roundtrip.bin");
        atomic_write(&path, b"hello checkpoint").expect("write");
        assert_eq!(fs::read(&path).expect("read"), b"hello checkpoint");
        // Overwrite in place: the rename replaces the old file.
        atomic_write(&path, b"v2").expect("rewrite");
        assert_eq!(fs::read(&path).expect("read"), b"v2");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn no_temp_file_survives_a_successful_write() {
        let _guard = serial();
        let path = scratch("clean.bin");
        atomic_write(&path, &[1, 2, 3]).expect("write");
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(!Path::new(&tmp).exists(), "temp file leaked");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn injected_io_error_never_tears_the_destination() {
        let _guard = serial();
        let path = scratch("torn.bin");
        atomic_write(&path, b"committed v1").expect("seed write");
        // One failure per stage: write 1 dies before create (1 call
        // consumed), write 2 before fsync (2 calls), write 3 before
        // rename (3 calls).
        install_plan(FaultPlan::seeded(1).at_calls(&sites::CHECKPOINT_IO, &[0, 2, 5]));
        for _ in 0..3 {
            atomic_write(&path, b"should never land").expect_err("injected failure");
            assert_eq!(
                fs::read(&path).expect("read"),
                b"committed v1",
                "destination torn by a failed write"
            );
        }
        clear_plan();
        let _ = fs::remove_file(&path);
    }
}
