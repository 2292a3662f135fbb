//! Filesystem seam for the durability layer.
//!
//! Every byte the durability layer puts on (or reads off) disk goes
//! through the [`Fs`] trait, so tests can interpose a fault-injecting
//! filesystem (`FailFs` in `tests/durability_faults.rs`) and produce the
//! faults a real disk produces — torn writes, silent short writes,
//! `ENOSPC`, failing fsyncs, bit rot on read — without conditional
//! compilation or test-only hooks in the production code path. Production
//! uses [`StdFs`], a thin veneer over `std::fs` that adds the fsync calls
//! `std::fs::write` omits.

use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// An append-only log file handle.
#[allow(clippy::len_without_is_empty)] // len needs &mut (it seeks); is_empty can't match the trait shape
pub trait WalFile: Send {
    /// Appends `bytes` at the end of the file.
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Flushes buffered data *and* metadata to stable storage.
    fn sync(&mut self) -> io::Result<()>;
    /// Truncates (or extends) the file to `len` bytes — the WAL's rollback
    /// primitive after a failed append.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
    /// Current length in bytes.
    fn len(&mut self) -> io::Result<u64>;
}

/// The filesystem operations durability needs. All paths are absolute or
/// relative to the process working directory, exactly as with `std::fs`.
pub trait Fs: Send + Sync {
    /// Creates `path` and any missing parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Reads a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Creates (truncating) `path` with `bytes` and fsyncs the file. Not
    /// atomic on its own — callers write to a temp name and [`rename`]
    /// over the target.
    ///
    /// [`rename`]: Fs::rename
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Atomically renames `from` over `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes a file; `NotFound` is surfaced, not swallowed.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Removes a directory and everything under it.
    fn remove_dir_all(&self, path: &Path) -> io::Result<()>;
    /// The entries of a directory (files and subdirectories, unsorted).
    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>>;
    /// Fsyncs a *directory*, making renames/creates within it durable.
    fn sync_dir(&self, path: &Path) -> io::Result<()>;
    /// Whether `path` exists.
    fn exists(&self, path: &Path) -> bool;
    /// Opens (creating if missing) an append-mode log file.
    fn open_wal(&self, path: &Path) -> io::Result<Box<dyn WalFile>>;
}

// ---------------------------------------------------------------------------
// StdFs
// ---------------------------------------------------------------------------

/// The real filesystem.
#[derive(Debug, Default, Clone, Copy)]
pub struct StdFs;

struct StdWalFile {
    file: File,
}

impl WalFile for StdWalFile {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.file.seek(SeekFrom::End(0))?;
        self.file.write_all(bytes)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_all()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)
    }

    fn len(&mut self) -> io::Result<u64> {
        Ok(self.file.metadata()?.len())
    }
}

impl Fs for StdFs {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut file = File::create(path)?;
        file.write_all(bytes)?;
        file.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_dir_all(path)
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        std::fs::read_dir(path)?
            .map(|e| e.map(|e| e.path()))
            .collect()
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        // Windows cannot open directories; directory fsync is a
        // Unix-durability refinement, so fall back to a no-op there.
        #[cfg(unix)]
        {
            File::open(path)?.sync_all()
        }
        #[cfg(not(unix))]
        {
            let _ = path;
            Ok(())
        }
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn open_wal(&self, path: &Path) -> io::Result<Box<dyn WalFile>> {
        let file = OpenOptions::new()
            .read(true)
            .create(true)
            .append(true)
            .open(path)?;
        Ok(Box::new(StdWalFile { file }))
    }
}
