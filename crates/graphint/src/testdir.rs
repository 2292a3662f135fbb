//! Scratch directories for this crate's tests.

use std::path::{Path, PathBuf};

/// A directory under the system temp dir, named by the test's tag and the
/// process id so that neither two tests nor two concurrent `cargo test`
/// runs share one. It is removed on drop, also when the test fails.
pub(crate) struct TempDir(PathBuf);

impl TempDir {
    pub(crate) fn new(tag: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!("graphint-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create temp dir");
        TempDir(path)
    }

    pub(crate) fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
