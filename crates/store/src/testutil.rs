//! Self-cleaning temporary directories for store tests (no external
//! tempfile dependency), and one-call store builds over a document slice.

use crate::{build_blocked_chunked, build_rlz_chunked, BlockCodec, BuildConfig};
use rlz_core::{Dictionary, PairCoding, RlzCompressor};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static COUNTER: AtomicU64 = AtomicU64::new(0);

/// A unique temp directory removed on drop.
pub struct TestDir {
    path: PathBuf,
}

impl TestDir {
    /// Creates `$TMPDIR/rlz-test-{name}-{pid}-{seq}`.
    pub fn new(name: &str) -> Self {
        let seq = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("rlz-test-{name}-{}-{seq}", std::process::id()));
        std::fs::create_dir_all(&path).expect("create test dir");
        TestDir { path }
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Builds an RLZ store of `docs` in `dir` through the chunked pipeline.
pub fn build_rlz<D: AsRef<[u8]> + Sync>(
    dir: &Path,
    dict: Dictionary,
    coding: PairCoding,
    docs: &[D],
) {
    let compressor = RlzCompressor::new(dict, coding);
    build_rlz_chunked(dir, &compressor, docs.iter(), &BuildConfig::default()).expect("rlz build");
}

/// Builds a blocked store of `docs` in `dir` through the chunked pipeline.
pub fn build_blocked<D: AsRef<[u8]> + Sync>(
    dir: &Path,
    docs: &[D],
    codec: BlockCodec,
    block_size: usize,
) {
    build_blocked_chunked(dir, codec, block_size, docs.iter(), &BuildConfig::default())
        .expect("blocked build");
}
