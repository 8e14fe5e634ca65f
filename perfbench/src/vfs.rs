//! The benchmark's `Vfs`: a wrapper around `OsVfs` that counts every call
//! and the bytes it writes, and records each call as a child span of the
//! enclosing epoch or recovery span.
//!
//! Files opened for appending are the store's logs; files opened with
//! truncation are snapshot images. A checkpoint is therefore the
//! snapshot file's open, write, sync and rename plus the log truncation
//! that follows (a `set_len` on a log and the sync after it); those calls
//! are recorded under `vfs.ckpt.*` names, the per-epoch log traffic under
//! `vfs.append` and `vfs.sync`.

use crate::spans::Recorder;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use store::vfs::{OsVfs, Vfs, VfsFile};

#[derive(Default)]
pub struct IoCounters {
    bytes_written: AtomicU64,
    syncs: AtomicU64,
}

impl IoCounters {
    pub fn written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }

    pub fn syncs(&self) -> u64 {
        self.syncs.load(Ordering::Relaxed)
    }
}

pub struct MeteredVfs {
    rec: Arc<Recorder>,
    io: Arc<IoCounters>,
}

impl MeteredVfs {
    pub fn new(rec: Arc<Recorder>, io: Arc<IoCounters>) -> Self {
        MeteredVfs { rec, io }
    }
}

struct MeteredFile {
    inner: Box<dyn VfsFile>,
    rec: Arc<Recorder>,
    io: Arc<IoCounters>,
    /// Opened with truncation: a snapshot image.
    snapshot: bool,
    /// A log truncation is in progress: its sync belongs to a checkpoint.
    truncating: bool,
}

impl VfsFile for MeteredFile {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        let name = if self.snapshot {
            "vfs.ckpt.write"
        } else {
            "vfs.append"
        };
        self.rec.span(name, || self.inner.append(buf))?;
        self.io
            .bytes_written
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        let name = if self.snapshot {
            "vfs.ckpt.sync"
        } else if self.truncating {
            "vfs.ckpt.truncate_sync"
        } else {
            "vfs.sync"
        };
        self.truncating = false;
        self.io.syncs.fetch_add(1, Ordering::Relaxed);
        self.rec.span(name, || self.inner.sync())
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.truncating = !self.snapshot;
        self.rec
            .span("vfs.ckpt.truncate", || self.inner.set_len(len))
    }

    fn size(&self) -> io::Result<u64> {
        self.inner.size()
    }
}

impl Vfs for MeteredVfs {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.rec
            .span("vfs.create_dir_all", || OsVfs.create_dir_all(path))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.rec.span("vfs.read", || OsVfs.read(path))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let inner = self
            .rec
            .span("vfs.open_append", || OsVfs.open_append(path))?;
        Ok(self.wrap(inner, false))
    }

    fn open_truncate(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let inner = self
            .rec
            .span("vfs.ckpt.open", || OsVfs.open_truncate(path))?;
        Ok(self.wrap(inner, true))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.rec.span("vfs.ckpt.rename", || OsVfs.rename(from, to))
    }
}

impl MeteredVfs {
    fn wrap(&self, inner: Box<dyn VfsFile>, snapshot: bool) -> Box<dyn VfsFile> {
        Box::new(MeteredFile {
            inner,
            rec: Arc::clone(&self.rec),
            io: Arc::clone(&self.io),
            snapshot,
            truncating: false,
        })
    }
}
