//! Injectable filesystem abstraction for the durability layer.
//!
//! Every byte the journal/snapshot stack persists flows through a [`Vfs`]:
//! [`JournalWriter`](crate::JournalWriter) opens and appends through it,
//! [`read_journal`](crate::read_journal) reads through it, and `cs-now`'s
//! snapshot tmp+fsync+rename path renames through it. Production code uses
//! [`StdVfs`] (a zero-cost shim over `std::fs`); tests and the chaos
//! harness use [`FaultyVfs`] to inject failed writes, short (torn) writes,
//! fsync errors, rename failures and ENOSPC at chosen operation indices —
//! deterministically, from a seed — so every I/O error path is a typed,
//! exercised outcome instead of an assumed success.
//!
//! Fault semantics: each [`FaultKind`] counts operations of its own class
//! (writes for write faults, syncs for sync faults, renames for rename
//! faults), and a [`FaultAt`] entry fires when the class counter reaches
//! its index. Injected errors carry an [`InjectedFault`] payload so
//! consumers can distinguish an injected fault from a real disk error via
//! [`injected_kind`].

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A writable file handle opened through a [`Vfs`].
///
/// The two operations the journal/snapshot layer performs on an open
/// handle: append bytes and force them to stable storage.
pub trait VfsFile: Send + std::fmt::Debug {
    /// Writes the whole buffer (or fails).
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;

    /// Forces written data to stable storage (`fdatasync`).
    fn sync_data(&mut self) -> io::Result<()>;
}

/// The filesystem operations the durability layer performs.
///
/// Deliberately narrow: truncating create, append-at-offset open, whole
/// file read (and a read of a file's first bytes), atomic rename, remove,
/// existence probe. Everything the
/// journal writer, the journal reader and the snapshot tmp+fsync+rename
/// path need — and nothing else, so a fault injector can enumerate the
/// full surface.
pub trait Vfs: Send + Sync + std::fmt::Debug {
    /// Creates (truncating) `path` for writing.
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;

    /// Opens `path` for writing, truncates it to `valid_len` bytes and
    /// positions the cursor at the new end (the journal append path).
    /// Also returns whether the length changed (a torn tail was cut): a
    /// change not yet on stable storage.
    fn open_append(&self, path: &Path, valid_len: u64) -> io::Result<(Box<dyn VfsFile>, bool)>;

    /// Reads the whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Reads at most the first `len` bytes of the file: a header without
    /// the body behind it.
    fn read_head(&self, path: &Path, len: usize) -> io::Result<Vec<u8>> {
        let mut bytes = self.read(path)?;
        bytes.truncate(len);
        Ok(bytes)
    }

    /// Atomically renames `from` over `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Removes a file.
    fn remove(&self, path: &Path) -> io::Result<()>;

    /// True when `path` exists.
    fn exists(&self, path: &Path) -> bool;
}

/// The production [`Vfs`]: a zero-cost shim over `std::fs`.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdVfs;

/// A [`VfsFile`] over a real [`std::fs::File`].
#[derive(Debug)]
pub struct StdVfsFile(pub std::fs::File);

impl VfsFile for StdVfsFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        io::Write::write_all(&mut self.0, buf)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }
}

impl Vfs for StdVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(StdVfsFile(std::fs::File::create(path)?)))
    }

    fn open_append(&self, path: &Path, valid_len: u64) -> io::Result<(Box<dyn VfsFile>, bool)> {
        use std::io::Seek;
        let mut file = std::fs::OpenOptions::new().write(true).open(path)?;
        let cut = file.metadata()?.len() != valid_len;
        if cut {
            file.set_len(valid_len)?;
        }
        file.seek(io::SeekFrom::End(0))?;
        Ok((Box::new(StdVfsFile(file)), cut))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn read_head(&self, path: &Path, len: usize) -> io::Result<Vec<u8>> {
        use std::io::Read;
        let mut bytes = Vec::with_capacity(len);
        std::fs::File::open(path)?
            .take(len as u64)
            .read_to_end(&mut bytes)?;
        Ok(bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

/// The kinds of disk fault [`FaultyVfs`] can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// `write_all` fails outright; nothing reaches the file.
    FailedWrite,
    /// `write_all` persists only the first half of the buffer, then fails
    /// — a torn write, the tail the journal reader must tolerate.
    ShortWrite,
    /// `sync_data` fails; the data may or may not be durable.
    FsyncError,
    /// `rename` fails; the tmp file is left behind (the snapshot
    /// tmp+fsync+rename path must surface this, and start-up sweeps must
    /// clean the orphan).
    RenameFailure,
    /// `write_all` fails with an ENOSPC-shaped error; nothing is written.
    NoSpace,
}

/// All injectable fault kinds, in a stable order (the chaos harness
/// cycles through these).
pub const ALL_FAULT_KINDS: [FaultKind; 5] = [
    FaultKind::FailedWrite,
    FaultKind::ShortWrite,
    FaultKind::FsyncError,
    FaultKind::RenameFailure,
    FaultKind::NoSpace,
];

impl FaultKind {
    /// Stable kebab-case label (used in chaos summaries and tests).
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::FailedWrite => "failed-write",
            FaultKind::ShortWrite => "short-write",
            FaultKind::FsyncError => "fsync-error",
            FaultKind::RenameFailure => "rename-failure",
            FaultKind::NoSpace => "enospc",
        }
    }

    /// The operation class this fault counts: write faults fire on the
    /// N-th write, sync faults on the N-th sync, rename faults on the
    /// N-th rename.
    fn class(self) -> OpClass {
        match self {
            FaultKind::FailedWrite | FaultKind::ShortWrite | FaultKind::NoSpace => OpClass::Write,
            FaultKind::FsyncError => OpClass::Sync,
            FaultKind::RenameFailure => OpClass::Rename,
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpClass {
    Write,
    Sync,
    Rename,
}

/// One planned fault: the `index`-th operation of `kind`'s class fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultAt {
    /// Which fault fires.
    pub kind: FaultKind,
    /// Zero-based index within the fault's operation class (the 0th
    /// write, the 2nd sync, ...).
    pub index: u64,
}

/// The error payload attached to every injected fault, so callers can
/// tell injected faults from real disk errors ([`injected_kind`]).
#[derive(Debug)]
pub struct InjectedFault(pub FaultKind);

impl std::fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0 {
            FaultKind::NoSpace => write!(f, "injected {}: no space left on device", self.0),
            _ => write!(f, "injected {}", self.0),
        }
    }
}

impl std::error::Error for InjectedFault {}

/// Returns the injected [`FaultKind`] if `err` (or its source chain root)
/// was produced by a [`FaultyVfs`].
pub fn injected_kind(err: &io::Error) -> Option<FaultKind> {
    err.get_ref()
        .and_then(|inner| inner.downcast_ref::<InjectedFault>())
        .map(|f| f.0)
}

fn injected_error(kind: FaultKind) -> io::Error {
    io::Error::other(InjectedFault(kind))
}

#[derive(Debug, Default)]
struct FaultState {
    writes: AtomicU64,
    syncs: AtomicU64,
    renames: AtomicU64,
    /// Faults that have fired, in firing order.
    fired: Mutex<Vec<FaultKind>>,
}

/// A fault-injecting [`Vfs`] wrapping [`StdVfs`].
///
/// Holds a plan of [`FaultAt`] entries; each operation increments its
/// class counter, and when a counter crosses a planned index the fault
/// fires (once). All other behaviour delegates to the real filesystem,
/// so partial effects — a short write's surviving prefix, a failed
/// rename's orphaned tmp file — land on disk exactly as a faulty disk
/// would leave them.
#[derive(Debug, Clone)]
pub struct FaultyVfs {
    plan: Vec<FaultAt>,
    state: Arc<FaultState>,
}

impl FaultyVfs {
    /// A faulty VFS with an explicit fault plan.
    pub fn with_plan(plan: &[FaultAt]) -> Self {
        Self {
            plan: plan.to_vec(),
            state: Arc::new(FaultState::default()),
        }
    }

    /// A deterministic single-fault plan derived from `seed`: the fault
    /// kind cycles through [`ALL_FAULT_KINDS`] and the operation index is
    /// drawn from `[0, max_index)` by splitmix64. Two runs with the same
    /// seed inject the identical fault at the identical point.
    pub fn seeded(seed: u64, max_index: u64) -> Self {
        let kind = ALL_FAULT_KINDS[(seed % ALL_FAULT_KINDS.len() as u64) as usize];
        let index = splitmix64(seed) % max_index.max(1);
        Self::with_plan(&[FaultAt { kind, index }])
    }

    /// The faults that actually fired so far, in order. A plan whose
    /// index was never reached fires nothing — callers (chaos trials)
    /// use this to tell a vacuous trial from an exercised one.
    pub fn fired(&self) -> Vec<FaultKind> {
        self.state.fired.lock().unwrap().clone()
    }

    /// Checks whether the next operation of `class` should fail, and if
    /// so records the firing and returns the fault kind.
    fn arm(&self, class: OpClass) -> Option<FaultKind> {
        let counter = match class {
            OpClass::Write => &self.state.writes,
            OpClass::Sync => &self.state.syncs,
            OpClass::Rename => &self.state.renames,
        };
        let index = counter.fetch_add(1, Ordering::SeqCst);
        let hit = self
            .plan
            .iter()
            .find(|f| f.kind.class() == class && f.index == index)?;
        self.state.fired.lock().unwrap().push(hit.kind);
        Some(hit.kind)
    }
}

/// Splitmix64: the standard 64-bit mixer (same constants as the seed
/// expander in `cs-core`).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// A [`VfsFile`] that consults the shared fault plan on every write/sync.
#[derive(Debug)]
pub struct FaultyVfsFile {
    inner: Box<dyn VfsFile>,
    vfs: FaultyVfs,
}

impl VfsFile for FaultyVfsFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        match self.vfs.arm(OpClass::Write) {
            Some(FaultKind::ShortWrite) => {
                // Persist a prefix, then fail: a torn write.
                let half = buf.len() / 2;
                self.inner.write_all(&buf[..half])?;
                Err(injected_error(FaultKind::ShortWrite))
            }
            Some(kind) => Err(injected_error(kind)),
            None => self.inner.write_all(buf),
        }
    }

    fn sync_data(&mut self) -> io::Result<()> {
        match self.vfs.arm(OpClass::Sync) {
            Some(kind) => Err(injected_error(kind)),
            None => self.inner.sync_data(),
        }
    }
}

impl Vfs for FaultyVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(FaultyVfsFile {
            inner: StdVfs.create(path)?,
            vfs: self.clone(),
        }))
    }

    fn open_append(&self, path: &Path, valid_len: u64) -> io::Result<(Box<dyn VfsFile>, bool)> {
        let (inner, cut) = StdVfs.open_append(path, valid_len)?;
        let file = FaultyVfsFile {
            inner,
            vfs: self.clone(),
        };
        Ok((Box::new(file), cut))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        StdVfs.read(path)
    }

    fn read_head(&self, path: &Path, len: usize) -> io::Result<Vec<u8>> {
        StdVfs.read_head(path, len)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match self.arm(OpClass::Rename) {
            Some(kind) => Err(injected_error(kind)),
            None => StdVfs.rename(from, to),
        }
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        StdVfs.remove(path)
    }

    fn exists(&self, path: &Path) -> bool {
        StdVfs.exists(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("cs_obs_vfs_{name}_{}", std::process::id()))
    }

    #[test]
    fn std_vfs_round_trips() {
        let path = tmp("roundtrip");
        {
            let mut f = StdVfs.create(&path).unwrap();
            f.write_all(b"hello\n").unwrap();
            f.sync_data().unwrap();
        }
        assert_eq!(StdVfs.read(&path).unwrap(), b"hello\n");
        assert!(StdVfs.exists(&path));
        let to = tmp("roundtrip2");
        StdVfs.rename(&path, &to).unwrap();
        assert!(!StdVfs.exists(&path));
        StdVfs.remove(&to).unwrap();
        assert!(!StdVfs.exists(&to));
    }

    #[test]
    fn open_append_truncates_and_appends() {
        let path = tmp("append");
        std::fs::write(&path, b"keep\ntorn-tai").unwrap();
        {
            let (mut f, cut) = StdVfs.open_append(&path, 5).unwrap();
            assert!(cut);
            f.write_all(b"more\n").unwrap();
        }
        assert_eq!(StdVfs.read(&path).unwrap(), b"keep\nmore\n");
        // Already the right length: nothing is cut.
        let (_, cut) = StdVfs.open_append(&path, 10).unwrap();
        assert!(!cut);
        StdVfs.remove(&path).ok();
    }

    #[test]
    fn failed_write_fires_at_planned_index() {
        let path = tmp("failed_write");
        let vfs = FaultyVfs::with_plan(&[FaultAt {
            kind: FaultKind::FailedWrite,
            index: 1,
        }]);
        let mut f = vfs.create(&path).unwrap();
        f.write_all(b"first\n").unwrap();
        let err = f.write_all(b"second\n").unwrap_err();
        assert_eq!(injected_kind(&err), Some(FaultKind::FailedWrite));
        // Later writes succeed again: single-shot fault.
        f.write_all(b"third\n").unwrap();
        assert_eq!(vfs.fired(), vec![FaultKind::FailedWrite]);
        assert_eq!(StdVfs.read(&path).unwrap(), b"first\nthird\n");
        StdVfs.remove(&path).ok();
    }

    #[test]
    fn short_write_leaves_a_torn_prefix() {
        let path = tmp("short_write");
        let vfs = FaultyVfs::with_plan(&[FaultAt {
            kind: FaultKind::ShortWrite,
            index: 0,
        }]);
        let mut f = vfs.create(&path).unwrap();
        let err = f.write_all(b"0123456789").unwrap_err();
        assert_eq!(injected_kind(&err), Some(FaultKind::ShortWrite));
        assert_eq!(StdVfs.read(&path).unwrap(), b"01234");
        StdVfs.remove(&path).ok();
    }

    #[test]
    fn fsync_error_fires_on_sync_not_write() {
        let path = tmp("fsync");
        let vfs = FaultyVfs::with_plan(&[FaultAt {
            kind: FaultKind::FsyncError,
            index: 0,
        }]);
        let mut f = vfs.create(&path).unwrap();
        f.write_all(b"data\n").unwrap();
        let err = f.sync_data().unwrap_err();
        assert_eq!(injected_kind(&err), Some(FaultKind::FsyncError));
        StdVfs.remove(&path).ok();
    }

    #[test]
    fn rename_failure_orphans_the_source() {
        let from = tmp("rename_from");
        let to = tmp("rename_to");
        std::fs::write(&from, b"tmp").unwrap();
        let vfs = FaultyVfs::with_plan(&[FaultAt {
            kind: FaultKind::RenameFailure,
            index: 0,
        }]);
        let err = vfs.rename(&from, &to).unwrap_err();
        assert_eq!(injected_kind(&err), Some(FaultKind::RenameFailure));
        assert!(StdVfs.exists(&from), "failed rename leaves the tmp file");
        assert!(!StdVfs.exists(&to));
        StdVfs.remove(&from).ok();
    }

    #[test]
    fn enospc_is_distinguishable() {
        let path = tmp("enospc");
        let vfs = FaultyVfs::with_plan(&[FaultAt {
            kind: FaultKind::NoSpace,
            index: 0,
        }]);
        let mut f = vfs.create(&path).unwrap();
        let err = f.write_all(b"x").unwrap_err();
        assert_eq!(injected_kind(&err), Some(FaultKind::NoSpace));
        assert!(err.to_string().contains("no space left"));
        StdVfs.remove(&path).ok();
    }

    #[test]
    fn seeded_plans_are_deterministic_and_cycle_kinds() {
        for seed in 0..10u64 {
            let a = FaultyVfs::seeded(seed, 8);
            let b = FaultyVfs::seeded(seed, 8);
            assert_eq!(a.plan, b.plan);
        }
        let kinds: std::collections::BTreeSet<_> = (0..5u64)
            .map(|s| FaultyVfs::seeded(s, 8).plan[0].kind)
            .collect();
        assert_eq!(kinds.len(), 5, "five seeds cover all five fault kinds");
    }

    #[test]
    fn real_errors_are_not_reported_as_injected() {
        let err = io::Error::new(io::ErrorKind::NotFound, "no such file");
        assert_eq!(injected_kind(&err), None);
    }
}
