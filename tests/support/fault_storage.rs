//! An in-memory [`Storage`] that records every operation and injects
//! faults, for driving `KbStore` / `DurableServePipeline` through crashes
//! and I/O errors without touching a disk.
//!
//! Clones of a [`FaultStorage`] are handles onto the same files. It can:
//! - leave what a crash right after operation *i* leaves ([`crash_images`]
//!   on the recorded [`Op`]), including a crash that undoes the last
//!   directory change not yet synced (a removal), or one that tears the
//!   last append, whose bytes are unsynced until it returns, at any byte;
//! - return ENOSPC, a short write, a failed sync or a failed rename as an
//!   error ([`FaultStorage::failing`]), once for every distinct write (the
//!   bytes, where they go, and what the file held before), so a caller
//!   that retries gets through.
//!
//! Included with `#[path]` by the tests that use it.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashSet};
use std::hash::{Hash, Hasher};
use std::io;
use std::sync::{Arc, Mutex, MutexGuard};

use ltee_store::Storage;

/// A store's files: name → content.
pub type Files = BTreeMap<String, Arc<[u8]>>;

/// Which [`Storage`] method an operation was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    List,
    Read,
    Append,
    Replace,
    Remove,
}

/// One operation the storage carried out.
#[derive(Debug, Clone)]
pub struct Op {
    pub kind: OpKind,
    pub name: String,
    /// An append's offset and bytes; empty for the other operations.
    pub at: usize,
    pub bytes: Arc<[u8]>,
    /// The files before and after the operation.
    pub before: Files,
    pub after: Files,
    /// Files removed since the directory was last synced, with their
    /// content, oldest first, as they stand after the operation.
    pub unsynced: Vec<(String, Arc<[u8]>)>,
}

/// A way a write fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// ENOSPC before a byte is written.
    NoSpace,
    /// Half an append's bytes land before the error; a replace's temp
    /// file is cut short, so the file stays as it was.
    ShortWrite,
    /// All the bytes land, then the sync fails; a replace's file stays as
    /// it was.
    FailedSync,
    /// A replace's rename fails; appends go through.
    FailedRename,
}

impl Fault {
    pub const ALL: [Fault; 4] = [Fault::NoSpace, Fault::ShortWrite, Fault::FailedSync, Fault::FailedRename];
}

#[derive(Debug, Default)]
struct State {
    files: Files,
    unsynced: Vec<(String, Arc<[u8]>)>,
    ops: Vec<Op>,
    fault: Option<Fault>,
    /// Writes already failed once, by hash of name, offset, bytes and the
    /// file's content before the write.
    failed: HashSet<u64>,
}

/// The in-memory storage; see the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct FaultStorage(Arc<Mutex<State>>);

impl FaultStorage {
    /// Storage holding `files`.
    pub fn with_files(files: Files) -> Self {
        Self(Arc::new(Mutex::new(State { files, ..State::default() })))
    }

    /// Empty storage on which every distinct write fails once with
    /// `fault` before it goes through.
    pub fn failing(fault: Fault) -> Self {
        Self(Arc::new(Mutex::new(State { fault: Some(fault), ..State::default() })))
    }

    /// The operations carried out so far, in order.
    pub fn ops(&self) -> Vec<Op> {
        self.state().ops.clone()
    }

    /// How many operations were carried out so far.
    pub fn op_count(&self) -> usize {
        self.state().ops.len()
    }

    /// The files as they stand.
    pub fn files(&self) -> Files {
        self.state().files.clone()
    }

    /// How many writes failed.
    pub fn faults_injected(&self) -> usize {
        self.state().failed.len()
    }

    fn state(&self) -> MutexGuard<'_, State> {
        self.0.lock().expect("a thread panicked holding the fault storage")
    }
}

impl State {
    /// The fault this write meets: the storage's, the first time this
    /// write is attempted on this file content (an append has no rename to
    /// fail).
    fn fault_for(&mut self, name: &str, at: usize, bytes: &[u8], append: bool) -> Option<Fault> {
        let fault = self.fault.filter(|&f| !(append && f == Fault::FailedRename))?;
        let mut hasher = DefaultHasher::new();
        (name, at, bytes, self.files.get(name)).hash(&mut hasher);
        self.failed.insert(hasher.finish()).then_some(fault)
    }

    fn record(&mut self, kind: OpKind, name: &str, before: Files, at: usize, bytes: &[u8]) {
        let after = self.files.clone();
        let unsynced = self.unsynced.clone();
        let (name, bytes) = (name.to_string(), Arc::from(bytes));
        self.ops.push(Op { kind, name, at, bytes, before, after, unsynced });
    }

    fn get(&self, name: &str) -> io::Result<Arc<[u8]>> {
        let missing = || io::Error::new(io::ErrorKind::NotFound, name.to_string());
        self.files.get(name).cloned().ok_or_else(missing)
    }
}

impl Storage for FaultStorage {
    fn list(&self) -> io::Result<Vec<String>> {
        let mut state = self.state();
        let names = state.files.keys().cloned().collect();
        let before = state.files.clone();
        state.record(OpKind::List, "", before, 0, &[]);
        Ok(names)
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        let mut state = self.state();
        let content = state.get(name)?.to_vec();
        let before = state.files.clone();
        state.record(OpKind::Read, name, before, 0, &[]);
        Ok(content)
    }

    fn append_at(&self, name: &str, at: u64, bytes: &[u8]) -> io::Result<()> {
        let mut state = self.state();
        let at = at as usize;
        let old = state.get(name)?;
        let fault = state.fault_for(name, at, bytes, true);
        if fault == Some(Fault::NoSpace) {
            return Err(io::Error::other("no space left on device"));
        }
        let landed = if fault == Some(Fault::ShortWrite) { bytes.len() / 2 } else { bytes.len() };
        let before = state.files.clone();
        state.files.insert(name.to_string(), [&old[..at], &bytes[..landed]].concat().into());
        match fault {
            Some(Fault::ShortWrite) => Err(io::Error::new(io::ErrorKind::WriteZero, "short write")),
            Some(_) => Err(io::Error::other("sync failed")),
            None => {
                state.record(OpKind::Append, name, before, at, bytes);
                Ok(())
            }
        }
    }

    fn replace(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let mut state = self.state();
        if let Some(fault) = state.fault_for(name, 0, bytes, false) {
            return Err(io::Error::other(format!("replace failed: {fault:?}")));
        }
        let before = state.files.clone();
        state.files.insert(name.to_string(), Arc::from(bytes));
        // The replace ends with a directory sync.
        state.unsynced.clear();
        state.record(OpKind::Replace, name, before, 0, &[]);
        Ok(())
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        let mut state = self.state();
        let before = state.files.clone();
        let content = state.get(name)?;
        state.files.remove(name);
        state.unsynced.push((name.to_string(), content));
        state.record(OpKind::Remove, name, before, 0, &[]);
        Ok(())
    }
}

/// What a crash at `op` can leave, each with a label: `after` — the
/// operation done; `undone` — done, but the last removal the directory has
/// not synced undone; `torn@k` — an append cut short after its first `k`
/// bytes, for each `k` of `tears` below its length.
pub fn crash_images(op: &Op, tears: &[usize]) -> Vec<(String, Files)> {
    let mut images = vec![("after".to_string(), op.after.clone())];
    if let Some((name, content)) = op.unsynced.last() {
        let mut undone = op.after.clone();
        undone.insert(name.clone(), content.clone());
        images.push(("undone".to_string(), undone));
    }
    if op.kind == OpKind::Append {
        let old = &op.before[&op.name];
        for &k in tears.iter().filter(|&&k| k < op.bytes.len()) {
            let mut torn = op.before.clone();
            torn.insert(op.name.clone(), [&old[..op.at], &op.bytes[..k]].concat().into());
            images.push((format!("torn@{k}"), torn));
        }
    }
    images
}
