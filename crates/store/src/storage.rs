//! The store's file operations, behind one seam.
//!
//! [`crate::KbStore`] reaches its files only through [`Storage`], by flat
//! file name; [`DirStorage`] is the one that ships, a directory of the file
//! system. Tests drive the store through an in-memory implementation that
//! records every operation and injects crashes and I/O errors between them.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// The five file operations a [`crate::KbStore`] makes. What a write has
/// put in place survives a power loss once it returns; a crash during it
/// leaves the state before or, for [`Storage::append_at`], any byte prefix
/// of the write in place.
pub trait Storage: std::fmt::Debug + Send + Sync {
    /// The names of the files present, in any order.
    fn list(&self) -> io::Result<Vec<String>>;

    /// The whole of file `name`.
    fn read(&self, name: &str) -> io::Result<Vec<u8>>;

    /// Write `bytes` at offset `at` of the existing file `name`, cutting
    /// whatever lies past `at` first, and sync the file's data.
    fn append_at(&self, name: &str, at: u64, bytes: &[u8]) -> io::Result<()>;

    /// Replace (or create) file `name` with `bytes` atomically: a crash
    /// leaves the old file or the new one, whole, never a mix.
    fn replace(&self, name: &str, bytes: &[u8]) -> io::Result<()>;

    /// Delete file `name`. The deletion is durable once a later
    /// [`Storage::replace`] returns.
    fn remove(&self, name: &str) -> io::Result<()>;
}

/// A [`Storage`] on a directory: [`Storage::replace`] writes `<name>.tmp`,
/// syncs it, renames it over `name` and syncs the directory.
#[derive(Debug)]
pub struct DirStorage {
    dir: PathBuf,
}

impl DirStorage {
    /// Use `dir`, creating it if missing, and delete the temp file of a
    /// store file that a crash before its rename left there: nothing reads
    /// one, and it would otherwise stay on disk for good.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        for entry in fs::read_dir(&dir)? {
            let name = entry?.file_name();
            let target = name.to_str().and_then(|name| name.strip_suffix(".tmp"));
            if target.is_some_and(crate::is_store_file) {
                fs::remove_file(dir.join(&name))?;
            }
        }
        Ok(Self { dir })
    }
}

impl Storage for DirStorage {
    fn list(&self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            names.extend(entry?.file_name().into_string().ok());
        }
        Ok(names)
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        fs::read(self.dir.join(name))
    }

    fn append_at(&self, name: &str, at: u64, bytes: &[u8]) -> io::Result<()> {
        let mut file = OpenOptions::new().append(true).open(self.dir.join(name))?;
        if file.metadata()?.len() != at {
            file.set_len(at)?;
        }
        file.write_all(bytes)?;
        file.sync_data()
    }

    fn replace(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let tmp = self.dir.join(format!("{name}.tmp"));
        let mut file = File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        fs::rename(&tmp, self.dir.join(name))?;
        // A rename lives in the directory, not in the file synced before it.
        File::open(&self.dir)?.sync_all()
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        fs::remove_file(self.dir.join(name))
    }
}
