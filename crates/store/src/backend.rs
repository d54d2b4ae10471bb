//! Pluggable storage behind the
//! [`ResultStore`](crate::ResultStore) seam.
//!
//! `ResultStore` owns the *semantics* of the store — the entry envelope,
//! the corruption taxonomy, hit/miss/eviction accounting — while a
//! [`StoreBackend`] owns the *storage*: where the raw documents live
//! and how they are read, written, listed and claimed. [`LocalBackend`]
//! is the directory layout (`objects/`, `journals/`, `locks/`,
//! `claims/`), byte-compatible with every store written before the
//! trait existed; other implementations wrap it (e.g. to time its
//! entry traffic) and reach the store through
//! [`ResultStore::with_backend`](crate::ResultStore::with_backend).
//!
//! The trait is deliberately *string-level*: backends move raw JSON
//! documents and never validate them. Validation happens exactly once,
//! on the consuming side, in [`ResultStore`](crate::ResultStore), so
//! every backend shares one corruption taxonomy.
//!
//! # Claims
//!
//! A claim reserves a `(journal, unit)` pair for one owner. It is a
//! lease: it is acquired by a compare-and-swap (`create_new` on the
//! claim file, the same primitive as [`StoreLock`]), renewed by
//! rewriting the file (which bumps its mtime), and broken by any other
//! claimant once its mtime is older than the requested lease — the
//! mtime-style stale-break that lets a killed owner's units be
//! re-offered without coordination.

use crate::journal::sanitize;
use crate::lock::{LockOptions, StoreLock};
use crate::{atomic_write, io_err, StoreError, STORE_FORMAT, STORE_SCHEMA};
use modsoc_metrics::json::{self, JsonValue};
use std::fmt;
use std::fs;
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

/// A raw document as the backend sees it: present (unvalidated text),
/// absent, or present but unreadable (e.g. invalid UTF-8 or an I/O
/// failure mid-read). The consumer decides what each case means.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RawDoc {
    /// The document exists; its text is returned unvalidated.
    Present(String),
    /// No document exists under this name — a plain miss.
    Missing,
    /// A document exists but could not be read; the payload is the
    /// reason, used as the eviction log message.
    Unreadable(String),
}

/// Size and recency of one stored entry, for the GC sweep.
#[derive(Debug, Clone)]
pub struct EntryMeta {
    /// The entry's content address (hex file stem).
    pub key_hex: String,
    /// On-disk size in bytes.
    pub bytes: u64,
    /// Last access time (falls back to mtime where atime is not
    /// tracked); the GC evicts oldest-first on this field.
    pub last_access: SystemTime,
}

/// What a claim call should do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClaimAction {
    /// Take the claim if free (or stale); renew it if already ours.
    Acquire,
    /// Refresh our live claim's lease (bump the mtime).
    Renew,
    /// Drop our claim so the unit is immediately re-offerable.
    Release,
}

/// One claim call against a `(journal, unit)` pair.
#[derive(Debug, Clone)]
pub struct ClaimRequest<'a> {
    /// Journal (campaign) the unit belongs to.
    pub journal: &'a str,
    /// Unit name within the campaign.
    pub unit: &'a str,
    /// Content address the claimant intends to compute.
    pub key: &'a str,
    /// Claimant identity (must match on renew/release).
    pub owner: &'a str,
    /// Lease duration: a claim whose file is older than this is stale
    /// and may be broken by any other claimant.
    pub lease: Duration,
    /// What to do.
    pub action: ClaimAction,
}

/// Result of a claim call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClaimOutcome {
    /// The claim is ours (acquire or renew succeeded).
    Acquired {
        /// `true` when acquiring required breaking another owner's
        /// expired lease — the killed-worker recovery path.
        broke_stale: bool,
    },
    /// Another live owner holds the claim.
    Held {
        /// The current holder, for logs.
        owner: String,
    },
    /// The claim was released (or was already gone).
    Released,
    /// Renew/release failed: the claim is not ours any more (expired
    /// and stolen, or never taken).
    NotOwner,
}

/// Storage seam under [`ResultStore`](crate::ResultStore): raw
/// document I/O plus claims. Implementations move bytes and never
/// validate envelopes — see the module docs.
pub trait StoreBackend: fmt::Debug + Send + Sync {
    /// Human-readable locator (the directory path) for logs.
    fn describe(&self) -> String;

    /// `true` for a backend whose bytes live in another process. Every
    /// backend in this workspace is local and answers `false`.
    fn is_remote(&self) -> bool;

    /// Local root directory, when the backend is a directory.
    fn local_root(&self) -> Option<&Path>;

    /// Read the raw entry document stored under `key_hex`.
    fn load_entry(&self, key_hex: &str) -> RawDoc;

    /// Write `doc` (a full validated envelope) under `key_hex`,
    /// replacing any previous entry. Returns the transient-failure
    /// retry count (reported as `store_retries`).
    ///
    /// # Errors
    ///
    /// [`StoreError`] when the document cannot be durably written.
    fn store_entry(&self, key_hex: &str, doc: &str) -> Result<u64, StoreError>;

    /// Remove the entry under `key_hex` (eviction); logs and returns
    /// whether an entry was removed. Never an error.
    fn remove_entry(&self, key_hex: &str, why: &str) -> bool;

    /// List every stored entry with size and recency, for the GC
    /// sweep.
    ///
    /// # Errors
    ///
    /// [`StoreError`] when the listing fails.
    fn entry_meta(&self) -> Result<Vec<EntryMeta>, StoreError>;

    /// Validate every stored entry and report `(valid, corrupt)`
    /// without evicting anything.
    ///
    /// # Errors
    ///
    /// [`StoreError`] when the store cannot be enumerated.
    fn verify_all(&self) -> Result<(usize, usize), StoreError>;

    /// Read the raw journal document stored under `stem` (already
    /// sanitized).
    fn load_journal(&self, stem: &str) -> RawDoc;

    /// Merge one completion entry document (`{"unit":…,"key":…,
    /// "summary":…}`) into the named journal under the journal's
    /// cross-process lock, and return the merged journal document plus
    /// the write retry count. The merge replaces any existing entry
    /// with the same unit name and keeps everything else — two processes
    /// sharing a journal each keep the other's progress.
    ///
    /// # Errors
    ///
    /// [`StoreError`] when the journal cannot be rewritten or its lock
    /// stays contended.
    fn merge_journal(&self, stem: &str, entry_doc: &str) -> Result<(String, u64), StoreError>;

    /// Remove the named journal (corruption eviction); logs and returns
    /// whether a file was removed.
    fn remove_journal(&self, stem: &str, why: &str) -> bool;

    /// Acquire, renew or release a `(journal, unit)` claim (see the
    /// module docs).
    ///
    /// # Errors
    ///
    /// [`StoreError`] on I/O failure or when CAS races stay unresolved
    /// past a bounded number of rounds.
    fn claim(&self, req: &ClaimRequest<'_>) -> Result<ClaimOutcome, StoreError>;
}

/// The directory-backed store. Layout (byte-compatible
/// with pre-trait stores; `claims/` is created on open and simply
/// empty for stores that predate it):
///
/// ```text
/// <root>/manifest.json            {"format":"modsoc-store","schema":1}
/// <root>/objects/<key-hex>.json   entry envelopes
/// <root>/journals/<stem>.json     campaign completion journals
/// <root>/locks/<stem>.lock        advisory locks (held = file exists)
/// <root>/claims/<j>--<u>.claim    campaign unit leases
/// ```
#[derive(Debug)]
pub struct LocalBackend {
    root: PathBuf,
}

impl LocalBackend {
    /// Open (creating if necessary) the directory store rooted at
    /// `dir`, enforcing the manifest: a corrupt or schema-mismatched
    /// manifest resets the store. Returns the backend plus the number
    /// of files evicted by such a reset.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the directory tree or manifest cannot
    /// be created.
    pub fn open(dir: &Path) -> Result<(LocalBackend, u64), StoreError> {
        let backend = LocalBackend {
            root: dir.to_path_buf(),
        };
        for sub in [
            backend.objects_dir(),
            backend.journals_dir(),
            backend.locks_dir(),
            backend.claims_dir(),
        ] {
            fs::create_dir_all(&sub).map_err(|e| io_err(&sub, e))?;
        }
        let manifest = backend.root.join("manifest.json");
        let mut reset_evictions = 0;
        if !backend.manifest_is_current(&manifest) {
            if manifest.exists() {
                eprintln!(
                    "store: manifest at {} is corrupt or from another schema; resetting store",
                    manifest.display()
                );
                reset_evictions = backend.evict_all();
            }
            let doc = JsonValue::Object(vec![
                (
                    "format".to_string(),
                    JsonValue::String(STORE_FORMAT.to_string()),
                ),
                ("schema".to_string(), JsonValue::Number(STORE_SCHEMA as f64)),
            ]);
            atomic_write(&manifest, &doc.to_compact())?;
        }
        Ok((backend, reset_evictions))
    }

    fn objects_dir(&self) -> PathBuf {
        self.root.join("objects")
    }

    fn journals_dir(&self) -> PathBuf {
        self.root.join("journals")
    }

    fn locks_dir(&self) -> PathBuf {
        self.root.join("locks")
    }

    fn claims_dir(&self) -> PathBuf {
        self.root.join("claims")
    }

    fn entry_path(&self, key_hex: &str) -> PathBuf {
        self.objects_dir().join(format!("{key_hex}.json"))
    }

    fn journal_path(&self, stem: &str) -> PathBuf {
        self.journals_dir().join(format!("{stem}.json"))
    }

    pub(crate) fn journal_lock_path(&self, stem: &str) -> PathBuf {
        self.locks_dir().join(format!("journal-{stem}.lock"))
    }

    pub(crate) fn entry_lock_path(&self, key_hex: &str) -> PathBuf {
        self.locks_dir().join(format!("{key_hex}.lock"))
    }

    fn claim_path(&self, journal: &str, unit: &str) -> PathBuf {
        self.claims_dir()
            .join(format!("{}--{}.claim", sanitize(journal), sanitize(unit)))
    }

    fn manifest_is_current(&self, manifest: &Path) -> bool {
        let Ok(text) = fs::read_to_string(manifest) else {
            return false;
        };
        let Ok(doc) = json::parse(&text) else {
            return false;
        };
        doc.get("format").and_then(JsonValue::as_str) == Some(STORE_FORMAT)
            && doc.get("schema").and_then(JsonValue::as_u64) == Some(STORE_SCHEMA)
    }

    /// Remove every object and journal; returns how many files were
    /// removed. Used when the manifest says the entries cannot be
    /// trusted.
    fn evict_all(&self) -> u64 {
        let mut removed = 0;
        for dir in [self.objects_dir(), self.journals_dir()] {
            let Ok(entries) = fs::read_dir(&dir) else {
                continue;
            };
            for entry in entries.flatten() {
                if fs::remove_file(entry.path()).is_ok() {
                    removed += 1;
                }
            }
        }
        removed
    }

    fn read_doc(path: &Path) -> RawDoc {
        match fs::File::open(path) {
            Err(_) => RawDoc::Missing,
            Ok(mut f) => {
                let mut text = String::new();
                match f.read_to_string(&mut text) {
                    Ok(_) => RawDoc::Present(text),
                    Err(_) => RawDoc::Unreadable("unreadable".to_string()),
                }
            }
        }
    }

    fn claim_owner(path: &Path) -> Option<String> {
        let text = fs::read_to_string(path).ok()?;
        let doc = json::parse(&text).ok()?;
        Some(doc.get("owner")?.as_str()?.to_string())
    }

    fn write_claim(path: &Path, req: &ClaimRequest<'_>) -> Result<fs::File, std::io::Error> {
        let mut f = fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(path)?;
        f.write_all(claim_doc(req).as_bytes())?;
        Ok(f)
    }
}

fn claim_doc(req: &ClaimRequest<'_>) -> String {
    JsonValue::Object(vec![
        (
            "owner".to_string(),
            JsonValue::String(req.owner.to_string()),
        ),
        ("unit".to_string(), JsonValue::String(req.unit.to_string())),
        ("key".to_string(), JsonValue::String(req.key.to_string())),
    ])
    .to_compact()
}

/// CAS rounds before an acquire gives up on a remove/create race.
const CLAIM_ATTEMPTS: u32 = 32;

impl StoreBackend for LocalBackend {
    fn describe(&self) -> String {
        self.root.display().to_string()
    }

    fn is_remote(&self) -> bool {
        false
    }

    fn local_root(&self) -> Option<&Path> {
        Some(&self.root)
    }

    fn load_entry(&self, key_hex: &str) -> RawDoc {
        LocalBackend::read_doc(&self.entry_path(key_hex))
    }

    fn store_entry(&self, key_hex: &str, doc: &str) -> Result<u64, StoreError> {
        let _guard = StoreLock::acquire(&self.entry_lock_path(key_hex), LockOptions::default())?;
        atomic_write(&self.entry_path(key_hex), doc)
    }

    fn remove_entry(&self, key_hex: &str, why: &str) -> bool {
        let path = self.entry_path(key_hex);
        if !path.exists() {
            return false;
        }
        eprintln!("store: evicting {} ({why})", path.display());
        let _ = fs::remove_file(&path);
        true
    }

    fn entry_meta(&self) -> Result<Vec<EntryMeta>, StoreError> {
        let dir = self.objects_dir();
        let entries = fs::read_dir(&dir).map_err(|e| io_err(&dir, e))?;
        let mut metas = Vec::new();
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue; // tmp files and strays are not entries
            }
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            let Ok(meta) = entry.metadata() else {
                continue;
            };
            metas.push(EntryMeta {
                key_hex: stem.to_string(),
                bytes: meta.len(),
                last_access: meta
                    .accessed()
                    .or_else(|_| meta.modified())
                    .unwrap_or(SystemTime::UNIX_EPOCH),
            });
        }
        Ok(metas)
    }

    fn verify_all(&self) -> Result<(usize, usize), StoreError> {
        let dir = self.objects_dir();
        let entries = fs::read_dir(&dir).map_err(|e| io_err(&dir, e))?;
        let (mut valid, mut corrupt) = (0usize, 0usize);
        for entry in entries.flatten() {
            let path = entry.path();
            let stem = path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or_default()
                .to_string();
            let ok = fs::read_to_string(&path)
                .ok()
                .is_some_and(|text| crate::validate_entry_doc(&stem, &text).is_ok());
            if ok {
                valid += 1;
            } else {
                corrupt += 1;
            }
        }
        Ok((valid, corrupt))
    }

    fn load_journal(&self, stem: &str) -> RawDoc {
        LocalBackend::read_doc(&self.journal_path(stem))
    }

    fn merge_journal(&self, stem: &str, entry_doc: &str) -> Result<(String, u64), StoreError> {
        let path = self.journal_path(stem);
        let _guard = StoreLock::acquire(&self.journal_lock_path(stem), LockOptions::default())?;
        let merged = crate::journal::merge_entry_into(&path, entry_doc);
        let retries = atomic_write(&path, &merged)?;
        Ok((merged, retries))
    }

    fn remove_journal(&self, stem: &str, why: &str) -> bool {
        let path = self.journal_path(stem);
        if !path.exists() {
            return false;
        }
        eprintln!("store: evicting journal {} ({why})", path.display());
        let _ = fs::remove_file(&path);
        true
    }

    fn claim(&self, req: &ClaimRequest<'_>) -> Result<ClaimOutcome, StoreError> {
        let path = self.claim_path(req.journal, req.unit);
        match req.action {
            ClaimAction::Acquire => {
                let mut broke_stale = false;
                for _ in 0..CLAIM_ATTEMPTS {
                    match LocalBackend::write_claim(&path, req) {
                        Ok(_) => return Ok(ClaimOutcome::Acquired { broke_stale }),
                        Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                            let age = fs::metadata(&path)
                                .and_then(|m| m.modified())
                                .ok()
                                .and_then(|m| m.elapsed().ok());
                            match age {
                                // Vanished or clock-skewed: retry the CAS.
                                None => continue,
                                Some(age) if age > req.lease => {
                                    // Stale lease: break it and retry. The
                                    // create_new above stays the arbiter —
                                    // if two breakers race, one wins and
                                    // the other loops into Held.
                                    let _ = fs::remove_file(&path);
                                    broke_stale = true;
                                }
                                Some(_) => {
                                    let owner =
                                        LocalBackend::claim_owner(&path).unwrap_or_default();
                                    if owner == req.owner {
                                        // Re-acquiring our own live claim
                                        // just renews the lease.
                                        let _ = fs::write(&path, claim_doc(req));
                                        return Ok(ClaimOutcome::Acquired { broke_stale });
                                    }
                                    return Ok(ClaimOutcome::Held { owner });
                                }
                            }
                        }
                        Err(e) => {
                            let _ = fs::remove_file(&path);
                            return Err(io_err(&path, e));
                        }
                    }
                }
                Err(StoreError::Contended { path })
            }
            ClaimAction::Renew => match LocalBackend::claim_owner(&path) {
                Some(owner) if owner == req.owner => {
                    // Rewrite bumps the mtime, extending the lease.
                    let _ = fs::write(&path, claim_doc(req));
                    Ok(ClaimOutcome::Acquired { broke_stale: false })
                }
                _ => Ok(ClaimOutcome::NotOwner),
            },
            ClaimAction::Release => {
                if !path.exists() {
                    return Ok(ClaimOutcome::Released);
                }
                match LocalBackend::claim_owner(&path) {
                    Some(owner) if owner == req.owner => {
                        let _ = fs::remove_file(&path);
                        Ok(ClaimOutcome::Released)
                    }
                    // Unreadable claim files are treated as abandoned.
                    None => {
                        let _ = fs::remove_file(&path);
                        Ok(ClaimOutcome::Released)
                    }
                    Some(_) => Ok(ClaimOutcome::NotOwner),
                }
            }
        }
    }
}
