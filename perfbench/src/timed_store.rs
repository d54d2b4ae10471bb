//! A [`StoreBackend`] that times and counts entry traffic of the
//! directory backend it wraps, for the traced run.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use modsoc_store::{
    ClaimOutcome, ClaimRequest, EntryMeta, LocalBackend, RawDoc, StoreBackend, StoreError,
};

use crate::trace::SpanLog;

/// Span layer of entry loads.
pub const LOAD_SPAN: &str = "store.load";
/// Span layer of entry writes.
pub const STORE_SPAN: &str = "store.store";

/// Entry traffic through a [`TimedBackend`].
#[derive(Debug, Default)]
pub struct StoreTraffic {
    /// `load_entry` calls.
    pub loads: AtomicU64,
    /// `store_entry` calls.
    pub stores: AtomicU64,
    /// Bytes of entry documents written.
    pub bytes_written: AtomicU64,
}

/// [`LocalBackend`] with every entry load and write recorded as a span.
#[derive(Debug)]
pub struct TimedBackend {
    inner: LocalBackend,
    log: Arc<SpanLog>,
    traffic: Arc<StoreTraffic>,
}

impl TimedBackend {
    /// Wrap `inner`, recording into `log` and `traffic`.
    #[must_use]
    pub fn new(inner: LocalBackend, log: Arc<SpanLog>, traffic: Arc<StoreTraffic>) -> TimedBackend {
        TimedBackend {
            inner,
            log,
            traffic,
        }
    }
}

impl StoreBackend for TimedBackend {
    fn describe(&self) -> String {
        self.inner.describe()
    }

    fn is_remote(&self) -> bool {
        self.inner.is_remote()
    }

    fn local_root(&self) -> Option<&Path> {
        self.inner.local_root()
    }

    fn load_entry(&self, key_hex: &str) -> RawDoc {
        self.traffic.loads.fetch_add(1, Ordering::Relaxed);
        self.log
            .span(LOAD_SPAN, 0, || self.inner.load_entry(key_hex))
    }

    fn store_entry(&self, key_hex: &str, doc: &str) -> Result<u64, StoreError> {
        self.traffic.stores.fetch_add(1, Ordering::Relaxed);
        self.traffic
            .bytes_written
            .fetch_add(doc.len() as u64, Ordering::Relaxed);
        self.log
            .span(STORE_SPAN, 0, || self.inner.store_entry(key_hex, doc))
    }

    fn remove_entry(&self, key_hex: &str, why: &str) -> bool {
        self.inner.remove_entry(key_hex, why)
    }

    fn entry_meta(&self) -> Result<Vec<EntryMeta>, StoreError> {
        self.inner.entry_meta()
    }

    fn verify_all(&self) -> Result<(usize, usize), StoreError> {
        self.inner.verify_all()
    }

    fn load_journal(&self, stem: &str) -> RawDoc {
        self.inner.load_journal(stem)
    }

    fn merge_journal(&self, stem: &str, entry_doc: &str) -> Result<(String, u64), StoreError> {
        self.inner.merge_journal(stem, entry_doc)
    }

    fn remove_journal(&self, stem: &str, why: &str) -> bool {
        self.inner.remove_journal(stem, why)
    }

    fn claim(&self, req: &ClaimRequest<'_>) -> Result<ClaimOutcome, StoreError> {
        self.inner.claim(req)
    }
}
