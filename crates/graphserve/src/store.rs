//! The in-process model registry: named, `Arc`-shared, immutable fitted
//! models with LRU eviction under a byte budget.
//!
//! ## Zero-lock read path
//!
//! A fitted [`KGraphModel`] is read-only, so the only mutable state is the
//! *registry* mapping names to models. That map is published as an
//! immutable snapshot (`Arc<HashMap<…>>`) plus a version counter: every
//! worker holds a [`StoreReader`] caching the snapshot it last saw, and a
//! request touches the mutex only when the version moved (a model was
//! inserted, removed or evicted). In steady state — the serving hot path —
//! a lookup is one atomic load, one `HashMap` probe, and an `Arc` clone;
//! all graph/feature/score reads then go straight at the shared immutable
//! CSR arrays.
//!
//! ## Eviction
//!
//! Recency is tracked with a logical clock: each hit stamps the entry's
//! atomic `last_used` (a relaxed store — no ordering needed, the stamp is
//! only a heuristic). When an insert pushes the registry past its byte
//! budget ([`kgraph::serial::model_approx_bytes`]), the least-recently
//! used entries are dropped — except the entry being inserted, so a single
//! oversized model still serves.

use crate::lock;
use kgraph::pipeline::KGraphModel;
use kgraph::serial;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tscore::error::TsError;

/// One registered model.
pub struct ModelEntry {
    /// Registry name.
    pub name: String,
    /// The shared immutable model.
    pub model: Arc<KGraphModel>,
    /// Approximate heap footprint, fixed at insert time.
    pub bytes: usize,
    /// Logical-clock stamp of the last hit.
    last_used: AtomicU64,
}

type Snapshot = HashMap<String, Arc<ModelEntry>>;

/// The registry. Cheap to share: workers take one [`StoreReader`] each and
/// never contend on the hot path.
pub struct ModelStore {
    snapshot: Mutex<Arc<Snapshot>>,
    version: AtomicU64,
    clock: AtomicU64,
    budget_bytes: usize,
}

impl ModelStore {
    /// Creates a store evicting past `budget_bytes` (0 = unlimited).
    pub fn new(budget_bytes: usize) -> Self {
        ModelStore {
            snapshot: Mutex::new(Arc::new(HashMap::new())),
            version: AtomicU64::new(0),
            clock: AtomicU64::new(0),
            budget_bytes,
        }
    }

    /// A reader for one worker thread.
    pub fn reader(&self) -> StoreReader<'_> {
        StoreReader {
            store: self,
            cached: self.current(),
            seen_version: self.version.load(Ordering::Acquire),
        }
    }

    fn current(&self) -> Arc<Snapshot> {
        Arc::clone(&lock(&self.snapshot))
    }

    /// Registers (or replaces) `name`, evicting LRU entries while the
    /// registry exceeds its budget. Returns the approximate byte size of
    /// the inserted model.
    pub fn insert(&self, name: &str, model: Arc<KGraphModel>) -> usize {
        self.insert_evicting(name, model, None)
            .map_or(0, |(bytes, _)| bytes)
    }

    /// [`insert`](Self::insert), also returning the names it evicted, so
    /// the caller can drop what it keeps per model (stream sessions). Given
    /// `expected`, a compare-and-swap: `None`, changing nothing, unless
    /// `name` still serves that `Arc`.
    pub fn insert_evicting(
        &self,
        name: &str,
        model: Arc<KGraphModel>,
        expected: Option<&Arc<KGraphModel>>,
    ) -> Option<(usize, Vec<String>)> {
        let bytes = serial::model_approx_bytes(&model);
        let entry = Arc::new(ModelEntry {
            name: name.to_string(),
            model,
            bytes,
            last_used: AtomicU64::new(self.clock.fetch_add(1, Ordering::Relaxed) + 1),
        });
        let mut guard = lock(&self.snapshot);
        let serves = |want| guard.get(name).is_some_and(|e| Arc::ptr_eq(&e.model, want));
        if expected.is_some_and(|want| !serves(want)) {
            return None;
        }
        let mut next: Snapshot = (**guard).clone();
        next.insert(name.to_string(), entry);
        let mut evicted = Vec::new();
        if self.budget_bytes > 0 {
            let mut total: usize = next.values().map(|e| e.bytes).sum();
            while total > self.budget_bytes && next.len() > 1 {
                let victim = next
                    .values()
                    .filter(|e| e.name != name)
                    .min_by_key(|e| e.last_used.load(Ordering::Relaxed))
                    .map(|e| e.name.clone());
                match victim {
                    Some(victim) => {
                        if let Some(dropped) = next.remove(&victim) {
                            total -= dropped.bytes;
                        }
                        evicted.push(victim);
                    }
                    None => break,
                }
            }
        }
        *guard = Arc::new(next);
        self.version.fetch_add(1, Ordering::Release);
        Some((bytes, evicted))
    }

    /// Unregisters `name`; reports whether it existed.
    pub fn remove(&self, name: &str) -> bool {
        let mut guard = lock(&self.snapshot);
        if !guard.contains_key(name) {
            return false;
        }
        let mut next: Snapshot = (**guard).clone();
        next.remove(name);
        *guard = Arc::new(next);
        self.version.fetch_add(1, Ordering::Release);
        true
    }

    /// Loads every `*.kgm` file of `dir` (file stem = model name).
    /// Returns the number of models loaded.
    pub fn load_dir(&self, dir: &Path) -> Result<usize, TsError> {
        let entries = std::fs::read_dir(dir)
            .map_err(|e| TsError::Parse(format!("reading {}: {e}", dir.display())))?;
        let mut loaded = 0usize;
        for entry in entries {
            let path = entry
                .map_err(|e| TsError::Parse(format!("reading {}: {e}", dir.display())))?
                .path();
            if path.extension().and_then(|e| e.to_str()) != Some("kgm") {
                continue;
            }
            let name = path
                .file_stem()
                .and_then(|s| s.to_str())
                .ok_or_else(|| TsError::Parse(format!("bad file name {}", path.display())))?
                .to_string();
            let model = serial::load_model(&path)?;
            self.insert(&name, Arc::new(model));
            loaded += 1;
        }
        Ok(loaded)
    }

    /// Snapshot of the registry for listing: `(name, bytes, k, ℓ̄)`,
    /// sorted by name.
    pub fn list(&self) -> Vec<(String, usize, usize, usize)> {
        let snap = self.current();
        let mut out: Vec<_> = snap
            .values()
            .map(|e| (e.name.clone(), e.bytes, e.model.k(), e.model.best_length()))
            .collect();
        out.sort();
        out
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.current().len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total approximate bytes held.
    pub fn total_bytes(&self) -> usize {
        self.current().values().map(|e| e.bytes).sum()
    }
}

/// A worker's cached view of the registry. `get` is lock-free while the
/// registry version is unchanged.
pub struct StoreReader<'a> {
    store: &'a ModelStore,
    cached: Arc<Snapshot>,
    seen_version: u64,
}

impl StoreReader<'_> {
    /// Looks up a model, refreshing the cached snapshot only when the
    /// registry changed since the last call.
    pub fn get(&mut self, name: &str) -> Option<Arc<KGraphModel>> {
        let version = self.store.version.load(Ordering::Acquire);
        if version != self.seen_version {
            self.cached = self.store.current();
            self.seen_version = version;
        }
        let entry = self.cached.get(name)?;
        entry.last_used.store(
            self.store.clock.fetch_add(1, Ordering::Relaxed) + 1,
            Ordering::Relaxed,
        );
        Some(Arc::clone(&entry.model))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgraph::{KGraph, KGraphConfig};
    use tscore::{Dataset, DatasetKind, TimeSeries};

    fn tiny_model(seed: u64) -> Arc<KGraphModel> {
        let series: Vec<TimeSeries> = (0..6)
            .map(|p| {
                TimeSeries::new(
                    (0..60)
                        .map(|i| ((i + p) as f64 * 0.3 + seed as f64).sin())
                        .collect(),
                )
            })
            .collect();
        let ds = Dataset::new("tiny", DatasetKind::Simulated, series);
        let cfg = KGraphConfig {
            n_lengths: 1,
            psi: 8,
            pca_sample: 200,
            n_init: 1,
            ..KGraphConfig::new(2)
        }
        .with_seed(seed)
        .with_lengths(vec![12]);
        Arc::new(KGraph::new(cfg).fit(&ds))
    }

    #[test]
    fn insert_get_remove() {
        let store = ModelStore::new(0);
        assert!(store.is_empty());
        store.insert("a", tiny_model(1));
        let mut reader = store.reader();
        assert!(reader.get("a").is_some());
        assert!(reader.get("b").is_none());
        assert_eq!(store.len(), 1);
        assert!(store.remove("a"));
        assert!(!store.remove("a"));
        assert!(reader.get("a").is_none(), "reader sees the removal");
    }

    #[test]
    fn reader_cache_survives_unrelated_requests() {
        let store = ModelStore::new(0);
        store.insert("a", tiny_model(1));
        let mut reader = store.reader();
        let first = reader.get("a").unwrap();
        // Steady state: same Arc handed out again and again.
        for _ in 0..100 {
            let again = reader.get("a").unwrap();
            assert!(Arc::ptr_eq(&first, &again));
        }
    }

    #[test]
    fn lru_eviction_under_budget() {
        let store_unbounded = ModelStore::new(0);
        let bytes = store_unbounded.insert("probe", tiny_model(0));
        // Budget for two models; the third insert must evict the LRU.
        let store = ModelStore::new(bytes * 2 + bytes / 2);
        store.insert("a", tiny_model(1));
        store.insert("b", tiny_model(2));
        // Touch "a" so "b" is the LRU.
        store.reader().get("a");
        store.insert("c", tiny_model(3));
        let names: Vec<String> = store.list().into_iter().map(|(n, ..)| n).collect();
        assert_eq!(names, vec!["a", "c"], "LRU entry b evicted");
    }

    /// A compaction publishes with the `Arc` it compacted: over a name
    /// that was evicted or re-fit since, nothing changes.
    #[test]
    fn a_compare_and_swap_insert_needs_the_expected_model() {
        let bytes = ModelStore::new(0).insert("probe", tiny_model(0));
        let store = ModelStore::new(bytes * 3 / 2);
        let (a, c_before_refit) = (tiny_model(1), tiny_model(2));
        store.insert("a", Arc::clone(&a));
        store.insert("b", tiny_model(3));
        store.insert("c", Arc::clone(&c_before_refit));
        store.insert("c", tiny_model(4));
        assert!(store.reader().get("a").is_none(), "a was evicted");
        let listed = store.list();
        let version = store.version.load(Ordering::Acquire);
        for (name, expected) in [("a", &a), ("c", &c_before_refit)] {
            let swapped = store.insert_evicting(name, tiny_model(5), Some(expected));
            assert!(swapped.is_none(), "{name}");
            assert_eq!(store.list(), listed, "{name}");
            assert_eq!(store.version.load(Ordering::Acquire), version, "{name}");
        }
        let served = store.reader().get("c").unwrap();
        let swapped = store.insert_evicting("c", tiny_model(6), Some(&served));
        assert_eq!(swapped.map(|(_, evicted)| evicted), Some(Vec::new()));
        assert!(!Arc::ptr_eq(&store.reader().get("c").unwrap(), &served));
    }

    #[test]
    fn oversized_single_model_still_serves() {
        let store = ModelStore::new(1); // absurdly small budget
        store.insert("big", tiny_model(1));
        assert_eq!(store.len(), 1, "the newest model is never evicted");
        assert!(store.reader().get("big").is_some());
    }

    #[test]
    fn list_reports_metadata() {
        let store = ModelStore::new(0);
        store.insert("m", tiny_model(1));
        let listed = store.list();
        assert_eq!(listed.len(), 1);
        let (name, bytes, k, best_len) = &listed[0];
        assert_eq!(name, "m");
        assert!(*bytes > 0);
        assert_eq!(*k, 2);
        assert_eq!(*best_len, 12);
        assert_eq!(store.total_bytes(), *bytes);
    }

    #[test]
    fn concurrent_readers_share_one_model() {
        let store = Arc::new(ModelStore::new(0));
        store.insert("m", tiny_model(1));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    let mut reader = store.reader();
                    let model = reader.get("m").unwrap();
                    model.best_length()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 12);
        }
    }
}
