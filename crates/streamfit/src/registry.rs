//! Named streaming sessions, one per served model.

use crate::session::{StreamConfig, StreamSession};
use kgraph::pipeline::KGraphModel;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Sessions keyed by model name. Writes (ingest, refresh) serialise on the
/// per-session mutex; model *readers* never touch this registry at all —
/// they keep reading whatever `Arc` snapshot they hold.
///
/// A session is bound to the model `Arc` it was opened over. When the
/// served model changes underneath it (a re-fit or reload replaced the
/// registry entry), the stale session is discarded and a fresh one opened
/// — buffered deltas refer to node ids of the old graph and must not leak
/// into the new one. Compaction does *not* trip this check: the session
/// itself switched to the compacted `Arc` before the caller published it.
pub struct SessionRegistry {
    cfg: StreamConfig,
    sessions: Mutex<HashMap<String, Arc<Mutex<StreamSession>>>>,
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

impl SessionRegistry {
    /// Registry opening sessions with `cfg`.
    pub fn new(cfg: StreamConfig) -> Self {
        SessionRegistry {
            cfg,
            sessions: Mutex::new(HashMap::new()),
        }
    }

    /// The session for `name` over `model`, opened (or re-opened, if the
    /// served model changed) on demand.
    pub fn session_for(&self, name: &str, model: &Arc<KGraphModel>) -> Arc<Mutex<StreamSession>> {
        let mut sessions = lock(&self.sessions);
        if let Some(existing) = sessions.get(name) {
            if Arc::ptr_eq(lock(existing).model(), model) {
                return Arc::clone(existing);
            }
        }
        let fresh = Arc::new(Mutex::new(StreamSession::new(
            Arc::clone(model),
            self.cfg.clone(),
        )));
        sessions.insert(name.to_string(), Arc::clone(&fresh));
        fresh
    }

    /// Installs a pre-built (e.g. crash-recovered) session under `name`,
    /// replacing any existing one. As with [`session_for`], the session
    /// stays live only while its model `Arc` matches the served one — so
    /// recovery must publish the session's model to the store with the
    /// same `Arc` it restored the session over.
    ///
    /// [`session_for`]: SessionRegistry::session_for
    pub fn install(&self, name: &str, session: StreamSession) -> Arc<Mutex<StreamSession>> {
        let session = Arc::new(Mutex::new(session));
        lock(&self.sessions).insert(name.to_string(), Arc::clone(&session));
        session
    }

    /// The config new sessions are opened with.
    pub fn config(&self) -> &StreamConfig {
        &self.cfg
    }

    /// The session for `name` if one is open, without creating or
    /// validating it.
    pub fn get(&self, name: &str) -> Option<Arc<Mutex<StreamSession>>> {
        lock(&self.sessions).get(name).cloned()
    }

    /// Drops the session of `name` (e.g. when its model is deleted).
    pub fn remove(&self, name: &str) -> bool {
        lock(&self.sessions).remove(name).is_some()
    }

    /// Drops the session of `name` when nothing but the registry holds it
    /// and it has no open series: what a refused first ingest leaves.
    /// Takes the registry lock before the session lock, as
    /// [`session_for`](Self::session_for) does.
    pub fn remove_if_empty(&self, name: &str) {
        let mut sessions = lock(&self.sessions);
        let unused =
            |s: &Arc<Mutex<StreamSession>>| Arc::strong_count(s) == 1 && lock(s).open_series() == 0;
        if sessions.get(name).is_some_and(unused) {
            sessions.remove(name);
        }
    }

    /// Number of open sessions.
    pub fn len(&self) -> usize {
        lock(&self.sessions).len()
    }

    /// Whether no sessions are open.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
